import hashlib
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgkit import qdolbeault
from dgkit.ddbar import Bicomplex
from dgkit.deform import DeformationContext, Series
from dgkit.errors import ModelError, PreconditionError
from dgkit.graded import (
    GradedMap,
    GradedSpace,
    StructuredAlgebra,
    adjoint_operator,
    cohomology,
    format_vector,
    induced_map_on_cohomology,
    left_multiplication,
    nonzero_image_witness,
)
from dgkit.linalg import DimensionMismatch, Matrix
from dgkit.modelfile import serialize_connection_model
from dgkit.models import (connection_from_bicomplex, dots_squares_model, end_tensor,
                          nilpotent_torus_model, torus_model)
from dgkit.scalars import ONE, ZERO, Scalar
from strategies import (COEFFS, FRACTIONS, commutator_lie, dense_vectors, dg_algebras, graded_maps,
                        random_algebras, sparse, sparse_vectors, vec, vectors, vscale, vsum)



def test_graded_space_rejects_duplicate_labels():
    with pytest.raises(ModelError):
        GradedSpace({0: ["x"], 1: ["x"]})


def test_graded_map_shift_violation():
    space = GradedSpace({0: ["u"], 2: ["w"]})
    with pytest.raises(ModelError):
        GradedMap.from_entries(space, space, 1, [("u", "w", ONE)])


def test_structure_grading_violation():
    space = GradedSpace({0: ["u"], 1: ["v"]})
    with pytest.raises(ModelError):
        StructuredAlgebra(space, "associative", {},
                          StructuredAlgebra.structure_from_triples([("u", "u", "v", ONE)]))


# -- validate_dg_algebra ------------------------------------------------------


def test_exterior_algebra_zero_differential_validates(exterior2):
    report = exterior2.validate_dg_algebra("d")
    assert report.passed


def test_square_model_validates(square):
    assert square.validate_dg_algebra("d0").passed
    assert square.validate_dg_algebra("d1").passed


def test_leibniz_corruption_detected(square):
    # scaling the unit action on b (one*b = 2b) breaks Leibniz for d1:
    # d1(one*b) = 2e while one*d1(b) = e
    bad_triples = [t for t in square.structure_triples() if t[:2] != ("one", "b")]
    bad_triples.append(("one", "b", "b", Scalar(2)))
    bad = StructuredAlgebra(
        square.space, "associative", square.differentials,
        StructuredAlgebra.structure_from_triples(bad_triples))
    report = bad.validate_dg_algebra("d1")
    failing = [c for c in report.checks if not c.passed]
    assert failing and any("Leibniz" in c.name for c in failing)
    assert all(c.witness is not None for c in failing if "Leibniz" in c.name)


def test_d_squared_failure_names_witness():
    space = GradedSpace({0: ["x"], 1: ["y"], 2: ["z"]})
    d = GradedMap.from_entries(space, space, 1, [("x", "y", ONE), ("y", "z", ONE)])
    alg = StructuredAlgebra(space, "associative", {"d": d}, {})
    report = alg.validate_dg_algebra("d")
    check = next(c for c in report.checks if c.name == "d^2 = 0")
    assert not check.passed and check.witness["label"] == "x"


# -- validate_dgla ------------------------------------------------------------


def test_abelian_bracket_validates():
    space = GradedSpace({0: ["x"], 1: ["y"]})
    d = GradedMap.from_entries(space, space, 1, [("x", "y", ONE)])
    lie = StructuredAlgebra(space, "lie", {"d": d}, {})
    assert lie.validate_dgla("d").passed


def test_gl2_commutator_is_valid_dgla(gl2):
    assert commutator_lie(gl2).validate_dgla("d").passed
    # commutator bracket: [E12, E21] = E11 - E22
    (_, e12), (_, e21) = gl2.space.basis_vector("E12"), gl2.space.basis_vector("E21")
    assert gl2.bracket(0, e12, 0, e21) == vec(1, 0, 0, -1)


def test_jacobi_violation_detected(gl2):
    lie = commutator_lie(gl2)
    triples = lie.structure_triples() + [("E11", "E11", "E11", ONE)]
    bad = StructuredAlgebra(lie.space, "lie", lie.differentials,
                            StructuredAlgebra.structure_from_triples(triples))
    report = bad.validate_dgla("d")
    assert not report.passed


def test_commutator_of_square_satisfies_jacobi(square):
    assert commutator_lie(square).validate_dgla("d0").passed


# -- cohomology ---------------------------------------------------------------


def test_zero_differential_cohomology_is_identity(exterior2):
    h = cohomology(exterior2, "d")
    assert h.dims() == {0: 1, 1: 2, 2: 1}
    # induced structure matches the original one (exterior algebra on 2 gens)
    halg = h.as_algebra()
    assert halg.mul_labels("h1_0", "h1_1") == {"h2_0": ONE}
    assert halg.mul_labels("h1_1", "h1_0") == {"h2_0": Scalar(-1)}
    assert h.check_well_defined().passed


def test_square_d1_cohomology_vanishes_in_positive_degrees(square):
    h = cohomology(square, "d1")
    # only the unit survives: a0 maps to c, b maps to e
    assert h.dims() == {0: 1}


def test_cohomology_rejects_non_square_zero():
    space = GradedSpace({0: ["x"], 1: ["y"], 2: ["z"]})
    d = GradedMap.from_entries(space, space, 1, [("x", "y", ONE), ("y", "z", ONE)])
    alg = StructuredAlgebra(space, "associative", {"d": d}, {})
    with pytest.raises(PreconditionError):
        cohomology(alg, "d")


def test_product_of_classes_is_class_of_product(exterior2):
    h = cohomology(exterior2, "d")
    k1, v1 = exterior2.space.basis_vector("g1")
    k2, v2 = exterior2.space.basis_vector("g2")
    prod = exterior2.mul(k1, v1, k2, v2)
    assert h.project(2, [prod]) == [vec(1)]


def test_induced_map_on_cohomology_functorial(square):
    # the identity chain map induces the identity on cohomology
    h = cohomology(square, "d1")
    ident = GradedMap.identity(square.space)
    mats = induced_map_on_cohomology(ident, h, h)
    for k, m in mats.items():
        assert m == Matrix.identity(h.dim(k))


def test_chain_map_respects_representatives(square):
    # multiplication by 2 is a chain map; induced map is 2*id
    two = GradedMap.identity(square.space).scale(Scalar(2))
    h = cohomology(square, "d0")
    mats = induced_map_on_cohomology(two, h, h)
    for k, m in mats.items():
        assert m == Matrix.identity(h.dim(k)).scale(Scalar(2))


def test_representative_independence_with_boundaries():
    from dgkit.models import dots_squares_model, end_tensor

    b = end_tensor(dots_squares_model({0: 1, 1: 1}, [0], seed=14), 2)
    h = cohomology(b.algebra, "d0")
    assert h.check_well_defined().passed


def test_unknown_differential_name_rejected(exterior2):
    with pytest.raises(ModelError):
        exterior2.validate_dg_algebra("nonexistent")
    with pytest.raises(ModelError):
        cohomology(exterior2, "nonexistent")


def test_well_definedness_failure_names_the_leibniz_pair():
    # d a = b, and b * x = y makes the boundary b shift [y * x] = 0 to [y];
    # Leibniz fails at (a, x): d(a x) = 0 but d(a) x = y
    space = GradedSpace({0: ["x", "a"], 1: ["b", "y"]})
    d = GradedMap.from_entries(space, space, 1, [("a", "b", ONE)])
    alg = StructuredAlgebra(space, "associative", {"d": d},
                            StructuredAlgebra.structure_from_triples([("b", "x", "y", ONE)]))
    check = cohomology(alg, "d").check_well_defined().checks[0]
    assert not check.passed
    assert check.to_json() == {"name": "Leibniz(d)", "passed": False,
                               "witness": {"pair": ["a", "x"], "difference": [["y", "-1"]]}}
    assert check == alg.validate_dg_algebra("d").checks[1]


def test_well_definedness_checks_the_right_factor():
    # d c = b, and x * b = w: [x * w'] for w' = w + b moves from 0 to [w];
    # Leibniz fails at (x, c): d(x c) = 0 but x d(c) = w
    space = GradedSpace({0: ["x", "c"], 1: ["b", "w"]})
    d = GradedMap.from_entries(space, space, 1, [("c", "b", ONE)])
    alg = StructuredAlgebra(space, "associative", {"d": d},
                            StructuredAlgebra.structure_from_triples([("x", "b", "w", ONE)]))
    h = cohomology(alg, "d")
    assert h.induced_structure() == {}
    check = h.check_well_defined().checks[0]
    assert not check.passed
    assert check.witness == {"pair": ["x", "c"], "difference": [["w", "-1"]]}
    assert check == alg.validate_dg_algebra("d").checks[1]


# -- index-keyed products against the former label-keyed loop ------------------


def reference_mul(alg, k1, v1, k2, v2):
    """The former StructuredAlgebra.mul: the bilinear extension of the
    structure constants, looked up by label pair, into a dense list."""
    k = k1 + k2
    out = [ZERO] * alg.space.dim(k)
    labels1 = alg.space.labels(k1)
    labels2 = alg.space.labels(k2)
    nz1 = [(labels1[i], c) for i, c in v1.items()]
    nz2 = [(labels2[j], c) for j, c in v2.items()]
    loc = alg.space.label_loc
    for l1, c1 in nz1:
        for l2, c2 in nz2:
            targets = alg.structure.get((l1, l2))
            if not targets:
                continue
            c = c1 * c2
            for lt, ct in targets.items():
                idx = loc[lt][1]
                out[idx] = out[idx] + c * ct
    return sparse(out)


def label_times(alg, label, k, v, label_first):
    """label * v (label_first) or v * label, the label as its basis vector."""
    kl, unit = alg.space.basis_vector(label)
    return alg.mul(kl, unit, k, v) if label_first else alg.mul(k, v, kl, unit)


def test_products_drop_cancelled_entries():
    # a*x = t and a*y = -t, so a*(x + y) = 0 on both sides
    space = GradedSpace({0: ["x", "y"], 1: ["a", "t"]})
    triples = [("a", "x", "t", ONE), ("a", "y", "t", -ONE),
               ("x", "a", "t", ONE), ("y", "a", "t", -ONE)]
    alg = StructuredAlgebra(space, "associative", {},
                            StructuredAlgebra.structure_from_triples(triples))
    for label_first in (True, False):
        assert label_times(alg, "a", 0, vec(1, 1), label_first) == {}
        assert label_times(alg, "a", 0, vec(0, 2), label_first) == {1: Scalar(-2)}


def assert_products_match_the_reference(alg, k1, v1, k2, v2):
    """v1 * v2, and every label times v2 on either side, against the
    former label-keyed loop; no product stores a zero."""
    space = alg.space
    got = alg.mul(k1, v1, k2, v2)
    assert got == reference_mul(alg, k1, v1, k2, v2)
    assert all(not c.is_zero() for c in got.values())
    for label in space.all_labels():
        kl, unit = space.basis_vector(label)
        for label_first, want in ((True, reference_mul(alg, kl, unit, k2, v2)),
                                  (False, reference_mul(alg, k2, v2, kl, unit))):
            got = label_times(alg, label, k2, v2, label_first)
            assert got == want
            assert all(not c.is_zero() for c in got.values())


@settings(max_examples=150, deadline=None)
@given(random_algebras(), st.data())
def test_products_match_the_reference(alg, data):
    space = alg.space
    degrees = space.degrees() + [3]  # random_algebras leaves degree 3 empty
    k1 = data.draw(st.sampled_from(degrees))
    k2 = data.draw(st.sampled_from(degrees))
    v1 = data.draw(sparse_vectors(space.dim(k1)))
    v2 = data.draw(sparse_vectors(space.dim(k2)))
    assert_products_match_the_reference(alg, k1, v1, k2, v2)


MIXED = COEFFS + FRACTIONS


def one_entry_vectors(n):
    """Vectors with one non-zero entry, so that a dense v1 times one of them
    meets several rows but a single v2 entry."""
    if not n:
        return st.just({})
    return st.tuples(st.integers(0, n - 1), st.sampled_from(MIXED)).map(lambda ic: {ic[0]: ic[1]})


def mixed_vectors(n):
    return st.one_of(sparse_vectors(n, MIXED), dense_vectors(n, MIXED), one_entry_vectors(n))


@settings(max_examples=150, deadline=None)
@given(random_algebras(coeffs=MIXED), st.data())
def test_products_over_mixed_denominators_match_the_reference(alg, data):
    space = alg.space
    k1 = data.draw(st.sampled_from(space.degrees() + [3]))
    k2 = data.draw(st.sampled_from(space.degrees() + [3]))
    v1 = data.draw(mixed_vectors(space.dim(k1)))
    v2 = data.draw(mixed_vectors(space.dim(k2)))
    assert_products_match_the_reference(alg, k1, v1, k2, v2)


def test_fractional_products_are_reduced_once_and_cancel_to_zero():
    # x*x = 1/2 t + 3/4 u, x*y = 1/3 t and y*x = -1/3 t: three denominators
    space = GradedSpace({1: ["x", "y"], 2: ["t", "u"]})
    q = Fraction
    alg = StructuredAlgebra(space, "associative", {}, StructuredAlgebra.structure_from_triples([
        ("x", "x", "t", Scalar(q(1, 2))), ("x", "x", "u", Scalar(q(3, 4))),
        ("x", "y", "t", Scalar(q(1, 3))), ("y", "x", "t", Scalar(q(-1, 3)))]))
    # v = 2/3 x + 5/6 i y: v*v = 4/9 x*x = 2/9 t + 1/3 u, as the x*y and y*x
    # terms cancel
    v = vec(q(2, 3), Scalar(0, q(5, 6)))
    assert alg.mul(1, v, 1, v) == vec(q(2, 9), q(1, 3))
    assert alg.mul(1, v, 1, v) == reference_mul(alg, 1, v, 1, v)
    assert alg.mul(1, vec(q(2, 3)), 1, vec(0, q(1, 2))) == vec(q(1, 9))
    # v meets the rows of x and y, the second operand is one entry: v * 1/2 y = 1/9 t
    assert alg.mul(1, v, 1, vec(0, q(1, 2))) == vec(q(1, 9))
    assert alg.mul(2, vec(1, 1), 1, v) == {}
    # 3/2 y * x = -1/2 t; x * (1/3 x + 1/2 y) = 1/6 t + 1/4 u + 1/6 t
    assert label_times(alg, "x", 1, vec(0, q(3, 2)), False) == vec(q(-1, 2))
    assert label_times(alg, "x", 1, vec(q(1, 3), q(1, 2)), True) == vec(q(1, 3), q(1, 4))
    assert label_times(alg, "y", 1, vec(3), True) == vec(-1)
    # (3x + y)(x + 3y) = 3 x*x + 9 x*y + y*x = (3/2 + 3 - 1/3) t + 9/4 u
    assert alg.mul(1, vec(3, 1), 1, vec(1, 3)) == vec(q(25, 6), q(9, 4))


def test_apply_skips_missing_blocks_but_checks_the_length():
    space = GradedSpace({0: ["x"], 1: ["y", "z"]})
    f = GradedMap.from_entries(space, space, 1, [])
    assert f.apply(0, vec(1)) == {}
    assert f.apply(1, vec(1, 1)) == {}
    with pytest.raises(DimensionMismatch):
        f.apply(0, vec(1, 1))


def test_products_and_table_operators_check_the_indices():
    """An index outside its degree is refused on either operand, also where
    the table has no row for it, instead of being dropped."""
    space = GradedSpace({0: ["x"], 1: ["y", "z"]})
    alg = StructuredAlgebra(space, "associative", {},
                            StructuredAlgebra.structure_from_triples([("x", "y", "z", ONE)]))
    assert alg.mul(0, vec(1), 1, vec(1)) == vec(0, 1)
    for args in ((0, {1: ONE}, 1, vec(1)), (0, vec(1), 1, {2: ONE}),
                 (0, {0: ONE, 1: ONE}, 1, vec(1, 1)), (0, vec(1), 1, {-1: ONE})):
        for product in (alg.mul, alg.bracket):
            with pytest.raises(DimensionMismatch):
                product(*args)
    for operator in (left_multiplication, adjoint_operator):
        assert operator(alg, 0, vec(1)).apply(1, vec(1)) == vec(0, 1)
        with pytest.raises(DimensionMismatch):
            operator(alg, 0, {1: ONE})


# -- pinned reports on broken models --------------------------------------------

BROKEN_MODELS = {
    # d0^2 != 0, neither differential is a derivation, and the product is
    # not associative
    "nonassoc.model": """kind associative

degrees
0 : one u
1 : a b
2 : c

map d0 shift 1
u -> a : 1
a -> c : 1

map d1 shift 1
u -> b : 1/2

structure
one one -> one : 1
one u -> u : 1
u one -> u : 1
u u -> one : 1
u u -> u : 1
one a -> a : 1
a one -> a : 1
one b -> b : 1
b one -> b : 1
u a -> b : 1
a u -> a : 2
a b -> c : 1
b a -> c : -1
""",
    # a bicomplex whose differentials are not derivations.  At the pair
    # (a0, a0), d1(a0 a0) = c and d1(a0) a0 + a0 d1(a0) = 2c + b, so the d1
    # witness difference is c - (2c + b), listed as [c, b]; subtracting the
    # two terms one by one would cancel c first and list [b, c]
    "leibniz.model": """kind associative

degrees
0 : one a0
1 : b c
2 : e f

map d0 shift 1
a0 -> b : 1
c -> e : -1

map d1 shift 1
a0 -> c : 1
b -> e : 1

structure
one one -> one : 1
one a0 -> a0 : 1
a0 one -> a0 : 1
one b -> b : 1
b one -> b : 1
one c -> c : 1
c one -> c : 1
one e -> e : 1
e one -> e : 1
one f -> f : 1
f one -> f : 1
a0 a0 -> a0 : 1
a0 c -> b : 1
a0 c -> c : 1
c a0 -> c : 1
b c -> f : 1+1*i
c b -> e : 1
""",
    # every DGLA check fails: d^2, Leibniz, skew-symmetry, Jacobi, char 0
    "badlie.model": """kind lie

degrees
0 : x y
1 : z w
2 : s t
3 : r

map d shift 1
x -> z : 1
y -> w : -1
z -> s : 2
w -> t : 1

structure
x x -> x : 1
x y -> y : 1
y x -> y : 1
x z -> w : 1
z x -> w : 1
z z -> s : 1/2
w w -> t : 0+1*i
z s -> r : 1
s z -> r : -1
y t -> t : 1
""",
    # a connection model that fails autoduality at a negative degree:
    # del_bar_J del_bar u = a, while del_bar del_bar_J vanishes
    "noautodual.model": """kind associative

degrees
-1 : u
0 : one
1 : a

map del_bar shift 1
u -> one : 1

map del_bar_J shift 1
one -> a : 1
""",
}

# exit code and sha256 of the `--format json` reports, run in the directory
# of the model files; the validate and leibniz.model reports were recorded
# before the axiom checks shared one sparse accumulator, the others before
# each square, anticommutator and autoduality verdict was formed once
BROKEN_REPORT_SHA256 = {
    ("validate", "nonassoc.model"):
        (1, "e5d3cc3df740d7eff5fa7266fe715479838f20ffa243d0bf9be4765539a73bfc"),
    ("validate", "leibniz.model"):
        (1, "9bc2a821f5ed99ab4d0245545a6fe97d5d96cfd40ee851f8d5da60f67e1e7b98"),
    ("validate", "badlie.model"):
        (1, "9fb86665d9de55955e2c0783b67389e96e461269114800f9bc77a23f5647f429"),
    ("dgms", "leibniz.model"):
        (0, "69a08cc37b3bf64972bdf29d2bf1ab260b9ed289fe67919fe27c55b435b98bd5"),
    ("dgms", "--d0", "d1", "--d1", "d0", "leibniz.model"):
        (0, "d456699af2a11009bfbbf02b5ff78d792c8ef5781208db7b78bf11a3cefe5d01"),
    ("dgms", "nonassoc.model"):
        (1, "b716ef723141845a06181e0faa62c6067de3578ff194be8e7636479125f9eb5c"),
    ("dgms", "--d0", "d1", "--d1", "d0", "nonassoc.model"):
        (1, "9432c7e1e5873b79fe3fd97a00fb1dcad61cd9ece6cea86cfb281ba4675b9c80"),
    ("cohomology", "--differential", "d0", "nonassoc.model"):
        (1, "3b862f2a5bab88b6b93a9dc4af6771aff4b93bd4c8d95167de2ed482ae7f23da"),
    ("qdolbeault", "noautodual.model"):
        (1, "a2c46cd9064d5c394acd8aeb0da19a1881b030bde9c4f84149733a0e85b16119"),
    ("dgms", "noautodual.model"):
        (1, "6faef61a31e0e02c5de65f9959f2881bec18c0f1df01d1866ff974bc4ac3e344"),
    # "model is not autodual: del_bar del_bar_J + del_bar_J del_bar = 0 fails
    # at u"; the report named no relation before
    ("spectral", "noautodual.model"):
        (1, "eafa89bf406baaedc2556073c0129b966c5728bd14fcaa5d194aa9938a3caa35"),
    ("deform", "noautodual.model"):
        (1, "ec791d9086363e156a3283002229e6ff8df469e0147aa39795dbf569f54e28f8"),
}


@pytest.fixture(scope="module")
def broken_models(cli_run):
    """cli_run in a directory holding BROKEN_MODELS."""
    for name, text in BROKEN_MODELS.items():
        (cli_run.workdir / name).write_text(text)
    return cli_run


@pytest.mark.parametrize("argv", list(BROKEN_REPORT_SHA256), ids=" ".join)
def test_broken_model_reports_are_pinned(broken_models, argv):
    code, out = broken_models("--format", "json", *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == BROKEN_REPORT_SHA256[argv]


# -- the former axiom loops as oracles -------------------------------------------


def _ref_sparse_add(a, b):
    out = dict(a)
    for l, c in b.items():
        acc = out.get(l, ZERO) + c
        if acc.is_zero():
            out.pop(l, None)
        else:
            out[l] = acc
    return out


def _ref_sparse_scale(c, s):
    return {l: c * v for l, v in s.items()}


def _ref_sparse_is_zero(s):
    return all(c.is_zero() for c in s.values())


def ref_nonzero_image(op):
    """The former d^2 witness: the first label of the first non-zero block
    whose image is non-zero, found by applying op to unit vectors."""
    space = op.source
    bad = next((k for k, m in op.blocks.items() if not m.is_zero()), None)
    if bad is None:
        return None
    lab = next(l for l in space.labels(bad)
               if (op.apply(bad, space.basis_vector(l)[1])))
    img = op.apply(bad, space.basis_vector(lab)[1])
    return {"label": lab, "image": format_vector(op.target, bad + op.shift, img)}


def ref_leibniz(alg, d):
    table = d.label_table()
    labels = [(l, alg.space.degree_of(l)) for l in alg.space.all_labels()]
    for l1, k1 in labels:
        d1 = table[l1]
        for l2, k2 in labels:
            d2 = table[l2]
            p12 = alg.structure.get((l1, l2))
            relevant = p12 or any((t, l2) in alg.structure for t in d1) \
                or any((l1, t) in alg.structure for t in d2)
            if not relevant:
                continue
            lhs = {}
            if p12:
                for lt, c in p12.items():
                    for lu, cu in table[lt].items():
                        lhs = _ref_sparse_add(lhs, {lu: c * cu})
            rhs = {}
            for t, c in d1.items():
                rhs = _ref_sparse_add(rhs, _ref_sparse_scale(c, alg.mul_labels(t, l2)))
            sign = ONE if k1 % 2 == 0 else -ONE
            for t, c in d2.items():
                rhs = _ref_sparse_add(rhs, _ref_sparse_scale(sign * c, alg.mul_labels(l1, t)))
            diff = _ref_sparse_add(lhs, _ref_sparse_scale(-ONE, rhs))
            if not _ref_sparse_is_zero(diff):
                return {"pair": [l1, l2], "difference": [[l, str(c)] for l, c in diff.items()]}
    return None


def ref_associativity(alg):
    labels = alg.space.all_labels()
    candidates = set()
    for (a, b) in alg.structure:
        for c in labels:
            candidates.add((a, b, c))
            candidates.add((c, a, b))
    for l1, l2, l3 in sorted(candidates):
        lhs = {}
        for lt, c in alg.mul_labels(l1, l2).items():
            lhs = _ref_sparse_add(lhs, _ref_sparse_scale(c, alg.mul_labels(lt, l3)))
        rhs = {}
        for lt, c in alg.mul_labels(l2, l3).items():
            rhs = _ref_sparse_add(rhs, _ref_sparse_scale(c, alg.mul_labels(l1, lt)))
        if not _ref_sparse_is_zero(_ref_sparse_add(lhs, _ref_sparse_scale(-ONE, rhs))):
            return {"triple": [l1, l2, l3]}
    return None


def ref_skew_symmetry(lie):
    for (l1, l2) in sorted(set(lie.structure) | {(b, a) for (a, b) in lie.structure}):
        k1, k2 = lie.space.degree_of(l1), lie.space.degree_of(l2)
        koszul = ONE if (k1 * k2) % 2 == 0 else -ONE
        diff = _ref_sparse_add(lie.mul_labels(l1, l2),
                               _ref_sparse_scale(koszul, lie.mul_labels(l2, l1)))
        if not _ref_sparse_is_zero(diff):
            return {"pair": [l1, l2]}
    return None


def ref_jacobi(lie):
    labels = lie.space.all_labels()
    candidates = set()
    for (a, b) in lie.structure:
        for c in labels:
            candidates.update({(c, a, b), (a, b, c), (a, c, b)})
    for l1, l2, l3 in sorted(candidates):
        k1, k2 = lie.space.degree_of(l1), lie.space.degree_of(l2)
        lhs = {}
        for lt, c in lie.mul_labels(l2, l3).items():
            lhs = _ref_sparse_add(lhs, _ref_sparse_scale(c, lie.mul_labels(l1, lt)))
        rhs = {}
        for lt, c in lie.mul_labels(l1, l2).items():
            rhs = _ref_sparse_add(rhs, _ref_sparse_scale(c, lie.mul_labels(lt, l3)))
        sign = ONE if (k1 * k2) % 2 == 0 else -ONE
        for lt, c in lie.mul_labels(l1, l3).items():
            rhs = _ref_sparse_add(rhs, _ref_sparse_scale(sign * c, lie.mul_labels(l2, lt)))
        if not _ref_sparse_is_zero(_ref_sparse_add(lhs, _ref_sparse_scale(-ONE, rhs))):
            return {"triple": [l1, l2, l3]}
    return None


def ref_char0(lie):
    for lab in lie.space.all_labels():
        sq = lie.mul_labels(lab, lab)
        if lie.space.degree_of(lab) % 2 == 0:
            if not _ref_sparse_is_zero(sq):
                return {"label": lab, "identity": "[a,a]=0 (even)"}
        else:
            bianchi = {}
            for lt, c in sq.items():
                bianchi = _ref_sparse_add(bianchi, _ref_sparse_scale(c, lie.mul_labels(lab, lt)))
            if not _ref_sparse_is_zero(bianchi):
                return {"label": lab, "identity": "[a,[a,a]]=0 (odd)"}
    return None


def checks_of(report):
    return [(c.name, c.passed, c.witness) for c in report.checks]


def check(name, witness):
    return (name, witness is None, witness)


axiom_oracle = settings(max_examples=150, deadline=None)


@axiom_oracle
@given(dg_algebras())
def test_dg_algebra_checks_match_the_former_loops(alg):
    d = alg.differential("d")
    assert checks_of(alg.validate_dg_algebra("d")) == [
        check("d^2 = 0", ref_nonzero_image(d.compose(d))),
        check("Leibniz(d)", ref_leibniz(alg, d)),
        check("associativity", ref_associativity(alg)),
    ]


@axiom_oracle
@given(dg_algebras("lie"))
def test_dgla_checks_match_the_former_loops(lie):
    d = lie.differential("d")
    assert checks_of(lie.validate_dgla("d")) == [
        check("d^2 = 0", ref_nonzero_image(d.compose(d))),
        check("Leibniz(d)", ref_leibniz(lie, d)),
        check("skew-symmetry", ref_skew_symmetry(lie)),
        check("Jacobi", ref_jacobi(lie)),
        check("char-0 consequences", ref_char0(lie)),
    ]


@axiom_oracle
@given(dg_algebras(), st.data())
def test_bracket_matches_the_commutator_oracle(alg, data):
    """`bracket` of an associative algebra is the product of the lie algebra
    of its graded commutator, on basis pairs and on vectors of every shape,
    and deformation contexts over the two agree."""
    lie = commutator_lie(alg)
    space = alg.space
    # the commutator of any product is skew; the Jacobi identity needs an
    # associative product
    assert ref_skew_symmetry(lie) is None
    if alg.validate_dg_algebra("d").passed:
        assert lie.validate_dgla("d").passed
    basis = [space.basis_vector(lab) for lab in space.all_labels()]
    for k1, v1 in basis:
        for k2, v2 in basis:
            assert alg.bracket(k1, v1, k2, v2) == lie.mul(k1, v1, k2, v2)
    for k1 in space.degrees():
        for k2 in space.degrees():
            v1, v2 = data.draw(vectors(space.dim(k1))), data.draw(vectors(space.dim(k2)))
            assert alg.bracket(k1, v1, k2, v2) == lie.mul(k1, v1, k2, v2)
    order = data.draw(st.integers(2, 4))
    x, a = (Series(k, [{}] + [data.draw(vectors(space.dim(k))) for _ in range(order - 1)])
            for k in (1, 0))
    over_alg, over_lie = DeformationContext(alg, "d"), DeformationContext(lie, "d")
    for mode in ("classical", "strong"):
        got, want = over_alg.mc_check(x, mode), over_lie.mc_check(x, mode)
        assert (got.passed, got.classical, got.strong, got.residual) == \
            (want.passed, want.classical, want.strong, want.residual)
    assert over_alg.gauge_transform(a, x) == over_lie.gauge_transform(a, x)


@axiom_oracle
@given(random_algebras(), st.data())
def test_nonzero_image_witness_matches_the_former_loop(alg, data):
    space = alg.space
    f = data.draw(graded_maps(space, space, 0))
    g = data.draw(graded_maps(space, space, 1))
    for op in (f, g, g.compose(g), f.compose(g).add(g.compose(f))):
        assert nonzero_image_witness(op) == ref_nonzero_image(op)


def test_associativity_is_walked_once_per_algebra(broken_models, square, monkeypatch):
    walked = []
    walk = StructuredAlgebra._associativity_failure.func

    def counted(self):
        walked.append(self)
        return walk(self)

    prop = cached_property(counted)
    prop.__set_name__(StructuredAlgebra, "_associativity_failure")
    monkeypatch.setattr(StructuredAlgebra, "_associativity_failure", prop)
    # the text report, which no other test asks for, on two differentials
    assert broken_models("validate", "nonassoc.model")[0] == 1
    assert len(walked) == 1
    # both differentials of the square share one walk
    for name in ("d0", "d1"):
        square.validate_dg_algebra(name)
    assert len(walked) == 2 and walked[1] is square


# -- the live-tuple walks on crafted failures ------------------------------------


def scaled(structure, pair, c):
    """A copy of a structure table with the constants of one pair times c."""
    out = {p: dict(targets) for p, targets in structure.items()}
    out[pair] = {lt: c * v for lt, v in out[pair].items()}
    return out


# a dropped constant fails first at a triple that only a(bc), or only (ab)c,
# reaches
@pytest.mark.parametrize("pair, c, triple", [
    (("dz1^dz2^dzb1^dzb2|E1_1", "1|E1_1"), Scalar(2),
     ["dz1^dz2^dzb1^dzb2|E1_1", "1|E1_1", "1|E1_1"]),
    (("dzb2|E1_1", "dzb1|E1_1"), Scalar(2), ["dz1^dz2|E1_1", "dzb2|E1_1", "dzb1|E1_1"]),
    (("dz1^dz2^dzb1^dzb2|E1_1", "1|E1_1"), ZERO, ["dz1^dz2^dzb1|E1_1", "dzb2|E1_1", "1|E1_1"]),
    (("1|E1_1", "dz1^dz2^dzb1^dzb2|E1_1"), ZERO, ["1|E1_1", "dz1^dz2^dzb1|E1_1", "dzb2|E1_1"]),
], ids=["last doubled", "largest doubled", "last dropped", "unit times top dropped"])
def test_associativity_finds_a_late_failure_like_the_full_walk(pair, c, triple):
    m = torus_model(1).full_model
    alg = StructuredAlgebra(m.space, "associative", m.differentials,
                            scaled(m.structure, pair, c))
    witness = alg.validate_dg_algebra("del").checks[2].witness
    assert witness == ref_associativity(alg) == {"triple": triple}
    assert tuple(triple) != alg._live_triples()[0]


# the rank-1 torus is graded-commutative, so its bracket is zero; a dropped
# bracket fails first at a triple that only [l2,[l1,l3]] reaches
@pytest.mark.parametrize("pair, c, triple", [
    (("dzb2|E2_2", "dzb1|E2_1"), Scalar(2), ["1|E1_2", "dzb1|E2_1", "dzb2|E2_1"]),
    (("dzb1|E2_1", "dzb2|E1_1"), ZERO, ["1|E1_2", "dzb1|E2_1", "dzb2|E1_1"]),
], ids=["doubled", "dropped"])
def test_jacobi_finds_a_late_failure_like_the_full_walk(pair, c, triple):
    lie = commutator_lie(torus_model(2).full_model)
    structure = scaled(scaled(lie.structure, pair, c), pair[::-1], c)
    broken = StructuredAlgebra(lie.space, "lie", lie.differentials, structure)
    checks = {check.name: check.witness for check in broken.validate_dgla("del").checks}
    assert checks["skew-symmetry"] is None
    assert checks["Jacobi"] == ref_jacobi(broken) == {"triple": triple}
    assert tuple(triple) != broken._live_triples(jacobi=True)[0]


def changed_last_entry(m):
    """The twisted torus with its last del_bar entry doubled."""
    entries = m.differentials["del_bar"].entries()
    frm, to, c = entries[-1]
    return entries[:-1] + [(frm, to, c * Scalar(2))]


# on the flat torus, d(E21) = dz1 E12 fails first at (E11, E21), a pair
# without a product that only E11 d(E21) reaches, and d(E11) = dz1 E12 at
# the same pair, which only d(E11) E21 reaches
@pytest.mark.parametrize("model, entries, pair", [
    (nilpotent_torus_model, changed_last_entry, ["1|E1_1", "dz1^dz2^dzb2|E2_2"]),
    (torus_model, lambda m: [("1|E2_1", "dz1|E1_2", ONE)], ["1|E1_1", "1|E2_1"]),
    (torus_model, lambda m: [("1|E1_1", "dz1|E1_2", ONE)], ["1|E1_1", "1|E2_1"]),
], ids=["changed entry", "added entry on the right", "added entry on the left"])
def test_leibniz_finds_a_late_failure_like_the_full_walk(model, entries, pair):
    m = model(2).full_model
    d = GradedMap.from_entries(m.space, m.space, 1, entries(m))
    alg = m.with_differentials({"del_bar": d})
    witness = alg.validate_dg_algebra("del_bar").checks[1].witness
    assert witness == ref_leibniz(alg, d)
    assert witness["pair"] == pair


def test_associativity_walks_only_the_live_triples(monkeypatch):
    """Two products per triple with a non-zero side: 4,096 of the 72,944
    triples through a structure pair that the full walk visits."""
    m = torus_model(2).full_model
    calls = []
    times_label = StructuredAlgebra._times_label

    def counted(self, *args):
        calls.append(1)
        return times_label(self, *args)

    monkeypatch.setattr(StructuredAlgebra, "_times_label", counted)
    assert m._associativity_failure is None
    assert len(calls) <= 8192


# -- each operator relation formed once -------------------------------------------


def ref_is_zero(op):
    """The former GradedMap.is_zero: every block is a zero matrix."""
    return all(m.is_zero() for m in op.blocks.values())


def ref_first_nonzero_degree(op):
    """The former first-failing-degree scan, over every source degree."""
    return next((k for k in op.source.degrees() if not op.block(k).is_zero()), None)


@st.composite
def spaces_around_zero(draw):
    """Labels g{k}_{i} in degrees -2 to 2, at most two per degree."""
    return GradedSpace({k: [f"g{k}_{i}" for i in range(draw(st.integers(0, 2)))]
                        for k in range(-2, 3)})


@axiom_oracle
@given(spaces_around_zero(), st.data())
def test_a_map_keeps_its_non_zero_blocks_in_degree_order(space, data):
    f = data.draw(graded_maps(space, space, 1))
    g = data.draw(graded_maps(space, space, 1))
    c = data.draw(st.sampled_from(COEFFS))
    for op in (f, g.compose(f), f.add(g), f.add(f.neg()), f.scale(c).add(g),
               f.compose(g).add(g.compose(f)), g.compose(f).add(f.compose(g).neg())):
        assert op.is_zero() == ref_is_zero(op)
        assert next(iter(op.blocks), None) == ref_first_nonzero_degree(op)


@axiom_oracle
@given(spaces_around_zero(), st.data())
def test_square_is_the_self_composition_formed_once(space, data):
    f = data.draw(graded_maps(space, space, 1))
    square = f.square
    assert square == f.compose(f)
    assert f.square is square


def test_cohomology_and_the_bicomplex_invariants_share_one_square(square, monkeypatch):
    squared = []
    compose = GradedMap.compose

    def counted(self, inner):
        if inner is self:
            squared.append(self)
        return compose(self, inner)

    monkeypatch.setattr(GradedMap, "compose", counted)
    b = Bicomplex(square, "d0", "d1")
    assert b.invariants.passed
    cohomology(square, "d0")
    cohomology(square, "d1")
    assert squared == [b.d0, b.d1]


def test_qdolbeault_phi_checks_autoduality_once(cli_run, monkeypatch):
    calls = []
    check = qdolbeault.autoduality_check

    def counted(m):
        calls.append(m)
        return check(m)

    (cli_run.workdir / "torus_r1.model").write_text(serialize_connection_model(torus_model(1)))
    monkeypatch.setattr(qdolbeault, "autoduality_check", counted)
    assert cli_run("--format", "json", "qdolbeault", "--phi", "torus_r1.model")[0] == 0
    assert len(calls) == 1


# -- multiplication operators read off the product table ----------------------


def column_operator(algebra, degree, image):
    """The degree-shift operator sending each basis vector u of degree k to
    image(k, u), built column by column: the per-column oracle."""
    space = algebra.space
    blocks = {}
    for k in space.degrees():
        rows = space.dim(k + degree)
        if rows:
            blocks[k] = Matrix.from_columns(rows, [image(k, space.basis_vector(lab)[1])
                                                   for lab in space.labels(k)])
    return GradedMap(space, space, degree, blocks)


def ref_left_multiplication(alg, degree, v):
    """The former route: one mul call per basis vector, column by column."""
    return column_operator(alg, degree, lambda k, u: alg.mul(degree, v, k, u))


def ref_adjoint_operator(alg, degree, v):
    """v*u - (-1)^(|v||u|) u*v, with two mul calls per basis vector u."""
    def image(k, u):
        sign = Scalar(-1) if (degree * k) % 2 == 0 else ONE
        return vsum(alg.mul(degree, v, k, u), vscale(sign, alg.mul(k, u, degree, v)))
    return column_operator(alg, degree, image)


def check_operators(alg, data):
    """Both table-read operators against the per-column oracle, on a drawn
    vector of every degree; returns how many of them are non-zero."""
    nonzero = 0
    for degree in alg.space.degrees() + [3]:
        v = data.draw(mixed_vectors(alg.space.dim(degree)))
        for build, ref in ((left_multiplication, ref_left_multiplication),
                           (adjoint_operator, ref_adjoint_operator)):
            got = build(alg, degree, v)
            assert got == ref(alg, degree, v)
            assert (got.source, got.target, got.shift) == (alg.space, alg.space, degree)
            nonzero += not got.is_zero()
    return nonzero


def unital_end_model(seed):
    """gl(2) coefficients over a unital dots/squares/zigzags model, so the
    Dolbeault algebra has non-commuting products."""
    dots = {k: (seed + k) % 3 for k in range(3)}
    b = dots_squares_model(dots, [seed % 2], [1] * (seed % 2), seed=seed, unit=True)
    return connection_from_bicomplex(end_tensor(b, 2))


@pytest.mark.parametrize("model", [
    torus_model(2), nilpotent_torus_model(2), *(unital_end_model(seed) for seed in range(4)),
], ids=["torus_r2", "nilpotent_torus_r2", *(f"unital_end{seed}" for seed in range(4))])
def test_left_multiplication_matches_the_per_column_route(model):
    nonzero = []

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def compare(data):
        nonzero.append(check_operators(model.dolbeault, data))

    compare()
    # the case is not vacuous: some drawn operator is non-zero
    assert any(nonzero)


@settings(max_examples=100, deadline=None)
@given(random_algebras(coeffs=MIXED), st.data())
def test_left_multiplication_over_fractional_constants_matches_the_per_column_route(alg, data):
    check_operators(alg, data)

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgkit.errors import ModelError, PreconditionError
from dgkit.graded import (
    GradedMap,
    GradedSpace,
    StructuredAlgebra,
    cohomology,
    induced_map_on_cohomology,
)
from dgkit.linalg import Matrix, dense_vector
from dgkit.scalars import ONE, ZERO, Scalar
from strategies import random_algebras, sparse_vectors



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
    lie = gl2.commutator_dgla()
    assert lie.validate_dgla("d").passed
    # commutator bracket: [E12, E21] = E11 - E22
    br = lie.mul_labels("E12", "E21")
    assert br == {"E11": ONE, "E22": Scalar(-1)}


def test_jacobi_violation_detected(gl2):
    lie = gl2.commutator_dgla()
    triples = lie.structure_triples() + [("E11", "E11", "E11", ONE)]
    bad = StructuredAlgebra(lie.space, "lie", lie.differentials,
                            StructuredAlgebra.structure_from_triples(triples))
    report = bad.validate_dgla("d")
    assert not report.passed


def test_commutator_of_square_satisfies_jacobi(square):
    lie = square.commutator_dgla()
    assert lie.validate_dgla("d0").passed


def test_commutator_requires_validated_input(square):
    bad_triples = square.structure_triples() + [("b", "b", "e", ONE)]
    bad = StructuredAlgebra(
        square.space, "associative", square.differentials,
        StructuredAlgebra.structure_from_triples(bad_triples))
    with pytest.raises(PreconditionError):
        bad.commutator_dgla()


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
    assert h.project(2, prod) == (ONE,)


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


def test_well_definedness_failure_names_the_degree_pair():
    # d a = b, and b * x = y makes the boundary b shift [y * x] = 0 to [y]
    space = GradedSpace({0: ["x", "a"], 1: ["b", "y"]})
    d = GradedMap.from_entries(space, space, 1, [("a", "b", ONE)])
    alg = StructuredAlgebra(space, "associative", {"d": d},
                            StructuredAlgebra.structure_from_triples([("b", "x", "y", ONE)]))
    check = cohomology(alg, "d").check_well_defined().checks[0]
    assert not check.passed
    assert check.witness == {"degree_pair": [1, 0]}


# -- index-keyed products against the former label-keyed loop ------------------


def reference_mul(alg, k1, v1, k2, v2):
    """The former StructuredAlgebra.mul: the bilinear extension of the
    structure constants, looked up by label pair."""
    k = k1 + k2
    out = [ZERO] * alg.space.dim(k)
    labels1 = alg.space.labels(k1)
    labels2 = alg.space.labels(k2)
    nz1 = [(labels1[i], c) for i, c in enumerate(v1) if not c.is_zero()]
    nz2 = [(labels2[j], c) for j, c in enumerate(v2) if not c.is_zero()]
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
    return tuple(out)


def test_label_product_drops_cancelled_entries():
    # a*x = t and a*y = -t, so a*(x + y) = 0 on both sides
    space = GradedSpace({0: ["x", "y"], 1: ["a", "t"]})
    triples = [("a", "x", "t", ONE), ("a", "y", "t", -ONE),
               ("x", "a", "t", ONE), ("y", "a", "t", -ONE)]
    alg = StructuredAlgebra(space, "associative", {},
                            StructuredAlgebra.structure_from_triples(triples))
    for label_first in (True, False):
        assert alg.label_product("a", 0, [(0, ONE), (1, ONE)], label_first) == {}
        assert alg.label_product("a", 0, [(1, Scalar(2))], label_first) == {1: Scalar(-2)}


@settings(max_examples=150, deadline=None)
@given(random_algebras(), st.data())
def test_products_match_the_reference(alg, data):
    space = alg.space
    degrees = space.degrees() + [3]  # random_algebras leaves degree 3 empty
    k1 = data.draw(st.sampled_from(degrees))
    k2 = data.draw(st.sampled_from(degrees))
    v1 = data.draw(sparse_vectors(space.dim(k1)))
    v2 = data.draw(sparse_vectors(space.dim(k2)))
    assert alg.mul(k1, v1, k2, v2) == reference_mul(alg, k1, v1, k2, v2)
    if not space.degrees():
        return
    label = data.draw(st.sampled_from(space.all_labels()))
    kl = space.degree_of(label)
    items = [(i, c) for i, c in enumerate(v2) if not c.is_zero()]
    unit = space.basis_vector(label)[1]
    m = space.dim(k2 + kl)
    for label_first, want in ((True, reference_mul(alg, kl, unit, k2, v2)),
                              (False, reference_mul(alg, k2, v2, kl, unit))):
        sparse = alg.label_product(label, k2, items, label_first)
        assert all(not c.is_zero() for c in sparse.values())
        assert dense_vector(m, sparse) == want

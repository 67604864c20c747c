"""Subquotient and the per-map kernels and images against the loops they replaced.

The ref_* functions are the representative-product loops and induced-map
loops that cohomology, the ker(d1) sub-algebra of the formality zig-zag, the
image subcomplexes of the strong-lemma check and the sl(2) quotient each ran
before they became cases of `graded.Subquotient`, and the dense product loops
`Subquotient` ran before its representatives and classes went sparse.
`ref_dependent_degree_pair` finds a dependence of the induced product on
representatives with no appeal to bilinearity: each factor, or both, moved
by each boundary.  It is the oracle of the theorem behind
`CohomologyPresentation.check_well_defined`: when d satisfies Leibniz, no
move changes a class.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dgkit.graded as graded
from dgkit.ddbar import Bicomplex, sum_twist
from dgkit.errors import InternalCheckError, PreconditionError
from dgkit.graded import (
    GradedMap,
    GradedSpace,
    StructuredAlgebra,
    Subquotient,
    cohomology,
    induced_map_on_cohomology,
)
from dgkit.linalg import (
    Complement,
    Matrix,
    Subspace,
    coordinates_in_basis,
    image_of,
    kernel_of,
)
from dgkit.models import dots_squares_model, end_tensor
from dgkit.scalars import ONE, ZERO, Scalar
from strategies import (COEFFS, FRACTIONS, dense_vectors, graded_maps, random_algebras,
                        sparse_vectors, vec, vsum)
from test_graded import reference_mul

oracle = settings(max_examples=120, deadline=None)


# -- the former loops ------------------------------------------------------------


def ref_cohomology_structure(h):
    """CohomologyPresentation.induced_structure before Subquotient."""
    triples = []
    for k1, reps1 in h.reps.items():
        for k2, reps2 in h.reps.items():
            if not reps1 or not reps2:
                continue
            k = k1 + k2
            if h.algebra.space.dim(k) == 0:
                continue
            prods = [h.algebra.mul(k1, r1, k2, r2) for r1 in reps1 for r2 in reps2]
            classes = h.project(k, prods)
            idx = 0
            for i in range(len(reps1)):
                for j in range(len(reps2)):
                    for t, c in sorted(classes[idx].items()):
                        if not c.is_zero():
                            triples.append((f"h{k1}_{i}", f"h{k2}_{j}", f"h{k}_{t}", c))
                    idx += 1
    return StructuredAlgebra.structure_from_triples(triples)


def ref_induced_map_on_cohomology(f, source, target):
    out = {}
    for k, reps in source.reps.items():
        if reps:
            imgs = [f.apply(k, r) for r in reps]
            out[k] = Matrix.from_columns(target.dim(k), target.project(k, imgs))
    return out


def ref_sub_algebra_structure(alg, bases):
    """formality_zigzag's ker(d1) product loop: coordinates of each product
    of basis vectors in the basis of its degree."""
    triples = []
    for k1, basis1 in bases.items():
        for k2, basis2 in bases.items():
            if not basis1 or not basis2:
                continue
            k = k1 + k2
            prods = [alg.mul(k1, v1, k2, v2) for v1 in basis1 for v2 in basis2]
            coords = coordinates_in_basis(bases.get(k, []), prods)
            if coords is None:
                raise InternalCheckError("ker(d1) is not closed under the product")
            idx = 0
            for i in range(len(basis1)):
                for j in range(len(basis2)):
                    for t, c in sorted(coords[idx].items()):
                        if not c.is_zero():
                            triples.append((f"k{k1}_{i}", f"k{k2}_{j}", f"k{k}_{t}", c))
                    idx += 1
    return StructuredAlgebra.structure_from_triples(triples)


def ref_restricted_blocks(d, bases, escape):
    """ddbar._restricted_blocks: d on the span of `bases`, in their coordinates."""
    blocks = {}
    for k, basis in bases.items():
        if not basis:
            continue
        target = bases.get(k + 1, [])
        coords = coordinates_in_basis(target, [d.apply(k, v) for v in basis])
        if coords is None:
            raise InternalCheckError(escape)
        blocks[k] = Matrix.from_columns(len(target), coords)
    return blocks


def ref_quotient(alg, inner, outer):
    """plus_quotient's complements, projection blocks, product loop and
    `descended`."""
    space = alg.space
    comps = {k: Complement(inner[k], outer[k]) for k in space.degrees()}
    reps = {k: comp.vectors for k, comp in comps.items()}
    q_space = GradedSpace({k: [f"q{k}_{i}" for i in range(len(v))]
                           for k, v in reps.items() if v})
    proj_blocks = {}
    for k in space.degrees():
        if reps[k]:
            coords = comps[k].project([space.basis_vector(l)[1] for l in space.labels(k)])
            proj_blocks[k] = Matrix.from_columns(len(reps[k]), coords)
    qmap = GradedMap(space, q_space, 0, proj_blocks)
    triples = []
    for k1, reps1 in reps.items():
        for k2, reps2 in reps.items():
            if not reps1 or not reps2 or q_space.dim(k1 + k2) == 0:
                continue
            for i, r1 in enumerate(reps1):
                for j, r2 in enumerate(reps2):
                    cls = qmap.apply(k1 + k2, alg.mul(k1, r1, k2, r2))
                    for t, c in sorted(cls.items()):
                        if not c.is_zero():
                            triples.append((f"q{k1}_{i}", f"q{k2}_{j}", f"q{k1 + k2}_{t}", c))

    def descended(op):
        shift = op.shift
        return GradedMap(q_space, q_space, shift, {
            k: Matrix.from_columns(q_space.dim(k + shift),
                                   [qmap.apply(k + shift, op.apply(k, r)) for r in chosen])
            for k, chosen in reps.items() if chosen and q_space.dim(k + shift)})

    return reps, qmap, StructuredAlgebra.structure_from_triples(triples), descended


def ref_classes(sub, k, vectors, escape=None):
    """Class coordinates of vectors of degree k, solved in the basis [inner
    basis | representatives] by one elimination; raises escape(k) when some
    vector is outside their span."""
    if not vectors:
        return []
    inner = sub.inner[k].vectors() if k in sub.inner else []
    coords = coordinates_in_basis(inner + sub.reps.get(k, []), vectors)
    if coords is None:
        raise (escape or sub.escape)(k)
    return [{t - len(inner): x for t, x in sorted(c.items()) if t >= len(inner)} for c in coords]


def ref_structure(sub, escape=None):
    """Subquotient.structure before sparse representatives: dense products
    of the representatives, each class projected in full."""
    labels = sub.space.labels

    def mul(k1, v1, k2, v2):
        return reference_mul(sub.algebra, k1, v1, k2, v2)
    reps = [(k, v) for k, v in sub.reps.items() if v]
    triples = []
    for k1, reps1 in reps:
        for k2, reps2 in reps:
            k = k1 + k2
            if k not in sub.inner or sub.inner[k].dim == sub.algebra.space.dim(k):
                continue
            classes = iter(ref_classes(
                sub, k, [mul(k1, r1, k2, r2) for r1 in reps1 for r2 in reps2], escape))
            for i in range(len(reps1)):
                for j in range(len(reps2)):
                    for t, c in sorted(next(classes).items()):
                        if not c.is_zero():
                            triples.append((labels(k1)[i], labels(k2)[j], labels(k)[t], c))
    return StructuredAlgebra.structure_from_triples(triples)


def ref_dependent_degree_pair(h):
    """The first degree pair (k1, k2) where moving representatives by
    boundaries changes the class of their product, or None.  Each
    representative r of a class of degree k1 or k2, the zero class {}
    included, moves to r + b for each boundary basis vector b and for b = 0,
    on both factors at once; dense sums and products, one class per vector,
    no appeal to bilinearity.  Per degree pair every class is formed before
    any is compared, so a product that is not closed raises."""
    space = h.algebra.space
    for k1, k2 in product(space.degrees(), repeat=2):
        if space.dim(k1 + k2) == 0:
            continue
        moves = [[(r, vsum(r, b)) for r in [{}] + h.reps[k] for b in [{}] + h.inner[k].vectors()]
                 for k in (k1, k2)]
        classes = ref_classes(h, k1 + k2, [
            reference_mul(h.algebra, k1, v1, k2, v2)
            for (r1, s1), (r2, s2) in product(*moves) for v1, v2 in ((r1, r2), (s1, s2))])
        if classes[0::2] != classes[1::2]:
            return k1, k2
    return None


def outcome(fn, *args):
    """fn(*args), or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (InternalCheckError, PreconditionError) as exc:
        return type(exc), str(exc)


# -- strategies -----------------------------------------------------------------


@st.composite
def square_zero_algebras(draw):
    """random_algebras() with a differential "d" supported on one degree, so
    d^2 = 0; d is in general not a derivation, so products of closed
    representatives need not be closed."""
    alg = draw(random_algebras())
    j = draw(st.sampled_from((0, 1)))
    d = draw(graded_maps(alg.space, alg.space, 1))
    d = GradedMap(alg.space, alg.space, 1, {j: d.block(j)} if j in d.blocks else {})
    return StructuredAlgebra(alg.space, "associative", {"d": d}, alg.structure)


@st.composite
def subspaces_of(draw, space):
    """A subspace per degree, spanned by up to three sparse vectors."""
    return {k: Subspace.from_vectors(space.dim(k), [
        draw(sparse_vectors(space.dim(k))) for _ in range(draw(st.integers(0, 3)))])
        for k in space.degrees()}


MIXED = COEFFS + FRACTIONS


def mixed_vectors(n):
    """Vectors with any number of non-zero entries over mixed denominators."""
    return st.one_of(sparse_vectors(n, MIXED), dense_vectors(n, MIXED))


@st.composite
def subquotients(draw):
    """A subquotient of random_algebras() with FRACTIONS constants: per
    degree inner is zero, full or spanned by random vectors, and outer is a
    few random vectors, followed half the time by a basis; when it is not,
    inner and outer need not span, so a product can escape."""
    alg = draw(random_algebras(coeffs=MIXED))
    inner, outer = {}, {}
    for k in alg.space.degrees():
        n = alg.space.dim(k)
        how = draw(st.sampled_from(("zero", "full", "span")))
        inner[k] = (Subspace.zero(n) if how == "zero" else Subspace.full(n) if how == "full"
                    else Subspace.from_vectors(n, [draw(mixed_vectors(n))
                                                   for _ in range(draw(st.integers(1, 2)))]))
        outer[k] = [draw(mixed_vectors(n)) for _ in range(draw(st.integers(0, n + 1)))]
        if draw(st.booleans()):  # representatives that span with inner
            outer[k] += Subspace.full(n).vectors()
    return Subquotient(alg, inner, outer, "s")


# -- the sparse product loop ---------------------------------------------------------


@oracle
@given(subquotients())
def test_sparse_structure_matches_the_dense_loop(sub):
    assert outcome(sub.structure) == outcome(ref_structure, sub)
    for k, reps in sub.reps.items():
        assert sub.project(k, reps) == ref_classes(sub, k, reps)


def test_structure_skips_a_degree_wholly_in_inner_and_reports_an_escape():
    # x*x = 1/2 t + u, x*y = t - 2/3 u: degree 2 wholly in inner has no classes
    space = GradedSpace({1: ["x", "y"], 2: ["t", "u"]})
    q = Scalar
    alg = StructuredAlgebra(space, "associative", {}, StructuredAlgebra.structure_from_triples([
        ("x", "x", "t", q(Fraction(1, 2))), ("x", "x", "u", ONE),
        ("x", "y", "t", ONE), ("x", "y", "u", q(Fraction(-2, 3)))]))
    reps = {1: [vec(1, 2), vec(Fraction(1, 3), -1)]}
    full = Subquotient(alg, {2: Subspace.full(2)}, reps, "s")
    assert full.structure() == ref_structure(full) == {}
    # inner 0 in degree 2 and outer t alone: a product with a u part escapes
    escaping = Subquotient(alg, {}, {**reps, 2: [vec(1, 0)]}, "s")
    assert outcome(escaping.structure) == outcome(ref_structure, escaping) \
        == (InternalCheckError, "vector at degree 2 leaves the subquotient")
    # with u as well, every class has two non-zero coordinates
    spanning = Subquotient(alg, {}, {**reps, 2: [vec(1, 0), vec(0, 1)]}, "s")
    assert spanning.structure() == ref_structure(spanning)
    assert all(len(targets) == 2 for targets in spanning.structure().values())


# -- cohomology ------------------------------------------------------------------


@oracle
@given(square_zero_algebras(), st.data())
def test_cohomology_structure_and_maps_match_the_former_loops(alg, data):
    h = cohomology(alg, "d")
    assert outcome(h.induced_structure) == outcome(ref_cohomology_structure, h)
    assert outcome(h.induced_structure) == outcome(ref_structure, h)
    # x -> c^deg(x) x is a chain map; a random shift-0 map in general is not
    c = data.draw(sparse_vectors(1)).get(0, ZERO)
    powers = [ONE, c, c * c]
    f = GradedMap(alg.space, alg.space, 0, {
        k: Matrix.identity(alg.space.dim(k)).scale(powers[k]) for k in alg.space.degrees()})
    if data.draw(st.booleans()):
        f = data.draw(graded_maps(alg.space, alg.space))
    assert (outcome(induced_map_on_cohomology, f, h, h)
            == outcome(ref_induced_map_on_cohomology, f, h, h))


def leibniz_verdict(h):
    """Where check_well_defined passes, the structure forms and no move of a
    representative by a boundary changes a class; where the oracle finds
    such a move, the check fails.  Returns the check's verdict."""
    passed = h.check_well_defined().passed
    dependent = outcome(ref_dependent_degree_pair, h)
    if passed:
        assert dependent is None
        assert h.induced_structure() == ref_structure(h)
    if dependent is not None and dependent[0] is not PreconditionError:
        assert not passed
    return passed


@oracle
@given(square_zero_algebras())
def test_leibniz_certifies_representative_independence(alg):
    leibniz_verdict(cohomology(alg, "d"))


# bicomplexes whose differentials are derivations: the dots and squares
# have products with the unit only, and their gl(2) extensions compose
LEIBNIZ_MODELS = {
    "ds_2_3": dots_squares_model({0: 2, 1: 3}, [0, 1], seed=2),
    "ds_zigzag": dots_squares_model({0: 1, 1: 1}, [0], [1], seed=4),
    "end_tensor": end_tensor(dots_squares_model({0: 1, 1: 1}, [0], seed=5), 2),
    "end_tensor_zigzag": end_tensor(dots_squares_model({0: 1}, [], [0], seed=6), 2),
}


@pytest.mark.parametrize("name", sorted(LEIBNIZ_MODELS))
@pytest.mark.parametrize("d_name", ["d0", "d1"])
def test_leibniz_models_are_representative_independent(name, d_name):
    assert leibniz_verdict(cohomology(LEIBNIZ_MODELS[name].algebra, d_name))


def model(components, d_entries, triples):
    """An associative algebra whose differential "d" and structure constants
    are all 1 on the given label pairs and triples."""
    space = GradedSpace(components)
    d = GradedMap.from_entries(space, space, 1, [(a, b, ONE) for a, b in d_entries])
    return StructuredAlgebra(space, "associative", {"d": d}, StructuredAlgebra.structure_from_triples(
        [(a, b, t, ONE) for a, b, t in triples]))


# models whose induced product depends on representatives, or whose
# products of cycles are not closed: each fails Leibniz at the named pair
@pytest.mark.parametrize("alg, dependent, pair", [
    # [w]·[w] on w + b gives [b·b] = [z]: both factors move
    (model({0: ["x", "c"], 1: ["b", "w"], 2: ["z"]}, [("c", "b")], [("b", "b", "z")]),
     (1, 1), ["c", "b"]),
    # b represents the zero class and [b·w] = [w]: degree 0 has no class
    (model({-1: ["c"], 0: ["b"], 1: ["w"]}, [("c", "b")], [("b", "w", "w")]),
     (0, 1), ["c", "w"]),
    # [x·w] = 0 and [x·(w + b)] = [w]: only the right factor moves
    (model({0: ["x", "c"], 1: ["b", "w"]}, [("c", "b")], [("x", "b", "w")]),
     (0, 1), ["x", "c"]),
    # x is closed and x·x = y is not
    (model({0: ["x", "y"], 1: ["z"]}, [("y", "z")], [("x", "x", "y")]),
     (PreconditionError, "vector at degree 0 is not closed"), ["x", "x"]),
], ids=["both_factors", "zero_class", "right_factor", "not_closed"])
def test_leibniz_refuses_what_the_oracle_finds(alg, dependent, pair):
    h = cohomology(alg, "d")
    assert outcome(ref_dependent_degree_pair, h) == dependent
    assert not leibniz_verdict(h)
    check = h.check_well_defined().checks[0]
    assert check.name == "Leibniz(d)" and check.witness["pair"] == pair
    assert check == alg.validate_dg_algebra("d").checks[1]


def test_non_derivation_differential_leaves_products_unclosed():
    # d b = c; a is closed but a * a = b is not
    space = GradedSpace({0: ["a", "b"], 1: ["c"]})
    d = GradedMap.from_entries(space, space, 1, [("b", "c", ONE)])
    alg = StructuredAlgebra(space, "associative", {"d": d},
                            StructuredAlgebra.structure_from_triples([("a", "a", "b", ONE)]))
    h = cohomology(alg, "d")
    assert h.dims() == {0: 1}
    with pytest.raises(PreconditionError, match="^vector at degree 0 is not closed$"):
        h.induced_structure()


def test_cohomology_calls_share_the_kernels_and_images(monkeypatch):
    alg = dots_squares_model({0: 2, 1: 1}, [0, 1], seed=3).algebra
    calls = []

    def counted(eliminate):
        def count(m):
            calls.append(m)
            return eliminate(m)
        return count

    monkeypatch.setattr(graded, "kernel_of", counted(graded.kernel_of))
    monkeypatch.setattr(graded, "image_of", counted(graded.image_of))
    first = cohomology(alg, "d0")
    eliminated = len(calls)
    assert eliminated
    second = cohomology(alg, "d0")
    assert len(calls) == eliminated
    d0 = alg.differential("d0")
    for k in alg.space.degrees():
        assert first.inner[k] is second.inner[k] is d0.image(k)
    # the twist keeps d1 itself, so its blocks are not eliminated again
    b = Bicomplex(alg, "d0", "d1")
    assert sum_twist(b).d1 is b.d1


# -- the (0, basis) sub-algebra and its restricted maps -----------------------------


@oracle
@given(random_algebras(), st.data())
def test_sub_algebra_matches_the_former_loops(alg, data):
    """A kernel as in formality_zigzag, and an image as in the subcomplex
    route of the strong lemma; neither need be closed."""
    space = alg.space
    d = data.draw(graded_maps(space, space, 1))
    op = data.draw(graded_maps(space, space, 1))
    bases = {k: (d.kernel(k) if data.draw(st.booleans()) else d.image(k)).vectors()
             for k in space.degrees()}
    sub = Subquotient(alg, {}, bases, "k",
                      lambda k: InternalCheckError("ker(d1) is not closed under the product"))
    assert sub.reps == bases
    assert outcome(sub.structure) == outcome(ref_sub_algebra_structure, alg, bases)
    escape = "d0 does not preserve ker(d1)"
    assert (outcome(sub.blocks, op, None, lambda k: InternalCheckError(escape))
            == outcome(ref_restricted_blocks, op, bases, escape))


# -- quotients -------------------------------------------------------------------


@oracle
@given(random_algebras(), st.data())
def test_quotient_matches_the_former_loops(alg, data):
    """Quotients by any subspace, ideal or not, represented by the basis;
    a product outside the ideal is projected all the same."""
    space = alg.space
    inner = data.draw(subspaces_of(space))
    outer = {k: Subspace.full(space.dim(k)).vectors() for k in space.degrees()}
    q = Subquotient(alg, inner, outer, "q")
    reps, qmap, structure, descended = ref_quotient(alg, inner, outer)
    assert q.reps == reps
    assert q.projection() == qmap
    assert q.structure() == structure
    for shift in (0, 1):
        op = data.draw(graded_maps(space, space, shift))
        assert GradedMap(q.space, q.space, shift, q.blocks(op)) == descended(op)


def test_projection_needs_inner_and_outer_to_span():
    space = GradedSpace({0: ["a", "b"]})
    alg = StructuredAlgebra(space, "associative", {}, {})
    assert Subquotient(alg, {}, {0: [vec(1, 1)]}, "q").projection() is None


# -- kernels and images per map and degree ------------------------------------------


@oracle
@given(random_algebras(), st.sampled_from((0, 1, 2)), st.data())
def test_kernel_and_image_match_the_eliminations(alg, shift, data):
    space = alg.space
    f = data.draw(graded_maps(space, space, shift))
    for k in range(-2, 6):   # degrees outside the space included
        assert f.kernel(k) == kernel_of(f.block(k))
        assert f.image(k) == image_of(f.block(k - shift))
        assert f.kernel(k) is f.kernel(k) and f.image(k) is f.image(k)

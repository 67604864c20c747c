import hashlib
import json
import random
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgkit.errors import ModelError
from dgkit.graded import GradedMap, GradedSpace, StructuredAlgebra, algebra_map_witness
from dgkit.linalg import Matrix, Subspace
from dgkit.models import nilpotent_torus_model, torus_model
from dgkit.scalars import ONE, Scalar
from test_ddbar import ref_dense_algebra_map_witness
from strategies import (
    COEFFS,
    graded_maps,
    graded_spaces,
    random_algebras,
    sparse_vectors,
    vec,
)
from dgkit.sl2 import (
    Sl2Module,
    integer_spectrum,
    low_weight_ideal,
    plus_quotient,
    two_sided_witness,
    weight_decomposition,
)


def sl2_on(space, e_entries, f_entries, h_entries):
    return Sl2Module(
        space,
        GradedMap.from_entries(space, space, 0, e_entries),
        GradedMap.from_entries(space, space, 0, f_entries),
        GradedMap.from_entries(space, space, 0, h_entries),
    )


def test_defining_representation_weight_one():
    # V: e(v-) = v+, f(v+) = v-, h = diag(1, -1)
    space = GradedSpace({0: ["vp", "vm"]})
    mod = sl2_on(space,
                 [("vm", "vp", ONE)],
                 [("vp", "vm", ONE)],
                 [("vp", "vp", ONE), ("vm", "vm", Scalar(-1))])
    decomp = weight_decomposition(mod)
    assert decomp.weights(0) == [1]
    assert decomp.multiplicity(0, 1) == 1


def test_tensor_square_clebsch_gordan():
    # V (x) V = weight 2 + weight 0: 4 = 3 + 1
    labels = ["pp", "pm", "mp", "mm"]
    space = GradedSpace({0: labels})
    # h eigenvalues 2, 0, 0, -2; e, f act on each tensor slot
    e = [("pm", "pp", ONE), ("mp", "pp", ONE), ("mm", "pm", ONE), ("mm", "mp", ONE)]
    f = [("pp", "mp", ONE), ("pp", "pm", ONE), ("pm", "mm", ONE), ("mp", "mm", ONE)]
    h = [("pp", "pp", Scalar(2)), ("mm", "mm", Scalar(-2))]
    decomp = weight_decomposition(sl2_on(space, e, f, h))
    assert decomp.weights(0) == [0, 2]
    assert decomp.multiplicity(0, 2) == 1
    assert decomp.multiplicity(0, 0) == 1


def test_trivial_action_all_weight_zero():
    space = GradedSpace({0: ["a", "b", "c"]})
    zero = GradedMap.zero(space, space, 0)
    decomp = weight_decomposition(Sl2Module(space, zero, zero, zero))
    assert decomp.weights(0) == [0]
    assert decomp.multiplicity(0, 0) == 3


def test_sl2_relations_enforced():
    space = GradedSpace({0: ["x", "y"]})
    bad = sl2_on(space, [("y", "x", ONE)], [("x", "y", ONE)], [])  # h = 0
    with pytest.raises(ModelError):
        weight_decomposition(bad)


def _int_matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _conjugated(d, seed):
    """(P d P^-1, P) for a random unimodular integer P.

    P is a product of elementary integer row operations; its inverse is the
    product of the inverse operations in reverse order, so neither the
    conjugate nor the oracle eigenvectors go through dgkit's elimination.
    """
    rnd = random.Random(seed)
    n = len(d)
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    p_inv = [row[:] for row in p]
    for _ in range(3 * n):
        i, j = rnd.sample(range(n), 2)
        c = rnd.choice([-2, -1, 1, 2])
        p[i] = [a + c * b for a, b in zip(p[i], p[j])]  # P <- (I + c E_ij) P
        for row in p_inv:  # P^-1 <- P^-1 (I - c E_ij)
            row[j] -= c * row[i]
    assert _int_matmul(p, p_inv) == [[int(i == j) for j in range(n)] for i in range(n)]
    m = _int_matmul(_int_matmul(p, d), p_inv)
    return Matrix.from_rows([[Scalar(x) for x in row] for row in m]), p


@pytest.mark.parametrize("seed", range(5))
def test_integer_spectrum_matches_conjugated_diagonal(seed):
    rnd = random.Random(100 + seed)
    diag = [rnd.randint(-3, 3) for _ in range(6)]
    d = [[diag[i] if i == j else 0 for j in range(6)] for i in range(6)]
    m, p = _conjugated(d, seed)
    spectrum = integer_spectrum(m)
    assert {lam: eig.dim for lam, eig in spectrum.items()} == Counter(diag)
    for lam, eig in spectrum.items():
        columns = [vec(*(p[i][j] for i in range(6)))
                   for j in range(6) if diag[j] == lam]
        assert eig == Subspace.from_vectors(6, columns)


def test_non_integral_spectrum_rejected():
    m = Matrix.from_rows([[Scalar(1) / Scalar(2)]])
    with pytest.raises(ModelError):
        integer_spectrum(m)
    # eigenvalues +-i lie in Q(i) but are not integers
    rotation = Matrix.from_rows([[Scalar(0), Scalar(-1)], [Scalar(1), Scalar(0)]])
    with pytest.raises(ModelError, match="span 0 of 2"):
        integer_spectrum(rotation)
    # a conjugated Jordan block has an integer eigenvalue but one eigenvector
    for lam in (0, 2, -1):
        jordan = [[lam, 1, 0], [0, lam, 0], [0, 0, 3]]
        m, _ = _conjugated(jordan, seed=lam)
        with pytest.raises(ModelError, match="span 2 of 3"):
            integer_spectrum(m)


def test_torus_weights_match_form_types():
    full = torus_model(1).full_model
    decomp = weight_decomposition(Sl2Module.from_algebra(full))
    assert decomp.weights(0) == [0]
    assert decomp.multiplicity(1, 1) == 2
    assert decomp.multiplicity(2, 0) == 3
    assert decomp.multiplicity(2, 2) == 1
    assert decomp.multiplicity(3, 1) == 2
    assert decomp.multiplicity(4, 0) == 1


def test_torus_ideal_and_quotient_dims():
    model = torus_model(1)
    full = model.full_model
    decomp = weight_decomposition(Sl2Module.from_algebra(full))
    ideal = low_weight_ideal(full, decomp)
    # the invariant 2-forms generate; degrees 3 and 4 fall in after closure
    assert {k: s.dim for k, s in ideal.items()} == {0: 0, 1: 0, 2: 3, 3: 4, 4: 1}
    quotient = plus_quotient(full, ideal, decomp)
    assert quotient.dims() == {0: 1, 1: 4, 2: 3}
    d = model.dolbeault.space
    expected = {}
    for k in d.degrees():
        for p in range(0, k + 1):
            expected[(p, k - p)] = d.dim(k)
    assert quotient.bigraded_dims() == expected
    assert quotient.embedding_injective


def test_plus_quotient_reuses_the_decomposition_eigenspaces(monkeypatch):
    import dgkit.sl2 as sl2

    full = torus_model(1).full_model
    decomp = weight_decomposition(Sl2Module.from_algebra(full))
    ideal = low_weight_ideal(full, decomp)
    fresh = plus_quotient(full, ideal)
    other = weight_decomposition(Sl2Module.from_algebra(torus_model(1).full_model))
    calls = Counter()

    def counted(m):
        calls["integer_spectrum"] += 1
        return integer_spectrum(m)

    monkeypatch.setattr(sl2, "integer_spectrum", counted)
    reused = plus_quotient(full, ideal, decomp)
    assert calls["integer_spectrum"] == 0
    assert reused.reps == fresh.reps
    assert reused.bidegrees == fresh.bidegrees
    # a decomposition of another h is not trusted for its eigenspaces
    plus_quotient(full, ideal, other)
    assert calls["integer_spectrum"] == len([k for k in full.space.degrees()
                                             if full.space.dim(k)])


def test_zero_ideal_quotient_is_the_algebra():
    full = torus_model(1).full_model
    decomp = weight_decomposition(Sl2Module.from_algebra(full))
    zero_ideal = {k: Subspace.zero(full.space.dim(k)) for k in full.space.degrees()}
    quotient = plus_quotient(full, zero_ideal, decomp)
    assert quotient.dims() == {k: full.space.dim(k) for k in full.space.degrees()}


def test_everything_positive_degree_ideal():
    full = torus_model(1).full_model
    ideal = {k: (Subspace.full(full.space.dim(k)) if k >= 1
                 else Subspace.zero(full.space.dim(k)))
             for k in full.space.degrees()}
    quotient = plus_quotient(full, ideal)
    assert quotient.dims() == {0: 1}


def test_differential_unstable_ideal_rejected():
    # a model with d(x) = y where x generates the ideal but y is not in it
    space = GradedSpace({0: ["u"], 1: ["x"], 2: ["y"]})
    d = GradedMap.from_entries(space, space, 1, [("x", "y", ONE)])
    alg = StructuredAlgebra(space, "associative", {"d": d}, {})
    ideal = {0: Subspace.zero(1), 1: Subspace.full(1), 2: Subspace.zero(1)}
    with pytest.raises(ModelError):
        plus_quotient(alg, ideal)


def ref_quotient_reps(ideal, decomp, degrees):
    """The quotient basis eigenspace by eigenspace: each canonical row of an
    h-eigenspace not yet in the span of the ideal's part in it and the rows
    taken before."""
    reps = {}
    for k in degrees:
        chosen = []
        for lam, eig in sorted((lam, eig) for (kk, lam), eig in decomp.eigenspaces.items()
                               if kk == k):
            current = ideal[k].intersect(eig)
            for v in eig.vectors():
                if not current.contains(v):
                    chosen.append(v)
                    current = current.add(Subspace.from_vectors(eig.ambient_dim, [v]))
        reps[k] = chosen
    return reps


@pytest.mark.parametrize("which", ["low_weight", "zero", "positive_degrees"])
def test_quotient_basis_matches_the_per_eigenspace_reference(which):
    full = torus_model(1).full_model
    degrees = full.space.degrees()
    decomp = weight_decomposition(Sl2Module.from_algebra(full))
    dim = full.space.dim
    ideal = {"low_weight": lambda: low_weight_ideal(full, decomp),
             "zero": lambda: {k: Subspace.zero(dim(k)) for k in degrees},
             "positive_degrees": lambda: {k: Subspace.full(dim(k)) if k >= 1
                                          else Subspace.zero(dim(k)) for k in degrees}}[which]()
    assert plus_quotient(full, ideal).reps == ref_quotient_reps(ideal, decomp, degrees)


def test_ideal_that_is_not_h_stable_rejected():
    # h = diag(1, -1) on a, b; with no products every subspace is an ideal
    space = GradedSpace({0: ["a", "b"]})
    h = GradedMap.from_entries(space, space, 0, [("a", "a", ONE), ("b", "b", -ONE)])
    alg = StructuredAlgebra(space, "associative", {}, {}, {"h": h})
    stable = plus_quotient(alg, {0: Subspace.from_vectors(2, [vec(1, 0)])})
    assert stable.reps == {0: [vec(0, 1)]}
    with pytest.raises(ModelError, match="not h-stable at degree 0"):
        plus_quotient(alg, {0: Subspace.from_vectors(2, [vec(1, 1)])})


def test_idempotent_restriction_of_decomposition():
    # restricting to one isotypic component returns a single weight
    full = torus_model(1).full_model
    decomp = weight_decomposition(Sl2Module.from_algebra(full))
    sub = decomp.isotypic_subspace(2, 2)
    assert sub.dim == 3  # weight-2 irrep is 3-dimensional


# -- sparse ideal loops against the dense reference ----------------------------
#
# The reference functions are the dense loops the ideal closure, the
# two-sided check and the algebra-map certificate used before they went
# through the label-keyed product and pivot containment: every product is a
# dense StructuredAlgebra.mul of a unit vector and a dense vector.


def ref_low_weight_ideal(algebra, decomp):
    space = algebra.space
    ideal = {k: Subspace.zero(space.dim(k)) for k in space.degrees()}
    frontier = []
    for k in space.degrees():
        gens = []
        for w in decomp.weights(k):
            if w < k:
                gens.extend(decomp.isotypic_vectors(k, w))
        if gens:
            ideal[k] = Subspace.from_vectors(space.dim(k), gens)
            frontier.extend((k, v) for v in ideal[k].vectors())
    labels = [(l, space.degree_of(l)) for l in space.all_labels()]
    while frontier:
        new_frontier = []
        for kv, v in frontier:
            for lab, kl in labels:
                _, unit = space.basis_vector(lab)
                for prod in (algebra.mul(kl, unit, kv, v), algebra.mul(kv, v, kl, unit)):
                    deg = kv + kl
                    if space.dim(deg) == 0 or not prod:
                        continue
                    if not ideal[deg].contains(prod):
                        ideal[deg] = ideal[deg].add(Subspace.from_vectors(space.dim(deg), [prod]))
                        new_frontier.append((deg, prod))
        frontier = new_frontier
    return ideal


def ref_two_sided_witness(algebra, ideal):
    space = algebra.space
    labels = [(l, space.degree_of(l)) for l in space.all_labels()]
    for k, sub in ideal.items():
        for v in sub.vectors():
            for lab, kl in labels:
                _, unit = space.basis_vector(lab)
                for prod in (algebra.mul(kl, unit, k, v), algebra.mul(k, v, kl, unit)):
                    if not prod:
                        continue
                    if k + kl not in ideal or not ideal[k + kl].contains(prod):
                        return {"degree": k, "label": lab}
    return None


def ref_algebra_map_witness(algebra, qmap, quotient):
    space = algebra.space
    q_space = quotient.space
    labels = [(l, space.degree_of(l)) for l in space.all_labels()]
    for lab1, k1 in labels:
        _, v1 = space.basis_vector(lab1)
        q1 = qmap.apply(k1, v1)
        for lab2, k2 in labels:
            if q_space.dim(k1 + k2) == 0 and space.dim(k1 + k2) == 0:
                continue
            _, v2 = space.basis_vector(lab2)
            lhs = qmap.apply(k1 + k2, algebra.mul(k1, v1, k2, v2))
            rhs = quotient.mul(k1, q1, k2, qmap.apply(k2, v2))
            if lhs != rhs:
                return {"pair": [lab1, lab2]}
    return None


REFERENCE_MODELS = {
    "torus_r1": lambda: torus_model(1).full_model,
    "torus_r2": lambda: torus_model(2).full_model,
    "nilpotent_r2": lambda: nilpotent_torus_model(2).full_model,
}


@pytest.mark.parametrize("name", sorted(REFERENCE_MODELS))
def test_ideal_loops_match_dense_reference(name):
    full = REFERENCE_MODELS[name]()
    decomp = weight_decomposition(Sl2Module.from_algebra(full))
    ideal = low_weight_ideal(full, decomp)
    assert ideal == ref_low_weight_ideal(full, decomp)
    assert two_sided_witness(full, ideal) is None
    assert ref_two_sided_witness(full, ideal) is None
    quotient = plus_quotient(full, ideal, decomp)
    assert algebra_map_witness(full, quotient.qmap, quotient.algebra) is None
    assert ref_algebra_map_witness(full, quotient.qmap, quotient.algebra) is None


def _torus_r1_ideal():
    full = torus_model(1).full_model
    return full, low_weight_ideal(full, weight_decomposition(Sl2Module.from_algebra(full)))


def _drop_degree_3():
    full, ideal = _torus_r1_ideal()
    return full, {**ideal, 3: Subspace.zero(full.space.dim(3))}


def _degree_2_only():
    full, ideal = _torus_r1_ideal()
    return full, {2: ideal[2]}


def _random_degree_1_line():
    full, ideal = _torus_r1_ideal()
    rnd = random.Random(5)
    v = vec(*(rnd.randint(-2, 2) for _ in range(full.space.dim(1))))
    return full, {**ideal, 1: Subspace.from_vectors(full.space.dim(1), [v])}


@pytest.mark.parametrize("build", [_drop_degree_3, _degree_2_only, _random_degree_1_line])
def test_non_two_sided_ideal_gives_the_reference_witness(build):
    full, ideal = build()
    witness = two_sided_witness(full, ideal)
    assert witness is not None
    assert witness == ref_two_sided_witness(full, ideal)
    with pytest.raises(ModelError, match="not a two-sided ideal"):
        plus_quotient(full, ideal)


def test_left_ideal_that_is_not_right_gives_the_reference_witness(gl2):
    # span(E11, E21) is gl(2) * E11, closed on the left but E11 * E12 = E12
    labels = gl2.space.labels(0)
    left_ideal = {0: Subspace.from_vectors(4, [{labels.index(lab): ONE} for lab in ("E11", "E21")])}
    witness = two_sided_witness(gl2, left_ideal)
    assert witness == {"degree": 0, "label": "E12"}
    assert witness == ref_two_sided_witness(gl2, left_ideal)


class GeneratorsOnly:
    """Stands in for an IsotypicDecomposition in low_weight_ideal: the given
    vectors are the whole low-weight part (weight -1 < k) of degree k."""

    def __init__(self, gens):
        self.gens = gens

    def weights(self, k):
        return [-1] if self.gens.get(k) else []

    def isotypic_vectors(self, k, w):
        return self.gens[k]


random_oracle = settings(max_examples=100, deadline=None)


@random_oracle
@given(random_algebras(), st.data())
def test_ideal_loops_match_dense_reference_on_random_algebras(alg, data):
    space = alg.space
    gens = {k: [data.draw(sparse_vectors(space.dim(k))) for _ in range(data.draw(st.integers(0, 2)))]
            for k in space.degrees()}
    ideal = low_weight_ideal(alg, GeneratorsOnly(gens))
    assert ideal == ref_low_weight_ideal(alg, GeneratorsOnly(gens))
    assert two_sided_witness(alg, ideal) is None
    assert ref_two_sided_witness(alg, ideal) is None
    # an arbitrary graded subspace, some degrees left out of the dict
    hand_made = {k: Subspace.from_vectors(space.dim(k), [data.draw(sparse_vectors(space.dim(k)))])
                 for k in space.degrees() if data.draw(st.booleans())}
    assert two_sided_witness(alg, hand_made) == ref_two_sided_witness(alg, hand_made)


@random_oracle
@given(random_algebras(), st.data())
def test_algebra_map_witness_matches_dense_reference_on_random_maps(alg, data):
    if data.draw(st.booleans()):
        # x -> c^deg(x) x respects every graded product
        c = data.draw(st.sampled_from(COEFFS))
        powers = [ONE, c, c * c]
        qmap = GradedMap(alg.space, alg.space, 0,
                         {k: m.scale(powers[k]) for k, m in GradedMap.identity(alg.space).blocks.items()})
        quotient = alg
    else:
        q_space = data.draw(graded_spaces("q"))
        qmap = data.draw(graded_maps(alg.space, q_space))
        quotient = data.draw(random_algebras(q_space))
    witness = algebra_map_witness(alg, qmap, quotient)
    assert witness == ref_algebra_map_witness(alg, qmap, quotient)
    if quotient is alg:
        assert witness is None


@pytest.mark.parametrize("pick", [0, 7, -1])
@pytest.mark.parametrize("how", ["shift", "drop"])
def test_corrupted_quotient_gives_the_reference_witness(pick, how):
    full, ideal = _torus_r1_ideal()
    quotient = plus_quotient(full, ideal)
    q = quotient.algebra
    triples = sorted(q.structure_triples())
    l1, l2, lt, c = triples[pick]
    if how == "shift":
        triples[pick] = (l1, l2, lt, c + ONE)
    else:
        del triples[pick]
    corrupted = StructuredAlgebra(q.space, q.kind, {},
                                  StructuredAlgebra.structure_from_triples(triples))
    witness = algebra_map_witness(full, quotient.qmap, corrupted)
    assert witness is not None
    assert witness == ref_algebra_map_witness(full, quotient.qmap, corrupted)


# -- degree pruning: walks that skip products which cannot fail ------------------
#
# The ideal closure, the two-sided check, the stability loops of plus_quotient
# and the algebra-map certificate skip every product whose degree the space
# lacks or the ideal (or the quotient) fills; the dense references above form
# every product.


@random_oracle
@given(random_algebras(), st.data())
def test_pruned_walks_match_the_dense_reference_where_the_ideal_fills_degrees(alg, data):
    space = alg.space
    filled = [k for k in space.degrees() if data.draw(st.booleans())]
    gens = {k: (Subspace.full(space.dim(k)).vectors() if k in filled else
                [data.draw(sparse_vectors(space.dim(k))) for _ in range(data.draw(st.integers(0, 2)))])
            for k in space.degrees()}
    ideal = low_weight_ideal(alg, GeneratorsOnly(gens))
    assert ideal == ref_low_weight_ideal(alg, GeneratorsOnly(gens))
    assert all(ideal[k].dim == space.dim(k) for k in filled)
    # some degrees full, some left out of the dict, some a line
    hand_made = {}
    for k in space.degrees():
        how = data.draw(st.sampled_from(("full", "absent", "line")))
        if how == "full":
            hand_made[k] = Subspace.full(space.dim(k))
        elif how == "line":
            hand_made[k] = Subspace.from_vectors(space.dim(k), [data.draw(sparse_vectors(space.dim(k)))])
    assert two_sided_witness(alg, hand_made) == ref_two_sided_witness(alg, hand_made)


@random_oracle
@given(random_algebras(), st.data())
def test_algebra_map_witness_matches_the_dense_loop_on_targets_with_empty_degrees(alg, data):
    empty = data.draw(st.sets(st.sampled_from((0, 1, 2, 3, 4))))
    q_space = GradedSpace({k: [f"q{k}_{i}" for i in range(data.draw(st.integers(1, 3)))]
                           for k in range(3) if k not in empty})
    qmap = data.draw(graded_maps(alg.space, q_space))
    quotient = data.draw(random_algebras(q_space))
    witness = algebra_map_witness(alg, qmap, quotient)
    assert witness == ref_dense_algebra_map_witness(qmap, alg, quotient)
    assert witness == ref_algebra_map_witness(alg, qmap, quotient)


@random_oracle
@given(random_algebras(), st.data())
def test_algebra_map_witness_matches_the_dense_loops_when_f_kills_basis_labels(alg, data):
    """f(a) = 0 on a drawn set of labels: a pair with no product in alg and a
    killed factor is skipped, a pair with a product is still checked."""
    labels = alg.space.all_labels()
    killed = data.draw(st.sets(st.sampled_from(labels))) if labels else set()
    q_space = data.draw(graded_spaces("q"))
    drawn = data.draw(graded_maps(alg.space, q_space))
    qmap = GradedMap.from_entries(alg.space, q_space, 0,
                                  [e for e in drawn.entries() if e[0] not in killed])
    quotient = data.draw(random_algebras(q_space))
    witness = algebra_map_witness(alg, qmap, quotient)
    assert witness == ref_dense_algebra_map_witness(qmap, alg, quotient)
    assert witness == ref_algebra_map_witness(alg, qmap, quotient)


def test_first_failure_just_below_a_full_degree_gives_the_reference_witness():
    """Degrees 3 and 4 of the rank-1 torus ideal are full.  With a random
    line in degree 1, the first product that leaves the ideal is a degree-1
    label times it, in degree 2, the degree just below the full one; the
    products into degree 3 are the ones the walk skips."""
    full, ideal = _random_degree_1_line()
    dim = full.space.dim
    assert ideal[3].dim == dim(3) and ideal[2].dim < dim(2)
    witness = two_sided_witness(full, ideal)
    assert witness == ref_two_sided_witness(full, ideal)
    assert witness["degree"] == 1 and full.space.degree_of(witness["label"]) == 1
    with pytest.raises(ModelError, match="not a two-sided ideal"):
        plus_quotient(full, ideal)


def test_stability_loops_skip_only_filled_target_degrees():
    # d x = y: the ideal spanned by x is d-stable exactly when it holds y
    space = GradedSpace({0: ["u"], 1: ["x"], 2: ["y"]})
    d = GradedMap.from_entries(space, space, 1, [("x", "y", ONE)])
    alg = StructuredAlgebra(space, "associative", {"d": d}, {})
    zero, full = Subspace.zero(1), Subspace.full(1)
    assert plus_quotient(alg, {0: zero, 1: full, 2: full}).dims() == {0: 1}
    with pytest.raises(ModelError, match="not stable under differential 'd': degree 1"):
        plus_quotient(alg, {0: zero, 1: full, 2: zero})

    # one walk per operator serves the d, h and e/f/h checks; x, y have
    # h-weights 1, -1 with e y = x, f x = y, and d x = z
    space = GradedSpace({0: ["u"], 1: ["x", "y"], 2: ["z"]})
    d = GradedMap.from_entries(space, space, 1, [("x", "z", ONE)])
    sl2 = {"e": [("y", "x", ONE)], "f": [("x", "y", ONE)],
           "h": [("x", "x", ONE), ("y", "y", -ONE)]}
    alg = StructuredAlgebra(space, "associative", {"d": d}, {}, {
        name: GradedMap.from_entries(space, space, 0, entries)
        for name, entries in sl2.items()})
    # x + y: d-stable once z is in, but h(x + y) = x - y leaves
    with pytest.raises(ModelError) as err:
        plus_quotient(alg, {1: Subspace.from_vectors(2, [vec(1, 1)]), 2: full})
    assert str(err.value) == "ideal is not h-stable at degree 1; bigraded quotient unavailable"
    # y: d- and h-stable, but e y = x leaves; x: f x = y leaves
    with pytest.raises(ModelError) as err:
        plus_quotient(alg, {1: Subspace.from_vectors(2, [vec(0, 1)])})
    assert str(err.value) == "ideal not stable under e: degree 1"
    with pytest.raises(ModelError) as err:
        plus_quotient(alg, {1: Subspace.from_vectors(2, [vec(1, 0)]), 2: full})
    assert str(err.value) == "ideal not stable under f: degree 1"


def test_plus_quotient_forms_no_dense_product_on_the_rank_2_torus(monkeypatch):
    """A count, not a timing: building the rank-2 torus quotient made 8,192
    label products and 496 dense products before the walks skipped the
    products into degrees the ideal fills and the quotient structure went
    through sparse representatives.  Every product is now one call of mul,
    and none of them takes the lifted branch, whose numerator lists span
    the whole target degree."""
    calls = Counter()

    def counted(name):
        method = getattr(StructuredAlgebra, name)

        def count(*args):
            calls[name] += 1
            return method(*args)
        return count

    model = torus_model(2)
    monkeypatch.setattr(StructuredAlgebra, "mul", counted("mul"))
    monkeypatch.setattr(StructuredAlgebra, "_lifted_product", staticmethod(counted("_lifted_product")))
    model.plus_quotient
    assert calls["_lifted_product"] == 0
    assert 0 < calls["mul"] <= 688


# -- torus regression: quotient bigrading and pinned r = 3 reports -------------

# sha256 of the `--format json` reports on `generate torus --rank 3`, run in
# the directory of the model file; recorded before the ideal loops went sparse
TORUS_R3_REPORT_SHA256 = {
    ("sl2",): "57a97efa5dc059095536c77a58cc7ede89c786a445eb6e9bec62496345456265",
    ("qdolbeault", "--phi"): "f45ee132b6f6c5b1eb2d1fee2be694892b737b1c11d6b13cd52e9bd3268438c5",
}

# sha256 of the `--format json` reports of the commands whose product walks
# went sparse and degree-pruned, on `generate torus --rank 2|3` and on
# `generate torus --rank 2 --nilpotent-twist`; recorded before that change
PRUNED_WALK_REPORT_SHA256 = {
    ("formality", "--d0", "del", "--d1", "del_bar", "torus_r2.model"):
        "5993290401cb427a5c7c30be069ad3d871091ff08ca3f7441655b2b472c1f7b7",
    ("formality", "--d0", "del", "--d1", "del_bar", "torus_r3.model"):
        "b8ee281fbc099d71a911f6e97dec86190d84fe196095329b4193c44fde633bc3",
    ("sl2", "twisted_r2.model"):
        "e41c9e15683a5820ac38dc67550ef9c939b3dc110c99a9ca769215dc76630af1",
    ("qdolbeault", "--phi", "twisted_r2.model"):
        "d38bae68d966c587fcaf106a0f6499188ea5cd22f88b6a529a263f98a70161b0",
}


@pytest.fixture(scope="module")
def torus_reports(cli_run):
    """cli_run in a directory holding torus_r{1,2,3}.model from `generate torus`
    and twisted_r2.model from `generate torus --rank 2 --nilpotent-twist`."""
    for r in (1, 2, 3):
        assert cli_run("generate", "torus", "--rank", str(r), "-o", f"torus_r{r}.model")[0] == 0
    assert cli_run("generate", "torus", "--rank", "2", "--nilpotent-twist",
                   "-o", "twisted_r2.model")[0] == 0
    return cli_run


@pytest.mark.parametrize("r", [1, 2, 3])
def test_torus_quotient_bigraded_dims(torus_reports, r):
    """A regression on what dgkit computes, not a theorem it proves: the
    quotient of the rank-r torus (quaternionic dimension n = 1) has
    bigraded dimension r^2 C(2n, p + q) for p + q <= 2n and 0 elsewhere."""
    code, out = torus_reports("--format", "json", "sl2", f"torus_r{r}.model")
    assert code == 0
    got = json.loads(out)["report"]["quotient"]["bigraded_dims"]
    want = {f"{p},{q}": r * r * comb(2, p + q)
            for p in range(3) for q in range(3) if p + q <= 2}
    assert got == want


@pytest.mark.parametrize("command", sorted(TORUS_R3_REPORT_SHA256), ids=" ".join)
def test_torus_r3_reports_are_pinned(torus_reports, command):
    code, out = torus_reports("--format", "json", *command, "torus_r3.model")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TORUS_R3_REPORT_SHA256[command]


@pytest.mark.parametrize("argv", sorted(PRUNED_WALK_REPORT_SHA256), ids=" ".join)
def test_pruned_walk_reports_are_pinned(torus_reports, argv):
    code, out = torus_reports("--format", "json", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PRUNED_WALK_REPORT_SHA256[argv]

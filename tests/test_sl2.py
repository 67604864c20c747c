import random
from collections import Counter

import pytest

from dgkit.errors import ModelError
from dgkit.graded import GradedMap, GradedSpace, StructuredAlgebra
from dgkit.linalg import Subspace
from dgkit.models import torus_model
from dgkit.scalars import ONE, Scalar
from dgkit.sl2 import (
    Sl2Module,
    integer_spectrum,
    low_weight_ideal,
    plus_quotient,
    weight_decomposition,
)
from dgkit.linalg import Matrix


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
        columns = [tuple(Scalar(p[i][j]) for i in range(6))
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


def test_idempotent_restriction_of_decomposition():
    # restricting to one isotypic component returns a single weight
    full = torus_model(1).full_model
    decomp = weight_decomposition(Sl2Module.from_algebra(full))
    sub = decomp.isotypic_subspace(2, 2)
    assert sub.dim == 3  # weight-2 irrep is 3-dimensional

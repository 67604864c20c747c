"""The one vector format, {index: non-zero Scalar}, at every kernel that
takes or returns vectors: each result holds no zero and no index outside its
degree, no call changes its operands, and each result matches the dense
reference loop it replaced."""

from hypothesis import given, settings
from hypothesis import strategies as st

from dgkit.deform import Series
from dgkit.graded import StructuredAlgebra
from dgkit.linalg import DimensionMismatch, Matrix, linear_solve
from dgkit.scalars import ONE, ZERO
from strategies import (COEFFS, FRACTIONS, dense, dg_algebras, graded_maps, random_algebras,
                        sparse, vectors)
from test_graded import reference_mul
from test_linalg import ref_apply, ref_linear_solve, sparse_matrices
from test_subquotient import outcome, ref_classes, subquotients

contract = settings(max_examples=120, deadline=None)


def assert_vector(v, n):
    """v is a vector of F^n: a dict of non-zero Scalars on indices 0..n-1."""
    assert isinstance(v, dict)
    assert all(isinstance(i, int) and 0 <= i < n for i in v)
    assert not any(c.is_zero() for c in v.values())


def frozen(*operands):
    """Deep copies of the operands, to compare them with after a call; a
    Scalar is immutable, so the copies share them."""
    def copy(x):
        if isinstance(x, dict):
            return {k: copy(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [copy(v) for v in x]
        return x
    return copy(operands)


def coefficients(series):
    return [dict(c) for c in series.coeffs]


@contract
@given(sparse_matrices(), st.data())
def test_matrix_apply(m, data):
    v = data.draw(vectors(m.cols))
    before = frozen(v, m.data)
    got = m.apply(v)
    assert frozen(v, m.data) == before
    assert_vector(got, m.rows)
    assert got == sparse(ref_apply(m, dense(v, m.cols)))
    assert got is not v


def test_apply_drops_an_entry_that_cancels():
    m = Matrix.from_entries(2, 2, [(0, 0, ONE), (0, 1, -ONE), (1, 1, ONE)])
    assert m.apply({0: ONE, 1: ONE}) == {1: ONE}


@contract
@given(st.sampled_from(("associative", "lie")), st.data())
def test_mul_and_bracket(kind, data):
    alg = data.draw(random_algebras(coeffs=COEFFS + FRACTIONS))
    alg = StructuredAlgebra(alg.space, kind, {}, alg.structure)
    space = alg.space
    k1, k2 = (data.draw(st.sampled_from(space.degrees() + [3])) for _ in range(2))
    v1 = data.draw(vectors(space.dim(k1)))
    v2 = data.draw(vectors(space.dim(k2)))
    before = frozen(v1, v2)
    product = alg.mul(k1, v1, k2, v2)
    bracket = alg.bracket(k1, v1, k2, v2)
    assert frozen(v1, v2) == before
    n = space.dim(k1 + k2)
    assert_vector(product, n)
    assert_vector(bracket, n)
    assert product == reference_mul(alg, k1, v1, k2, v2)
    want = dense(reference_mul(alg, k1, v1, k2, v2), n)
    if kind == "associative":
        sign = -ONE if (k1 * k2) % 2 == 0 else ONE
        other = dense(reference_mul(alg, k2, v2, k1, v1), n)
        want = [a + sign * b for a, b in zip(want, other)]
    assert bracket == sparse(want)


@contract
@given(random_algebras(), st.integers(0, 2), st.data())
def test_graded_map_apply(alg, shift, data):
    space = alg.space
    f = data.draw(graded_maps(space, space, shift))
    for k in space.degrees() + [3]:
        v = data.draw(vectors(space.dim(k)))
        before = frozen(v)
        got = f.apply(k, v)
        assert frozen(v) == before
        n = space.dim(k + shift)
        assert_vector(got, n)
        block = f.block(k)
        assert got == sparse(ref_apply(block, dense(v, space.dim(k))))
    k = data.draw(st.sampled_from(space.degrees() + [3]))
    try:
        f.apply(k, {space.dim(k): ONE})
    except DimensionMismatch:
        pass
    else:
        raise AssertionError("an index outside the degree was accepted")


@contract
@given(subquotients(), st.data())
def test_subquotient_project(sub, data):
    space = sub.algebra.space
    for k in space.degrees():
        n = space.dim(k)
        vs = [data.draw(vectors(n)) for _ in range(data.draw(st.integers(0, 3)))]
        vs += sub.reps[k][:2]
        before = frozen(vs, sub.reps, [v.basis.data for v in sub.inner.values()])
        got = outcome(sub.project, k, vs)
        assert frozen(vs, sub.reps, [v.basis.data for v in sub.inner.values()]) == before
        assert got == outcome(ref_classes, sub, k, vs)
        if isinstance(got, list):
            for c in got:
                assert_vector(c, sub.dim(k))


@contract
@given(sparse_matrices(), st.data())
def test_linear_solve(m, data):
    if data.draw(st.booleans()):
        target = data.draw(vectors(m.rows))
    else:
        target = m.apply(data.draw(vectors(m.cols)))
    before = frozen(target, m.data)
    got = linear_solve(m, target)
    assert frozen(target, m.data) == before
    want = ref_linear_solve(m, dense(target, m.rows))
    assert (got is None) == (want is None)
    if got is not None:
        x, kernel = got
        assert_vector(x, m.cols)
        assert x == sparse(want[0])
        assert kernel.basis.data == want[1]
        for v in kernel.vectors():
            assert_vector(v, m.cols)


def m_series(draw, n, degree, order):
    return Series(degree, [{}] + [draw(vectors(n)) for _ in range(order - 1)])


@contract
@given(dg_algebras("lie"), st.integers(2, 5), st.data())
def test_series_add_and_times(lie, order, data):
    space = lie.space
    k1, k2 = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    u = m_series(data.draw, space.dim(k1), k1, order)
    v = m_series(data.draw, space.dim(k1), k1, order)
    w = m_series(data.draw, space.dim(k2), k2, order)
    before = frozen(coefficients(u), coefficients(v), coefficients(w))
    total = u.add(v)
    product = u.times(w, lambda a, b: lie.mul(k1, a, k2, b), {})
    assert frozen(coefficients(u), coefficients(v), coefficients(w)) == before
    n, m = space.dim(k1), space.dim(k1 + k2)
    for p in range(order):
        assert_vector(total.coeffs[p], n)
        assert_vector(product.coeffs[p], m)
        assert total.coeffs[p] == sparse([a + b for a, b in zip(dense(u.coeffs[p], n),
                                                                dense(v.coeffs[p], n))])
        want = [ZERO] * m
        for i in range(p + 1):
            term = dense(reference_mul(lie, k1, u.coeffs[i], k2, w.coeffs[p - i]), m)
            want = [a + b for a, b in zip(want, term)]
        assert product.coeffs[p] == sparse(want)

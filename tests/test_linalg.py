import ast
import contextlib
import importlib
import io
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgkit.cli import main
from dgkit.graded import GradedMap, GradedSpace
from dgkit.linalg import (
    Complement,
    DimensionMismatch,
    Matrix,
    Subspace,
    add_multiple,
    coordinates_in_basis,
    image_of,
    kernel_of,
    linear_solve,
    nullspace_and_image,
    solve_batch,
)
from dgkit.scalars import ONE, ZERO, Scalar
from strategies import dense, sparse, vec


def M(rows):
    return Matrix.from_rows([[Scalar(x) for x in r] for r in rows], cols=len(rows[0]) if rows else 0)


V = vec


# -- nullspace_and_image oracles from hand computation ----------------------


def test_zero_matrix_kernel_full_image_zero():
    k, im = nullspace_and_image(Matrix.zero(3, 3))
    assert k == Subspace.full(3)
    assert im == Subspace.zero(3)


def test_identity_kernel_zero_image_full():
    k, im = nullspace_and_image(Matrix.identity(4))
    assert k == Subspace.zero(4)
    assert im == Subspace.full(4)


def test_rank_one_square():
    # [[1,1],[1,1]]: kernel spanned by (1,-1), image by (1,1)
    k, im = nullspace_and_image(M([[1, 1], [1, 1]]))
    assert k == Subspace.from_vectors(2, [V(1, -1)])
    assert im == Subspace.from_vectors(2, [V(1, 1)])


def test_kernel_annihilates_matrix():
    rng = random.Random(7)
    for _ in range(20):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = M([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
        k, im = nullspace_and_image(m)
        assert k.dim + im.dim == cols
        for v in k.vectors():
            assert m.apply(v) == {}


def test_rank_transpose_invariant():
    rng = random.Random(11)
    for _ in range(20):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = M([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
        transpose = Matrix.from_columns(m.cols, [sparse(row) for row in m.data])
        assert m.rank() == transpose.rank()


# -- subspace calculus -------------------------------------------------------


def test_coordinate_subspace_intersection():
    u = Subspace.from_vectors(3, [{0: ONE}, {1: ONE}])
    w = Subspace.from_vectors(3, [{1: ONE}, {2: ONE}])
    assert u.intersect(w) == Subspace.from_vectors(3, [{1: ONE}])


def test_equality_is_reflexive_and_canonical():
    u = Subspace.from_vectors(2, [V(1, 1), V(2, 2)])
    w = Subspace.from_vectors(2, [V(3, 3)])
    assert u == u
    assert u == w
    assert u.basis == w.basis  # canonical forms are bit-identical


def test_dimension_formula_random():
    rng = random.Random(3)
    for _ in range(25):
        n = 6
        u = Subspace.from_vectors(n, [V(*[rng.randint(-2, 2) for _ in range(n)]) for _ in range(3)])
        w = Subspace.from_vectors(n, [V(*[rng.randint(-2, 2) for _ in range(n)]) for _ in range(4)])
        s = u.add(w)
        i = u.intersect(w)
        assert u.dim + w.dim == s.dim + i.dim
        for v in i.vectors():
            assert u.contains(v) and w.contains(v)


def test_ambient_mismatch_rejected():
    for op in (Subspace.add, Subspace.intersect, Subspace.contains_subspace):
        with pytest.raises(DimensionMismatch):
            op(Subspace.zero(2), Subspace.zero(3))


# -- linear_solve -------------------------------------------------------------


def test_solve_identity():
    got = linear_solve(Matrix.identity(3), V(5, -1, 2))
    assert got is not None
    x, k = got
    assert x == V(5, -1, 2)
    assert k.dim == 0


def test_solve_zero_matrix_no_solution():
    assert linear_solve(Matrix.zero(2, 2), V(1, 0)) is None


def test_solve_one_parameter_family():
    # [[2,0],[0,0]] x = (1,0): particular (1/2, 0), kernel spanned by e2
    got = linear_solve(M([[2, 0], [0, 0]]), V(1, 0))
    assert got is not None
    x, k = got
    assert x == V(Fraction(1, 2), 0)
    assert k == Subspace.from_vectors(2, [V(0, 1)])


def test_solve_batch_and_coordinates():
    basis = [V(1, 1, 0), V(0, 1, 1)]
    vecs = [V(1, 2, 1), V(2, 2, 0)]
    coords = coordinates_in_basis(basis, vecs)
    assert coords == [V(1, 1), V(2, 0)]
    assert coordinates_in_basis(basis, [V(1, 0, 0)]) is None
    assert solve_batch(Matrix.identity(2), Matrix.identity(2)) == Matrix.identity(2)


def test_extend_basis():
    inner = Subspace.from_vectors(3, [V(1, 0, 0)])
    outer = Subspace.full(3)
    comp = Complement(inner, outer.vectors())
    assert comp.vectors == [V(0, 1, 0), V(0, 0, 1)] == ref_extend_basis(inner, outer)
    assert comp.taken == [1, 2]
    total = inner.add(Subspace.from_vectors(3, comp.vectors))
    assert total == outer
    # the inner part is dropped; a vector of F^3 always lies in the span
    assert comp.project([V(5, 2, -1), V(1, 0, 0)]) == [V(2, -1), {}]


def test_complement_projection_rejects_vectors_outside_the_span():
    inner = Subspace.from_vectors(3, [V(1, 1, 0)])
    comp = Complement(inner, [V(1, 1, 0), V(2, 2, 0), V(0, 1, 0)])
    assert comp.taken == [2]
    assert comp.project([V(3, 1, 0)]) == [V(-2)]
    assert comp.project([V(3, 1, 0), V(0, 0, 1)]) is None
    assert comp.project([]) == []
    empty = Complement(Subspace.zero(0), [])
    assert (empty.vectors, empty.project([{}, {}])) == ([], [{}, {}])
    with pytest.raises(DimensionMismatch):
        comp.project([V(0, 0, 0, 1)])


# -- property-based checks ----------------------------------------------------

small_entries = st.integers(min_value=-4, max_value=4)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_rref_idempotent_and_rank_nullity(rows, cols, data):
    entries = [
        [Scalar(data.draw(small_entries)) for _ in range(cols)] for _ in range(rows)
    ]
    m = Matrix.from_rows(entries, cols)
    red, pivots = m.rref()
    again, pivots2 = red.rref()
    assert red == again and pivots == pivots2
    k, im = nullspace_and_image(m)
    assert k.dim + im.dim == cols


# -- differential oracle for the zero-skipping kernel ---------------------------
#
# The reference functions below are the dense loops the kernel used before it
# learned to skip zero entries: every entry of every row takes part.  They
# live only here, as the reference the sparse-aware kernel must reproduce
# entry for entry.  sympy's exact RREF over QQ<I> is a second, independent
# reference for rank, pivots and the echelon form.


def ref_rref(m):
    rows = [row[:] for row in m.data]
    pivots = []
    r = 0
    for c in range(m.cols):
        pivot_row = None
        for i in range(r, m.rows):
            if not rows[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [inv * x for x in rows[r]]
        for i in range(m.rows):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return rows, pivots


def ref_apply(m, v):
    out = []
    for i in range(m.rows):
        acc = ZERO
        row = m.data[i]
        for j, x in enumerate(v):
            if not x.is_zero() and not row[j].is_zero():
                acc = acc + row[j] * x
        out.append(acc)
    return tuple(out)


def ref_mul(a, b):
    out = [[ZERO] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for k in range(a.cols):
            x = a.data[i][k]
            if x.is_zero():
                continue
            for j in range(b.cols):
                y = b.data[k][j]
                if not y.is_zero():
                    out[i][j] = out[i][j] + x * y
    return out


def ref_span(n, vectors):
    """Canonical basis rows of the span: the non-zero rows of the RREF."""
    if not vectors:
        return []
    rows, pivots = ref_rref(Matrix.from_rows(vectors, n))
    return rows[:len(pivots)]


def ref_contains(basis_rows, v):
    residual = list(v)
    for row in basis_rows:
        lead = next(j for j, x in enumerate(row) if not x.is_zero())
        c = residual[lead]
        if not c.is_zero():
            residual = [a - c * b for a, b in zip(residual, row)]
    return all(x.is_zero() for x in residual)


def ref_kernel(m):
    rows, pivots = ref_rref(m)
    vectors = []
    for f in range(m.cols):
        if f in pivots:
            continue
        v = [ZERO] * m.cols
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        vectors.append(v)
    return ref_span(m.cols, vectors)


def ref_image(m):
    return ref_span(m.rows, [[row[j] for row in m.data] for j in range(m.cols)])


def ref_linear_solve(m, target):
    aug = m.hstack(Matrix(m.rows, 1, [[t] for t in target]))
    rows, pivots = ref_rref(aug)
    if m.cols in pivots:
        return None
    x = [ZERO] * m.cols
    for r, p in enumerate(pivots):
        x[p] = rows[r][m.cols]
    return tuple(x), ref_kernel(m)


def ref_extend_basis(inner, outer):
    """Vectors of `outer` extending a basis of `inner`: each canonical row of
    outer not yet in the span, with one Subspace.add per row taken."""
    if not outer.contains_subspace(inner):
        raise DimensionMismatch("inner subspace is not contained in outer")
    chosen = []
    current = inner
    for v in outer.vectors():
        if not current.contains(v):
            chosen.append(v)
            current = current.add(Subspace.from_vectors(outer.ambient_dim, [v]))
    return chosen


def ref_project(inner, complement, vectors):
    """Complement coordinates of each vector, one elimination of
    [inner basis | complement | vectors] per call; None outside the span."""
    coords = coordinates_in_basis(inner.vectors() + complement, list(vectors))
    a = inner.dim
    return None if coords is None else [{t - a: x for t, x in c.items() if t >= a} for c in coords]


UNITS = (ONE, -ONE, Scalar(0, 1), Scalar(0, -1))
fractions_ = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4)))
nonzero_entries = st.one_of(
    st.sampled_from(UNITS),
    st.builds(Scalar, fractions_, fractions_).filter(lambda x: not x.is_zero()),
)
dims = st.integers(min_value=0, max_value=6)


def sparse_entry(draw, density):
    return draw(nonzero_entries) if draw(st.integers(0, 99)) < density else ZERO


@st.composite
def sparse_matrices(draw, rows=None, cols=None):
    """Sparse Q(i) matrices: signed permutation-like blocks or random sparse
    fill, with some rows and columns forced to zero; 0 x n and n x 0 allowed."""
    rows = draw(dims) if rows is None else rows
    cols = draw(dims) if cols is None else cols
    data = [[ZERO] * cols for _ in range(rows)]
    if draw(st.booleans()):
        perm = draw(st.permutations(range(max(rows, cols))))
        for i in range(rows):
            if perm[i] < cols:
                data[i][perm[i]] = draw(st.sampled_from(UNITS))
        for _ in range(draw(st.integers(0, 3)) if rows and cols else 0):
            data[draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] = \
                draw(nonzero_entries)
    else:
        density = draw(st.sampled_from((10, 30, 60, 100)))
        data = [[sparse_entry(draw, density) for _ in range(cols)] for _ in range(rows)]
    for i in draw(st.sets(st.integers(0, rows - 1))) if rows else ():
        data[i] = [ZERO] * cols
    for j in draw(st.sets(st.integers(0, cols - 1))) if cols else ():
        for row in data:
            row[j] = ZERO
    return Matrix(rows, cols, data)


@st.composite
def sparse_vectors(draw, n):
    density = draw(st.sampled_from((0, 20, 50, 100)))
    return tuple(sparse_entry(draw, density) for _ in range(n))


oracle = settings(max_examples=150, deadline=None)


@oracle
@given(sparse_matrices())
def test_rref_kernel_image_match_dense_reference(m):
    before = [row[:] for row in m.data]
    red, pivots = m.rref()
    assert m.data == before  # rref works on private copies of the rows
    ref_rows, ref_pivots = ref_rref(m)
    assert (red.data, pivots) == (ref_rows, ref_pivots)
    assert kernel_of(m).basis.data == ref_kernel(m)
    assert image_of(m).basis.data == ref_image(m)


@oracle
@given(sparse_matrices(), st.data())
def test_apply_and_product_match_dense_reference(m, data):
    v = data.draw(sparse_vectors(m.cols))
    assert m.apply(sparse(v)) == sparse(ref_apply(m, v))
    other = data.draw(sparse_matrices(rows=m.cols))
    assert (m * other).data == ref_mul(m, other)


def assert_matrix(got, rows):
    """got holds exactly the dense rows, and equals and hashes as the matrix
    built from them."""
    want = Matrix(got.rows, got.cols, rows)
    assert got.data == rows
    assert got == want and hash(got) == hash(want)


@oracle
@given(sparse_matrices(), st.data())
def test_every_matrix_kernel_matches_its_dense_loop(m, data):
    """Each Matrix operation against the dense loop over all rows x cols
    entries that it replaced; each matrix result must also equal and hash
    as the matrix built from the dense rows.  apply and entries are checked
    in the tests above and below."""
    d = m.data
    other = data.draw(sparse_matrices(rows=m.rows, cols=m.cols))
    e = other.data
    assert_matrix(m + other, [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(d, e)])
    assert_matrix(m - other, [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(d, e)])
    c = data.draw(st.one_of(st.just(ZERO), nonzero_entries))
    assert_matrix(m.scale(c), [[c * x for x in row] for row in d])
    assert_matrix(m.hstack(other), [r1 + r2 for r1, r2 in zip(d, e)])
    assert_matrix(m.vstack(other), d + e)
    rows = data.draw(st.lists(st.integers(0, m.rows - 1), max_size=7)) if m.rows else []
    cols = data.draw(st.lists(st.integers(0, m.cols - 1), max_size=7)) if m.cols else []
    assert_matrix(m.select(rows, cols), [[d[i][j] for j in cols] for i in rows])
    factor = data.draw(sparse_matrices(rows=m.cols))
    assert_matrix(m * factor, ref_mul(m, factor))
    assert_matrix(m.rref()[0], ref_rref(m)[0])
    assert [m.column(j) for j in range(m.cols)] == [sparse([row[j] for row in d])
                                                    for j in range(m.cols)]
    assert m.is_zero() == all(x.is_zero() for row in d for x in row)
    assert (m == other) == (d == e)
    columns = [m.column(j) for j in range(m.cols)]
    assert_matrix(Matrix.from_columns(m.rows, columns),
                  ref_from_columns(m.rows, [dense(c, m.rows) for c in columns]).data)
    assert_matrix(Matrix.from_entries(m.rows, m.cols, m.entries() + other.entries()),
                  ref_from_entries(m.rows, m.cols, m.entries() + other.entries()).data)
    n = m.rows
    assert_matrix(Matrix.identity(n), [[ONE if i == j else ZERO for j in range(n)]
                                       for i in range(n)])
    assert_matrix(Matrix.zero(m.rows, m.cols), [[ZERO] * m.cols for _ in range(m.rows)])


@oracle
@given(sparse_matrices())
def test_cancelled_entries_leave_no_trace(m):
    """A sum, difference or entry list that cancels is the zero matrix: it
    equals Matrix.zero, hashes as it, has no entries, and a GradedMap keeps
    no block for it."""
    zero = Matrix.zero(m.rows, m.cols)
    entries = m.entries()
    cancelled = (m + m.scale(-ONE), m - m,
                 Matrix.from_entries(m.rows, m.cols, entries + [(i, j, -c) for i, j, c in entries]))
    source = GradedSpace({0: [f"s{j}" for j in range(m.cols)]})
    target = GradedSpace({0: [f"t{i}" for i in range(m.rows)]})
    for got in cancelled:
        assert got == zero and hash(got) == hash(zero)
        assert got.is_zero() and got.entries() == []
        assert GradedMap(source, target, 0, {0: got}).blocks == {}
    # one cancelled entry among others is dropped, not stored as zero
    if entries:
        i, j, c = entries[0]
        assert Matrix.from_entries(m.rows, m.cols, entries + [(i, j, -c)]) == \
            Matrix.from_entries(m.rows, m.cols, entries[1:])


@oracle
@given(sparse_matrices())
def test_data_is_a_fresh_dense_copy(m):
    """`data` reads the rows densely; writing into it leaves m unchanged."""
    before = m.entries()
    want = [[ZERO] * m.cols for _ in range(m.rows)]
    for i, j, c in before:
        want[i][j] = c
    data = m.data
    assert data == want
    for row in data:
        row[:] = [ONE] * (len(row) + 1)
    data.append([ONE])
    assert m.entries() == before
    assert m.data == want
    with pytest.raises(AttributeError):
        m.data = data


@oracle
@given(sparse_matrices(), st.data())
def test_linear_solve_matches_dense_reference(m, data):
    if data.draw(st.booleans()):
        target = data.draw(sparse_vectors(m.rows))
    else:
        target = dense(m.apply(sparse(data.draw(sparse_vectors(m.cols)))), m.rows)
    got = linear_solve(m, sparse(target))
    want = ref_linear_solve(m, target)
    if want is None:
        assert got is None
        return
    x, kernel = got
    assert (x, kernel.basis.data) == (sparse(want[0]), want[1])
    assert m.apply(x) == sparse(target)


@oracle
@given(sparse_matrices(), st.data())
def test_contains_matches_dense_reference(m, data):
    sub = Subspace.from_vectors(m.cols, [sparse(row) for row in m.data])
    assert sub.basis.data == ref_span(m.cols, m.data)
    if data.draw(st.booleans()) or not sub.dim:
        v = data.draw(sparse_vectors(m.cols))
    else:
        coeffs = data.draw(sparse_vectors(sub.dim))
        v = tuple(sum((c * row[j] for c, row in zip(coeffs, sub.basis.data)), ZERO)
                  for j in range(m.cols))
        assert sub.contains(sparse(v))
    assert sub.contains(sparse(v)) == ref_contains(sub.basis.data, v)


@st.composite
def constructed_subspaces(draw):
    """A subspace from each constructor: from_vectors, add, intersect, zero
    and full, on sparse spanning sets."""
    n = draw(dims)
    how = draw(st.sampled_from(("from_vectors", "add", "intersect", "zero", "full")))
    if how == "zero":
        return how, Subspace.zero(n)
    if how == "full":
        return how, Subspace.full(n)
    u, w = (Subspace.from_vectors(n, [sparse(r) for r in draw(sparse_matrices(cols=n)).data])
            for _ in range(2))
    return how, {"from_vectors": u, "add": u.add(w), "intersect": u.intersect(w)}[how]


@oracle
@given(constructed_subspaces(), st.data())
def test_every_constructor_stores_pivots_and_sparse_rows(built, data):
    how, sub = built
    rows = sub.basis.data
    assert sub.pivots == tuple(next(j for j, x in enumerate(row) if not x.is_zero())
                               for row in rows), how
    assert sub.vectors() == [sparse(row) for row in rows]
    n = sub.ambient_dim
    if data.draw(st.booleans()) or not sub.dim:
        v = data.draw(sparse_vectors(n))
    else:
        coeffs = data.draw(sparse_vectors(sub.dim))
        v = tuple(sum((c * row[j] for c, row in zip(coeffs, rows)), ZERO) for j in range(n))
        assert sub.contains(sparse(v))
    assert sub.contains(sparse(v)) == ref_contains(rows, v)
    other = Subspace.from_vectors(n, [sparse(r) for r in data.draw(sparse_matrices(cols=n)).data])
    assert sub.contains_subspace(other) == all(ref_contains(rows, u) for u in other.basis.data)


@pytest.fixture(scope="module")
def qq_i():
    """Scalar -> element of sympy's Gaussian rational field QQ<I>."""
    pytest.importorskip("sympy")
    from sympy import QQ, QQ_I

    def convert(x):
        return QQ_I(QQ(x.re.numerator, x.re.denominator),
                    QQ(x.im.numerator, x.im.denominator))
    return convert


def sympy_matrix(m, qq_i):
    from sympy import QQ_I
    from sympy.polys.matrices import DomainMatrix

    return DomainMatrix([[qq_i(x) for x in row] for row in m.data], (m.rows, m.cols), QQ_I)


def sympy_rref(m, qq_i):
    red, pivots = sympy_matrix(m, qq_i).rref()
    return red.to_list(), list(pivots)


@oracle
@given(sparse_matrices(), st.data())
def test_rref_rank_and_solvability_match_sympy(qq_i, m, data):
    red, pivots = m.rref()
    sym_rows, sym_pivots = sympy_rref(m, qq_i)
    assert pivots == sym_pivots
    assert [[qq_i(x) for x in row] for row in red.data] == sym_rows
    assert m.rank() == len(sym_pivots)
    assert kernel_of(m).dim == m.cols - len(sym_pivots)
    target = data.draw(sparse_vectors(m.rows))
    aug = m.hstack(Matrix(m.rows, 1, [[t] for t in target]))
    solvable = len(sympy_rref(aug, qq_i)[1]) == len(sym_pivots)
    assert (linear_solve(m, sparse(target)) is not None) == solvable


@oracle
@given(sparse_matrices(), st.data())
def test_product_apply_and_sum_match_sympy(qq_i, m, data):
    """Matrix.__mul__, apply and + against DomainMatrix over QQ<I>."""
    def as_sympy(a):
        return [[qq_i(x) for x in row] for row in a.data]

    dm = sympy_matrix(m, qq_i)
    factor = data.draw(sparse_matrices(rows=m.cols))
    assert as_sympy(m * factor) == (dm * sympy_matrix(factor, qq_i)).to_list()
    v = sparse(data.draw(sparse_vectors(m.cols)))
    column = Matrix.from_columns(m.cols, [v])
    assert [[qq_i(x)] for x in dense(m.apply(v), m.rows)] == \
        (dm * sympy_matrix(column, qq_i)).to_list()
    other = data.draw(sparse_matrices(rows=m.rows, cols=m.cols))
    assert as_sympy(m + other) == (dm + sympy_matrix(other, qq_i)).to_list()


@oracle
@given(sparse_matrices(), st.data())
def test_select_matches_sympy_extract(qq_i, m, data):
    """Matrix.select is DomainMatrix.extract: the entries on the given row
    and column indices, in their order, repeats allowed; an empty index list
    gives an empty side."""
    dm = sympy_matrix(m, qq_i)
    rows = data.draw(st.lists(st.integers(0, m.rows - 1), max_size=7)) if m.rows else []
    cols = data.draw(st.lists(st.integers(0, m.cols - 1), max_size=7)) if m.cols else []
    for r, c in ((rows, cols), ([], cols), (rows, []), ([], [])):
        sub = m.select(r, c)
        assert (sub.rows, sub.cols) == (len(r), len(c))
        assert [[qq_i(x) for x in row] for row in sub.data] == dm.extract(r, c).to_list()
    assert m.select(range(m.rows), range(m.cols)) == m


@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 4), (4, 0)])
def test_kernel_operations_on_empty_shapes(rows, cols):
    m = Matrix(rows, cols, [[] for _ in range(rows)] if cols == 0 else None)
    red, pivots = m.rref()
    assert (red, pivots) == (m, [])
    assert kernel_of(m) == Subspace.full(cols)
    assert image_of(m) == Subspace.zero(rows)
    x, kernel = linear_solve(m, {})
    assert x == {} and kernel == Subspace.full(cols)
    assert m.apply({}) == {}
    assert (m * Matrix(cols, 2)) == Matrix(rows, 2)
    assert Subspace.zero(cols).contains({})
    if rows:
        assert linear_solve(m, {0: ONE}) is None


# -- matrix builders ------------------------------------------------------------
#
# The reference loops are the hand-written fills that the other modules used
# before `from_columns`, `from_entries` and `entries` existed.  They fill
# their own dense lists: `Matrix.data` is a fresh copy, so a write through it
# would be lost.


def ref_from_columns(rows, columns):
    data = [[ZERO] * len(columns) for _ in range(rows)]
    for j, col in enumerate(columns):
        for i, c in enumerate(col):
            data[i][j] = c
    return Matrix(rows, len(columns), data)


def ref_from_entries(rows, cols, entries):
    data = [[ZERO] * cols for _ in range(rows)]
    for i, j, c in entries:
        data[i][j] = data[i][j] + c
    return Matrix(rows, cols, data)


def ref_entries(m):
    return [(i, j, m.data[i][j]) for j in range(m.cols) for i in range(m.rows)
            if not m.data[i][j].is_zero()]


@oracle
@given(sparse_matrices(), st.data())
def test_builders_match_the_fill_loops(m, data):
    columns = [m.column(j) for j in range(m.cols)]
    assert Matrix.from_columns(m.rows, columns) == \
        ref_from_columns(m.rows, [dense(c, m.rows) for c in columns]) == m
    assert m.entries() == ref_entries(m)
    assert Matrix.from_entries(m.rows, m.cols, m.entries()) == m
    if m.rows and m.cols:
        # repeated (i, j) are summed, and may cancel to zero
        extra = data.draw(st.lists(st.tuples(st.integers(0, m.rows - 1),
                                             st.integers(0, m.cols - 1),
                                             nonzero_entries), max_size=8))
        extra += [(i, j, -c) for i, j, c in extra[:2]]
        entries = m.entries() + extra
        got = Matrix.from_entries(m.rows, m.cols, entries)
        assert got == ref_from_entries(m.rows, m.cols, entries)
        assert got.entries() == ref_entries(got)


@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (3, 0)])
def test_builders_on_empty_shapes(rows, cols):
    empty = Matrix.zero(rows, cols)
    assert Matrix.from_columns(rows, [{}] * cols) == empty
    assert Matrix.from_entries(rows, cols, []) == empty
    assert empty.entries() == []


@pytest.mark.parametrize("rows,columns", [(2, [V(1), V(1, 2, 3)]), (0, [V(1)]),
                                          (3, [V(1, 2, 3), V(0, 0, 0, 1)]), (1, [{-1: ONE}])])
def test_from_columns_rejects_length_mismatch(rows, columns):
    """A column index outside range(rows) is a column of another length."""
    with pytest.raises(DimensionMismatch):
        Matrix.from_columns(rows, columns)


@pytest.mark.parametrize("entry", [(2, 0), (0, 2), (-1, 0), (0, -1)])
def test_from_entries_rejects_out_of_range(entry):
    with pytest.raises(DimensionMismatch):
        Matrix.from_entries(2, 2, [(*entry, ONE)])


def test_coordinates_in_empty_basis():
    # zero vectors have empty coordinates; anything else lies outside the span
    assert coordinates_in_basis([], [V(0, 0), V(0, 0)]) == [{}, {}]
    assert coordinates_in_basis([], [V(0, 0), V(0, 1)]) is None
    assert coordinates_in_basis([], [V(0, 1)]) is None


def test_matrix_layout_stays_private():
    """No module but linalg reads or writes a Matrix's row-major `.data`."""
    src = Path(__file__).resolve().parents[1] / "src" / "dgkit"
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "data":
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def _module_trees(*skip):
    src = Path(__file__).resolve().parents[1] / "src" / "dgkit"
    return [(path.name, ast.parse(path.read_text(), str(path)))
            for path in sorted(src.glob("*.py")) if path.name not in skip]


def test_only_subquotient_builds_a_complement():
    """graded.Subquotient owns how representatives are picked and how a
    vector is projected: no other module calls linalg.Complement."""
    offenders = [f"{name}:{node.lineno}"
                 for name, tree in _module_trees("graded.py") for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and "Complement" in (
                     getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert offenders == []


def test_only_qdolbeault_names_a_connection_pair():
    """qdolbeault.connection_from_bicomplex is the one place a differential
    is stored under del_bar_J or del_bar from another pair: no other module
    assigns to a DEL_BAR_J or DEL_BAR key, or builds a dict keyed DEL_BAR_J."""
    names = {"DEL_BAR", "DEL_BAR_J", "del_bar", "del_bar_J"}

    def key(node):
        return getattr(node, "id", getattr(node, "value", None))

    offenders = []
    for name, tree in _module_trees("qdolbeault.py"):
        for node in ast.walk(tree):
            targets = node.targets if isinstance(node, ast.Assign) else []
            if any(isinstance(t, ast.Subscript) and key(t.slice) in names for t in targets):
                offenders.append(f"{name}:{node.lineno}")
            if isinstance(node, ast.Dict) and any(key(k) in ("DEL_BAR_J", "del_bar_J")
                                                  for k in node.keys):
                offenders.append(f"{name}:{node.lineno}")
    assert offenders == []


# Matrix.rref calls and their total rows x cols cells for `--format json`
# reports on `generate torus --rank 2`; Subspace.intersect eliminates once
TORUS_R2_ELIMINATIONS = {
    ("qdolbeault", "--phi"): (111, 24320),
    ("dgms", "--d0", "del", "--d1", "del_bar"): (118, 40992),
}


@pytest.mark.parametrize("command", sorted(TORUS_R2_ELIMINATIONS), ids=" ".join)
def test_every_torus_elimination_goes_through_rref(tmp_path, monkeypatch, command):
    """A count, not a timing: an elimination routed around Matrix.rref, or
    one more or fewer, changes the count."""
    counts = [0, 0]
    rref = Matrix.rref

    def counted(m):
        counts[0] += 1
        counts[1] += m.rows * m.cols
        return rref(m)

    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", "torus", "--rank", "2", "-o", "torus_r2.model"]) == 0
        monkeypatch.setattr(Matrix, "rref", counted)
        assert main(["--format", "json", *command, "torus_r2.model"]) == 0
    assert tuple(counts) == TORUS_R2_ELIMINATIONS[command]


def _calls(tree, scope=()):
    """(dotted path of the enclosing classes and functions, call) for every
    call in a syntax tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Call):
            yield ".".join(scope), node
        named = isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _calls(node, scope + (node.name,) if named else scope)


def test_operator_relations_are_formed_once():
    """Only GradedMap.square composes an expression with itself, and only
    ConnectionModel.autoduality runs autoduality_check."""
    src = Path(__file__).resolve().parents[1] / "src" / "dgkit"
    allowed = {"compose": "graded.py:GradedMap.square",
               "autoduality_check": "qdolbeault.py:ConnectionModel.autoduality"}
    offenders = []
    for path in sorted(src.glob("*.py")):
        for scope, call in _calls(ast.parse(path.read_text(), str(path))):
            f = call.func
            name = getattr(f, "id", getattr(f, "attr", None))
            self_composed = (isinstance(f, ast.Attribute) and name == "compose"
                             and len(call.args) == 1
                             and ast.dump(f.value) == ast.dump(call.args[0]))
            if (self_composed or name == "autoduality_check") and \
                    f"{path.name}:{scope}" != allowed[name]:
                offenders.append(f"{path.name}:{call.lineno}: {ast.unparse(call)}")
    assert offenders == []


def test_only_qdolbeault_writes_or_reads_cell_labels():
    """Only qdolbeault.py calls _cell_label or cell_of_label: every other
    module reaches the cells through the evaluation maps and sections."""
    src = Path(__file__).resolve().parents[1] / "src" / "dgkit"
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "qdolbeault.py":
            continue
        for _, call in _calls(ast.parse(path.read_text(), str(path))):
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            if name in ("_cell_label", "cell_of_label"):
                offenders.append(f"{path.name}:{call.lineno}: {ast.unparse(call)}")
    assert offenders == []


def test_phi_and_the_dolbeault_restriction_read_operator_blocks():
    """phi_isomorphism and connection_model_from_full work on matrices and
    label tables: neither builds a unit vector or lists a vector's labels."""
    src = Path(__file__).resolve().parents[1] / "src" / "dgkit" / "qdolbeault.py"
    banned = ("basis_vector", "unit_vector", "apply_label", "vector_items")
    offenders = []
    for scope, call in _calls(ast.parse(src.read_text(), str(src))):
        name = getattr(call.func, "id", getattr(call.func, "attr", None))
        if scope.split(".")[0] in ("phi_isomorphism", "connection_model_from_full") \
                and name in banned:
            offenders.append(f"{scope}:{call.lineno}: {ast.unparse(call)}")
    assert offenders == []


def test_no_module_imports_another_modules_private_names():
    """No dgkit module imports an underscore name from another dgkit module."""
    src = Path(__file__).resolve().parents[1] / "src" / "dgkit"
    offenders = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dgkit"):
                offenders.extend(f"{path.name}:{node.lineno}: {alias.name}"
                                 for alias in node.names if alias.name.startswith("_"))
    assert offenders == []


def _imported_names(tree):
    """(name, line) for each name a module binds by an import, except
    `from __future__` features."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((a.asname or a.name, node.lineno) for a in node.names)


def test_no_module_imports_a_name_it_never_uses():
    """Every name a dgkit module imports is read somewhere in that module;
    the re-exports of __init__.py are exempt."""
    src = Path(__file__).resolve().parents[1] / "src" / "dgkit"
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        offenders.extend(f"{path.name}:{line}: {name}"
                         for name, line in _imported_names(tree) if name not in used)
    assert offenders == []


# public functions and methods that only the tests call
TEST_ONLY = {
    "ddbar.homotopy_abelian_verdict", "deform.quadraticity_probe", "deform.evaluation_functors",
    "deform.strong_mc_samples", "models.random_connection_model", "Matrix.from_rows",
    "Scalar.conjugate", "scalars.of", "IsotypicDecomposition.multiplicity",
    "IsotypicDecomposition.isotypic_subspace",
}


def test_every_public_function_is_read_somewhere():
    """Every public function (as module.name) and method (as Class.name) a
    dgkit module defines is read, as a name or an attribute, somewhere in
    src/ or perfbench/ (perfbench/tracer.py names its layers by
    "dgkit.module:Class.method" strings), or is listed in TEST_ONLY; a
    listed one must still be unread there."""
    root = Path(__file__).resolve().parents[1]
    read = set()
    for top in ("src", "perfbench"):
        for path in (root / top).rglob("*.py"):
            for n in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    read.add(n.id)
                elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                    read.add(n.attr)
                elif top == "perfbench" and isinstance(n, ast.Constant) and isinstance(n.value, str):
                    for target in re.findall(r"dgkit\.\w+:([\w.]+)", n.value):
                        read.update(target.split("."))
    unread = set()
    for path in sorted((root / "src" / "dgkit").glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            defs = [(path.stem, node)] if isinstance(node, ast.FunctionDef) else (
                [(node.name, item) for item in node.body if isinstance(item, ast.FunctionDef)]
                if isinstance(node, ast.ClassDef) else [])
            unread.update(f"{owner}.{f.name}" for owner, f in defs
                          if not f.name.startswith("_") and f.name not in read)
    assert unread == TEST_ONLY


def test_no_module_builds_a_second_dgla():
    """An associative algebra is its own DGLA through StructuredAlgebra.bracket:
    no dgkit module builds a StructuredAlgebra of the literal kind "lie",
    names commutator_dgla or dolbeault_dgla, or reads a .dgla attribute."""
    gone = {"commutator_dgla", "dolbeault_dgla"}
    offenders = []
    for name, tree in _module_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "StructuredAlgebra" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                kinds = node.args[1:2] + [k.value for k in node.keywords if k.arg == "kind"]
                if any(isinstance(k, ast.Constant) and k.value == "lie" for k in kinds):
                    offenders.append(f"{name}:{node.lineno}: kind 'lie'")
            word = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.FunctionDef) else None)
            if word in gone or (isinstance(node, ast.Attribute) and word == "dgla"):
                offenders.append(f"{name}:{node.lineno}: {word}")
    assert offenders == []


def test_every_tracer_target_resolves():
    """perfbench/tracer.py wraps each "module:function" and
    "module:Class.method" of its LAYERS, a method through the class's own
    __dict__, so a renamed or moved target stops every traced benchmark run.
    LAYERS is read off the file's syntax tree, without importing it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tree = ast.parse(path.read_text(), str(path))
    layers = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "LAYERS" for t in node.targets))
    targets = [t for group in ast.literal_eval(layers).values() for t in group]
    assert "dgkit.graded:CohomologyPresentation.check_well_defined" in targets
    missing = []
    for target in targets:
        module, attr = target.split(":")
        owner, _, name = attr.rpartition(".")
        scope = vars(importlib.import_module(module))
        if owner:
            scope = vars(scope[owner]) if owner in scope else {}
        if not callable(getattr(scope.get(name), "__func__", scope.get(name))):
            missing.append(target)
    assert missing == []


def test_every_module_constant_is_read_somewhere():
    """Every module-level UPPER_CASE name a dgkit module assigns is read,
    as a name or an attribute, somewhere in src/, tests/ or perfbench/."""
    root = Path(__file__).resolve().parents[1]
    read = set()
    for path in (p for top in ("src", "tests", "perfbench") for p in (root / top).rglob("*.py")):
        for n in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
    offenders = []
    for path in sorted((root / "src" / "dgkit").glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, ast.AnnAssign) else [])
            offenders.extend(f"{path.name}:{node.lineno}: {t.id}" for t in targets
                             if isinstance(t, ast.Name) and t.id.lstrip("_").isupper()
                             and t.id not in read)
    assert offenders == []


# -- the one sparse accumulator --------------------------------------------------


NONZERO = (ONE, -ONE, Scalar(0, 1), Scalar(2), Scalar(1, -1))
ACCUMULATOR_STEPS = st.sampled_from((st.integers(0, 4), st.sampled_from("abcd"))).flatmap(
    lambda keys: st.lists(st.tuples(st.sampled_from(NONZERO),
                                    st.dictionaries(keys, st.sampled_from(NONZERO), max_size=4)),
                          max_size=8))


@settings(max_examples=300, deadline=None)
@given(ACCUMULATOR_STEPS)
def test_add_multiple_matches_a_plain_reference(steps):
    """Against running sums: equal values, no stored zero, and the keys in
    the order in which each last turned non-zero, so keys keep their first
    insertion order and a key that cancels and comes back moves to the end."""
    row: dict = {}
    running: dict = {}
    born: dict = {}  # key -> the addition at which its running sum last left zero
    t = 0
    for f, other in steps:
        for key, b in other.items():
            before = running.get(key, ZERO)
            running[key] = before + f * b
            if before.is_zero() and not running[key].is_zero():
                born[key] = t
            t += 1
        assert add_multiple(row, f, other) is row
        want = {key: c for key, c in running.items() if not c.is_zero()}
        assert row == want
        assert not any(c.is_zero() for c in row.values())
        assert list(row) == sorted(want, key=born.__getitem__)


def test_add_multiple_moves_a_key_that_comes_back_to_the_end():
    row = {"a": ONE, "b": ONE}
    assert list(add_multiple(row, -ONE, {"a": ONE})) == ["b"]
    assert list(add_multiple(row, Scalar(2), {"a": ONE, "b": ONE})) == ["b", "a"]
    assert row == {"b": Scalar(3), "a": Scalar(2)}


# -- the complement-and-projection primitive against the per-call references --


def combination(draw, rows, n):
    """A sparse Q(i) combination of the given vectors of F^n."""
    coeffs = draw(sparse_vectors(len(rows)))
    return sparse([sum((c * row.get(j, ZERO) for c, row in zip(coeffs, rows)), ZERO)
                   for j in range(n)])


@st.composite
def nested_subspaces(draw):
    """(inner, outer) with inner inside outer: empty, equal to outer, or
    spanned by sparse combinations of outer's rows."""
    n = draw(dims)
    outer = Subspace.from_vectors(n, [sparse(r) for r in draw(sparse_matrices(cols=n)).data])
    how = draw(st.sampled_from(("empty", "equal", "combinations")))
    if how == "empty":
        return Subspace.zero(n), outer
    if how == "equal":
        return outer, outer
    rows = outer.vectors()
    count = draw(st.integers(0, len(rows)))
    return Subspace.from_vectors(n, [combination(draw, rows, n) for _ in range(count)]), outer


@oracle
@given(nested_subspaces(), st.data())
def test_complement_matches_extend_basis_and_projection_references(pair, data):
    inner, outer = pair
    n = outer.ambient_dim
    comp = Complement(inner, outer.vectors())
    assert comp.vectors == ref_extend_basis(inner, outer)
    assert comp.vectors == [outer.vectors()[i] for i in comp.taken]
    # vectors of outer, then (often) one that need not lie in outer
    vectors = [combination(data.draw, outer.vectors(), n)
               for _ in range(data.draw(st.integers(0, 3)))]
    if data.draw(st.booleans()):
        vectors.append(sparse(data.draw(sparse_vectors(n))))
    want = ref_project(inner, comp.vectors, vectors)
    assert comp.project(vectors) == want
    assert (want is None) == (not all(outer.contains(v) for v in vectors))


@oracle
@given(sparse_matrices(), st.data())
def test_complement_takes_each_candidate_outside_the_span_so_far(m, data):
    """Any candidate list, not only canonical rows: a candidate is taken
    exactly when it is not in the span of inner and the ones taken before."""
    n = m.cols
    inner = Subspace.from_vectors(n, [sparse(row) for row in m.data])
    outer = [sparse(row) for row in data.draw(sparse_matrices(cols=n)).data]
    comp = Complement(inner, outer)
    current, taken = inner, []
    for i, v in enumerate(outer):
        if not current.contains(v):
            taken.append(i)
            current = current.add(Subspace.from_vectors(n, [v]))
    assert comp.taken == taken
    v = sparse(data.draw(sparse_vectors(n)))
    assert comp.project([v]) == ref_project(inner, comp.vectors, [v])


def ref_intersect(u, w):
    """The former Subspace.intersect: the Zassenhaus echelon of [[U|U],[W|0]],
    then the span of the right halves of its rows with zero left half, which
    eliminates those rows a second time."""
    n = u.ambient_dim
    rows = [row + row for row in u.basis.data] + [row + [ZERO] * n for row in w.basis.data]
    if not rows:
        return Subspace.zero(n)
    red, _ = Matrix.from_rows(rows, cols=2 * n).rref()
    return Subspace.from_vectors(n, [sparse(row[n:]) for row in red.data
                                     if all(x.is_zero() for x in row[:n])
                                     and not all(x.is_zero() for x in row[n:])])


@oracle
@given(sparse_matrices(), st.data())
def test_intersect_matches_the_second_elimination(m, data):
    """W mixes combinations of U's rows with free sparse vectors, so the
    intersection is often neither zero nor all of U."""
    n = m.cols
    u = Subspace.from_vectors(n, [sparse(row) for row in m.data])
    vectors = [combination(data.draw, u.vectors(), n)
               for _ in range(data.draw(st.integers(0, 3)))]
    vectors += [sparse(data.draw(sparse_vectors(n))) for _ in range(data.draw(st.integers(0, 3)))]
    w = Subspace.from_vectors(n, vectors)
    for a, b in ((u, w), (w, u)):
        got = a.intersect(b)
        want = ref_intersect(a, b)
        assert got == want
        assert got.pivots == want.pivots
        assert got.vectors() == want.vectors()

"""Dense exact linear algebra over Q(i): matrices, echelon forms, subspaces.

Subspaces are canonical: the basis is the reduced row echelon form of any
spanning set, so equality of subspaces is literal equality of matrices.
Vectors are tuples of Scalars; matrices act on column vectors.  A sparse
vector is a {index: Scalar} dict, which `Subspace.contains_sparse` tests and
`Complement.project_sparse` projects without expanding it.

A Matrix stores its entries as row-major lists; that layout is private to
this module.  Other modules build matrices through `Matrix.from_columns`
and `Matrix.from_entries` and read them through `apply`, `column`, `row`,
`select` and `entries`, so the storage can change here alone.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from dgkit.scalars import ONE, ZERO, Scalar


class DimensionMismatch(ValueError):
    """Operands live in different ambient spaces."""


Vector = tuple  # tuple[Scalar, ...]


# ---------------------------------------------------------------------------
# vector helpers


def zero_vector(n: int) -> Vector:
    return tuple(ZERO for _ in range(n))


def unit_vector(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def dense_vector(n: int, entries: dict) -> Vector:
    """The length-n vector with the given {index: Scalar} entries."""
    return tuple(entries.get(i, ZERO) for i in range(n))


def sparse_vector(u: Sequence[Scalar]) -> dict:
    """The non-zero {index: Scalar} entries of u; dense_vector inverts it."""
    return {j: a for j, a in enumerate(u) if not a.is_zero()}


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(c: Scalar, u: Vector) -> Vector:
    return tuple(c * a for a in u)


def vec_is_zero(u: Vector) -> bool:
    return all(a.is_zero() for a in u)


# ---------------------------------------------------------------------------


class Matrix:
    """Dense rows x cols matrix of Scalars, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Optional[list] = None):
        self.rows = rows
        self.cols = cols
        if data is None:
            data = [[ZERO] * cols for _ in range(rows)]
        if len(data) != rows or any(len(r) != cols for r in data):
            raise DimensionMismatch("entry count does not match rows x cols")
        self.data = data

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Scalar]], cols: Optional[int] = None) -> "Matrix":
        rows = [list(r) for r in rows]
        if rows:
            cols = len(rows[0])
        elif cols is None:
            cols = 0
        return Matrix(len(rows), cols, rows)

    @staticmethod
    def from_columns(rows: int, columns: Iterable[Sequence[Scalar]]) -> "Matrix":
        """The rows x len(columns) matrix with the given columns."""
        columns = list(columns)
        if any(len(c) != rows for c in columns):
            raise DimensionMismatch("column length differs from row count")
        return Matrix(rows, len(columns), [[c[i] for c in columns] for i in range(rows)])

    @staticmethod
    def from_entries(rows: int, cols: int, entries: Iterable[tuple[int, int, Scalar]]) -> "Matrix":
        """The rows x cols matrix summing each (i, j, c) into entry (i, j)."""
        m = Matrix(rows, cols)
        for i, j, c in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise DimensionMismatch(f"entry ({i}, {j}) outside {rows}x{cols}")
            m.data[i][j] = m.data[i][j] + c
        return m

    @staticmethod
    def identity(n: int) -> "Matrix":
        m = Matrix(n, n)
        for i in range(n):
            m.data[i][i] = ONE
        return m

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.data for e in row)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        return Matrix(
            self.rows,
            self.cols,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix subtraction shape mismatch")
        return Matrix(
            self.rows,
            self.cols,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
        )

    def scale(self, c: Scalar) -> "Matrix":
        return Matrix(self.rows, self.cols, [[c * a for a in row] for row in self.data])

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch("matrix product shape mismatch")
        out = Matrix(self.rows, other.cols)
        other_nonzeros = [sparse_vector(row).items() for row in other.data]
        for row, out_row in zip(self.data, out.data):
            for a, b_nonzeros in zip(row, other_nonzeros):
                if a.is_zero():
                    continue
                for j, b in b_nonzeros:
                    out_row[j] = out_row[j] + a * b
        return out

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise DimensionMismatch("vector length does not match matrix columns")
        v_nonzeros = sparse_vector(v).items()
        out = []
        for row in self.data:
            acc = ZERO
            for j, x in v_nonzeros:
                a = row[j]
                if not a.is_zero():
                    acc = acc + a * x
            out.append(acc)
        return tuple(out)

    def column(self, j: int) -> Vector:
        return tuple(self.data[i][j] for i in range(self.rows))

    def row(self, i: int) -> Vector:
        return tuple(self.data[i])

    def select(self, rows: Sequence[int], cols: Sequence[int]) -> "Matrix":
        """The sub-matrix on the given row and column indices, in their order."""
        return Matrix(len(rows), len(cols), [[self.data[i][j] for j in cols] for i in rows])

    def entries(self) -> list[tuple[int, int, Scalar]]:
        """The non-zero entries (i, j, c), column by column."""
        return [(i, j, row[j]) for j in range(self.cols)
                for i, row in enumerate(self.data) if not row[j].is_zero()]

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise DimensionMismatch("hstack row mismatch")
        return Matrix(
            self.rows,
            self.cols + other.cols,
            [r1 + r2 for r1, r2 in zip(self.data, other.data)],
        )

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise DimensionMismatch("vstack column mismatch")
        return Matrix(self.rows + other.rows, self.cols, [row[:] for row in self.data] + [row[:] for row in other.data])

    def rref(self) -> tuple["Matrix", list]:
        """Reduced row echelon form and the list of pivot columns."""
        m = [row[:] for row in self.data]
        pivots = []
        r = 0
        for c in range(self.cols):
            pivot_row = None
            for i in range(r, self.rows):
                if not m[i][c].is_zero():
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            # Rows at or below r are zero left of c, so only the pivot row's
            # non-zero entries from c on take part; the rows are private copies.
            prow = m[r]
            inv = prow[c].inverse()
            support = [j for j in range(c, self.cols) if not prow[j].is_zero()]
            for j in support:
                prow[j] = inv * prow[j]
            for i, row in enumerate(m):
                f = row[c]
                if i == r or f.is_zero():
                    continue
                for j in support:
                    row[j] = row[j] - f * prow[j]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return Matrix(self.rows, self.cols, m), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"


# ---------------------------------------------------------------------------


class Subspace:
    """Subspace of F^n in canonical form: RREF basis rows, no zero rows.

    `pivots` holds each basis row's pivot column.  The rows' non-zero
    (column, entry) pairs are built on first use and kept.
    """

    __slots__ = ("ambient_dim", "basis", "pivots", "_sparse_rows")

    def __init__(self, ambient_dim: int, basis: Matrix, pivots: Sequence[int]):
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = tuple(pivots)
        self._sparse_rows = None

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Iterable[Vector]) -> "Subspace":
        rows = [list(v) for v in vectors]
        for r in rows:
            if len(r) != ambient_dim:
                raise DimensionMismatch("vector length differs from ambient dimension")
        if not rows:
            return Subspace.zero(ambient_dim)
        red, pivots = Matrix.from_rows(rows, ambient_dim).rref()
        kept = [red.data[i][:] for i in range(len(pivots))]
        return Subspace(ambient_dim, Matrix(len(kept), ambient_dim, kept), pivots)

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix(0, ambient_dim), ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.identity(ambient_dim), range(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def vectors(self) -> list:
        return [self.basis.row(i) for i in range(self.basis.rows)]

    def sparse_rows(self) -> list:
        """Each basis row as its non-zero (column, entry) pairs."""
        if self._sparse_rows is None:
            self._sparse_rows = [list(sparse_vector(row).items()) for row in self.basis.data]
        return self._sparse_rows

    def _check(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("subspaces live in different ambient spaces")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def contains(self, v: Vector) -> bool:
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector length differs from ambient dimension")
        return self.contains_sparse(sparse_vector(v))

    def contains_sparse(self, v: dict) -> bool:
        """Whether the vector with entries {column: Scalar} lies in the span.

        In RREF every other row is zero at a row's pivot, so the row's
        coefficient is the vector's own entry there."""
        residual = dict(v)
        for p, row in zip(self.pivots, self.sparse_rows()):
            c = residual.get(p)
            if c is None or c.is_zero():
                continue
            for j, b in row:
                residual[j] = residual.get(j, ZERO) - c * b
        return all(x.is_zero() for x in residual.values())

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check(other)
        return all(self.contains_sparse(dict(row)) for row in other.sparse_rows())

    def add(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return Subspace.from_vectors(self.ambient_dim, self.vectors() + other.vectors())

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: echelon of [[U|U],[W|0]]; rows with zero left half
        carry an intersection basis in the right half."""
        self._check(other)
        n = self.ambient_dim
        rows = []
        for v in self.vectors():
            rows.append(list(v) + list(v))
        for v in other.vectors():
            rows.append(list(v) + [ZERO] * n)
        if not rows:
            return Subspace.zero(n)
        red, _ = Matrix.from_rows(rows, 2 * n).rref()
        out = []
        for i in range(red.rows):
            left = red.data[i][:n]
            right = red.data[i][n:]
            if all(x.is_zero() for x in left) and not all(x.is_zero() for x in right):
                out.append(tuple(right))
        return Subspace.from_vectors(n, out)

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of F^{self.ambient_dim})"


# ---------------------------------------------------------------------------
# kernels, images, solving


def _kernel_from_rref(red: Matrix, pivots: list, cols: int) -> Subspace:
    """Kernel of the matrix whose first `cols` columns reduce to `red`."""
    pivot_set = set(pivots)
    free = [j for j in range(cols) if j not in pivot_set]
    kernel_vectors = []
    for f in free:
        v = [ZERO] * cols
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -red.data[r][f]
        kernel_vectors.append(tuple(v))
    return Subspace.from_vectors(cols, kernel_vectors)


def kernel_of(m: Matrix) -> Subspace:
    """Kernel of m, a subspace of F^cols."""
    red, pivots = m.rref()
    return _kernel_from_rref(red, pivots, m.cols)


def image_of(m: Matrix) -> Subspace:
    """Column span of m, a subspace of F^rows."""
    return Subspace.from_vectors(m.rows, [m.column(j) for j in range(m.cols)])


def nullspace_and_image(m: Matrix) -> tuple[Subspace, Subspace]:
    """Kernel (subspace of F^cols) and column span (subspace of F^rows)."""
    return kernel_of(m), image_of(m)


def linear_solve(m: Matrix, target: Vector) -> Optional[tuple[Vector, Subspace]]:
    """Particular solution of m x = target plus the solution kernel.

    Returns None when the target is not in the image (no solution).
    """
    if len(target) != m.rows:
        raise DimensionMismatch("target length differs from row count")
    aug = m.hstack(Matrix(m.rows, 1, [[t] for t in target]))
    red, pivots = aug.rref()
    if m.cols in pivots:
        return None
    x = [ZERO] * m.cols
    for r, p in enumerate(pivots):
        x[p] = red.data[r][m.cols]
    # The left m.cols columns of red are rref(m), with the same pivots.
    return tuple(x), _kernel_from_rref(red, pivots, m.cols)


def solve_batch(m: Matrix, targets: Matrix) -> Optional[Matrix]:
    """Solve m X = targets for all columns at once; None if any fails."""
    if targets.rows != m.rows:
        raise DimensionMismatch("target rows differ from matrix rows")
    aug = m.hstack(targets)
    red, pivots = aug.rref()
    if any(p >= m.cols for p in pivots):
        return None
    out = Matrix(m.cols, targets.cols)
    for r, p in enumerate(pivots):
        out.data[p] = red.data[r][m.cols:]
    return out


def invert(m: Matrix) -> Optional[Matrix]:
    """Exact inverse of a square matrix, or None when singular."""
    if m.rows != m.cols:
        return None
    return solve_batch(m, Matrix.identity(m.rows))


def coordinates_in_basis(basis_vectors: Sequence[Vector], vectors: Sequence[Vector]) -> Optional[list]:
    """Express each vector in the given independent spanning set.

    Returns a list of coefficient tuples, or None if some vector is outside
    the span.  One echelon pass solves the whole batch.
    """
    if not vectors:
        return []
    n = len(vectors[0])
    sol = solve_batch(Matrix.from_columns(n, basis_vectors), Matrix.from_columns(n, vectors))
    if sol is None:
        return None
    return [sol.column(j) for j in range(sol.cols)]


class Complement:
    """A complement of `inner` in inner + span(outer), and the projection onto
    it along `inner`.  A vector of `outer` is taken, in order, when it is not
    in the span of `inner` and the vectors taken before.  One elimination of
    the columns [inner basis | outer | identity] picks them as pivot columns
    and leaves in the identity block an invertible E with E B = [I; 0] for
    B = [inner basis | vectors]; the rows of E from inner.dim on are kept,
    and also as their sparse columns, so a projection only applies the
    columns on the support of a vector."""

    __slots__ = ("taken", "vectors", "_rows", "_columns")

    def __init__(self, inner: Subspace, outer: Sequence[Vector]):
        n = inner.ambient_dim
        outer = list(outer)
        if any(len(v) != n for v in outer):
            raise DimensionMismatch("vector length differs from ambient dimension")
        left = inner.vectors() + outer
        red, pivots = Matrix(n, len(left) + n, [
            [v[i] for v in left] + [ONE if j == i else ZERO for j in range(n)]
            for i in range(n)]).rref()
        a = inner.dim
        self.taken = [p - a for p in pivots if a <= p < len(left)]  # indices into outer
        self.vectors = [outer[i] for i in self.taken]
        # rows a.. of E: complement coordinates, then rows vanishing on B
        self._rows = Matrix(n - a, n, [red.data[i][len(left):] for i in range(a, n)])
        self._columns = [[(i, row[j]) for i, row in enumerate(self._rows.data)
                          if not row[j].is_zero()] for j in range(n)]

    def projection(self) -> Optional[Matrix]:
        """The matrix of `project` on all of F^n, or None when inner and
        self.vectors do not span F^n."""
        return self._rows if self._rows.rows == len(self.vectors) else None

    def project_sparse(self, vectors: Iterable[dict]) -> Optional[list[dict]]:
        """The non-zero complement coordinates {t: Scalar}, in ascending t, of
        each sparse vector {index: Scalar} in the basis [inner basis |
        self.vectors], or None if some vector is outside their span."""
        m = len(self.vectors)
        out = []
        for v in vectors:
            acc: dict = {}
            for j, x in v.items():
                for i, e in self._columns[j]:
                    acc[i] = acc.get(i, ZERO) + e * x
            coords = {}
            for i in sorted(acc):
                if not acc[i].is_zero():
                    if i >= m:
                        return None
                    coords[i] = acc[i]
            out.append(coords)
        return out

    def project(self, vectors: Sequence[Vector]) -> Optional[list]:
        """`project_sparse` of dense vectors, with dense coordinates."""
        if any(len(v) != len(self._columns) for v in vectors):
            raise DimensionMismatch("vector length does not match matrix columns")
        coords = self.project_sparse(sparse_vector(v) for v in vectors)
        return None if coords is None else [dense_vector(len(self.vectors), c) for c in coords]

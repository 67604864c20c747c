"""Exact linear algebra over Q(i) on sparse rows: matrices, echelon forms,
subspaces.

Subspaces are canonical: the basis is the reduced row echelon form of any
spanning set, so equality of subspaces is literal equality of matrices.
Vectors are tuples of Scalars; matrices act on column vectors.  A sparse
vector is a {index: Scalar} dict, which `Subspace.contains_sparse` tests and
`Complement.project_sparse` projects without expanding it.

A Matrix stores one {column: Scalar} dict per row that holds only the
non-zero entries: no zero is ever stored, and an entry that cancels is
deleted, so equal matrices have equal rows and every kernel walks only the
non-zeros.  A Matrix is never changed once built, so matrices may share row
dicts.  That layout is private to this module.  Other modules build
matrices through `Matrix.from_columns` and `Matrix.from_entries` and read
them through `apply`, `column`, `row`, `select` and `entries`; `data` is a
read-only view, a fresh dense row-major copy of the entries.

`add_multiple` (out += c * s on {key: Scalar} dicts) is the one sparse
accumulator; its key order, where a cancelled key that comes back moves to
the end, fixes the order of the label-keyed witnesses of `dgkit.graded`.
"""

from __future__ import annotations

from bisect import bisect_left
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


def _dense(row: dict, n: int) -> list:
    out = [ZERO] * n
    for j, a in row.items():
        out[j] = a
    return out


def add_multiple(row: dict, f: Scalar, other: dict) -> dict:
    """row += f * other in place, for f and other's entries non-zero; returns
    row.  An entry that cancels is deleted, and one that comes back is
    re-inserted at the end, so the key order records the order of additions."""
    for j, b in other.items():
        x = f * b
        s = row.get(j)
        if s is None:
            row[j] = x
        else:
            s = s + x
            if s.is_zero():
                del row[j]
            else:
                row[j] = s
    return row


def _transpose(rows: list, n: int) -> list:
    """The n columns of the matrix with the given sparse rows, as sparse rows."""
    out: list = [{} for _ in range(n)]
    for i, row in enumerate(rows):
        for j, a in row.items():
            out[j][i] = a
    return out


# ---------------------------------------------------------------------------


class Matrix:
    """rows x cols matrix of Scalars, one {column: non-zero Scalar} per row."""

    __slots__ = ("rows", "cols", "_nz")

    def __init__(self, rows: int, cols: int, data: Optional[list] = None):
        if data is not None and (len(data) != rows or any(len(r) != cols for r in data)):
            raise DimensionMismatch("entry count does not match rows x cols")
        self.rows = rows
        self.cols = cols
        self._nz = [{} for _ in range(rows)] if data is None else [sparse_vector(r) for r in data]

    @staticmethod
    def _of(rows: int, cols: int, nz: list) -> "Matrix":
        """The matrix with the given sparse rows, which hold no zero."""
        m = object.__new__(Matrix)
        m.rows, m.cols, m._nz = rows, cols, nz
        return m

    @property
    def data(self) -> list:
        """A fresh dense row-major copy of the entries."""
        return [_dense(row, self.cols) for row in self._nz]

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Scalar]], cols: Optional[int] = None) -> "Matrix":
        rows = list(rows)
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
        return Matrix._of(rows, len(columns), _transpose(map(sparse_vector, columns), rows))

    @staticmethod
    def from_entries(rows: int, cols: int, entries: Iterable[tuple[int, int, Scalar]]) -> "Matrix":
        """The rows x cols matrix summing each (i, j, c) into entry (i, j)."""
        nz: list = [{} for _ in range(rows)]
        for i, j, c in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise DimensionMismatch(f"entry ({i}, {j}) outside {rows}x{cols}")
            row = nz[i]
            row[j] = row[j] + c if j in row else c
        return Matrix._of(rows, cols, [{j: c for j, c in row.items() if not c.is_zero()}
                                       for row in nz])

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix._of(n, n, [{i: ONE} for i in range(n)])

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix._of(rows, cols, [{} for _ in range(rows)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self._nz == other._nz

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(frozenset(r.items()) for r in self._nz)))

    def is_zero(self) -> bool:
        return not any(self._nz)

    def _plus(self, other: "Matrix", f: Scalar) -> "Matrix":
        """self + f * other."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix sum shape mismatch")
        return Matrix._of(self.rows, self.cols,
                          [add_multiple(dict(r1), f, r2) for r1, r2 in zip(self._nz, other._nz)])

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, ONE)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, -ONE)

    def scale(self, c: Scalar) -> "Matrix":
        if c.is_zero():
            return Matrix.zero(self.rows, self.cols)
        return Matrix._of(self.rows, self.cols,
                          [{j: c * a for j, a in row.items()} for row in self._nz])

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch("matrix product shape mismatch")
        out = []
        for row in self._nz:
            acc: dict = {}
            for k, a in row.items():
                add_multiple(acc, a, other._nz[k])
            out.append(acc)
        return Matrix._of(self.rows, other.cols, out)

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise DimensionMismatch("vector length does not match matrix columns")
        out = []
        for row in self._nz:
            acc = ZERO
            for j, a in row.items():
                x = v[j]
                if not x.is_zero():
                    acc = acc + a * x
            out.append(acc)
        return tuple(out)

    def column(self, j: int) -> Vector:
        return tuple(row.get(j, ZERO) for row in self._nz)

    def row(self, i: int) -> Vector:
        return tuple(_dense(self._nz[i], self.cols))

    def select(self, rows: Sequence[int], cols: Sequence[int]) -> "Matrix":
        """The sub-matrix on the given row and column indices, in their order."""
        where: dict = {}
        for p, j in enumerate(cols):
            where.setdefault(j, []).append(p)
        out = []
        for i in rows:
            new = {}
            for j, a in self._nz[i].items():
                for p in where.get(j, ()):
                    new[p] = a
            out.append(new)
        return Matrix._of(len(rows), len(cols), out)

    def entries(self) -> list[tuple[int, int, Scalar]]:
        """The non-zero entries (i, j, c), column by column."""
        return [(i, j, c) for j, col in enumerate(_transpose(self._nz, self.cols))
                for i, c in col.items()]

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise DimensionMismatch("hstack row mismatch")
        k = self.cols
        return Matrix._of(self.rows, k + other.cols, [
            {**r1, **{j + k: a for j, a in r2.items()}} for r1, r2 in zip(self._nz, other._nz)])

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise DimensionMismatch("vstack column mismatch")
        return Matrix._of(self.rows + other.rows, self.cols, self._nz + other._nz)

    def rref(self) -> tuple["Matrix", list]:
        """Reduced row echelon form and the list of pivot columns.

        The form is unique, so the rows are reduced one at a time against
        the reduced rows kept so far, found by their pivot columns.  What is
        left of a row, if anything, is scaled to lead with 1 and cleared
        from the kept rows that hold its leading column.  Every update walks
        one row's support; the kept rows are private copies."""
        kept: dict = {}  # pivot column -> reduced row
        for row in self._nz:
            v = dict(row)
            # a kept row is zero at every other pivot, so one pass clears them
            for p in [j for j in v if j in kept]:
                add_multiple(v, -v[p], kept[p])
            if not v:
                continue
            c = min(v)
            inv = v[c].inverse()
            v = {j: inv * a for j, a in v.items()}
            for b in kept.values():
                f = b.get(c)
                if f is not None:
                    add_multiple(b, -f, v)
            kept[c] = v
        pivots = sorted(kept)
        rows = [kept[p] for p in pivots] + [{} for _ in range(self.rows - len(pivots))]
        return Matrix._of(self.rows, self.cols, rows), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def __repr__(self) -> str:
        body = "; ".join(" ".join(map(str, self.row(i))) for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {body})"


# ---------------------------------------------------------------------------


class Subspace:
    """Subspace of F^n in canonical form: RREF basis rows, no zero rows.

    `pivots` holds each basis row's pivot column.  The rows' non-zero
    (column, entry) pairs in column order are built on first use and kept.
    """

    __slots__ = ("ambient_dim", "basis", "pivots", "_sparse_rows")

    def __init__(self, ambient_dim: int, basis: Matrix, pivots: Sequence[int]):
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = tuple(pivots)
        self._sparse_rows = None

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Iterable[Vector]) -> "Subspace":
        rows = []
        for v in vectors:
            if len(v) != ambient_dim:
                raise DimensionMismatch("vector length differs from ambient dimension")
            rows.append(sparse_vector(v))
        return Subspace._span(ambient_dim, rows)

    @staticmethod
    def _span(n: int, rows: list) -> "Subspace":
        """The span of the given sparse rows of length n."""
        if not rows:
            return Subspace.zero(n)
        red, pivots = Matrix._of(len(rows), n, rows).rref()
        return Subspace(n, Matrix._of(len(pivots), n, red._nz[:len(pivots)]), pivots)

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.zero(0, ambient_dim), ())

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
            self._sparse_rows = [sorted(row.items()) for row in self.basis._nz]
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
        for p, row in zip(self.pivots, self.basis._nz):
            c = residual.get(p)
            if c is not None and not c.is_zero():
                add_multiple(residual, -c, row)
        return all(x.is_zero() for x in residual.values())

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check(other)
        return all(self.contains_sparse(row) for row in other.basis._nz)

    def add(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return Subspace._span(self.ambient_dim, self.basis._nz + other.basis._nz)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: echelon of [[U|U],[W|0]]; rows with zero left half
        carry an intersection basis in the right half.  Those rows close
        the RREF, so their right halves are already one, pivots shifted by n."""
        self._check(other)
        n = self.ambient_dim
        rows = [{**row, **{j + n: a for j, a in row.items()}} for row in self.basis._nz]
        rows += other.basis._nz
        if not rows:
            return Subspace.zero(n)
        red, pivots = Matrix._of(len(rows), 2 * n, rows).rref()
        first = bisect_left(pivots, n)
        right = [{j - n: a for j, a in row.items()} for row in red._nz[first:len(pivots)]]
        return Subspace(n, Matrix._of(len(right), n, right), [p - n for p in pivots[first:]])

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of F^{self.ambient_dim})"


# ---------------------------------------------------------------------------
# kernels, images, solving


def _kernel_from_rref(red: Matrix, pivots: list, cols: int) -> Subspace:
    """Kernel of the matrix whose first `cols` columns reduce to `red`: one
    vector per free column f, with 1 at f and -red[r][f] at each pivot."""
    pivot_set = set(pivots)
    kernel = {f: {f: ONE} for f in range(cols) if f not in pivot_set}
    for p, row in zip(pivots, red._nz):
        for j, a in row.items():
            v = kernel.get(j)
            if v is not None:
                v[p] = -a
    return Subspace._span(cols, list(kernel.values()))


def kernel_of(m: Matrix) -> Subspace:
    """Kernel of m, a subspace of F^cols."""
    red, pivots = m.rref()
    return _kernel_from_rref(red, pivots, m.cols)


def image_of(m: Matrix) -> Subspace:
    """Column span of m, a subspace of F^rows."""
    return Subspace._span(m.rows, _transpose(m._nz, m.cols))


def nullspace_and_image(m: Matrix) -> tuple[Subspace, Subspace]:
    """Kernel (subspace of F^cols) and column span (subspace of F^rows)."""
    return kernel_of(m), image_of(m)


def linear_solve(m: Matrix, target: Vector) -> Optional[tuple[Vector, Subspace]]:
    """Particular solution of m x = target plus the solution kernel.

    Returns None when the target is not in the image (no solution).
    """
    if len(target) != m.rows:
        raise DimensionMismatch("target length differs from row count")
    k = m.cols
    red, pivots = Matrix._of(m.rows, k + 1, [
        row if t.is_zero() else {**row, k: t} for row, t in zip(m._nz, target)]).rref()
    if k in pivots:
        return None
    x = [ZERO] * k
    for p, row in zip(pivots, red._nz):
        x[p] = row.get(k, ZERO)
    # The left m.cols columns of red are rref(m), with the same pivots.
    return tuple(x), _kernel_from_rref(red, pivots, k)


def solve_batch(m: Matrix, targets: Matrix) -> Optional[Matrix]:
    """Solve m X = targets for all columns at once; None if any fails."""
    if targets.rows != m.rows:
        raise DimensionMismatch("target rows differ from matrix rows")
    k = m.cols
    red, pivots = m.hstack(targets).rref()
    if any(p >= k for p in pivots):
        return None
    out: list = [{} for _ in range(k)]
    for p, row in zip(pivots, red._nz):
        out[p] = {j - k: a for j, a in row.items() if j >= k}
    return Matrix._of(k, targets.cols, out)


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
        left = inner.basis._nz + [sparse_vector(v) for v in outer]
        width = len(left)
        rows = _transpose(left, n)
        for i, row in enumerate(rows):
            row[width + i] = ONE
        red, pivots = Matrix._of(n, width + n, rows).rref()
        a = inner.dim
        self.taken = [p - a for p in pivots if a <= p < width]  # indices into outer
        self.vectors = [outer[i] for i in self.taken]
        # rows a.. of E: complement coordinates, then rows vanishing on B
        kept = [{j - width: x for j, x in row.items() if j >= width} for row in red._nz[a:]]
        self._rows = Matrix._of(n - a, n, kept)
        self._columns = _transpose(kept, n)

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
                for i, e in self._columns[j].items():
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

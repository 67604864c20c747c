"""Exact linear algebra over Q(i) on sparse rows: matrices, echelon forms,
subspaces.

Subspaces are canonical: the basis is the reduced row echelon form of any
spanning set, so equality of subspaces is literal equality of matrices.

A vector of F^n is a {index: Scalar} dict of its non-zero entries: no zero
is ever stored, so the zero vector is {} and `not v` tests it.  Every entry
point that takes a vector of F^n raises DimensionMismatch on an index
outside range(n) (`check_vector`).  A vector may be shared (a Series, a
Matrix and a Subspace hand out theirs), so every kernel accumulates only
into a dict it built itself and never changes an operand.  Matrices act on
column vectors.

A Matrix stores one {column: Scalar} dict per row in the same form.  A
Matrix is never changed once built, so matrices may share row dicts.  That
layout is private to this module.  Other modules build matrices through
`Matrix.from_columns` and `Matrix.from_entries` and read them through
`apply`, `column`, `select` and `entries`; `data` is a read-only
view, a fresh dense row-major copy of the entries.

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


Vector = dict  # {index: non-zero Scalar}


def check_vector(v: Vector, n: int) -> Vector:
    """v, after checking that every index of it lies in range(n)."""
    if v and (min(v) < 0 or max(v) >= n):
        raise DimensionMismatch(f"vector index outside range({n})")
    return v


def _nonzero(row: Sequence[Scalar]) -> dict:
    """The non-zero {column: Scalar} entries of a dense row."""
    return {j: a for j, a in enumerate(row) if not a.is_zero()}


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
        self._nz = [{} for _ in range(rows)] if data is None else [_nonzero(r) for r in data]

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
    def from_columns(rows: int, columns: Iterable[Vector]) -> "Matrix":
        """The rows x len(columns) matrix with the given columns of F^rows."""
        columns = [check_vector(c, rows) for c in columns]
        return Matrix._of(rows, len(columns), _transpose(columns, rows))

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
        """self * v, a new vector of F^rows, for v in F^cols."""
        check_vector(v, self.cols)
        out = {}
        if v:
            for i, row in enumerate(self._nz):
                acc = None
                for j, a in row.items():
                    x = v.get(j)
                    if x is not None:
                        acc = a * x if acc is None else acc + a * x
                if acc is not None and not acc.is_zero():
                    out[i] = acc
        return out

    def column(self, j: int) -> Vector:
        return {i: row[j] for i, row in enumerate(self._nz) if j in row}

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
        body = "; ".join(" ".join(map(str, row)) for row in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"


# ---------------------------------------------------------------------------


class Subspace:
    """Subspace of F^n in canonical form: RREF basis rows, no zero rows.

    `pivots` holds each basis row's pivot column.
    """

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, basis: Matrix, pivots: Sequence[int]):
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = tuple(pivots)

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Iterable[Vector]) -> "Subspace":
        return Subspace._span(ambient_dim, [check_vector(v, ambient_dim) for v in vectors])

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

    def vectors(self) -> list[Vector]:
        """The basis rows, shared with the subspace."""
        return list(self.basis._nz)

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
        """Whether v lies in the span.  In RREF every other row is zero at a
        row's pivot, so the row's coefficient is v's own entry there."""
        residual = dict(check_vector(v, self.ambient_dim))
        for p, row in zip(self.pivots, self.basis._nz):
            c = residual.get(p)
            if c is not None:
                add_multiple(residual, -c, row)
        return not residual

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check(other)
        return all(self.contains(row) for row in other.basis._nz)

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
    check_vector(target, m.rows)
    k = m.cols
    red, pivots = Matrix._of(m.rows, k + 1, [
        {**row, k: target[i]} if i in target else row for i, row in enumerate(m._nz)]).rref()
    if k in pivots:
        return None
    x = {p: row[k] for p, row in zip(pivots, red._nz) if k in row}
    # The left m.cols columns of red are rref(m), with the same pivots.
    return x, _kernel_from_rref(red, pivots, k)


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

    Returns a list of coefficient vectors, or None if some vector is outside
    the span.  One echelon pass solves the whole batch, in the coordinates up
    to the largest index in use: a row that is zero throughout changes no
    solution.
    """
    if not vectors:
        return []
    n = 1 + max((j for v in (*basis_vectors, *vectors) for j in v), default=-1)
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
    and also as their columns, so a projection only applies the columns on
    the support of a vector."""

    __slots__ = ("taken", "vectors", "_rows", "_columns")

    def __init__(self, inner: Subspace, outer: Sequence[Vector]):
        n = inner.ambient_dim
        outer = [check_vector(v, n) for v in outer]
        left = inner.basis._nz + outer
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

    def project(self, vectors: Iterable[Vector]) -> Optional[list[Vector]]:
        """The complement coordinates, in ascending index, of each vector in
        the basis [inner basis | self.vectors], or None if some vector is
        outside their span."""
        n, m = len(self._columns), len(self.vectors)
        out = []
        for v in vectors:
            acc: dict = {}
            for j, x in check_vector(v, n).items():
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

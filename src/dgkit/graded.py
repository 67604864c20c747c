"""Graded vector spaces, graded maps, and structured (DG/DGLA) algebras.

Bases are labeled; a vector in degree k is a `linalg.Vector`, the
{index: Scalar} dict of its non-zero entries, indexed by the degree-k
labels.  Products and brackets are sparse structure constants on basis
pairs, extended bilinearly.  `StructuredAlgebra.mul` reads one index-keyed
table that holds, per degree pair, each constant as Gaussian-integer
numerators over one common denominator and as its Scalar; a product that
sums over two or more rows adds int products and reduces each touched entry
once, through `scalars.lift` and `scalars.gaussian`.  Axioms are verified
exactly on the basis tuples where a side can be non-zero, read off a
neighbour index of the structure table (for each label, the labels it has a
product with on either side) and walked in the full walk's order, so the
first failing tuple is the full walk's.  Every check that compares two sums of structure constants
builds both sides as sparse {label: coefficient} dicts through
`linalg.add_multiple`, the one sparse accumulator, whose key order fixes
the order of a witness's labels; `algebra_map_witness` is the one check
that a map preserves products.  `left_multiplication` and
`adjoint_operator` are read off the product table by one builder.  The
axioms that do not involve a differential (associativity, and skew-symmetry,
Jacobi and the char-0 identities of a bracket) are walked once per algebra;
the first failing labels are cached.

A graded map keeps only its non-zero blocks, in degree order, and forms
each derived object once: `GradedMap.kernel(k)`, `GradedMap.image(k)` and
`GradedMap.square` are cached on the map, so every consumer of one
differential (the axiom checks, cohomology, the strong lemma, its twist)
shares them.  A map is zero exactly when it has no blocks, and the first
failing degree of a relation is its first block.
`Subquotient` is span(outer) modulo inner, degree by degree, with one
`linalg.Complement` per degree, the one place a Complement is built;
cohomology (`CohomologyPresentation`), the ker(d1) sub-algebra and image
subcomplexes of `dgkit.ddbar`, the sl(2) quotient of `dgkit.sl2` and the E1
page of `dgkit.qdolbeault` are its cases, and its `structure` and `blocks`
are the one product loop and the one induced-map loop.

Sign conventions (Koszul throughout):
    d(a*b)    = d(a)*b + (-1)^deg(a) a*d(b)
    [a,b]     = -(-1)^(deg a * deg b) [b,a]
    [a,[b,c]] = [[a,b],c] + (-1)^(deg a * deg b) [b,[a,c]]
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Callable, Iterable, Optional, Sequence

from dgkit.errors import InternalCheckError, ModelError, PreconditionError
from dgkit.linalg import (
    Complement,
    Matrix,
    Subspace,
    Vector,
    add_multiple,
    check_vector,
    image_of,
    kernel_of,
)
from dgkit.scalars import ONE, ZERO, Scalar, gaussian, lift

MINUS_ONE = Scalar(-1)
_NO_PRODUCTS = (1, {})  # the product-table entry of a degree pair without products


class GradedSpace:
    """Finite map degree -> ordered basis labels, labels globally unique."""

    def __init__(self, components: dict[int, Sequence[str]]):
        self.components = {k: list(v) for k, v in sorted(components.items()) if v}
        self.label_loc: dict[str, tuple[int, int]] = {}
        for k, labels in self.components.items():
            for i, lab in enumerate(labels):
                if lab in self.label_loc:
                    raise ModelError(f"duplicate basis label {lab!r}")
                self.label_loc[lab] = (k, i)

    def degrees(self) -> list[int]:
        return list(self.components)

    def dim(self, k: int) -> int:
        return len(self.components.get(k, ()))

    def total_dim(self) -> int:
        return sum(len(v) for v in self.components.values())

    def labels(self, k: int) -> list[str]:
        return self.components.get(k, [])

    def all_labels(self) -> list[str]:
        return [l for k in self.degrees() for l in self.labels(k)]

    def degree_of(self, label: str) -> int:
        return self.label_loc[label][0]

    def basis_vector(self, label: str) -> tuple[int, Vector]:
        k, i = self.label_loc[label]
        return k, {i: ONE}

    def __eq__(self, other):
        if not isinstance(other, GradedSpace):
            return NotImplemented
        return self.components == other.components

    def __repr__(self):
        dims = ", ".join(f"{k}:{len(v)}" for k, v in self.components.items())
        return f"GradedSpace({dims})"


def format_vector(space: GradedSpace, k: int, v: Vector) -> list[list[str]]:
    """Labeled coefficient list in label order, the witness format used in
    reports."""
    labels = space.labels(k)
    return [[labels[i], str(v[i])] for i in sorted(v)]


class GradedMap:
    """Degree-shift linear map given by one matrix block per source degree.

    The constructor is the one writer of `blocks`: it keeps the non-zero
    blocks in degree order."""

    def __init__(self, source: GradedSpace, target: GradedSpace, shift: int,
                 blocks: Optional[dict[int, Matrix]] = None):
        self.source = source
        self.target = target
        self.shift = shift
        self._kernels: dict[int, Subspace] = {}
        self._images: dict[int, Subspace] = {}
        self.blocks = {}
        for k, m in sorted((blocks or {}).items()):
            if m.rows != target.dim(k + shift) or m.cols != source.dim(k):
                raise ModelError(
                    f"block at degree {k} has shape {m.rows}x{m.cols}, "
                    f"expected {target.dim(k + shift)}x{source.dim(k)}"
                )
            if not m.is_zero():
                self.blocks[k] = m

    @staticmethod
    def zero(source: GradedSpace, target: GradedSpace, shift: int) -> "GradedMap":
        return GradedMap(source, target, shift, {})

    @staticmethod
    def identity(space: GradedSpace) -> "GradedMap":
        return GradedMap(space, space, 0,
                         {k: Matrix.identity(space.dim(k)) for k in space.degrees()})

    @staticmethod
    def from_entries(source: GradedSpace, target: GradedSpace, shift: int,
                     entries: Iterable[tuple[str, str, Scalar]]) -> "GradedMap":
        grouped: dict[int, list] = {}
        for frm, to, c in entries:
            if frm not in source.label_loc:
                raise ModelError(f"unknown source label {frm!r}")
            if to not in target.label_loc:
                raise ModelError(f"unknown target label {to!r}")
            k, i = source.label_loc[frm]
            kt, j = target.label_loc[to]
            if kt != k + shift:
                raise ModelError(
                    f"entry {frm!r} -> {to!r} violates shift {shift} "
                    f"(degrees {k} -> {kt})"
                )
            grouped.setdefault(k, []).append((j, i, c))
        return GradedMap(source, target, shift, {
            k: Matrix.from_entries(target.dim(k + shift), source.dim(k), es)
            for k, es in grouped.items()})

    def block(self, k: int) -> Matrix:
        if k in self.blocks:
            return self.blocks[k]
        return Matrix.zero(self.target.dim(k + self.shift), self.source.dim(k))

    def kernel(self, k: int) -> Subspace:
        """The kernel of block(k), in source degree k; eliminated once."""
        if k not in self._kernels:
            self._kernels[k] = kernel_of(self.block(k))
        return self._kernels[k]

    def image(self, k: int) -> Subspace:
        """The image in target degree k, that is, of block(k - shift);
        eliminated once."""
        if k not in self._images:
            self._images[k] = image_of(self.block(k - self.shift))
        return self._images[k]

    def apply(self, k: int, v: Vector) -> Vector:
        """The image of v of degree k, a new vector; a degree without a block
        maps v to zero, and an index outside degree k raises
        DimensionMismatch."""
        m = self.blocks.get(k)
        if m is None:
            check_vector(v, self.source.dim(k))
            return {}
        return m.apply(v)

    def label_table(self) -> dict[str, dict[str, Scalar]]:
        """Sparse label -> (label -> coefficient) view of the map."""
        table: dict[str, dict[str, Scalar]] = {l: {} for l in self.source.all_labels()}
        for frm, to, c in self.entries():
            table[frm][to] = c
        return table

    @cached_property
    def square(self) -> "GradedMap":
        """self o self, formed once; a differential squares to zero exactly
        when this has no blocks."""
        return self.compose(self)

    def compose(self, inner: "GradedMap") -> "GradedMap":
        """self o inner (inner applied first)."""
        return GradedMap(inner.source, self.target, self.shift + inner.shift,
                         {k: self.blocks[k + inner.shift] * m for k, m in inner.blocks.items()
                          if k + inner.shift in self.blocks})

    def add(self, other: "GradedMap") -> "GradedMap":
        if self.shift != other.shift:
            raise ModelError("cannot add maps of different shifts")
        return GradedMap(self.source, self.target, self.shift,
                         {k: self.block(k) + other.block(k)
                          for k in self.blocks.keys() | other.blocks.keys()})

    def scale(self, c: Scalar) -> "GradedMap":
        return GradedMap(self.source, self.target, self.shift,
                         {k: m.scale(c) for k, m in self.blocks.items()})

    def neg(self) -> "GradedMap":
        return self.scale(MINUS_ONE)

    def is_zero(self) -> bool:
        return not self.blocks

    def __eq__(self, other):
        if not isinstance(other, GradedMap):
            return NotImplemented
        return self.shift == other.shift and self.blocks == other.blocks

    def entries(self) -> list[tuple[str, str, Scalar]]:
        out = []
        for k in sorted(self.blocks):
            src = self.source.labels(k)
            tgt = self.target.labels(k + self.shift)
            out.extend((src[j], tgt[i], c) for i, j, c in self.blocks[k].entries())
        return out

    def __repr__(self):
        return f"GradedMap(shift {self.shift}, {len(self.entries())} entries)"


# ---------------------------------------------------------------------------


@dataclass
class AxiomCheck:
    name: str
    passed: bool
    witness: Optional[dict] = None

    def to_json(self):
        out = {"name": self.name, "passed": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class ValidationReport:
    checks: list[AxiomCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name, passed, witness=None):
        self.checks.append(AxiomCheck(name, passed, witness))

    def failures(self) -> list[AxiomCheck]:
        return [c for c in self.checks if not c.passed]

    def to_json(self):
        return {"passed": self.passed, "checks": [c.to_json() for c in self.checks]}


def nonzero_image_witness(f: GradedMap) -> Optional[dict]:
    """{"label", "image"} of the first source basis label that f does not
    kill, or None when f is zero."""
    for k, m in f.blocks.items():
        for i, lab in enumerate(f.source.labels(k)):
            img = m.column(i)
            if img:
                return {"label": lab, "image": format_vector(f.target, k + f.shift, img)}
    return None


def chain_map_failure(f: GradedMap, d_src: GradedMap, d_tgt: GradedMap) -> Optional[int]:
    """The first source degree where f o d_src != d_tgt o f, or None when f
    is a chain map."""
    return next(iter(f.compose(d_src).add(d_tgt.compose(f).neg()).blocks), None)


class StructuredAlgebra:
    """Graded space with named shift-1 differentials and a product/bracket.

    kind is "associative" (structure = product) or "lie" (structure =
    bracket).  Structure constants map label pairs to sparse {label:
    Scalar} dicts.  ``mul`` and ``bracket`` take and return vectors, the
    {index: Scalar} dicts of their non-zero entries, raise DimensionMismatch
    on an index outside an operand's degree, and never change an operand.  ``mul`` reads the constants through one index-keyed table,
    built from ``structure`` on first use: per degree pair, each constant as
    integer numerators over one common denominator s, next to its Scalar.
    It lifts the operand entries to numerators over their common
    denominators, accumulates in ints and reduces each touched entry once,
    over the product of the denominators; a product in which an operand
    meets one row of the table or has one entry, a basis label among them,
    multiplies Scalars.  ``structure`` is not changed after construction.
    """

    def __init__(self, space: GradedSpace, kind: str = "associative",
                 differentials: Optional[dict[str, GradedMap]] = None,
                 structure: Optional[dict] = None,
                 maps: Optional[dict[str, GradedMap]] = None):
        if kind not in ("associative", "lie"):
            raise ModelError(f"unknown algebra kind {kind!r}")
        self.space = space
        self.kind = kind
        self.differentials = dict(differentials or {})
        for name, d in self.differentials.items():
            if d.shift != 1:
                raise ModelError(f"differential {name!r} must have shift 1")
        self.maps = dict(maps or {})  # auxiliary maps (sl2 action, J, ...)
        self.structure: dict[tuple[str, str], dict[str, Scalar]] = {}
        for (l1, l2), targets in (structure or {}).items():
            self._check_triple(l1, l2, targets)
            cleaned = {lt: c for lt, c in targets.items() if not c.is_zero()}
            if cleaned:
                self.structure[(l1, l2)] = cleaned

    def _check_triple(self, l1, l2, targets):
        for lab in (l1, l2):
            if lab not in self.space.label_loc:
                raise ModelError(f"structure references unknown label {lab!r}")
        k1 = self.space.label_loc[l1][0]
        k2 = self.space.label_loc[l2][0]
        for lt in targets:
            if lt not in self.space.label_loc:
                raise ModelError(f"structure references unknown label {lt!r}")
            if self.space.label_loc[lt][0] != k1 + k2:
                raise ModelError(
                    f"structure triple ({l1}, {l2}, {lt}) violates grading: "
                    f"{k1} + {k2} != {self.space.label_loc[lt][0]}"
                )

    @staticmethod
    def structure_from_triples(triples: Iterable[tuple[str, str, str, Scalar]]) -> dict:
        structure: dict[tuple[str, str], dict[str, Scalar]] = {}
        for l1, l2, lt, c in triples:
            tgt = structure.setdefault((l1, l2), {})
            tgt[lt] = tgt.get(lt, ZERO) + c
        return structure

    def structure_triples(self) -> list[tuple[str, str, str, Scalar]]:
        return [(l1, l2, lt, c) for (l1, l2), targets in self.structure.items()
                for lt, c in targets.items()]

    # -- multiplication -------------------------------------------------

    def mul_labels(self, l1: str, l2: str) -> dict[str, Scalar]:
        return self.structure.get((l1, l2), {})

    def _times_label(self, out: dict, c: Scalar, s: dict, label: str,
                     label_first: bool) -> dict:
        """out += c * (label * s) (label_first) or c * (s * label), for a
        sparse {label: coefficient} vector s; returns out."""
        for lt, cs in s.items():
            pair = (label, lt) if label_first else (lt, label)
            add_multiple(out, c * cs, self.structure.get(pair, {}))
        return out

    @cached_property
    def _products(self) -> dict[tuple[int, int], tuple[int, dict[int, dict[int, tuple]]]]:
        """{(k1, k2): (s, {i: {j: ((index, re, im, c), ...)}})}: each
        non-zero structure constant c = (re + im*i)/s of the degree-k1 basis
        vector i times the degree-k2 basis vector j, with its index into
        degree k1 + k2 and its numerators over one common denominator s per
        degree pair; c is the Scalar of `structure` itself, not a copy."""
        loc = self.space.label_loc
        pairs: dict = {}
        for l1, l2 in self.structure:
            pairs.setdefault((loc[l1][0], loc[l2][0]), []).append((l1, l2))
        table: dict = {}
        for degrees, keys in pairs.items():
            s, nums = lift(((loc[l1][1], loc[l2][1], loc[lt][1], c), c) for l1, l2 in keys
                           for lt, c in self.structure[(l1, l2)].items())
            rows: dict = {}
            for (i, j, idx, c), (re, im) in nums.items():
                row = rows.setdefault(i, {})
                row[j] = row.get(j, ()) + ((idx, re, im, c),)
            table[degrees] = s, rows
        return table

    def mul(self, k1: int, v1: Vector, k2: int, v2: Vector) -> Vector:
        """Bilinear extension of the structure constants: v1 * v2 for v1 of
        degree k1 and v2 of degree k2, a new vector of degree k1 + k2.

        When v1 meets two or more rows of the table and v2 has two or more
        entries, the product is `_lifted_product`.  Otherwise the Scalar
        short-cuts on the +-1 entries of such sparse operands are cheaper
        than lifting them: v2 is read once per row of the table that v1
        meets."""
        check_vector(v1, self.space.dim(k1))
        check_vector(v2, self.space.dim(k2))
        s, rows = self._products.get((k1, k2), _NO_PRODUCTS)
        u = [(i, a) for i, a in v1.items() if i in rows]
        if len(u) >= 2 and len(v2) >= 2:
            return self._lifted_product(s, rows, u, v2, self.space.dim(k1 + k2))
        out: dict[int, Scalar] = {}
        for i, a in u:
            row = rows[i]
            for j, b in v2.items():
                targets = row.get(j)
                if targets:
                    c = a * b
                    for idx, _, _, ct in targets:
                        out[idx] = out.get(idx, ZERO) + c * ct
        return {idx: c for idx, c in out.items() if not c.is_zero()}

    @staticmethod
    def _lifted_product(s: int, rows: dict, u: list, v2: Vector, n: int) -> Vector:
        """The product of the (index, Scalar) entries u and the vector v2
        through one table of `_products`, its numerators summed as Gaussian
        integers in two int lists of the target dimension n and each touched
        entry reduced once, over the product of the denominators."""
        d1, nums1 = lift(u)
        d2, nums2 = lift(v2.items())
        re, im = [0] * n, [0] * n
        for i, (a1, b1) in nums1.items():
            for j, targets in rows[i].items():
                if j in nums2:
                    a2, b2 = nums2[j]
                    p, q = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
                    for idx, cr, ci, _ in targets:
                        re[idx] += p * cr - q * ci
                        im[idx] += p * ci + q * cr
        d = d1 * d2 * s
        return {idx: gaussian(a, b, d) for idx, (a, b) in enumerate(zip(re, im)) if a or b}

    def bracket(self, k1: int, v1: Vector, k2: int, v2: Vector) -> Vector:
        """The DGLA bracket: the structure itself for a lie algebra, and for
        an associative one the graded commutator
        [x,y] = x*y - (-1)^(deg x deg y) y*x, read from the one product table."""
        if self.kind == "lie":
            return self.mul(k1, v1, k2, v2)
        sign = MINUS_ONE if (k1 * k2) % 2 == 0 else ONE
        return add_multiple(self.mul(k1, v1, k2, v2), sign, self.mul(k2, v2, k1, v1))

    def differential(self, name: str) -> GradedMap:
        if name not in self.differentials:
            raise ModelError(f"unknown differential {name!r}")
        return self.differentials[name]

    def with_differentials(self, differentials: dict[str, GradedMap]) -> "StructuredAlgebra":
        return StructuredAlgebra(self.space, self.kind, differentials,
                                 self.structure, self.maps)

    # -- axiom validation -------------------------------------------------

    def _d_squared_check(self, report: ValidationReport, d: GradedMap, name: str):
        witness = nonzero_image_witness(d.square)
        report.add(f"{name}^2 = 0", witness is None, witness)

    def _leibniz_check(self, report: ValidationReport, d: GradedMap, name: str):
        """d(l1 l2) = d(l1) l2 + (-1)^deg(l1) l1 d(l2) on the label pairs
        where a side can be non-zero, in label order: the structure pairs,
        and the pairs (l1, l2) with a product t*l2 for some t in d(l1) or
        l1*t for some t in d(l2)."""
        table = d.label_table()
        right, left = self._neighbours
        labels = self.space.all_labels()
        pos = {lab: i for i, lab in enumerate(labels)}
        pairs = {(pos[a], pos[b]) for a, b in self.structure}
        for lab, image in table.items():
            for t in image:
                pairs.update((pos[lab], pos[l2]) for l2 in right.get(t, ()))
                pairs.update((pos[l1], pos[lab]) for l1 in left.get(t, ()))
        ok, witness = True, None
        for i, j in sorted(pairs):
            l1, l2 = labels[i], labels[j]
            # d(l1 * l2) - (d(l1) * l2 + (-1)^k1 l1 * d(l2))
            lhs: dict[str, Scalar] = {}
            for lt, c in self.mul_labels(l1, l2).items():
                add_multiple(lhs, c, table[lt])
            rhs = self._times_label({}, ONE, table[l1], l2, False)
            sign = ONE if self.space.degree_of(l1) % 2 == 0 else MINUS_ONE
            self._times_label(rhs, sign, table[l2], l1, True)
            diff = add_multiple(lhs, MINUS_ONE, rhs)
            if diff:
                ok = False
                witness = {"pair": [l1, l2],
                           "difference": [[l, str(c)] for l, c in diff.items()]}
                break
        report.add(f"Leibniz({name})", ok, witness)

    @cached_property
    def _neighbours(self) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
        """(right, left): right[x] lists the labels y with a product x*y and
        left[y] the labels x with one, in the order of `structure`."""
        right: dict[str, list[str]] = {}
        left: dict[str, list[str]] = {}
        for x, y in self.structure:
            right.setdefault(x, []).append(y)
            left.setdefault(y, []).append(x)
        return right, left

    def _live_triples(self, jacobi: bool = False) -> list[tuple[str, str, str]]:
        """The sorted label triples (a, b, c) where (ab)c or a(bc) can be
        non-zero, and with jacobi also b(ac): (ab)c needs a product t*c for
        some t in ab, a(bc) a product a*u for some u in bc.  Every other
        triple has all these terms zero."""
        right, left = self._neighbours
        live = set()
        for (a, b), ab in self.structure.items():
            for t in ab:
                live.update((a, b, c) for c in right.get(t, ()))
                for x in left.get(t, ()):
                    live.add((x, a, b))
                    if jacobi:
                        live.add((a, x, b))
        return sorted(live)

    @cached_property
    def _associativity_failure(self) -> Optional[tuple[str, str, str]]:
        """The first basis triple (a, b, c) with (ab)c != a(bc), or None; only
        the live triples can fail, and they are walked in sorted order."""
        for l1, l2, l3 in self._live_triples():
            diff = self._times_label({}, ONE, self.mul_labels(l1, l2), l3, False)
            self._times_label(diff, MINUS_ONE, self.mul_labels(l2, l3), l1, True)
            if diff:
                return l1, l2, l3
        return None

    @cached_property
    def _skew_symmetry_failure(self) -> Optional[tuple[str, str]]:
        """The first pair (a, b) with [a,b] + (-1)^(deg a deg b) [b,a] != 0, or None."""
        degree_of = self.space.degree_of
        for (l1, l2) in sorted(set(self.structure) | {(b, a) for (a, b) in self.structure}):
            koszul = ONE if (degree_of(l1) * degree_of(l2)) % 2 == 0 else MINUS_ONE
            if add_multiple(dict(self.mul_labels(l1, l2)), koszul, self.mul_labels(l2, l1)):
                return l1, l2
        return None

    @cached_property
    def _jacobi_failure(self) -> Optional[tuple[str, str, str]]:
        """The first triple violating
        [l1,[l2,l3]] = [[l1,l2],l3] + (-1)^(deg l1 deg l2) [l2,[l1,l3]], or None."""
        degree_of = self.space.degree_of
        for l1, l2, l3 in self._live_triples(jacobi=True):
            sign = ONE if (degree_of(l1) * degree_of(l2)) % 2 == 0 else MINUS_ONE
            diff = self._times_label({}, ONE, self.mul_labels(l2, l3), l1, True)
            self._times_label(diff, MINUS_ONE, self.mul_labels(l1, l2), l3, False)
            self._times_label(diff, -sign, self.mul_labels(l1, l3), l2, True)
            if diff:
                return l1, l2, l3
        return None

    @cached_property
    def _char0_failure(self) -> Optional[tuple[str, str]]:
        """The first (label, identity) violating [a,a] = 0 (a even) or
        [a,[a,a]] = 0 (a odd), or None."""
        for lab in self.space.all_labels():
            sq = self.mul_labels(lab, lab)
            if self.space.degree_of(lab) % 2 == 0:
                if sq:
                    return lab, "[a,a]=0 (even)"
            elif self._times_label({}, ONE, sq, lab, True):
                return lab, "[a,[a,a]]=0 (odd)"
        return None

    def validate_dg_algebra(self, d_name: str) -> ValidationReport:
        """d^2 = 0, Leibniz on all basis pairs, associativity on all triples."""
        if self.kind != "associative":
            raise PreconditionError("validate_dg_algebra requires an associative algebra")
        d = self.differential(d_name)
        report = ValidationReport()
        self._d_squared_check(report, d, d_name)
        self._leibniz_check(report, d, d_name)
        bad = self._associativity_failure
        report.add("associativity", bad is None, bad and {"triple": list(bad)})
        return report

    def validate_dgla(self, d_name: str) -> ValidationReport:
        """d^2, Leibniz, graded skew-symmetry, Jacobi, plus the char-0
        consequences [a,a] = 0 (a even) and [a,[a,a]] = 0 (a odd)."""
        if self.kind != "lie":
            raise PreconditionError("validate_dgla requires a lie algebra")
        d = self.differential(d_name)
        report = ValidationReport()
        self._d_squared_check(report, d, d_name)
        self._leibniz_check(report, d, d_name)
        bad = self._skew_symmetry_failure
        report.add("skew-symmetry", bad is None, bad and {"pair": list(bad)})
        bad = self._jacobi_failure
        report.add("Jacobi", bad is None, bad and {"triple": list(bad)})
        bad = self._char0_failure
        report.add("char-0 consequences", bad is None,
                   bad and {"label": bad[0], "identity": bad[1]})
        return report


def algebra_map_witness(src: StructuredAlgebra, f: GradedMap,
                        tgt: StructuredAlgebra) -> Optional[dict]:
    """The first basis pair {"pair": [a, b]} of src with f(a * b) != f(a) * f(b),
    or None when the shift-0 map f is multiplicative on basis pairs.

    f(a * b) pushes the pair's structure constants through the sparse
    columns of f; f(a) * f(b) applies the structure of tgt to them.  Only
    the pairs where a side can be non-zero are walked, in label order: the
    structure pairs of src whose product f does not kill on every label,
    and the pairs (a, b) with f(a) and f(b) meeting a structure pair of
    tgt.  Both sides of every other pair are empty, so the walk finds the
    first failing pair of the full one.
    """
    columns = f.label_table()
    labels = src.space.all_labels()
    pos = {lab: i for i, lab in enumerate(labels)}
    preimage: dict[str, list[int]] = {}
    for lab, image in columns.items():
        for t in image:
            preimage.setdefault(t, []).append(pos[lab])
    kept = {lab for lab, image in columns.items() if image}
    pairs = {(pos[a], pos[b]) for (a, b), ab in src.structure.items()
             if not kept.isdisjoint(ab)}
    for a, b in tgt.structure:
        pairs.update(product(preimage.get(a, ()), preimage.get(b, ())))
    for i, j in sorted(pairs):
        l1, l2 = labels[i], labels[j]
        lhs: dict[str, Scalar] = {}
        for lt, c in src.mul_labels(l1, l2).items():
            add_multiple(lhs, c, columns[lt])
        rhs: dict[str, Scalar] = {}
        for a, ca in columns[l1].items():
            tgt._times_label(rhs, ca, columns[l2], a, True)
        if lhs != rhs:
            return {"pair": [l1, l2]}
    return None


# ---------------------------------------------------------------------------
# subquotients: cohomology, sub-algebras and quotients


def _outside(k: int) -> Exception:
    return InternalCheckError(f"vector at degree {k} leaves the subquotient")


def _not_closed(k: int) -> Exception:
    return PreconditionError(f"vector at degree {k} is not closed")


class Subquotient:
    """span(outer) modulo inner, degree by degree, inside a structured algebra.

    `inner` maps a degree to a Subspace and `outer` to a list of vectors; a
    degree either leaves out is zero.  One `linalg.Complement` per degree
    picks the representatives: each vector of outer[k] outside the span of
    inner[k] and the vectors picked before it (`taken[k]` holds their
    indices into outer[k]).  They are labelled f"{prefix}{k}_{i}" in
    `space`, and the complement projects onto them along inner[k].  Products
    and maps descend through the representatives: products go through
    `StructuredAlgebra.mul` and every class through `project`, which gives
    a vector's class as its coordinates in the representatives.  Projecting
    a vector outside inner + span(outer) raises escape(k).  Cohomology is
    the case (im d, ker d), a sub-algebra (0, basis), a quotient by an ideal
    I (I, a spanning set).
    """

    def __init__(self, algebra: StructuredAlgebra, inner: dict[int, Subspace],
                 outer: dict[int, Sequence[Vector]], prefix: str,
                 escape: Callable[[int], Exception] = _outside):
        self.algebra = algebra
        self.escape = escape
        space = algebra.space
        self.inner = {k: inner[k] if k in inner else Subspace.zero(space.dim(k))
                      for k in space.degrees()}
        self._complements = {k: Complement(sub, outer.get(k, []))
                             for k, sub in self.inner.items()}
        self.reps = {k: comp.vectors for k, comp in self._complements.items()}
        # the degrees not wholly in inner: only there can a class be non-zero
        # or a vector escape
        self._open = {k for k, sub in self.inner.items() if sub.dim < space.dim(k)}
        self.taken = {k: comp.taken for k, comp in self._complements.items()}
        self.space = GradedSpace({k: [f"{prefix}{k}_{i}" for i in range(len(reps))]
                                  for k, reps in self.reps.items()})
        self._structure: Optional[dict] = None

    def dims(self) -> dict[int, int]:
        return {k: len(v) for k, v in self.reps.items() if v}

    def dim(self, k: int) -> int:
        return len(self.reps.get(k, ()))

    def project(self, k: int, vectors: Iterable[Vector],
                escape: Optional[Callable[[int], Exception]] = None) -> list[Vector]:
        """The class of each vector of degree k, as its coordinates in the
        representatives; a vector outside inner + span(outer) raises
        escape(k), by default the subquotient's own.  Outside `_open` every
        class is 0 and nothing escapes, so nothing is projected."""
        if k not in self._open:
            return [{} for _ in vectors]
        coords = self._complements[k].project(vectors)
        if coords is None:
            raise (escape or self.escape)(k)
        return coords

    def structure(self, escape: Optional[Callable[[int], Exception]] = None) -> dict:
        """Structure constants on the representatives: each product of two
        representatives, projected, as its non-zero class coordinates.  The
        products of one degree pair are projected in one batch, and only
        into `_open`: a degree wholly in inner has no class and nothing
        escapes to it."""
        if self._structure is None:
            labels, mul = self.space.labels, self.algebra.mul
            degrees = [k for k, reps in self.reps.items() if reps]
            triples = []
            for k1, k2 in product(degrees, repeat=2):
                if k1 + k2 not in self._open:
                    continue
                classes = self.project(k1 + k2, [mul(k1, r1, k2, r2) for r1 in self.reps[k1]
                                                 for r2 in self.reps[k2]], escape)
                for (l1, l2), cls in zip(product(labels(k1), labels(k2)), classes):
                    triples.extend((l1, l2, labels(k1 + k2)[t], c) for t, c in cls.items())
            self._structure = StructuredAlgebra.structure_from_triples(triples)
        return self._structure

    def blocks(self, op: GradedMap, source: Optional["Subquotient"] = None,
               escape: Optional[Callable[[int], Exception]] = None) -> dict[int, Matrix]:
        """The matrices of the map op induces from source (by default this
        subquotient) to this one: op of each representative of source,
        projected here; one block per non-empty source degree."""
        source = self if source is None else source
        return {k: Matrix.from_columns(
                    self.dim(k + op.shift),
                    self.project(k + op.shift, [op.apply(k, r) for r in reps], escape))
                for k, reps in source.reps.items() if reps}

    def projection(self) -> Optional[GradedMap]:
        """The projection of the whole algebra onto this subquotient along
        inner, or None when inner and outer do not span some degree."""
        blocks = {k: comp.projection() for k, comp in self._complements.items()}
        if any(m is None for m in blocks.values()):
            return None
        return GradedMap(self.algebra.space, self.space, 0, blocks)


class CohomologyPresentation(Subquotient):
    """Cohomology of (A, d): the subquotient ker(d) / im(d), labelled h{k}_{i}.

    Representatives span a complement of im(d) inside ker(d); the complement
    is the deterministic echelon extension, no metric enters.  Projecting a
    vector that is not closed raises PreconditionError.  The induced
    product/bracket is computed on representatives; it descends to
    cohomology when d satisfies Leibniz, which `check_well_defined` checks.
    """

    def __init__(self, algebra: StructuredAlgebra, d_name: str):
        d = algebra.differential(d_name)
        bad = next(iter(d.square.blocks), None)
        if bad is not None:
            raise PreconditionError(f"{d_name}^2 != 0 at degree {bad}")
        self.d_name = d_name
        degrees = algebra.space.degrees()
        super().__init__(algebra, {k: d.image(k) for k in degrees},
                         {k: d.kernel(k).vectors() for k in degrees}, "h", _not_closed)

    def induced_structure(self) -> dict:
        """Structure constants inherited on cohomology classes."""
        return self.structure()

    def as_algebra(self, d_name: Optional[str] = None) -> StructuredAlgebra:
        """Cohomology as a structured algebra whose one differential, named
        d_name (by default this presentation's), is zero."""
        return StructuredAlgebra(
            self.space, self.algebra.kind,
            {d_name or self.d_name: GradedMap.zero(self.space, self.space, 1)},
            self.induced_structure())

    def check_well_defined(self) -> ValidationReport:
        """The `Leibniz(d)` check of `validate`, with its first failing label
        pair as the witness.  Leibniz makes the induced structure
        independent of the representatives: for b = dc and dz = 0 it gives
        b*z = d(c*z) and z*b = (-1)^deg(z) d(z*c), so a boundary times a
        cycle is a boundary; and it closes every product of cycles, so the
        structure forms.  A model that fails it is not certified, since its
        induced structure need not descend."""
        report = ValidationReport()
        self.algebra._leibniz_check(report, self.algebra.differential(self.d_name), self.d_name)
        return report


def cohomology(algebra: StructuredAlgebra, d_name: str) -> CohomologyPresentation:
    return CohomologyPresentation(algebra, d_name)


def _table_operator(algebra: StructuredAlgebra, degree: int, v: Vector,
                    adjoint: bool) -> GradedMap:
    """The operator u -> v * u, and with adjoint also minus
    (-1)^(deg v * deg u) u * v, read off the product table: for each
    non-zero v_i and each constant c of basis vector i times basis vector j
    of degree k, v_i * c lands in column j of the degree-k block, and for
    each constant c of j times i, -(-1)^(degree * k) c * v_i does."""
    space = algebra.space
    check_vector(v, space.dim(degree))
    entries: dict[int, list] = {}
    for (k1, k2), (_, rows) in algebra._products.items():
        if k1 == degree:
            entries.setdefault(k2, []).extend(
                (idx, j, a * c) for i, a in v.items()
                for j, targets in rows.get(i, {}).items() for idx, _, _, c in targets)
        if adjoint and k2 == degree:
            sign = MINUS_ONE if (degree * k1) % 2 == 0 else ONE
            entries.setdefault(k1, []).extend(
                (idx, j, sign * c * v[i]) for j, row in rows.items()
                for i, targets in row.items() if i in v for idx, _, _, c in targets)
    return GradedMap(space, space, degree, {
        k: Matrix.from_entries(space.dim(degree + k), space.dim(k), e) for k, e in entries.items()})


def adjoint_operator(algebra: StructuredAlgebra, degree: int, v: Vector) -> GradedMap:
    """The graded commutator u -> v*u - (-1)^(deg v * deg u) u*v."""
    return _table_operator(algebra, degree, v, True)


def left_multiplication(algebra: StructuredAlgebra, degree: int, v: Vector) -> GradedMap:
    """The operator u -> v * u on the whole algebra."""
    return _table_operator(algebra, degree, v, False)


def induced_map_on_cohomology(f: GradedMap, source: CohomologyPresentation,
                              target: CohomologyPresentation) -> dict[int, Matrix]:
    """Matrix of the map induced on cohomology by a chain map f (shift 0).

    The projection raises only when f sends a representative to a vector
    that is not closed; that f sends images to images is the caller's
    chain-map check, `chain_map_failure`, as in `formality_zigzag`.
    """
    return target.blocks(f, source)

"""sl(2) actions on graded spaces: weight decomposition, the low-weight
ideal, and the quotient algebra it defines.

The action is given by three shift-0 maps e (raising), f (lowering), h
(Cartan) with [h,e] = 2e, [h,f] = -2f, [e,f] = h.  Group invariance is
operationalized as weight 0 under this action: the group is recovered from
the algebra action on finite-dimensional representations, so no group
element is ever materialized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from dgkit.errors import InternalCheckError, ModelError
from dgkit.graded import (
    GradedMap,
    GradedSpace,
    StructuredAlgebra,
    Subquotient,
    ValidationReport,
    algebra_map_witness,
    chain_map_failure,
)
from dgkit.linalg import Matrix, Subspace, Vector, kernel_of
from dgkit.scalars import ONE, Scalar


class Sl2Module:
    """A graded space with a degree-preserving sl(2)-action."""

    def __init__(self, space: GradedSpace, e: GradedMap, f: GradedMap, h: GradedMap):
        for name, op in (("e", e), ("f", f), ("h", h)):
            if op.shift != 0:
                raise ModelError(f"sl(2) operator {name} must preserve degree")
        self.space = space
        self.e = e
        self.f = f
        self.h = h

    @staticmethod
    def from_algebra(algebra: StructuredAlgebra) -> "Sl2Module":
        try:
            return Sl2Module(algebra.space, algebra.maps["e"],
                             algebra.maps["f"], algebra.maps["h"])
        except KeyError as exc:
            raise ModelError(f"algebra carries no sl(2) map {exc}") from exc

    def validate(self) -> ValidationReport:
        """[h,e] = 2e, [h,f] = -2f, [e,f] = h, checked blockwise."""
        report = ValidationReport()
        two = Scalar(2)

        def comm(a: GradedMap, b: GradedMap) -> GradedMap:
            return a.compose(b).add(b.compose(a).neg())

        def is_multiple(a: GradedMap, c: Scalar, b: GradedMap) -> bool:
            """a = c b for a non-zero c, through the non-zero entries."""
            return a.entries() == [(s, t, c * x) for s, t, x in b.entries()]

        report.add("[h,e] = 2e", is_multiple(comm(self.h, self.e), two, self.e))
        report.add("[h,f] = -2f", is_multiple(comm(self.h, self.f), -two, self.f))
        report.add("[e,f] = h", comm(self.e, self.f) == self.h)
        return report


def integer_spectrum(m: Matrix) -> dict[int, Subspace]:
    """Eigenspaces ker(m - lam) of the integer eigenvalues lam of m.

    Scans lam = 0, 1, -1, 2, -2, ... up to the matrix size n and stops once
    the eigenspaces span F^n.  Raises ModelError when they never do, i.e.
    when m has a non-integral eigenvalue or is not diagonalizable.
    """
    n = m.rows
    eigenspaces: dict[int, Subspace] = {}
    covered = 0
    for lam in [0] + [s * v for v in range(1, n + 1) for s in (1, -1)]:
        if covered == n:
            break
        eig = kernel_of(m - Matrix.from_entries(n, n, [(i, i, Scalar(lam)) for i in range(n)]))
        if eig.dim:
            eigenspaces[lam] = eig
            covered += eig.dim
    if covered != n:
        raise ModelError(
            f"not diagonalizable with an integer spectrum: integer eigenspaces "
            f"span {covered} of {n} dimensions")
    return eigenspaces


@dataclass
class IsotypicDecomposition:
    """Per degree and weight: highest-weight subspaces and multiplicities."""

    module: Sl2Module
    highest_weight: dict = field(default_factory=dict)   # (degree, w) -> Subspace
    eigenspaces: dict = field(default_factory=dict)      # (degree, lam) -> Subspace

    def multiplicity(self, degree: int, w: int) -> int:
        sub = self.highest_weight.get((degree, w))
        return sub.dim if sub else 0

    def weights(self, degree: int) -> list[int]:
        return sorted(w for (k, w), sub in self.highest_weight.items()
                      if k == degree and sub.dim > 0)

    def isotypic_vectors(self, degree: int, w: int) -> list[Vector]:
        """Spanning vectors of the weight-w isotypic piece: f^j on HW vectors."""
        sub = self.highest_weight.get((degree, w))
        if not sub or sub.dim == 0:
            return []
        out = []
        f = self.module.f
        for v in sub.vectors():
            cur = v
            out.append(cur)
            for _ in range(w):
                cur = f.apply(degree, cur)
                out.append(cur)
        return out

    def isotypic_subspace(self, degree: int, w: int) -> Subspace:
        n = self.module.space.dim(degree)
        return Subspace.from_vectors(n, self.isotypic_vectors(degree, w))

    def to_json(self):
        table = {}
        for (k, w), sub in sorted(self.highest_weight.items()):
            if sub.dim:
                table.setdefault(str(k), {})[str(w)] = sub.dim
        return {"multiplicities": table}


def weight_decomposition(module: Sl2Module) -> IsotypicDecomposition:
    """Decompose each degree block into isotypic pieces.

    Verifies the dimension identity sum_w mult(w)(w+1) = dim and that the
    f-orbits of highest-weight vectors span the block.
    """
    report = module.validate()
    if not report.passed:
        raise ModelError(f"not an sl(2) action: {report.failures()[0].name}")
    decomp = IsotypicDecomposition(module)
    space = module.space
    for k in space.degrees():
        n = space.dim(k)
        if n == 0:
            continue
        eigenspaces = integer_spectrum(module.h.block(k))
        e_ker = module.e.kernel(k)
        dim_count = 0
        for lam, eig in eigenspaces.items():
            decomp.eigenspaces[(k, lam)] = eig
            if lam < 0:
                continue
            hw = eig.intersect(e_ker)
            decomp.highest_weight[(k, lam)] = hw
            dim_count += hw.dim * (lam + 1)
        if dim_count != n:
            raise ModelError(
                f"weight multiplicities do not add up at degree {k}: "
                f"{dim_count} != {n}")
        spanning = []
        for w in decomp.weights(k):
            spanning.extend(decomp.isotypic_vectors(k, w))
        if Subspace.from_vectors(n, spanning).dim != n:
            raise ModelError(f"f-orbits of highest-weight vectors do not span "
                             f"degree {k}")
    return decomp


def _full(space: GradedSpace, ideal: dict[int, Subspace], k: int) -> bool:
    """Whether no vector of degree k can leave the ideal: the space has no
    degree k, or the ideal holds all of it."""
    n = space.dim(k)
    return n == 0 or (k in ideal and ideal[k].dim == n)


def _escape(space: GradedSpace, ideal: dict[int, Subspace], op: GradedMap,
            k: int) -> Optional[Vector]:
    """The first basis vector of the ideal's degree-k part that op maps out
    of the ideal, or None.  A target degree the space lacks or the ideal
    fills cannot be left, so it is not walked."""
    tgt = k + op.shift
    if _full(space, ideal, tgt):
        return None
    for v in ideal[k].vectors():
        img = op.apply(k, v)
        if img and (tgt not in ideal or not ideal[tgt].contains(img)):
            return v
    return None


def _unstable_degree(space: GradedSpace, ideal: dict[int, Subspace],
                     op: GradedMap) -> Optional[int]:
    """The first ideal degree that op maps out of the ideal, or None."""
    return next((k for k in ideal if _escape(space, ideal, op, k) is not None), None)


def _leaving_products(algebra: StructuredAlgebra, ideal: dict[int, Subspace],
                      rows: Iterable[tuple[int, Vector]]):
    """For each ideal row v of degree k, the products label * v and then
    v * label with every basis label, in label order, that leave the ideal
    as it stands when each product is due: yields (k, label, degree,
    product).  A product whose degree the space lacks or the ideal fills
    cannot leave it, so it is not formed."""
    space = algebra.space
    # per degree, each (label, its basis vector, label first?)
    factors = [(kl, [(lab, {i: ONE}, first) for i, lab in enumerate(space.labels(kl))
                     for first in (True, False)]) for kl in space.degrees()]
    for k, v in rows:
        for kl, products in factors:
            deg = k + kl
            for lab, unit, label_first in products:
                if _full(space, ideal, deg):
                    break
                prod = algebra.mul(kl, unit, k, v) if label_first else algebra.mul(k, v, kl, unit)
                if prod and (deg not in ideal or not ideal[deg].contains(prod)):
                    yield k, lab, deg, prod


def low_weight_ideal(algebra: StructuredAlgebra,
                     decomp: IsotypicDecomposition) -> dict[int, Subspace]:
    """Smallest two-sided graded ideal containing, in each degree k, every
    isotypic component of weight strictly less than k.

    Closure adds every product with a basis label that leaves the ideal
    (`_leaving_products`) until none does; monotone, so it terminates
    within total_dim rounds.
    """
    space = algebra.space
    ideal = {k: Subspace.zero(space.dim(k)) for k in space.degrees()}
    frontier: list[tuple[int, Vector]] = []
    for k in space.degrees():
        gens = []
        for w in decomp.weights(k):
            if w < k:
                gens.extend(decomp.isotypic_vectors(k, w))
        if gens:
            ideal[k] = Subspace.from_vectors(space.dim(k), gens)
            frontier.extend((k, row) for row in ideal[k].vectors())

    rounds = 0
    while frontier:
        rounds += 1
        if rounds > space.total_dim() + 1:
            raise InternalCheckError("ideal closure failed to stabilize")
        new_frontier: list[tuple[int, Vector]] = []
        for _, _, deg, prod in _leaving_products(algebra, ideal, frontier):
            ideal[deg] = ideal[deg].add(Subspace.from_vectors(space.dim(deg), [prod]))
            new_frontier.append((deg, prod))
        frontier = new_frontier
    return ideal


@dataclass
class QuotientResult:
    """The quotient algebra, the projection, and its certificates."""

    algebra: StructuredAlgebra            # the quotient
    qmap: GradedMap                       # projection from the source
    reps: dict                            # degree -> list of representative vectors
    bidegrees: dict                       # quotient label -> (p, q), when h-graded
    checks: ValidationReport
    ideal: dict                           # degree -> Subspace, the ideal divided out
    embedding_injective: Optional[bool] = None

    def dims(self) -> dict[int, int]:
        return {k: self.algebra.space.dim(k) for k in self.algebra.space.degrees()}

    def bigraded_dims(self) -> dict:
        out: dict = {}
        for lab, (p, q) in self.bidegrees.items():
            out[(p, q)] = out.get((p, q), 0) + 1
        return out

    def to_json(self):
        return {
            "dims": {str(k): v for k, v in self.dims().items()},
            "bigraded_dims": {f"{p},{q}": v for (p, q), v in sorted(self.bigraded_dims().items())},
            "checks": self.checks.to_json(),
            "embedding_injective": self.embedding_injective,
        }


def two_sided_witness(algebra: StructuredAlgebra,
                      ideal: dict[int, Subspace]) -> Optional[dict]:
    """The first {"degree", "label"} such that a basis label times an ideal
    basis row of that degree, on either side, leaves the ideal (the first
    of `_leaving_products`); None when the ideal is two-sided."""
    rows = ((k, v) for k, sub in ideal.items() for v in sub.vectors())
    hit = next(_leaving_products(algebra, ideal, rows), None)
    return hit and {"degree": hit[0], "label": hit[1]}


def plus_quotient(algebra: StructuredAlgebra, ideal: dict[int, Subspace],
                  decomp: Optional[IsotypicDecomposition] = None) -> QuotientResult:
    """Quotient of the algebra by a graded two-sided differential-stable ideal.

    Rejects (ModelError, naming the witness or its degree) if the ideal is
    not two-sided or not stable under every named differential, h, e and f.
    When an sl(2) decomposition is supplied, representatives are chosen
    inside h-eigenspaces so the quotient inherits the bigrading
    (p, q) = ((k - lam)/2, (k + lam)/2).

    The stability checks under the differentials, e, f and h walk each ideal
    degree once per operator (`_escape`), skipping one whose target degree
    the space lacks or the ideal fills: no image can leave the ideal there.
    """
    space = algebra.space
    checks = ValidationReport()

    witness = two_sided_witness(algebra, ideal)
    checks.add("two-sided ideal", witness is None, witness)
    if witness is not None:
        raise ModelError(f"not a two-sided ideal: {witness}")

    for name, d in algebra.differentials.items():
        bad = _unstable_degree(space, ideal, d)
        if bad is not None:
            raise ModelError(f"ideal not stable under differential {name!r}: degree {bad}")
        checks.add(f"ideal stable under {name}", True)

    h = algebra.maps.get("h")
    # a decomposition of this very h already holds its eigenspaces
    stored = decomp.eigenspaces if decomp is not None and decomp.module.h is h else None
    outer: dict[int, list[Vector]] = {}
    weights: dict[int, list[Optional[int]]] = {}
    for k in space.degrees():
        n = space.dim(k)
        if h is None:
            outer[k], weights[k] = Subspace.full(n).vectors(), [None] * n
            continue
        if stored is None:
            spectrum = integer_spectrum(h.block(k))
        else:
            spectrum = {lam: eig for (kk, lam), eig in stored.items() if kk == k}
        # h is diagonalizable: an h-stable ideal is the sum of its parts in
        # the eigenspaces, so the complement splits along them as well
        if k in ideal and _escape(space, ideal, h, k) is not None:
            raise ModelError(
                f"ideal is not h-stable at degree {k}; bigraded quotient "
                f"unavailable")
        pairs = [(lam, v) for lam, eig in sorted(spectrum.items()) for v in eig.vectors()]
        outer[k], weights[k] = [v for _, v in pairs], [lam for lam, _ in pairs]
    quotient = Subquotient(algebra, ideal, outer, "q")
    q_space = quotient.space

    bidegrees: dict[str, tuple[int, int]] = {}
    for k, taken in quotient.taken.items():
        for label, t in zip(q_space.labels(k), taken):
            lam = weights[k][t]
            if lam is not None and (k - lam) % 2 == 0:
                bidegrees[label] = ((k - lam) // 2, (k + lam) // 2)

    qmap = quotient.projection()
    if qmap is None:
        raise InternalCheckError("ideal + representatives do not span")

    q_diffs = {name: GradedMap(q_space, q_space, 1, quotient.blocks(d))
               for name, d in algebra.differentials.items()}

    q_maps = {}
    if h is not None:
        # sl(2) operators descend when the ideal is stable, as h is by now
        for name in ("e", "f", "h"):
            op = algebra.maps.get(name)
            if op is None:
                continue
            bad = None if op is h else _unstable_degree(space, ideal, op)
            if bad is not None:
                raise ModelError(f"ideal not stable under {name}: degree {bad}")
            checks.add(f"ideal stable under {name}", True)
            q_maps[name] = GradedMap(q_space, q_space, 0, quotient.blocks(op))

    q_algebra = StructuredAlgebra._derived(q_space, algebra.kind, q_diffs,
                                           quotient.structure(), q_maps)

    # certificates: projection is a surjective algebra chain map
    witness = algebra_map_witness(algebra, qmap, q_algebra)
    checks.add("projection is an algebra map", witness is None, witness)
    for name, d in algebra.differentials.items():
        checks.add(f"projection chain map for {name}",
                   chain_map_failure(qmap, d, q_diffs[name]) is None)

    result = QuotientResult(q_algebra, qmap, quotient.reps, bidegrees, checks, ideal)

    if decomp is not None:
        # the top-weight part of each degree embeds injectively
        injective = True
        for k in space.degrees():
            vecs = decomp.isotypic_vectors(k, k)
            if not vecs:
                continue
            imgs = [qmap.apply(k, v) for v in vecs]
            rank = Subspace.from_vectors(q_space.dim(k), imgs).dim
            if rank != Subspace.from_vectors(space.dim(k), vecs).dim:
                injective = False
        result.embedding_injective = injective
        checks.add("top-weight part embeds", injective)

    if not checks.passed:
        raise InternalCheckError(f"quotient certificates failed: "
                                 f"{checks.failures()[0].name}")
    return result

"""Finite connection models and their quaternionic total complex.

A connection model is an algebra D modeling the (0,*)-forms with two
shift-1 operators del_bar and del_bar_J.  The model is *autodual* when

    del_bar^2 = 0,   del_bar_J^2 = 0,   del_bar del_bar_J + del_bar_J del_bar = 0,

equivalently when the bigraded complex with components x^p y^q D^(p+q),
horizontal differential x*del_bar_J and vertical differential y*del_bar has
a square-zero total differential.  The complex keeps one table from its
basis labels to their cells (p, q, D-label); its differentials, the
evaluations pi_x (x = 1, y = 0) and pi_y (x = 0, y = 1) onto D and their
sections D -> x^k D, y^k D are read from it, and no other module writes or
reads a cell label.  Its spectral pages are read off two subquotients of D,
H(D, del_bar) and ker del_bar, and are defined for the standard complex
only.  `connection_from_bicomplex` is the one place a bicomplex (d0, d1)
becomes a connection model, with d0 as del_bar_J and d1 as del_bar.

When the model also carries the ambient algebra F (all form types) with an
sl(2)-action e/f/h, a multiplicative J, and the two components del/del_bar
of the full connection, the low-weight quotient F_+ exists and the bigraded
identification phi between the quaternionic complex and F_+ is built and
certified exactly.  Its blocks, and those of its inverse, are sub-matrices of
products of operator blocks (f^p, e^p, the projection onto F_+ and the
representatives), selected on the indices of D and of each bidegree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from dgkit.ddbar import Bicomplex, strong_lemma_check
from dgkit.errors import InternalCheckError, ModelError, PreconditionError
from dgkit.graded import (
    GradedMap,
    GradedSpace,
    StructuredAlgebra,
    Subquotient,
    ValidationReport,
    cohomology,
    nonzero_image_witness,
)
from dgkit.linalg import Matrix, Subspace, invert
from dgkit.scalars import ONE, Scalar
from dgkit.sl2 import (
    IsotypicDecomposition,
    QuotientResult,
    Sl2Module,
    low_weight_ideal,
    plus_quotient,
    weight_decomposition,
)

DEL_BAR = "del_bar"
DEL_BAR_J = "del_bar_J"
DEL = "del"


def inverse_map(g: GradedMap) -> GradedMap:
    """Blockwise inverse of a degree-preserving invertible map."""
    if g.shift != 0:
        raise ModelError("only shift-0 maps can be inverted")
    blocks = {}
    for k in g.source.degrees():
        n = g.source.dim(k)
        if n == 0:
            continue
        inv = invert(g.block(k))
        if inv is None:
            raise ModelError(f"map is singular at degree {k}")
        blocks[k] = inv
    return GradedMap(g.target, g.source, 0, blocks)


class ConnectionModel:
    """Dolbeault-side algebra with del_bar / del_bar_J, plus optional full
    data.  The bicomplex, the autoduality verdict, the decomposition and the
    quotient are built on first use and shared."""

    def __init__(self, dolbeault: StructuredAlgebra,
                 full_model: Optional[StructuredAlgebra] = None):
        for name in (DEL_BAR, DEL_BAR_J):
            if name not in dolbeault.differentials:
                raise ModelError(f"connection model lacks operator {name!r}")
        self.dolbeault = dolbeault
        self.full_model = full_model

    @property
    def del_bar(self) -> GradedMap:
        return self.dolbeault.differential(DEL_BAR)

    @property
    def del_bar_j(self) -> GradedMap:
        return self.dolbeault.differential(DEL_BAR_J)

    @property
    def j_op(self) -> GradedMap:
        if self.full_model is None or "J" not in self.full_model.maps:
            raise ModelError("model has no J data")
        return self.full_model.maps["J"]

    @cached_property
    def bicomplex(self) -> Bicomplex:
        """The (del_bar_J, del_bar) pair as a bicomplex on the Dolbeault side."""
        return Bicomplex(self.dolbeault, DEL_BAR_J, DEL_BAR)

    @cached_property
    def autoduality(self) -> AutodualityReport:
        return autoduality_check(self)

    def strong_lemma_certified(self) -> bool:
        """Whether the strong lemma holds for (del_bar_J, del_bar); False
        when the pair is not a bicomplex."""
        try:
            return strong_lemma_check(self.bicomplex).strong_lemma
        except PreconditionError:
            return False

    # -- full-model pipeline -------------------------------------------

    @cached_property
    def decomposition(self) -> IsotypicDecomposition:
        if self.full_model is None:
            raise ModelError("no full model attached")
        return weight_decomposition(Sl2Module.from_algebra(self.full_model))

    @cached_property
    def plus_quotient(self) -> QuotientResult:
        decomp = self.decomposition
        return plus_quotient(self.full_model, low_weight_ideal(self.full_model, decomp), decomp)


def connection_from_bicomplex(b: Bicomplex) -> ConnectionModel:
    """The connection model of a bicomplex: d0 is del_bar_J and d1 is
    del_bar.  Every bicomplex read as a connection goes through here."""
    diffs = dict(b.algebra.differentials)
    diffs[DEL_BAR_J] = b.d0
    diffs[DEL_BAR] = b.d1
    for name in (b.d0_name, b.d1_name):
        diffs.pop(name, None)
    return ConnectionModel(b.algebra.with_differentials(diffs))


def full_model_gap(algebra: StructuredAlgebra) -> Optional[str]:
    """Why algebra is not a full model: the first of the maps e, f, h, J and
    the differentials del, del_bar it lacks; None when it has them all."""
    gaps = [f"map {n!r}" for n in ("e", "f", "h", "J") if n not in algebra.maps]
    gaps += [f"differential {n!r}" for n in (DEL, DEL_BAR) if n not in algebra.differentials]
    return f"full model lacks {gaps[0]}" if gaps else None


def connection_model_from_full(full: StructuredAlgebra) -> ConnectionModel:
    """Derive the Dolbeault part of a full model from its h-grading.

    The (0,k) part of degree k is spanned by basis labels that are exact
    h-eigenvectors of eigenvalue k.
    """
    if (gap := full_model_gap(full)) is not None:
        raise ModelError(gap)
    h_columns = full.maps["h"].label_table()
    space = full.space
    d_labels: dict[int, list[str]] = {}
    for k in space.degrees():
        eigen = Scalar(k)
        for lab in space.labels(k):
            if h_columns[lab] == ({lab: eigen} if k else {}):
                d_labels.setdefault(k, []).append(lab)
    d_space = GradedSpace(d_labels)

    def restrict_map(g: GradedMap) -> GradedMap:
        columns = g.label_table()
        entries = []
        for lab in d_space.all_labels():
            for lab2, c in columns[lab].items():
                if lab2 not in d_space.label_loc:
                    raise ModelError(
                        f"operator leaves the (0,*) part at {lab!r} -> {lab2!r}")
                entries.append((lab, lab2, c))
        return GradedMap.from_entries(d_space, d_space, g.shift, entries)

    del_bar = restrict_map(full.differential(DEL_BAR))
    j = full.maps["J"]
    del_bar_j = restrict_map(inverse_map(j).compose(full.differential(DEL).compose(j)))

    # the products of (0,*) labels, each checked to stay there: the rest
    # of the full structure was checked when the full model was built
    structure = {}
    for (l1, l2), targets in full.structure.items():
        if l1 in d_space.label_loc and l2 in d_space.label_loc:
            for lt in targets:
                if lt not in d_space.label_loc:
                    raise ModelError(
                        f"product leaves the (0,*) part at {l1!r} * {l2!r} -> {lt!r}")
            structure[(l1, l2)] = targets
    dolbeault = StructuredAlgebra._derived(
        d_space, full.kind, {DEL_BAR: del_bar, DEL_BAR_J: del_bar_j}, structure)
    return ConnectionModel(dolbeault, full)


# ---------------------------------------------------------------------------
# autoduality


@dataclass
class AutodualityReport:
    relations: ValidationReport
    autodual: bool

    def to_json(self):
        return {
            "autodual": self.autodual,
            "relations": self.relations.to_json(),
            "interpretation": (
                "del_bar_J is a strong Maurer-Cartan solution for the "
                "commutator differential of del_bar" if self.autodual else
                "the deformed pair is not flat on the quotient"),
        }


def autoduality_check(m: ConnectionModel) -> AutodualityReport:
    """The three operator relations, each with a witness label on failure.
    Read it as `m.autoduality`, which runs it once per model."""
    report = ValidationReport()
    for name, op in (("del_bar^2 = 0", m.del_bar.square),
                     ("del_bar_J^2 = 0", m.del_bar_j.square),
                     ("del_bar del_bar_J + del_bar_J del_bar = 0", m.bicomplex.anticommutator)):
        witness = nonzero_image_witness(op)
        report.add(name, witness is None, witness)
    return AutodualityReport(report, report.passed)


# ---------------------------------------------------------------------------
# the quaternionic complex


def _cell_label(p: int, q: int, dlabel: str) -> str:
    return f"x{p}y{q}:{dlabel}"


class QuaternionicComplex:
    """Total complex of the bigraded components x^p y^q D^(p+q).

    Standard variant: p, q >= 0.  An int `window` w selects the extended
    variant, where p and q range over -w..w and which carries no product:
    its assertions are made on the vector-space level and only at interior
    bidegrees, at distance >= 1 (the margin) from the window boundary.
    """

    def __init__(self, model: ConnectionModel, window: Optional[int] = None,
                 allow_non_autodual: bool = False):
        self.model = model
        self.extended = window is not None
        d_space = model.dolbeault.space
        if self.extended:
            self.window = (-window, window, -window, window)
        else:
            top = max(d_space.degrees(), default=0)
            self.window = (0, top, 0, top)
        self.autodual = model.autoduality.autodual
        if not self.autodual and not allow_non_autodual:
            failed = model.autoduality.relations.failures()[0]
            raise PreconditionError(
                f"model is not autodual: {failed.name} fails at {failed.witness['label']}")

        pmin, pmax, qmin, qmax = self.window
        self.cells: list[tuple[int, int]] = []
        for k in d_space.degrees():
            for p in range(pmin, pmax + 1):
                q = k - p
                if qmin <= q <= qmax:
                    self.cells.append((p, q))
        self.cells.sort()
        cells_by_degree: dict[int, list[tuple[int, int]]] = {}
        for (p, q) in self.cells:
            cells_by_degree.setdefault(p + q, []).append((p, q))

        # the one table of the cell labels: label -> (p, q, D-label)
        self._cells: dict[str, tuple[int, int, str]] = {}
        components = {}
        for k, cell_list in sorted(cells_by_degree.items()):
            labels = components[k] = []
            for (p, q) in cell_list:
                for dlabel in d_space.labels(k):
                    lab = _cell_label(p, q, dlabel)
                    self._cells[lab] = (p, q, dlabel)
                    labels.append(lab)
        self.space = GradedSpace(components)
        self.cells_by_degree = cells_by_degree

        def lifted(op: GradedMap, dp: int, dq: int) -> GradedMap:
            columns = op.label_table()
            return GradedMap.from_entries(self.space, self.space, 1, [
                (lab, _cell_label(p + dp, q + dq, lab2), c)
                for lab, (p, q, dlabel) in self._cells.items()
                if (p + dp, q + dq) in cells_by_degree.get(p + q + 1, [])
                for lab2, c in columns[dlabel].items()])

        self.horizontal = lifted(model.del_bar_j, 1, 0)   # x * del_bar_J
        self.vertical = lifted(model.del_bar, 0, 1)       # y * del_bar
        self.total = self.horizontal.add(self.vertical)

        # x^p1 y^q1 a * x^p2 y^q2 b = x^(p1+p2) y^(q1+q2) ab wherever the
        # target cell exists; D's structure is checked, so this one is too
        structure = {}
        if not self.extended:
            for (l1, l2), targets in model.dolbeault.structure.items():
                k1 = d_space.degree_of(l1)
                k2 = d_space.degree_of(l2)
                for (p1, q1) in cells_by_degree.get(k1, []):
                    for (p2, q2) in cells_by_degree.get(k2, []):
                        p, q = p1 + p2, q1 + q2
                        if (p, q) in cells_by_degree.get(k1 + k2, []):
                            structure[(_cell_label(p1, q1, l1), _cell_label(p2, q2, l2))] = {
                                _cell_label(p, q, lt): c for lt, c in targets.items()}

        self.algebra = StructuredAlgebra._derived(
            self.space, model.dolbeault.kind,
            {"x_del_bar_J": self.horizontal, "y_del_bar": self.vertical,
             "total": self.total},
            structure)

    def cell_of_label(self, label: str) -> tuple[int, int, str]:
        """(p, q, D-label) of the cell label x^p y^q D-label."""
        return self._cells[label]

    @cached_property
    def evaluations(self) -> tuple[GradedMap, GradedMap]:
        """pi_x (x = 1, y = 0) and pi_y (x = 0, y = 1) as maps qA -> D,
        built once; a negative power has no value at 0, so the extended
        variant has neither."""
        if self.extended:
            raise PreconditionError("evaluation at x and y applies to the standard complex")
        d_space = self.model.dolbeault.space
        x_axis = [(lab, dlabel, ONE) for lab, (p, q, dlabel) in self._cells.items() if q == 0]
        y_axis = [(lab, dlabel, ONE) for lab, (p, q, dlabel) in self._cells.items() if p == 0]
        return (GradedMap.from_entries(self.space, d_space, 0, x_axis),
                GradedMap.from_entries(self.space, d_space, 0, y_axis))

    @cached_property
    def sections(self) -> tuple[GradedMap, GradedMap]:
        """beta -> x^k beta and beta -> y^k beta for beta in D^k: the
        sections D -> qA of pi_x and pi_y, built once."""
        return tuple(GradedMap.from_entries(pi.target, pi.source, 0,
                                            [(dlabel, lab, c) for lab, dlabel, c in pi.entries()])
                     for pi in self.evaluations)

    def total_squares_to_zero(self) -> bool:
        return self.total.square.is_zero()

    def total_cohomology_dims(self) -> dict[int, int]:
        return {k: self.total.kernel(k).dim - self.total.image(k).dim
                for k in self.space.degrees()}

    @cached_property
    def bicomplex(self) -> Bicomplex:
        return Bicomplex(self.algebra, "x_del_bar_J", "y_del_bar")

    def interior_cell(self, p: int, q: int) -> bool:
        pmin, pmax, qmin, qmax = self.window
        return pmin < p < pmax and qmin < q < qmax


def build_quaternionic_complex(m: ConnectionModel, window: Optional[int] = None,
                               allow_non_autodual: bool = False) -> QuaternionicComplex:
    return QuaternionicComplex(m, window, allow_non_autodual)


# ---------------------------------------------------------------------------
# cohomology factorization


@dataclass
class FactorizationReport:
    certified: bool                 # strong lemma held for (del_bar_J, del_bar)
    equal: Optional[bool]
    q_dims: dict
    expected: dict
    base_dims: dict

    def to_json(self):
        return {
            "certified": self.certified,
            "label": "asserted" if self.certified else "unconditional computation",
            "total_complex_dims": {str(k): v for k, v in self.q_dims.items()},
            "copies_times_base_dims": {str(k): v for k, v in self.expected.items()},
            "base_cohomology_dims": {str(k): v for k, v in self.base_dims.items()},
            "equal": self.equal,
        }


def quaternionic_cohomology_check(q: QuaternionicComplex) -> FactorizationReport:
    """dim H^k of the total complex vs (k+1) * dim H^k of (D, del_bar).

    The equality is asserted only when the pair (del_bar_J, del_bar) passes
    the strong-lemma check on D; otherwise the tables are reported as an
    unconditional computation.
    """
    if q.extended:
        raise PreconditionError("factorization check applies to the standard complex")
    model = q.model
    certified = model.strong_lemma_certified()
    base = cohomology(model.dolbeault, DEL_BAR)
    base_dims = base.dims()
    q_dims = q.total_cohomology_dims()
    expected = {k: (k + 1) * base_dims.get(k, 0) for k in q.space.degrees()}
    equal = all(q_dims.get(k, 0) == expected.get(k, 0)
                for k in set(q_dims) | set(expected))
    if certified and not equal:
        raise InternalCheckError("factorization failed on a certified model")
    return FactorizationReport(certified, equal, q_dims, expected, base_dims)


# ---------------------------------------------------------------------------
# spectral pages of the bigraded complex


@dataclass
class SpectralPages:
    e1_dims: dict                   # (p, q) -> dim
    e2_dims: dict
    degenerate_at_e1: bool          # also E1 = E2: E2 = E1 - ranks of the E1 maps
    e1_ne_e2_witness: Optional[tuple]
    degenerate_at_e2: bool
    total_dims: dict

    def to_json(self):
        return {
            "E1": {f"{p},{q}": v for (p, q), v in sorted(self.e1_dims.items()) if v},
            "E2": {f"{p},{q}": v for (p, q), v in sorted(self.e2_dims.items()) if v},
            "degenerate_at_E1": self.degenerate_at_e1,
            "E1_equals_E2": self.degenerate_at_e1,
            "E1_ne_E2_witness": (list(self.e1_ne_e2_witness)
                                 if self.e1_ne_e2_witness else None),
            "degenerate_at_E2": self.degenerate_at_e2,
            "total_cohomology_dims": {str(k): v for k, v in self.total_dims.items()},
        }


def double_complex_spectral_sequence(q: QuaternionicComplex) -> SpectralPages:
    """E1 = vertical cohomology with induced horizontal maps; E2 = its
    cohomology; degeneration at E2 is detected against the total complex.

    On the standard complex a cell (p, q) of degree k has a cell above it
    exactly when k + 1 is a degree of D, and one below it exactly when q >= 1
    and k - 1 is.  So E1 is H^k(D, del_bar) where q >= 1 and ker del_bar in
    D^k where q = 0, and x del_bar_J keeps q: the E1 differentials are the
    blocks del_bar_J induces on these two subquotients of D, one rank per
    subquotient and degree.  E1 = E2 exactly when they all vanish."""
    if q.extended:
        raise PreconditionError("spectral pages apply to the standard complex")
    if not q.total_squares_to_zero():
        raise PreconditionError("total differential does not square to zero")
    d = q.model.dolbeault
    rows = (Subquotient(d, {}, {k: q.model.del_bar.kernel(k).vectors()     # q = 0
                                for k in d.space.degrees()}, "z"),
            cohomology(d, DEL_BAR))                                         # q >= 1
    read = {(min(qq, 1), p + qq) for (p, qq) in q.cells}   # the ranks a cell reads
    ranks = []
    for row, sq in enumerate(rows):
        blocks = sq.blocks(q.model.del_bar_j, escape=lambda k: InternalCheckError(
            "induced map image not vertical-closed"))
        for k, m in blocks.items():
            if k + 1 in blocks and not (blocks[k + 1] * m).is_zero():
                raise InternalCheckError("induced E1 differential does not square to zero")
        ranks.append({k: m.rank() for k, m in blocks.items()
                      if (row, k) in read and not m.is_zero()})

    e1_dims: dict[tuple, int] = {}
    e2_dims: dict[tuple, int] = {}
    for (p, qq) in q.cells:
        k, row = p + qq, min(qq, 1)
        e1_dims[(p, qq)] = rows[row].dim(k)
        e2_dims[(p, qq)] = (e1_dims[(p, qq)] - ranks[row].get(k, 0)
                            - (ranks[row].get(k - 1, 0) if p else 0))
    witness = next(((p, qq) for (p, qq) in sorted(e2_dims)
                    if e2_dims[(p, qq)] != e1_dims[(p, qq)]), None)
    total_dims = q.total_cohomology_dims()
    by_degree: dict[int, int] = {}
    for (p, qq), v in e2_dims.items():
        by_degree[p + qq] = by_degree.get(p + qq, 0) + v
    degenerate_e2 = all(by_degree.get(k, 0) == total_dims.get(k, 0)
                        for k in set(by_degree) | set(total_dims))
    return SpectralPages(e1_dims, e2_dims, witness is None, witness,
                         degenerate_e2, total_dims)


# ---------------------------------------------------------------------------
# the bigraded identification phi


@dataclass
class PhiCertificate:
    phi_blocks: dict                 # (p, q) -> Matrix: D^(p+q) -> F_+^(p,q)
    phi_inv_blocks: dict
    identities_hold: bool
    inverse_well_defined: bool
    intertwine_horizontal: bool
    intertwine_vertical: bool
    degree_one_spot_check: bool

    @property
    def certified(self) -> bool:
        return (self.identities_hold and self.inverse_well_defined
                and self.intertwine_horizontal and self.intertwine_vertical
                and self.degree_one_spot_check)

    def to_json(self):
        return {
            "identities_hold": self.identities_hold,
            "inverse_well_defined": self.inverse_well_defined,
            "intertwine_horizontal": self.intertwine_horizontal,
            "intertwine_vertical": self.intertwine_vertical,
            "degree_one_spot_check": self.degree_one_spot_check,
            "certified": self.certified,
            "blocks": {f"{p},{q}": [m.rows, m.cols]
                       for (p, q), m in sorted(self.phi_blocks.items())},
        }


def phi_isomorphism(m: ConnectionModel) -> PhiCertificate:
    """Exact bigraded identification of x^p y^q D^(p+q) with F_+^(p,q).

    phi sends x^p y^q beta to (-1)^p q!/(p+q)! [f^p beta]; its inverse sends
    a class representative gamma to (-1)^p/p! x^p y^q e^p(gamma).  Both
    compositions are certified to be the identity, the inverse is certified
    independent of representatives, and the blocks intertwine
    (x del_bar_J, y del_bar) with the (1,0)/(0,1) components of the quotient
    differentials.

    Each block is a sub-matrix of a product of operator blocks.  In degree k,
    with Q the projection onto F_+ and R the representatives, phi_(p,q) is
    Q f^p on the rows of the cell (p, q) in F_+^k and the columns of D^k in
    F^k, and its inverse is e^p R on the rows of D^k and the cell's columns;
    what either product puts outside its selection must vanish.
    """
    if m.full_model is None:
        raise ModelError("phi requires the full model")
    if not m.autoduality.autodual:
        raise PreconditionError("phi requires an autodual model")
    full = m.full_model
    plus = m.plus_quotient
    e_op, f_op, j_op = full.maps["e"], full.maps["f"], m.j_op
    d_space = m.dolbeault.space
    q_space = plus.algebra.space

    # the indices of each bidegree (p, q) inside F_+^(p+q), ascending
    cells: dict[tuple, list[int]] = {}
    for lab, cell in plus.bidegrees.items():
        cells.setdefault(cell, []).append(q_space.label_loc[lab][1])
    for idx in cells.values():
        idx.sort()

    phi_blocks: dict[tuple, Matrix] = {}
    phi_inv_blocks: dict[tuple, Matrix] = {}
    identities = inverse_ok = spot = True
    for k in d_space.degrees():
        n, nk = full.space.dim(k), d_space.dim(k)
        d_idx = [full.space.label_loc[lab][1] for lab in d_space.labels(k)]
        off_d = [i for i in range(n) if i not in d_idx]
        q_k, e_k, f_k = plus.qmap.block(k), e_op.block(k), f_op.block(k)
        f_d = Matrix.identity(n).select(range(n), d_idx)    # f^p on D^k
        for p in range(k + 1):
            if p:
                f_d = f_k * f_d
            cell = (p, k - p)
            rows = cells.get(cell, [])
            others = [i for i in range(q_space.dim(k)) if i not in rows]
            coeff = Scalar((-1) ** p).scale(
                Fraction(math.factorial(k - p), math.factorial(k)))
            phi_all = q_k * f_d
            phi = phi_blocks[cell] = phi_all.select(rows, range(nk)).scale(coeff)
            identities = identities and phi_all.select(others, range(nk)).is_zero()

            # e^p on the cell's representatives, then on ideal ∩ eigenspace
            ik = plus.ideal.get(k)
            eig = m.decomposition.eigenspaces.get((k, k - 2 * p))
            common = (ik.intersect(eig).vectors()
                      if ik is not None and ik.dim and eig is not None else [])
            e_r = Matrix.from_columns(n, [plus.reps[k][i] for i in rows] + common)
            for _ in range(p):
                e_r = e_k * e_r
            inv_coeff = Scalar((-1) ** p).scale(Fraction(1, math.factorial(p)))
            inv = phi_inv_blocks[cell] = e_r.select(d_idx, range(len(rows))).scale(inv_coeff)
            inverse_ok = inverse_ok and e_r.select(off_d, range(len(rows))).is_zero()

            if cell == (1, 0):
                # spot check: phi(x * eta) = [J(eta)]
                qj = q_k * j_op.block(1).select(range(n), d_idx)
                spot = qj.select(rows, range(nk)) == phi and qj.select(others, range(nk)).is_zero()
            if len(rows) != nk:
                identities = False
                continue
            identities = identities and (phi * inv == Matrix.identity(nk)
                                         and inv * phi == Matrix.identity(nk))

            # representative independence: e^p kills the ideal at this cell
            inverse_ok = inverse_ok and e_r.select(range(n), range(len(rows), e_r.cols)).is_zero()

    # intertwining: phi_(p+1,q) del_bar_J = Del_+ phi_(p,q) and
    # phi_(p,q+1) del_bar = Delbar_+ phi_(p,q), each quotient differential
    # restricted to the two cells
    def intertwines(name: str, op: GradedMap, cell: tuple, nxt: tuple) -> bool:
        k = cell[0] + cell[1]
        d_plus = plus.algebra.differential(name).block(k).select(
            cells.get(nxt, []), cells.get(cell, []))
        return phi_blocks[nxt] * op.block(k) == d_plus * phi_blocks[cell]

    inter_h = all(intertwines(DEL, m.del_bar_j, (p, q), (p + 1, q))
                  for (p, q) in phi_blocks if (p + 1, q) in phi_blocks)
    inter_v = all(intertwines(DEL_BAR, m.del_bar, (p, q), (p, q + 1))
                  for (p, q) in phi_blocks if (p, q + 1) in phi_blocks)
    return PhiCertificate(phi_blocks, phi_inv_blocks, identities,
                          inverse_ok, inter_h, inter_v, spot)


# ---------------------------------------------------------------------------
# extended-window strong lemma (interior assertion)


@dataclass
class ExtendedLemmaReport:
    per_degree: dict                 # degree -> bool (interior containment)
    rhs_contained: bool
    passed: bool

    def to_json(self):
        return {"per_degree": {str(k): v for k, v in self.per_degree.items()},
                "rhs_contained_in_lhs": self.rhs_contained,
                "passed": self.passed}


def extended_strong_lemma_interior(q: QuaternionicComplex) -> ExtendedLemmaReport:
    """Strong-lemma identity on the windowed extended complex, asserted only
    for vectors supported on interior cells (both indices at distance >= 1
    from the window boundary); truncation artifacts live on the boundary
    cells and are excluded."""
    if not q.extended:
        raise PreconditionError("interior check applies to the extended variant")
    b = q.bicomplex
    per_degree = {}
    rhs_ok = True
    for k in q.space.degrees():
        rhs = b.d0d1.image(k)
        lhs = b.strong_lhs(k)
        if not lhs.contains_subspace(rhs):
            rhs_ok = False
        interior = Subspace.from_vectors(q.space.dim(k), [
            q.space.basis_vector(lab)[1] for lab in q.space.labels(k)
            if q.interior_cell(*q.cell_of_label(lab)[:2])])
        per_degree[k] = rhs.contains_subspace(lhs.intersect(interior))
    return ExtendedLemmaReport(per_degree, rhs_ok,
                               rhs_ok and all(per_degree.values()))

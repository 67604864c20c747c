"""Maurer-Cartan theory over truncated polynomial rings F[t]/(t^N).

Elements of L ⊗ m are coefficient series (one vector per power of t,
t^1 .. t^(N-1)); everything is evaluated order by order with exact
rationals, so nilpotency makes every series finite.

The gauge action is

    a * x = x + sum_{n>=0} ad_a^n / (n+1)! ([a, x] - d a)

which preserves classical Maurer-Cartan solutions and reduces to the
exponential adjoint action exp(ad_a) when the differential vanishes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from dgkit.ddbar import FormalityZigzag
from dgkit.errors import InternalCheckError, ModelError, PreconditionError
from dgkit.graded import (
    GradedMap,
    StructuredAlgebra,
    ValidationReport,
    cohomology,
    format_vector,
    induced_map_on_cohomology,
    left_multiplication,
)
from dgkit.linalg import (
    Matrix,
    Subspace,
    Vector,
    image_of,
    invert,
    kernel_of,
    linear_solve,
    vec_add,
    vec_is_zero,
    vec_scale,
    zero_vector,
)
from dgkit.qdolbeault import DEL_BAR, DEL_BAR_J, ConnectionModel, QuaternionicComplex
from dgkit.scalars import ONE, ZERO, Scalar


@dataclass(frozen=True)
class TruncatedRing:
    """B = F[t]/(t^N); the maximal ideal is (t), so m^N = 0."""

    order: int

    def __post_init__(self):
        if self.order < 2:
            raise ModelError("truncated ring needs order >= 2")

    @property
    def top_power(self) -> int:
        return self.order - 1


class Series:
    """Homogeneous element of L^degree ⊗ m: one vector per power t^1..t^(N-1)."""

    def __init__(self, degree: int, coeffs: Sequence[Vector]):
        self.degree = degree
        self.coeffs = list(coeffs)

    @staticmethod
    def zero(degree: int, dim: int, ring: TruncatedRing) -> "Series":
        return Series(degree, [zero_vector(dim) for _ in range(ring.top_power)])

    def is_zero(self) -> bool:
        return all(vec_is_zero(c) for c in self.coeffs)

    def add(self, other: "Series") -> "Series":
        return Series(self.degree,
                      [vec_add(a, b) for a, b in zip(self.coeffs, other.coeffs)])

    def scale(self, q: Fraction) -> "Series":
        c = Scalar(q)
        return Series(self.degree, [vec_scale(c, v) for v in self.coeffs])

    def copy(self) -> "Series":
        return Series(self.degree, list(self.coeffs))

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.degree == other.degree and self.coeffs == other.coeffs


MCElement = Series      # degree-1 series
GaugeElement = Series   # degree-0 series


class DeformationContext:
    """A DGLA, a named differential, and a truncated coefficient ring."""

    def __init__(self, dgla: StructuredAlgebra, d_name: str, ring: TruncatedRing):
        if dgla.kind != "lie":
            raise PreconditionError("deformation theory runs over a DGLA")
        self.dgla = dgla
        self.d_name = d_name
        self.d = dgla.differential(d_name)
        self.ring = ring

    def dim(self, degree: int) -> int:
        return self.dgla.space.dim(degree)

    def zero(self, degree: int) -> Series:
        return Series.zero(degree, self.dim(degree), self.ring)

    def d_series(self, u: Series) -> Series:
        return Series(u.degree + 1,
                      [self.d.apply(u.degree, c) for c in u.coeffs])

    def bracket_series(self, u: Series, v: Series) -> Series:
        degree = u.degree + v.degree
        n = self.ring.top_power
        out = [zero_vector(self.dim(degree)) for _ in range(n)]
        for i, ci in enumerate(u.coeffs, start=1):
            if vec_is_zero(ci):
                continue
            for j, cj in enumerate(v.coeffs, start=1):
                if i + j > n or vec_is_zero(cj):
                    continue
                out[i + j - 1] = vec_add(out[i + j - 1],
                                         self.dgla.mul(u.degree, ci, v.degree, cj))
        return Series(degree, out)

    # -- Maurer-Cartan ---------------------------------------------------

    def mc_residual(self, x: MCElement) -> Series:
        """d x + 1/2 [x, x], order by order."""
        if x.degree != 1:
            raise ModelError("Maurer-Cartan elements live in degree 1")
        return self.d_series(x).add(self.bracket_series(x, x).scale(Fraction(1, 2)))

    def mc_check(self, x: MCElement, mode: str = "classical") -> "MCReport":
        if x.degree != 1:
            raise ModelError("coefficient degree mismatch: expected degree 1")
        residual = self.mc_residual(x)
        classical_ok = residual.is_zero()
        strong_ok = None
        if mode == "strong":
            dx = self.d_series(x)
            br = self.bracket_series(x, x)
            strong_ok = dx.is_zero() and br.is_zero()
            if strong_ok and not classical_ok:
                raise InternalCheckError("strong solution fails the classical equation")
        elif mode != "classical":
            raise ModelError(f"unknown mode {mode!r}")
        passed = classical_ok if mode == "classical" else strong_ok
        return MCReport(mode, passed, classical_ok, strong_ok, residual,
                        self.dgla.space)

    # -- gauge action ------------------------------------------------------

    def gauge_transform(self, a: GaugeElement, x: MCElement) -> MCElement:
        """a * x = x + sum ad_a^n/(n+1)! ([a,x] - da)."""
        if a.degree != 0 or x.degree != 1:
            raise ModelError("gauge elements have degree 0, MC elements degree 1")
        u = self.bracket_series(a, x).add(self.d_series(a).scale(Fraction(-1)))
        result = x.copy()
        term = u
        n = 0
        factorial = 1
        while not term.is_zero():
            factorial *= (n + 1)
            result = result.add(term.scale(Fraction(1, factorial)))
            term = self.bracket_series(a, term)
            n += 1
            if n > self.ring.top_power:
                break
        return result

    def exp_adjoint(self, a: GaugeElement, x: MCElement) -> MCElement:
        """exp(ad_a)(x), the gauge action of a differential-free DGLA."""
        result = x.copy()
        term = x
        n = 0
        factorial = 1
        while True:
            term = self.bracket_series(a, term)
            n += 1
            factorial *= n
            if term.is_zero() or n > self.ring.top_power:
                break
            result = result.add(term.scale(Fraction(1, factorial)))
        return result


@dataclass
class MCReport:
    mode: str
    passed: bool
    classical: bool
    strong: Optional[bool]
    residual: Series
    space: object = None

    def residual_table(self):
        if self.space is None:
            return None
        return {f"t^{i+1}": format_vector(self.space, self.residual.degree, c)
                for i, c in enumerate(self.residual.coeffs) if not vec_is_zero(c)}

    def to_json(self):
        return {"mode": self.mode, "passed": self.passed,
                "classical": self.classical, "strong": self.strong,
                "residual": self.residual_table()}


# ---------------------------------------------------------------------------
# tangent space and obstruction


@dataclass
class TangentObstruction:
    tangent_dims: dict
    h1_dim: int
    h2_dim: int
    obstruction: Callable
    cross_check: ValidationReport

    def to_json(self):
        return {"tangent_dim": self.h1_dim, "h2_dim": self.h2_dim,
                "cross_check": self.cross_check.to_json()}


def tangent_and_obstruction(dgla: StructuredAlgebra, d_name: str) -> TangentObstruction:
    """Tangent = H^1; the obstruction sends a class xi to the class of
    -1/2 [xi, xi] in H^2 (the obstruction to lifting from order 2 to 3).

    The class is cross-checked against attempting to solve d x2 =
    -1/2 [x1, x1] directly: solvable exactly when the class vanishes.
    """
    if dgla.kind != "lie":
        raise PreconditionError("tangent/obstruction runs over a DGLA")
    h = cohomology(dgla, d_name)
    d = dgla.differential(d_name)

    def rep_of(xi: Vector) -> Vector:
        out = zero_vector(dgla.space.dim(1))
        for i, c in enumerate(xi):
            if not c.is_zero():
                out = vec_add(out, vec_scale(c, h.rep_vector(1, i)))
        return out

    def obstruction(xi: Vector) -> Vector:
        r = rep_of(xi)
        w = vec_scale(Scalar(Fraction(-1, 2)), dgla.mul(1, r, 1, r))
        return h.project(2, w) if h.dim(2) or dgla.space.dim(2) else tuple()

    checks = ValidationReport()
    agree = True
    for i in range(h.dim(1)):
        xi = tuple(ONE if j == i else ZERO for j in range(h.dim(1)))
        r = rep_of(xi)
        rhs = vec_scale(Scalar(Fraction(-1, 2)), dgla.mul(1, r, 1, r))
        clazz = obstruction(xi)
        solvable = linear_solve(d.block(1), rhs) is not None
        if solvable != vec_is_zero(clazz):
            agree = False
    checks.add("obstruction class vanishes iff the order-2 lift solves", agree)
    return TangentObstruction(h.dims(), h.dim(1), h.dim(2), obstruction, checks)


# ---------------------------------------------------------------------------
# quadraticity probe through a formality certificate


@dataclass
class QuadraticitySample:
    xi: Vector
    cone_obstructed: bool
    lifted_to: Optional[int]
    order3_unsolvable: Optional[bool]
    passed: bool

    def to_json(self):
        return {"class": [str(c) for c in self.xi],
                "cone_obstructed": self.cone_obstructed,
                "lifted_to": self.lifted_to,
                "order3_unsolvable": self.order3_unsolvable,
                "passed": self.passed}


@dataclass
class QuadraticityReport:
    samples: list
    passed: bool

    def to_json(self):
        return {"passed": self.passed,
                "samples": [s.to_json() for s in self.samples]}


def quadraticity_probe(certificate: FormalityZigzag, samples: Sequence[Vector],
                       k_max: int = 6) -> QuadraticityReport:
    """For classes with vanishing induced self-bracket, construct an explicit
    lift to order k_max; for the others, verify the order-3 lift is already
    unsolvable.

    The construction lifts the constant solution on cohomology back through
    the zig-zag: corrections are solved inside im(d1), where the failing
    condition is exactly acyclicity of (im d1, d0), granted by the
    certificate's strong lemma.
    """
    if certificate is None:
        raise PreconditionError("quadraticity probe requires a formality certificate")
    b = certificate.bicomplex
    dgla = b.algebra
    if dgla.kind != "lie":
        raise PreconditionError("quadraticity probe runs over a DGLA")
    h = certificate.h_d1
    h_alg = certificate.h_algebra
    d0 = b.d0
    space = dgla.space
    n1 = space.dim(1)
    im_d1 = image_of(b.d1.block(0))
    im_basis = im_d1.vectors()
    # solve d0 u = rhs with u constrained to im(d1): columns are d0(im-basis)
    sys_matrix = Matrix.from_columns(space.dim(2), [d0.apply(1, v) for v in im_basis])

    results = []
    for xi in samples:
        rep = zero_vector(n1)
        for i, c in enumerate(xi):
            if not c.is_zero():
                rep = vec_add(rep, vec_scale(c, h.rep_vector(1, i)))
        sq = h_alg.mul(1, xi, 1, xi)
        obstructed = not vec_is_zero(sq)
        if obstructed:
            rhs = vec_scale(Scalar(Fraction(-1, 2)), dgla.mul(1, rep, 1, rep))
            unsolvable = linear_solve(d0.block(1), rhs) is None
            results.append(QuadraticitySample(xi, True, None, unsolvable, unsolvable))
            continue
        ring = TruncatedRing(k_max)
        ctx = DeformationContext(dgla, b.d0_name, ring)
        coeffs = [rep] + [zero_vector(n1) for _ in range(ring.top_power - 1)]
        ok = True
        for k in range(2, ring.top_power + 1):
            rhs = zero_vector(space.dim(2))
            for i in range(1, k):
                j = k - i
                rhs = vec_add(rhs, dgla.mul(1, coeffs[i - 1], 1, coeffs[j - 1]))
            rhs = vec_scale(Scalar(Fraction(-1, 2)), rhs)
            sol = linear_solve(sys_matrix, rhs)
            if sol is None:
                ok = False
                break
            u = zero_vector(n1)
            for j, c in enumerate(sol[0]):
                if not c.is_zero():
                    u = vec_add(u, vec_scale(c, im_basis[j]))
            coeffs[k - 1] = u
        lifted = None
        if ok:
            x = Series(1, coeffs)
            if not ctx.mc_check(x).passed:
                raise InternalCheckError("constructed lift fails Maurer-Cartan")
            lifted = k_max
        results.append(QuadraticitySample(xi, False, lifted, None, ok))
    return QuadraticityReport(results, all(s.passed for s in results))


# ---------------------------------------------------------------------------
# quaternionic splits and evaluations


def _split_element(q: QuaternionicComplex, element: Series):
    """Coordinates of a qA^1 element as (xi1, xi2) Dolbeault series."""
    d_space = q.model.dolbeault.space
    n1 = d_space.dim(1)
    labels = q.space.labels(1)
    xi1, xi2 = [], []
    for coeff in element.coeffs:
        v1 = [ZERO] * n1
        v2 = [ZERO] * n1
        for idx, c in enumerate(coeff):
            if c.is_zero():
                continue
            p, qq, dlabel = q.cell_of_label(labels[idx])
            pos = d_space.label_loc[dlabel][1]
            if (p, qq) == (1, 0):
                v1[pos] = v1[pos] + c
            elif (p, qq) == (0, 1):
                v2[pos] = v2[pos] + c
            else:
                raise ModelError("element not supported in bidegrees (1,0)+(0,1)")
        xi1.append(tuple(v1))
        xi2.append(tuple(v2))
    return Series(1, xi1), Series(1, xi2)


def _join_element(q: QuaternionicComplex, xi1: Series, xi2: Series,
                  ring: TruncatedRing) -> Series:
    d_space = q.model.dolbeault.space
    labels = q.space.labels(1)
    coeffs = []
    for order in range(ring.top_power):
        v = [ZERO] * q.space.dim(1)
        for idx, lab in enumerate(labels):
            p, qq, dlabel = q.cell_of_label(lab)
            pos = d_space.label_loc[dlabel][1]
            if (p, qq) == (1, 0):
                v[idx] = xi1.coeffs[order][pos]
            elif (p, qq) == (0, 1):
                v[idx] = xi2.coeffs[order][pos]
        coeffs.append(tuple(v))
    return Series(1, coeffs)


def _dolbeault_dgla(q: QuaternionicComplex) -> StructuredAlgebra:
    if not hasattr(q, "_dolbeault_dgla"):
        q._dolbeault_dgla = q.model.dolbeault.commutator_dgla(validate=False)
    return q._dolbeault_dgla


def _qa_dgla(q: QuaternionicComplex) -> StructuredAlgebra:
    if not hasattr(q, "_qa_dgla"):
        q._qa_dgla = q.algebra.commutator_dgla(validate=False)
    return q._qa_dgla


@dataclass
class SplitReport:
    full: bool
    xi2_mc: bool          # in (D, del_bar)
    xi1_mc: bool          # in (D, del_bar_J)
    mixed_zero: bool
    equivalent: bool

    def to_json(self):
        return {"full_mc": self.full, "xi2_mc_del_bar": self.xi2_mc,
                "xi1_mc_del_bar_J": self.xi1_mc, "mixed_bracket_zero": self.mixed_zero,
                "full_equals_conjunction": self.equivalent}


def qa_mc_split(q: QuaternionicComplex, element: Series, ring: TruncatedRing) -> SplitReport:
    """The x^2 / y^2 / xy components of the Maurer-Cartan equation.

    full MC in the total complex must equal: xi2 MC for del_bar, xi1 MC for
    del_bar_J, and the mixed bracket condition
    del_bar_J(xi2) + del_bar(xi1) + [xi1, xi2] = 0, order by order.
    """
    xi1, xi2 = _split_element(q, element)
    full_ctx = DeformationContext(_qa_dgla(q), "total", ring)
    full_ok = full_ctx.mc_check(element).passed

    dolb = _dolbeault_dgla(q)
    ctx_y = DeformationContext(dolb, DEL_BAR, ring)
    ctx_x = DeformationContext(dolb, DEL_BAR_J, ring)
    xi2_ok = ctx_y.mc_check(xi2).passed
    xi1_ok = ctx_x.mc_check(xi1).passed

    mixed = ctx_x.d_series(xi2).add(ctx_y.d_series(xi1)).add(
        ctx_y.bracket_series(xi1, xi2))
    mixed_ok = mixed.is_zero()

    equivalent = full_ok == (xi2_ok and xi1_ok and mixed_ok)
    if not equivalent:
        raise InternalCheckError("component split disagrees with the full equation")
    return SplitReport(full_ok, xi2_ok, xi1_ok, mixed_ok, equivalent)


def projection_maps(q: QuaternionicComplex) -> tuple[GradedMap, GradedMap]:
    """pi_x (evaluate x=1, y=0) and pi_y (evaluate x=0, y=1) as graded maps."""
    d_space = q.model.dolbeault.space
    entries_x, entries_y = [], []
    for k in q.space.degrees():
        for lab in q.space.labels(k):
            p, qq, dlabel = q.cell_of_label(lab)
            if qq == 0:
                entries_x.append((lab, dlabel, ONE))
            if p == 0:
                entries_y.append((lab, dlabel, ONE))
    pi_x = GradedMap.from_entries(q.space, d_space, 0, entries_x)
    pi_y = GradedMap.from_entries(q.space, d_space, 0, entries_y)
    return pi_x, pi_y


@dataclass
class EvaluationReport:
    pi_x_mc: bool
    pi_y_mc: bool
    lift_checks: list
    tangent_dim_q: int
    tangent_dim_base: int
    tangent_doubles: Optional[bool]
    tangent_bijection: Optional[bool]

    def to_json(self):
        return {"pi_x_image_mc": self.pi_x_mc, "pi_y_image_mc": self.pi_y_mc,
                "y_lift_mc": self.lift_checks,
                "dim_H1_total": self.tangent_dim_q,
                "dim_H1_base": self.tangent_dim_base,
                "tangent_doubles": self.tangent_doubles,
                "tangent_bijection": self.tangent_bijection}


def evaluation_functors(q: QuaternionicComplex, element: Series,
                        ring: TruncatedRing,
                        lifts: Sequence[Series] = (),
                        certified: bool = False) -> EvaluationReport:
    """Evaluation images of an MC element, y-lifts, and the tangent map.

    `lifts` are Dolbeault-side MC elements of the kernel sub-DGLA
    (ker [del_bar_J, -], [del_bar, -]); y*b must be MC in the total complex.
    The tangent map (pi_y, pi_x)* is checked to be a bijection
    H^1(total) -> H^1(del_bar) x H^1(del_bar_J) when `certified` is set.
    """
    full_ctx = DeformationContext(_qa_dgla(q), "total", ring)
    if not full_ctx.mc_check(element).passed:
        raise PreconditionError("element fails the Maurer-Cartan equation")
    xi1, xi2 = _split_element(q, element)
    dolb = _dolbeault_dgla(q)
    ctx_y = DeformationContext(dolb, DEL_BAR, ring)
    ctx_x = DeformationContext(dolb, DEL_BAR_J, ring)
    pi_x_ok = ctx_x.mc_check(xi1).passed
    pi_y_ok = ctx_y.mc_check(xi2).passed

    lift_results = []
    for b_elt in lifts:
        for c in b_elt.coeffs:
            img = q.model.del_bar_j.apply(1, c)
            if not vec_is_zero(img):
                raise PreconditionError("lift candidate leaves ker[del_bar_J,-]")
        if not ctx_y.mc_check(b_elt).passed:
            raise PreconditionError("lift candidate is not MC in the kernel sub-DGLA")
        y_elt = _join_element(q, Series.zero(1, dolb.space.dim(1), ring), b_elt, ring)
        lift_results.append(full_ctx.mc_check(y_elt).passed)

    h_total = cohomology(q.algebra, "total")
    h_y = cohomology(q.model.dolbeault, DEL_BAR)
    h_x = cohomology(q.model.dolbeault, DEL_BAR_J)
    dim_q = h_total.dim(1)
    dim_base = h_y.dim(1)
    doubles = None
    bijection = None
    if certified:
        doubles = dim_q == 2 * dim_base
        pi_x, pi_y = projection_maps(q)
        mx = induced_map_on_cohomology(pi_x, h_total, h_x).get(1)
        my = induced_map_on_cohomology(pi_y, h_total, h_y).get(1)
        # both maps have a block at degree 1 exactly when dim_q > 0
        stacked = my.vstack(mx) if my is not None else Matrix(0, 0)
        bijection = stacked.rows == stacked.cols and invert(stacked) is not None
    return EvaluationReport(pi_x_ok, pi_y_ok, lift_results,
                            dim_q, dim_base, doubles, bijection)


# ---------------------------------------------------------------------------
# operator series over B and the connection correspondence


class OpSeries:
    """A B-linear operator as graded maps per power of t (t^0..t^(N-1))."""

    def __init__(self, maps: Sequence[GradedMap]):
        self.maps = list(maps)

    @staticmethod
    def constant(g: GradedMap, ring: TruncatedRing) -> "OpSeries":
        zero = GradedMap.zero(g.source, g.target, g.shift)
        return OpSeries([g] + [zero] * ring.top_power)

    def add(self, other: "OpSeries") -> "OpSeries":
        return OpSeries([a.add(b) for a, b in zip(self.maps, other.maps)])

    def compose(self, other: "OpSeries") -> "OpSeries":
        n = len(self.maps)
        shift = self.maps[0].shift + other.maps[0].shift
        out = [GradedMap.zero(other.maps[0].source, self.maps[0].target, shift)
               for _ in range(n)]
        for i, a in enumerate(self.maps):
            if a.is_zero():
                continue
            for j, b in enumerate(other.maps):
                if i + j >= n or b.is_zero():
                    continue
                out[i + j] = out[i + j].add(a.compose(b))
        return OpSeries(out)

    def scale(self, q: Fraction) -> "OpSeries":
        c = Scalar(q)
        return OpSeries([m.scale(c) for m in self.maps])

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.maps)

    def order_zero(self) -> GradedMap:
        return self.maps[0]


def multiplication_series(algebra: StructuredAlgebra, s: Series,
                          ring: TruncatedRing) -> OpSeries:
    zero = GradedMap.zero(algebra.space, algebra.space, s.degree)
    maps = [zero]
    for c in s.coeffs:
        maps.append(left_multiplication(algebra, s.degree, c)
                    if not vec_is_zero(c) else zero)
    return OpSeries(maps[:ring.order])


def exp_series(s: OpSeries, ring: TruncatedRing) -> OpSeries:
    """exp of an operator series with vanishing order-0 part."""
    if not s.order_zero().is_zero():
        raise ModelError("exp_series needs a nilpotent (order >= 1) input")
    ident = OpSeries.constant(GradedMap.identity(s.maps[0].source), ring)
    out = ident
    term = ident
    factorial = 1
    for n in range(1, ring.order):
        term = term.compose(s)
        factorial *= n
        if term.is_zero():
            break
        out = out.add(term.scale(Fraction(1, factorial)))
    return out


@dataclass
class CorrespondenceReport:
    relations_over_b: ValidationReport
    reduces_to_base: bool
    gauge_conjugation: Optional[bool]
    curvature_oracle: Optional[bool]
    oracle_agrees: Optional[bool]

    def to_json(self):
        return {"relations_over_B": self.relations_over_b.to_json(),
                "reduces_mod_m_to_base": self.reduces_to_base,
                "gauge_conjugation_identity": self.gauge_conjugation,
                "curvature_weight_zero": self.curvature_oracle,
                "oracle_agrees_with_relations": self.oracle_agrees}


def connection_correspondence(m: ConnectionModel, q: QuaternionicComplex,
                              element: Series, ring: TruncatedRing,
                              gauge: Optional[Series] = None) -> CorrespondenceReport:
    """Rebuild the deformed operator pair from an MC element of the total
    complex and certify it behaves like a deformed autodual connection.

    (i) the three relations hold over B for the deformed pair,
    (ii) reduction mod the maximal ideal returns the base pair,
    (iii) gauge-transforming the element conjugates the pair by exp of the
          multiplication operator of the gauge series,
    and, when the base operators vanish, an independent curvature oracle:
    theta ^ theta has weight zero under the ambient sl(2)-action.

    The J-conjugation datum is required: the deformed (1,0)-side is the
    J-conjugate of the del_bar_J deformation, so without J the rebuilt pair
    would not determine a connection.
    """
    if m.full_model is None or "J" not in m.full_model.maps:
        raise ModelError("connection correspondence requires the J data "
                         "of a full model")
    full_ctx = DeformationContext(_qa_dgla(q), "total", ring)
    if not full_ctx.mc_check(element).passed:
        raise PreconditionError("element fails the Maurer-Cartan equation")
    xi1, xi2 = _split_element(q, element)
    dolb = m.dolbeault

    def deformed_pair(x1: Series, x2: Series) -> tuple[OpSeries, OpSeries]:
        dbar = OpSeries.constant(m.del_bar, ring).add(
            multiplication_series(dolb, x2, ring))
        dbar_j = OpSeries.constant(m.del_bar_j, ring).add(
            multiplication_series(dolb, x1, ring))
        return dbar_j, dbar

    dbar_j_b, dbar_b = deformed_pair(xi1, xi2)

    relations = ValidationReport()
    relations.add("del_bar_B^2 = 0", dbar_b.compose(dbar_b).is_zero())
    relations.add("del_bar_J_B^2 = 0", dbar_j_b.compose(dbar_j_b).is_zero())
    anti = dbar_b.compose(dbar_j_b).add(dbar_j_b.compose(dbar_b))
    relations.add("anticommutator = 0 over B", anti.is_zero())

    reduces = (dbar_b.order_zero() == m.del_bar
               and dbar_j_b.order_zero() == m.del_bar_j)

    gauge_ok = None
    if gauge is not None:
        qa_ctx = DeformationContext(_qa_dgla(q), "total", ring)
        gauged = qa_ctx.gauge_transform(gauge, element)
        if not qa_ctx.mc_check(gauged).passed:
            raise InternalCheckError("gauge transform left the MC set")
        g1, g2 = _split_element(q, gauged)
        new_j, new_b = deformed_pair(g1, g2)
        g_op = exp_series(multiplication_series(dolb, gauge, ring), ring)
        g_inv = exp_series(multiplication_series(dolb, gauge.scale(Fraction(-1)),
                                                 ring), ring)
        ident = OpSeries.constant(GradedMap.identity(dolb.space), ring)
        if not g_op.compose(g_inv).add(ident.scale(Fraction(-1))).is_zero():
            raise InternalCheckError("exp series is not invertible")
        ok1 = new_b.compose(g_op).add(g_op.compose(dbar_b).scale(Fraction(-1))).is_zero()
        ok2 = new_j.compose(g_op).add(g_op.compose(dbar_j_b).scale(Fraction(-1))).is_zero()
        gauge_ok = ok1 and ok2

    oracle = None
    agrees = None
    full = m.full_model
    if (full is not None
            and full.differential(DEL_BAR).is_zero()
            and full.differential("del").is_zero()):
        j = m.j_op
        f_space = full.space

        def embed(v: Vector) -> Vector:
            out = [ZERO] * f_space.dim(1)
            for lab, c in dolb.space.vector_items(1, v):
                out[f_space.label_loc[lab][1]] = c
            return tuple(out)

        theta = [vec_add(embed(c2), j.apply(1, embed(c1)))
                 for c1, c2 in zip(xi1.coeffs, xi2.coeffs)]
        oracle = True
        for k in range(2, ring.order):
            r_k = zero_vector(f_space.dim(2))
            for i in range(1, k):
                jx = k - i
                if jx < 1 or jx > ring.top_power:
                    continue
                r_k = vec_add(r_k, full.mul(1, theta[i - 1], 1, theta[jx - 1]))
            for op_name in ("e", "f", "h"):
                if not vec_is_zero(full.maps[op_name].apply(2, r_k)):
                    oracle = False
        agrees = oracle == relations.passed
        if not agrees:
            raise InternalCheckError(
                "curvature weight-zero oracle disagrees with the operator relations")

    return CorrespondenceReport(relations, reduces, gauge_ok, oracle, agrees)


@dataclass
class FirstOrderDictionary:
    fixed_part_dim: int
    gauge_dim: int
    quotient_dim: int
    h1_dim: int
    bijection: bool

    def to_json(self):
        return {"strong_first_order_dim": self.fixed_part_dim,
                "gauge_directions_dim": self.gauge_dim,
                "quotient_dim": self.quotient_dim,
                "h1_del_bar_J_dim": self.h1_dim,
                "bijection": self.bijection}


def first_order_dictionary(m: ConnectionModel) -> FirstOrderDictionary:
    """First-order deformations with vanishing (0,1)-part versus classes of
    the del_bar_J complex.

    Over the dual numbers the x-only elements x*xi1 are MC exactly when
    xi1 is killed by both operators; the residual gauge freedom moves xi1
    by del_bar_J of a del_bar-closed degree-0 element.  The quotient must
    biject with H^1 of (D, del_bar_J).
    """
    dolb = m.dolbeault
    k_joint = kernel_of(m.del_bar_j.block(1)).intersect(kernel_of(m.del_bar.block(1)))
    gauge0 = kernel_of(m.del_bar.block(0))
    gauge_dirs = Subspace.from_vectors(
        dolb.space.dim(1),
        [m.del_bar_j.apply(0, v) for v in gauge0.vectors()])
    h = cohomology(dolb, DEL_BAR_J)
    quotient_dim = k_joint.dim - gauge_dirs.dim
    classes = h.project_many(1, k_joint.vectors()) if k_joint.dim else []
    span = Subspace.from_vectors(h.dim(1), classes) if classes else Subspace.zero(h.dim(1))
    surjective = span.dim == h.dim(1)
    # gauge directions always land inside the fixed part (both operators
    # kill them); with that, the projection kernel equals the gauge
    # directions exactly when the dimensions agree
    gauge_inside = all(k_joint.contains(v) for v in gauge_dirs.vectors())
    proj_kernel_dim = k_joint.dim - span.dim
    bijection = (surjective and gauge_inside
                 and proj_kernel_dim == gauge_dirs.dim
                 and quotient_dim == h.dim(1))
    return FirstOrderDictionary(k_joint.dim, gauge_dirs.dim, quotient_dim,
                                h.dim(1), bijection)


# ---------------------------------------------------------------------------
# seeded sampling helpers (used by the CLI probes and the acceptance suite)


def random_vector(space, degree: int, rnd: random.Random,
                  support: Optional[Sequence[str]] = None) -> Vector:
    out = [ZERO] * space.dim(degree)
    labels = support if support is not None else space.labels(degree)
    for lab in labels:
        k, i = space.label_loc[lab]
        if k != degree:
            continue
        num = rnd.randint(-2, 2)
        if num:
            den = rnd.choice([1, 2])
            im = rnd.randint(-1, 1) if rnd.random() < 0.25 else 0
            out[i] = Scalar(Fraction(num, den), im)
    return tuple(out)


def random_series(space, degree: int, ring: TruncatedRing, rnd: random.Random,
                  support: Optional[Sequence[str]] = None) -> Series:
    return Series(degree, [random_vector(space, degree, rnd, support)
                           for _ in range(ring.top_power)])


def strong_mc_samples(dgla: StructuredAlgebra, d_name: str, ring: TruncatedRing,
                      count: int, seed: int,
                      support: Optional[Sequence[str]] = None) -> list[Series]:
    """Seeded strong solutions: random closed degree-1 series from a support
    whose pairwise brackets vanish; each sample is verified before returning."""
    ctx = DeformationContext(dgla, d_name, ring)
    ker = kernel_of(ctx.d.block(1))
    space = dgla.space
    if support is not None:
        sup = Subspace.from_vectors(
            space.dim(1), [space.basis_vector(l)[1] for l in support])
        ker = ker.intersect(sup)
    basis = ker.vectors()
    rnd = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < count and attempts < 50 * count:
        attempts += 1
        coeffs = []
        for _ in range(ring.top_power):
            v = zero_vector(space.dim(1))
            for bvec in basis:
                c = rnd.randint(-2, 2)
                if c:
                    v = vec_add(v, vec_scale(Scalar(c), bvec))
            coeffs.append(v)
        x = Series(1, coeffs)
        if ctx.mc_check(x, "strong").passed:
            out.append(x)
    if len(out) < count:
        raise ModelError("could not sample enough strong solutions")
    return out

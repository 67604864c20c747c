"""Maurer-Cartan theory over truncated polynomial rings B = F[t]/(t^N).

One `Series` type carries everything that lives over B: coefficient p is
the coefficient of t^p, p = 0..N-1, and is either a vector (an element of
L ⊗ B; elements of L ⊗ m have a zero t^0 coefficient) or a graded map (a
B-linear operator).  The series fixes B: N is its number of coefficients,
and sums and products refuse series of different orders.  Brackets and
compositions are one truncated product: `Series.product_at` builds the t^p
coefficient when asked for, and `Series.times` takes every order of it.  A
graded map acts coefficientwise through `Series.apply` (differentials, the
evaluations pi_x / pi_y of the quaternionic complex, its y-section, the
embedding of D into F); everything is evaluated with exact rationals, so
nilpotency makes every series finite.

Maurer-Cartan verdicts are decided one power of t at a time, as the
equation is solved order by order: `mc_check` and the mixed equation of
`qa_mc_split` stop at the first order whose residual is non-zero, and a
report builds its residual series only when it is read.  The multiplication
operators of the rebuilt connection are read off the algebra's product
table by `graded.left_multiplication`.

The gauge action is

    a * x = x + sum_{n>=0} ad_a^n / (n+1)! ([a, x] - d a)

which preserves classical Maurer-Cartan solutions and reduces to the
exponential adjoint action exp(ad_a) when the differential vanishes.  It
and the e^s - 1 of exp(L_s) = id + L_(e^s - 1) are both sums of `exp_sum`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional, Sequence

from dgkit.ddbar import FormalityZigzag
from dgkit.errors import InternalCheckError, ModelError, PreconditionError
from dgkit.graded import (
    GradedMap,
    GradedSpace,
    StructuredAlgebra,
    ValidationReport,
    cohomology,
    format_vector,
    induced_map_on_cohomology,
    left_multiplication,
)
from dgkit.linalg import Matrix, Subspace, Vector, add_multiple, linear_solve
from dgkit.qdolbeault import DEL_BAR, DEL_BAR_J, ConnectionModel, QuaternionicComplex
from dgkit.scalars import ONE, ZERO, Scalar, gaussian


# A coefficient is a vector (a linalg.Vector dict, shared and never changed)
# or a GradedMap.

def _is_zero(c) -> bool:
    return c.is_zero() if isinstance(c, GradedMap) else not c


def _add(a, b):
    return a.add(b) if isinstance(a, GradedMap) else add_multiple(dict(a), ONE, b)


def _scale(c: Scalar, a):
    """c * a for a non-zero c."""
    return a.scale(c) if isinstance(a, GradedMap) else {i: c * x for i, x in a.items()}


class Series:
    """Homogeneous element of L^degree ⊗ B, or a B-linear operator of shift
    `degree`: coeffs[p] is the coefficient of t^p for p = 0..N-1.  The
    series fixes B = F[t]/(t^N): N = len(coeffs)."""

    def __init__(self, degree: int, coeffs: Sequence):
        self.degree = degree
        self.coeffs = list(coeffs)

    @staticmethod
    def zero(degree: int, order: int) -> "Series":
        if order < 2:
            raise ModelError("truncated ring needs order >= 2")
        return Series(degree, [{}] * order)

    @staticmethod
    def constant(g: GradedMap, order: int) -> "Series":
        """The operator g ⊗ 1 over F[t]/(t^order)."""
        zero = GradedMap.zero(g.source, g.target, g.shift)
        return Series(g.shift, [g] + [zero] * (order - 1))

    @staticmethod
    def from_orders(degree: int, order: int, at: Callable[[int], object]) -> "Series":
        """The series whose t^p coefficient is at(p), p = 0..order-1."""
        return Series(degree, [at(p) for p in range(order)])

    def is_zero(self) -> bool:
        return all(_is_zero(c) for c in self.coeffs)

    def _same_ring(self, other: "Series") -> None:
        if len(self.coeffs) != len(other.coeffs):
            raise ModelError(f"series orders differ: {len(self.coeffs)} and {len(other.coeffs)}")

    def add(self, other: "Series") -> "Series":
        self._same_ring(other)
        return Series(self.degree, [_add(a, b) for a, b in zip(self.coeffs, other.coeffs)])

    def scale(self, q: Fraction) -> "Series":
        c = Scalar(q)
        return Series(self.degree, [_scale(c, a) for a in self.coeffs])

    def apply(self, g: GradedMap) -> "Series":
        """g applied coefficientwise to a vector series."""
        return Series(self.degree + g.shift, [g.apply(self.degree, c) for c in self.coeffs])

    def product_at(self, other: "Series", mul: Callable, zero) -> Callable[[int], object]:
        """p -> the t^p coefficient of the product: the sum of
        mul(self_i, other_j) over i + j = p, or `zero` when no pair with
        both coefficients non-zero reaches t^p.  Each order is built only
        when asked for, so a caller can stop at the first one it rejects."""
        self._same_ring(other)
        left = [(i, a) for i, a in enumerate(self.coeffs) if not _is_zero(a)]
        right = {j: b for j, b in enumerate(other.coeffs) if not _is_zero(b)}

        def at(p: int):
            out = zero
            for i, a in left:
                b = right.get(p - i)
                if b is not None:
                    q = mul(a, b)
                    # the first contribution replaces the shared zero
                    out = q if out is zero else _add(out, q)
            return out
        return at

    def times(self, other: "Series", mul: Callable, zero) -> "Series":
        """The product truncated at t^N, every order of `product_at`."""
        return Series.from_orders(self.degree + other.degree, len(self.coeffs),
                                  self.product_at(other, mul, zero))

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.degree == other.degree and self.coeffs == other.coeffs


def exp_sum(term: Series, step: Callable[[Series], Series], first: int) -> Series:
    """sum_{n>=0} step^n(term) / (n + first)!, stopping at the first zero
    term.  `step` must raise the order in t, so that the sum is finite."""
    factorial = math.factorial(first)
    total = term if factorial == 1 else term.scale(Fraction(1, factorial))
    n = first
    while True:
        term = step(term)
        if term.is_zero():
            return total
        n += 1
        factorial *= n
        total = total.add(term.scale(Fraction(1, factorial)))


class DeformationContext:
    """An algebra read as a DGLA and a named differential; the series it is
    given fix B.  The algebra is of either kind and is bracketed through
    `StructuredAlgebra.bracket`: a lie algebra by its structure, an
    associative one by its graded commutator, the DGLA of its deformations."""

    def __init__(self, algebra: StructuredAlgebra, d_name: str):
        self.algebra = algebra
        self.d = algebra.differential(d_name)

    def bracket_at(self, u: Series, v: Series) -> Callable[[int], Vector]:
        """p -> the t^p coefficient of [u, v], built when asked for."""
        k1, k2 = u.degree, v.degree
        return u.product_at(v, lambda a, b: self.algebra.bracket(k1, a, k2, b), {})

    def bracket_series(self, u: Series, v: Series) -> Series:
        return Series.from_orders(u.degree + v.degree, len(u.coeffs), self.bracket_at(u, v))

    # -- Maurer-Cartan ---------------------------------------------------

    def mc_check(self, x: Series, mode: str = "classical") -> "MCReport":
        """Decide d x + 1/2 [x, x] = 0 one power of t at a time: the walk
        stops at the first non-zero r_p = d x_p + 1/2 sum_{i+j=p} [x_i, x_j].
        The strong mode asks d x_p = 0 and the bracket sum = 0 separately;
        it walks past its own first failure only while r_p still vanishes,
        so the classical verdict is exact in both modes.  The residual
        series is finished only when the report's reader asks for it."""
        if x.degree != 1:
            raise ModelError("coefficient degree mismatch: expected degree 1")
        if x.coeffs[0]:
            raise ModelError("Maurer-Cartan elements live in L ⊗ m: "
                             "the t^0 coefficient must vanish")
        if mode not in ("classical", "strong"):
            raise ModelError(f"unknown mode {mode!r}")
        coeffs = tuple(x.coeffs)
        bracket = self.bracket_at(x, x)
        half = Scalar(Fraction(1, 2))

        def terms(p: int) -> tuple[Vector, Vector, Vector]:
            dx_p, br_p = self.d.apply(1, coeffs[p]), bracket(p)
            return dx_p, br_p, add_multiple(dict(dx_p), half, br_p)

        walked = []  # r_0, r_1, ... up to the first non-zero one
        strong_ok = True if mode == "strong" else None
        for p in range(len(coeffs)):
            dx_p, br_p, r_p = terms(p)
            walked.append(r_p)
            if strong_ok and (dx_p or br_p):
                strong_ok = False
            if r_p:
                break
        classical_ok = not walked[-1]
        if strong_ok and not classical_ok:
            raise InternalCheckError("strong solution fails the classical equation")
        passed = classical_ok if mode == "classical" else strong_ok
        return MCReport(mode, passed, classical_ok, strong_ok, self.algebra.space,
                        lambda p: walked[p] if p < len(walked) else terms(p)[2],
                        len(coeffs))

    # -- gauge action ------------------------------------------------------

    def gauge_transform(self, a: Series, x: Series) -> Series:
        """a * x = x + sum ad_a^n/(n+1)! ([a,x] - da)."""
        if a.degree != 0 or x.degree != 1:
            raise ModelError("gauge elements have degree 0, MC elements degree 1")
        if a.coeffs[0]:
            raise ModelError("gauge elements live in L ⊗ m: "
                             "the t^0 coefficient must vanish")
        u = self.bracket_series(a, x).add(a.apply(self.d).scale(Fraction(-1)))
        return x.add(exp_sum(u, lambda term: self.bracket_series(a, term), 1))


@dataclass
class MCReport:
    mode: str
    passed: bool
    classical: bool
    strong: Optional[bool]
    space: GradedSpace
    residual_at: Callable[[int], Vector]  # p -> t^p coefficient of d x + 1/2 [x, x]
    order: int

    @cached_property
    def residual(self) -> Series:
        return Series.from_orders(2, self.order, self.residual_at)

    def residual_table(self):
        return {f"t^{p}": format_vector(self.space, self.residual.degree, c)
                for p, c in enumerate(self.residual.coeffs) if c}

    def to_json(self):
        return {"mode": self.mode, "passed": self.passed,
                "classical": self.classical, "strong": self.strong,
                "residual": self.residual_table()}


# ---------------------------------------------------------------------------
# tangent space and obstruction


@dataclass
class TangentObstruction:
    h1_dim: int
    h2_dim: int
    obstruction: Callable
    cross_check: ValidationReport

    def to_json(self):
        return {"tangent_dim": self.h1_dim, "h2_dim": self.h2_dim,
                "cross_check": self.cross_check.to_json()}


def tangent_and_obstruction(algebra: StructuredAlgebra, d_name: str) -> TangentObstruction:
    """Tangent = H^1; the obstruction sends a class xi to the class of
    -1/2 [xi, xi] in H^2 (the obstruction to lifting from order 2 to 3).

    The class is cross-checked against attempting to solve d x2 =
    -1/2 [x1, x1] directly: solvable exactly when the class vanishes.
    """
    h = cohomology(algebra, d_name)
    d = algebra.differential(d_name)
    reps = Matrix.from_columns(algebra.space.dim(1), h.reps.get(1, []))

    def half_square(r: Vector) -> Vector:
        """-1/2 [r, r] for a degree-1 vector r."""
        return _scale(Scalar(Fraction(-1, 2)), algebra.bracket(1, r, 1, r))

    def obstruction(xi: Vector) -> Vector:
        return h.project(2, [half_square(reps.apply(xi))])[0]

    checks = ValidationReport()
    agree = True
    for r in h.reps.get(1, []):
        rhs = half_square(r)
        solvable = linear_solve(d.block(1), rhs) is not None
        if solvable != (not h.project(2, [rhs])[0]):
            agree = False
    checks.add("obstruction class vanishes iff the order-2 lift solves", agree)
    return TangentObstruction(h.dim(1), h.dim(2), obstruction, checks)


# ---------------------------------------------------------------------------
# quadraticity probe through a formality certificate


@dataclass
class QuadraticitySample:
    xi: Vector
    dim: int  # of H^1, so that "class" lists every coordinate of xi
    cone_obstructed: bool
    lifted_to: Optional[int]
    order3_unsolvable: Optional[bool]
    passed: bool

    def to_json(self):
        return {"class": [str(self.xi.get(i, ZERO)) for i in range(self.dim)],
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
    certificate's strong lemma.  The certificate may be that of an
    associative algebra: brackets are read through `bracket`, so its
    formality probes the deformations of its graded-commutator DGLA.
    """
    if certificate is None:
        raise PreconditionError("quadraticity probe requires a formality certificate")
    b = certificate.bicomplex
    algebra = b.algebra
    h = certificate.h_d1
    h_alg = certificate.h_algebra
    d0 = b.d0
    space = algebra.space
    n1 = space.dim(1)
    reps = Matrix.from_columns(n1, h.reps.get(1, []))
    im_vectors = b.d1.image(1).vectors()
    im_basis = Matrix.from_columns(n1, im_vectors)
    # solve d0 u = rhs with u constrained to im(d1): columns are d0(im-basis)
    sys_matrix = Matrix.from_columns(space.dim(2), [d0.apply(1, v) for v in im_vectors])
    half = Scalar(Fraction(-1, 2))

    results = []
    for xi in samples:
        rep = reps.apply(xi)
        sq = h_alg.bracket(1, xi, 1, xi)
        if sq:
            rhs = _scale(half, algebra.bracket(1, rep, 1, rep))
            unsolvable = linear_solve(d0.block(1), rhs) is None
            results.append(QuadraticitySample(xi, h.dim(1), True, None, unsolvable, unsolvable))
            continue
        ctx = DeformationContext(algebra, b.d0_name)
        x = Series.zero(1, k_max)
        x.coeffs[1] = rep
        ok = True
        for k in range(2, k_max):
            # the t^k coefficient of [x, x] only involves x_1 .. x_(k-1)
            rhs = _scale(half, ctx.bracket_at(x, x)(k))
            sol = linear_solve(sys_matrix, rhs)
            if sol is None:
                ok = False
                break
            x.coeffs[k] = im_basis.apply(sol[0])
        lifted = None
        if ok:
            if not ctx.mc_check(x).passed:
                raise InternalCheckError("constructed lift fails Maurer-Cartan")
            lifted = k_max
        results.append(QuadraticitySample(xi, h.dim(1), False, lifted, None, ok))
    return QuadraticityReport(results, all(s.passed for s in results))


# ---------------------------------------------------------------------------
# quaternionic splits and evaluations


def _total_mc_split(q: QuaternionicComplex, element: Series):
    """The context of the total complex, whether `element` is Maurer-Cartan
    there, and the element's Dolbeault split (xi1, xi2) = (pi_x, pi_y)(element);
    the extended complex has no evaluations and is refused."""
    pi_x, pi_y = q.evaluations
    full_ctx = DeformationContext(q.algebra, "total")
    passed = full_ctx.mc_check(element).passed
    return full_ctx, passed, element.apply(pi_x), element.apply(pi_y)


def _side_contexts(q: QuaternionicComplex):
    """The contexts of the y-side (D, del_bar) and the x-side (D, del_bar_J)."""
    dolb = q.model.dolbeault
    return DeformationContext(dolb, DEL_BAR), DeformationContext(dolb, DEL_BAR_J)


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


def qa_mc_split(q: QuaternionicComplex, element: Series) -> SplitReport:
    """The x^2 / y^2 / xy components of the Maurer-Cartan equation.

    full MC in the total complex must equal: xi2 MC for del_bar, xi1 MC for
    del_bar_J, and the mixed bracket condition
    del_bar_J(xi2) + del_bar(xi1) + [xi1, xi2] = 0.  Each of the four is
    decided one power of t at a time and stops at its first non-zero order.
    """
    _, full_ok, xi1, xi2 = _total_mc_split(q, element)
    ctx_y, ctx_x = _side_contexts(q)
    xi2_ok = ctx_y.mc_check(xi2).passed
    xi1_ok = ctx_x.mc_check(xi1).passed

    bracket = ctx_y.bracket_at(xi1, xi2)

    def mixed(p: int) -> Vector:
        dx = add_multiple(ctx_x.d.apply(1, xi2.coeffs[p]), ONE, ctx_y.d.apply(1, xi1.coeffs[p]))
        return add_multiple(dx, ONE, bracket(p))
    mixed_ok = all(not mixed(p) for p in range(len(element.coeffs)))

    equivalent = full_ok == (xi2_ok and xi1_ok and mixed_ok)
    if not equivalent:
        raise InternalCheckError("component split disagrees with the full equation")
    return SplitReport(full_ok, xi2_ok, xi1_ok, mixed_ok, equivalent)


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
                        lifts: Sequence[Series] = (),
                        certified: bool = False) -> EvaluationReport:
    """Evaluation images of an MC element, y-lifts, and the tangent map.

    `lifts` are Dolbeault-side MC elements of the kernel sub-DGLA
    (ker [del_bar_J, -], [del_bar, -]); y*b must be MC in the total complex.
    The tangent map (pi_y, pi_x)* is checked to be a bijection
    H^1(total) -> H^1(del_bar) x H^1(del_bar_J) when `certified` is set.
    """
    full_ctx, full_ok, xi1, xi2 = _total_mc_split(q, element)
    if not full_ok:
        raise PreconditionError("element fails the Maurer-Cartan equation")
    ctx_y, ctx_x = _side_contexts(q)
    pi_x_ok = ctx_x.mc_check(xi1).passed
    pi_y_ok = ctx_y.mc_check(xi2).passed

    _, y_section = q.sections
    lift_results = []
    for b_elt in lifts:
        if not b_elt.apply(q.model.del_bar_j).is_zero():
            raise PreconditionError("lift candidate leaves ker[del_bar_J,-]")
        if not ctx_y.mc_check(b_elt).passed:
            raise PreconditionError("lift candidate is not MC in the kernel sub-DGLA")
        lift_results.append(full_ctx.mc_check(b_elt.apply(y_section)).passed)

    h_total = cohomology(q.algebra, "total")
    h_y = cohomology(q.model.dolbeault, DEL_BAR)
    dim_q = h_total.dim(1)
    dim_base = h_y.dim(1)
    doubles = None
    bijection = None
    if certified:
        doubles = dim_q == 2 * dim_base
        h_x = cohomology(q.model.dolbeault, DEL_BAR_J)
        pi_x, pi_y = q.evaluations
        mx = induced_map_on_cohomology(pi_x, h_total, h_x).get(1)
        my = induced_map_on_cohomology(pi_y, h_total, h_y).get(1)
        # both maps have a block at degree 1 exactly when dim_q > 0
        stacked = my.vstack(mx) if my is not None else Matrix(0, 0)
        bijection = stacked.rows == stacked.cols and stacked.rank() == stacked.rows
    return EvaluationReport(pi_x_ok, pi_y_ok, lift_results,
                            dim_q, dim_base, doubles, bijection)


# ---------------------------------------------------------------------------
# operator series over B and the connection correspondence


def _compose(a: Series, b: Series) -> Series:
    """a o b for operator series (b applied first)."""
    zero = GradedMap.zero(b.coeffs[0].source, a.coeffs[0].target, a.degree + b.degree)
    return a.times(b, GradedMap.compose, zero)


def multiplication_series(algebra: StructuredAlgebra, s: Series) -> Series:
    """The operator of left multiplication by s, coefficient by coefficient."""
    zero = GradedMap.zero(algebra.space, algebra.space, s.degree)
    return Series(s.degree, [left_multiplication(algebra, s.degree, c)
                             if c else zero for c in s.coeffs])


def require_associative(dolbeault: StructuredAlgebra) -> None:
    """Refuse, as bad input, a Dolbeault algebra D that is not associative,
    naming its kind when it is no product, else its first failing basis
    triple: the gauge exponential needs an associative product."""
    if dolbeault.kind != "associative":
        raise ModelError(f"D must be an associative algebra, not of kind {dolbeault.kind!r}")
    bad = dolbeault._associativity_failure
    if bad:
        raise ModelError(f"D is not associative at {bad}")


def exp_multiplication(algebra: StructuredAlgebra, s: Series) -> Series:
    """exp(L_s) = id + L_(e^s - 1) for s in algebra^0 ⊗ m, with e^s - 1 summed
    in the algebra; this needs it associative (L_s o L_u = L_(su))."""
    if s.degree != 0 or s.coeffs[0]:
        raise ModelError("exp_multiplication needs a degree-0 series with zero t^0 coefficient")
    ident = Series.constant(GradedMap.identity(algebra.space), len(s.coeffs))
    e = exp_sum(s, lambda term: s.times(term, lambda a, b: algebra.mul(0, a, 0, b), {}), 1)
    return ident.add(multiplication_series(algebra, e))


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


def curvature_has_weight_zero(full: StructuredAlgebra, theta: Series) -> bool:
    """The curvature oracle: every t-coefficient of theta ^ theta, for theta
    a degree-1 series of the full model, is killed by e, f and h.  When
    connection_correspondence builds theta from a Dolbeault part D closed
    under the product, the verdict does not depend on J: theta ^ theta
    vanishes exactly when the three operator relations hold, and has h-weight
    2 otherwise."""
    curvature = theta.times(theta, lambda u, v: full.mul(1, u, 1, v), {})
    return all(not full.maps[op_name].apply(2, r_k)
               for r_k in curvature.coeffs for op_name in ("e", "f", "h"))


def connection_correspondence(m: ConnectionModel, q: QuaternionicComplex,
                              element: Series,
                              gauge: Optional[Series] = None) -> CorrespondenceReport:
    """Rebuild the deformed operator pair from an MC element of the total
    complex and certify it behaves like a deformed autodual connection.

    (i) the three relations hold over B for the deformed pair,
    (ii) reduction mod the maximal ideal returns the base pair,
    (iii) gauge-transforming the element conjugates the pair by exp(L_s) =
          id + L_(e^s - 1) for the gauge series s, which needs D associative;
          on a D that is not, a failed g o g^-1 = id is reported as bad input,
    and, when the base operators vanish, an independent curvature oracle:
    theta ^ theta has weight zero under the ambient sl(2)-action.  Where D
    is closed under the product, as on the generated models, the oracle's
    verdict does not depend on J: there it cross-checks the three relations,
    not the J-conjugation.

    The J-conjugation datum is required: the deformed (1,0)-side is the
    J-conjugate of the del_bar_J deformation, so without J the rebuilt pair
    would not determine a connection.
    """
    if m.full_model is None or "J" not in m.full_model.maps:
        raise ModelError("connection correspondence requires the J data "
                         "of a full model")
    full_ctx, full_ok, xi1, xi2 = _total_mc_split(q, element)
    if not full_ok:
        raise PreconditionError("element fails the Maurer-Cartan equation")
    dolb = m.dolbeault
    order = len(element.coeffs)

    def deformed_pair(x1: Series, x2: Series) -> tuple[Series, Series]:
        dbar = Series.constant(m.del_bar, order).add(multiplication_series(dolb, x2))
        dbar_j = Series.constant(m.del_bar_j, order).add(multiplication_series(dolb, x1))
        return dbar_j, dbar

    dbar_j_b, dbar_b = deformed_pair(xi1, xi2)

    relations = ValidationReport()
    relations.add("del_bar_B^2 = 0", _compose(dbar_b, dbar_b).is_zero())
    relations.add("del_bar_J_B^2 = 0", _compose(dbar_j_b, dbar_j_b).is_zero())
    anti = _compose(dbar_b, dbar_j_b).add(_compose(dbar_j_b, dbar_b))
    relations.add("anticommutator = 0 over B", anti.is_zero())

    reduces = dbar_b.coeffs[0] == m.del_bar and dbar_j_b.coeffs[0] == m.del_bar_j

    gauge_ok = None
    if gauge is not None:
        gauged = full_ctx.gauge_transform(gauge, element)
        if not full_ctx.mc_check(gauged).passed:
            raise InternalCheckError("gauge transform left the MC set")
        new_j, new_b = deformed_pair(*(gauged.apply(pi) for pi in q.evaluations))
        g_op = exp_multiplication(dolb, gauge)
        g_inv = exp_multiplication(dolb, gauge.scale(Fraction(-1)))
        if _compose(g_op, g_inv) != Series.constant(GradedMap.identity(dolb.space), order):
            require_associative(dolb)
            raise InternalCheckError("exp series is not invertible")
        gauge_ok = (_compose(new_b, g_op) == _compose(g_op, dbar_b)
                    and _compose(new_j, g_op) == _compose(g_op, dbar_j_b))

    oracle = None
    agrees = None
    full = m.full_model
    if full.differential(DEL_BAR).is_zero() and full.differential("del").is_zero():
        # D sits in F under its own labels
        embed = GradedMap.from_entries(dolb.space, full.space, 0,
                                       [(lab, lab, ONE) for lab in dolb.space.all_labels()])
        theta = xi2.apply(embed).add(xi1.apply(m.j_op.compose(embed)))
        oracle = curvature_has_weight_zero(full, theta)
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
    k_joint = m.del_bar_j.kernel(1).intersect(m.del_bar.kernel(1))
    gauge0 = m.del_bar.kernel(0)
    gauge_dirs = Subspace.from_vectors(
        dolb.space.dim(1),
        [m.del_bar_j.apply(0, v) for v in gauge0.vectors()])
    h = cohomology(dolb, DEL_BAR_J)
    quotient_dim = k_joint.dim - gauge_dirs.dim
    classes = h.project(1, k_joint.vectors()) if k_joint.dim else []
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
    out = {}
    labels = support if support is not None else space.labels(degree)
    for lab in labels:
        k, i = space.label_loc[lab]
        if k != degree:
            continue
        num = rnd.randint(-2, 2)
        if num:
            den = rnd.choice([1, 2])
            im = rnd.randint(-1, 1) if rnd.random() < 0.25 else 0
            out[i] = gaussian(num, im * den, den)
    return out


def random_series(space, degree: int, order: int, rnd: random.Random,
                  support: Optional[Sequence[str]] = None) -> Series:
    """A seeded element of L^degree ⊗ m: random coefficients at t^1..t^(order-1)."""
    x = Series.zero(degree, order)
    x.coeffs[1:] = [random_vector(space, degree, rnd, support) for _ in range(1, order)]
    return x


def strong_mc_samples(algebra: StructuredAlgebra, d_name: str, order: int,
                      count: int, seed: int,
                      support: Optional[Sequence[str]] = None) -> list[Series]:
    """Seeded strong solutions: random closed degree-1 series from a support
    whose pairwise brackets vanish; each sample is verified before returning."""
    ctx = DeformationContext(algebra, d_name)
    ker = ctx.d.kernel(1)
    space = algebra.space
    if support is not None:
        sup = Subspace.from_vectors(
            space.dim(1), [space.basis_vector(l)[1] for l in support])
        ker = ker.intersect(sup)
    basis = ker.vectors()
    combine = Matrix.from_columns(space.dim(1), basis)
    rnd = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < count and attempts < 50 * count:
        attempts += 1
        x = Series.zero(1, order)
        for p in range(1, order):
            draws = [rnd.randint(-2, 2) for _ in basis]
            x.coeffs[p] = combine.apply({i: Scalar(c) for i, c in enumerate(draws) if c})
        if ctx.mc_check(x, "strong").passed:
            out.append(x)
    if len(out) < count:
        raise ModelError("could not sample enough strong solutions")
    return out

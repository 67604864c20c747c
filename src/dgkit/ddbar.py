"""Bicomplexes with anticommuting differentials and the strong-lemma engine.

A bicomplex here is a graded space with two square-zero anticommuting
differentials d0, d1.  The strong lemma is the subspace identity

    ker(d0) ∩ ker(d1) ∩ (im(d0) + im(d1)) = im(d0 d1)

per degree; it is equivalent to the two one-sided identities

    b :  ker(d1) ∩ im(d0) = im(d0 d1)
    b*:  ker(d0) ∩ im(d1) = im(d0 d1)

and each of these is in turn equivalent to the acyclicity of the subcomplex
(im(d0), d1) resp. (im(d1), d0) — conditions c and c*, which this module
computes by an independent route and cross-checks.

When the algebra carries a product for which both differentials are
derivations and the strong lemma holds, `formality_zigzag` produces the
explicit zig-zag of algebra quasi-isomorphisms

    (A, d0)  <--inclusion--  (ker d1, d0)  --projection-->  (H_{d1}(A), 0)

with machine-checkable certificates: the induced matrices on cohomology are
invertible, and the inclusion and the projection are chain maps that
preserve products, so the maps they induce on cohomology preserve products
too.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

from dgkit.errors import InternalCheckError, PreconditionError
from dgkit.graded import (
    CohomologyPresentation,
    GradedMap,
    GradedSpace,
    StructuredAlgebra,
    Subquotient,
    ValidationReport,
    algebra_map_witness,
    chain_map_failure,
    cohomology,
    format_vector,
    induced_map_on_cohomology,
)
from dgkit.linalg import Matrix, Subspace
from dgkit.scalars import ZERO


class Bicomplex:
    """A structured algebra with two named anticommuting differentials.  Its
    anticommutator, invariants, verdict and derivation report are computed
    once and shared; the squares are the differentials' own."""

    def __init__(self, algebra: StructuredAlgebra, d0_name: str = "d0",
                 d1_name: str = "d1"):
        self.algebra = algebra
        self.d0_name = d0_name
        self.d1_name = d1_name
        self.d0 = algebra.differential(d0_name)
        self.d1 = algebra.differential(d1_name)

    @property
    def space(self) -> GradedSpace:
        return self.algebra.space

    @cached_property
    def d0d1(self) -> GradedMap:
        return self.d0.compose(self.d1)

    @cached_property
    def anticommutator(self) -> GradedMap:
        """d0 d1 + d1 d0, on the shared d0 d1."""
        return self.d0d1.add(self.d1.compose(self.d0))

    def strong_lhs(self, k: int) -> Subspace:
        """ker(d0) ∩ ker(d1) ∩ (im(d0) + im(d1)) in degree k."""
        return self.d0.kernel(k).intersect(self.d1.kernel(k)).intersect(
            self.d0.image(k).add(self.d1.image(k)))

    @cached_property
    def invariants(self) -> ValidationReport:
        """d0^2 = 0, d1^2 = 0, d0 d1 + d1 d0 = 0, with witness degrees."""
        report = ValidationReport()
        for name, op in ((f"{self.d0_name}^2 = 0", self.d0.square),
                         (f"{self.d1_name}^2 = 0", self.d1.square),
                         ("anticommutation", self.anticommutator)):
            bad = next(iter(op.blocks), None)
            report.add(name, bad is None, None if bad is None else {"degree": bad})
        return report

    def require_structure(self):
        report = self.invariants
        if not report.passed:
            failing = report.failures()[0]
            raise PreconditionError(
                f"bicomplex invariant failed: {failing.name} at degree "
                f"{(failing.witness or {}).get('degree')}")

    @cached_property
    def derivations(self) -> ValidationReport:
        """Both differentials are derivations for the product/bracket."""
        report = ValidationReport()
        self.algebra._leibniz_check(report, self.d0, self.d0_name)
        self.algebra._leibniz_check(report, self.d1, self.d1_name)
        return report

    @cached_property
    def verdict(self) -> "DdbarVerdict":
        """The condition verdict, with strong = b ∧ b* enforced degreewise."""
        verdict = ddbar_condition_check(self)
        for row in verdict.per_degree:
            if row.strong != (row.b and row.bstar):
                raise InternalCheckError(
                    f"strong lemma disagrees with b ∧ b* at degree {row.degree}")
        return verdict


@dataclass
class DegreeConditions:
    degree: int
    b: bool
    bstar: bool
    c: bool
    cstar: bool
    strong: bool
    dims: dict

    def to_json(self):
        return {"degree": self.degree, "b": self.b, "bstar": self.bstar,
                "c": self.c, "cstar": self.cstar, "strong": self.strong,
                "dims": self.dims}


@dataclass(frozen=True)
class DdbarVerdict:
    """Outcome of the condition checks on a bicomplex.

    `strong_lemma` is the conjunction over degrees of the three-way subspace
    identity; by the equivalence lemma it must equal condition_b and
    condition_bstar jointly, and this agreement is enforced.  Verdicts are
    shared through `Bicomplex.verdict`, so they are frozen.
    """

    anticommute: bool
    per_degree: tuple[DegreeConditions, ...] = ()
    condition_b: bool = True
    condition_bstar: bool = True
    condition_c: bool = True
    condition_cstar: bool = True
    strong_lemma: bool = True
    witnesses: dict = field(default_factory=dict)
    is_ddbar_algebra: Optional[bool] = None

    def to_json(self):
        out = {
            "anticommute": self.anticommute,
            "per_degree": [d.to_json() for d in self.per_degree],
            "condition_b": self.condition_b,
            "condition_bstar": self.condition_bstar,
            "condition_c": self.condition_c,
            "condition_cstar": self.condition_cstar,
            "strong_lemma": self.strong_lemma,
            "witnesses": self.witnesses,
        }
        if self.is_ddbar_algebra is not None:
            out["is_ddbar_algebra"] = self.is_ddbar_algebra
        return out


def _restricted_complex_acyclic(b: Bicomplex, im_of: GradedMap, d_rest: GradedMap):
    """Cohomology dims of (im(first map), second map restricted).

    Returns {degree: dim}; the subcomplex is acyclic iff all dims vanish.
    Independent of the subspace-identity route: works in the coordinates of
    the image bases.
    """
    images = Subquotient(
        b.algebra, {}, {k: im_of.image(k).vectors() for k in b.space.degrees()}, "i",
        lambda k: InternalCheckError("restricted differential leaves the image subcomplex"))
    ranks = {k: m.rank() for k, m in images.blocks(d_rest).items()}
    return {k: images.dim(k) - rank - ranks.get(k - 1, 0) for k, rank in ranks.items()}


def _first_missing_vector(lhs: Subspace, rhs: Subspace):
    for v in lhs.vectors():
        if not rhs.contains(v):
            return v
    return None


def ddbar_condition_check(b: Bicomplex) -> DdbarVerdict:
    """Evaluate the one-sided conditions b, b* per degree, plus their
    cohomological reformulations c, c*; the two routes must agree."""
    b.require_structure()
    c_dims = _restricted_complex_acyclic(b, b.d0, b.d1)
    cstar_dims = _restricted_complex_acyclic(b, b.d1, b.d0)
    per_degree: list[DegreeConditions] = []
    witnesses: dict = {}
    for k in b.space.degrees():
        ker0, ker1 = b.d0.kernel(k), b.d1.kernel(k)
        im0, im1 = b.d0.image(k), b.d1.image(k)
        lhs_b = ker1.intersect(im0)
        lhs_bstar = ker0.intersect(im1)
        rhs = b.d0d1.image(k)
        if not lhs_b.contains_subspace(rhs) or not lhs_bstar.contains_subspace(rhs):
            raise InternalCheckError("im(d0 d1) escapes a one-sided left side")
        ok_b = lhs_b == rhs
        ok_bstar = lhs_bstar == rhs
        # condition c at degree k: H^k of (im d0, d1) = 0; likewise c*
        ok_c = c_dims.get(k, 0) == 0
        ok_cstar = cstar_dims.get(k, 0) == 0
        if ok_b != ok_c or ok_bstar != ok_cstar:
            raise InternalCheckError(
                f"subspace and subcomplex routes disagree at degree {k}")
        strong_lhs = b.strong_lhs(k)
        ok_strong = strong_lhs == rhs
        per_degree.append(DegreeConditions(
            k, ok_b, ok_bstar, ok_c, ok_cstar, ok_strong,
            {"ker_d0": ker0.dim, "ker_d1": ker1.dim,
             "im_d0": im0.dim, "im_d1": im1.dim,
             "im_d0d1": rhs.dim}))
        for key, ok, lhs in (("b", ok_b, lhs_b), ("bstar", ok_bstar, lhs_bstar),
                             ("strong", ok_strong, strong_lhs)):
            if not ok and key not in witnesses:
                w = _first_missing_vector(lhs, rhs)
                witnesses[key] = {"degree": k, "vector": format_vector(b.space, k, w)}
    return DdbarVerdict(
        anticommute=True, per_degree=tuple(per_degree),
        condition_b=all(d.b for d in per_degree),
        condition_bstar=all(d.bstar for d in per_degree),
        condition_c=all(d.c for d in per_degree),
        condition_cstar=all(d.cstar for d in per_degree),
        strong_lemma=all(d.strong for d in per_degree),
        witnesses=witnesses)


def strong_lemma_check(b: Bicomplex) -> DdbarVerdict:
    """Full verdict; enforces strong = b ∧ b* degreewise (the equivalence)."""
    return b.verdict


def is_ddbar_algebra(b: Bicomplex) -> DdbarVerdict:
    """strong_lemma_check plus derivation checks for both differentials, as
    a new verdict; the shared one is left as it is."""
    verdict = strong_lemma_check(b)
    deriv = b.derivations
    witnesses = dict(verdict.witnesses)
    if not deriv.passed:
        witnesses["derivation"] = deriv.failures()[0].to_json()
    return replace(verdict, witnesses=witnesses,
                   is_ddbar_algebra=verdict.strong_lemma and deriv.passed)


# ---------------------------------------------------------------------------
# induced differentials on cohomology


@dataclass
class InducedDifferentialReport:
    d0_on_h_d1_zero: bool
    d1_on_h_d0_zero: bool
    condition_b_holds: bool
    condition_bstar_holds: bool
    witnesses: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "d0_on_h_d1_zero": self.d0_on_h_d1_zero,
            "d1_on_h_d0_zero": self.d1_on_h_d0_zero,
            "condition_b_holds": self.condition_b_holds,
            "condition_bstar_holds": self.condition_bstar_holds,
            "witnesses": self.witnesses,
        }


def induced_differential_triviality(b: Bicomplex) -> InducedDifferentialReport:
    """The map induced by each differential on the other's cohomology.

    One-sided condition b forces the map induced by d0 on H_{d1} to vanish
    (and b* symmetrically); the report also records the computed maps on
    models where the condition fails, naming the failed condition.
    """
    conditions = strong_lemma_check(b)
    h1 = cohomology(b.algebra, b.d1_name)
    h0 = cohomology(b.algebra, b.d0_name)
    witnesses = {}

    def induced_is_zero(h: CohomologyPresentation, d: GradedMap, key: str) -> bool:
        for k, m in h.blocks(d).items():
            for i in range(m.cols):
                cls = m.column(i)
                if cls:
                    witnesses[key] = {"degree": k, "class_index": i,
                                      "image_class": [str(cls.get(j, ZERO))
                                                      for j in range(m.rows)]}
                    return False
        return True

    ok0 = induced_is_zero(h1, b.d0, "d0_on_h_d1")
    ok1 = induced_is_zero(h0, b.d1, "d1_on_h_d0")
    report = InducedDifferentialReport(
        ok0, ok1, conditions.condition_b, conditions.condition_bstar, witnesses)
    if conditions.condition_b and not ok0:
        raise InternalCheckError("condition b holds but induced d0 is nonzero")
    if conditions.condition_bstar and not ok1:
        raise InternalCheckError("condition b* holds but induced d1 is nonzero")
    return report


# ---------------------------------------------------------------------------
# formality


@dataclass
class QuasiIsoCertificate:
    dims_source: dict
    dims_target: dict
    matrices: dict  # degree -> Matrix
    invertible: bool

    def to_json(self):
        return {"dims_source": {str(k): v for k, v in self.dims_source.items()},
                "dims_target": {str(k): v for k, v in self.dims_target.items()},
                "invertible": self.invertible}


@dataclass
class FormalityZigzag:
    """(A, d0) <- (A1 = ker d1, d0) -> (H_{d1}(A), 0) with certificates.

    Product preservation on cohomology is read off `morphism_checks`: a
    chain map that preserves products induces a map on cohomology that
    does, so no induced structure is formed on H_d0, H_d0(A1) or
    H(H_d1)."""

    bicomplex: Bicomplex
    a1_algebra: StructuredAlgebra
    h_algebra: StructuredAlgebra
    inclusion: GradedMap
    projection: GradedMap
    h_d0: CohomologyPresentation
    h_d0_a1: CohomologyPresentation
    h_d1: CohomologyPresentation
    iota_certificate: QuasiIsoCertificate = None
    rho_certificate: QuasiIsoCertificate = None
    morphism_checks: ValidationReport = None

    @property
    def certified(self) -> bool:
        return (self.iota_certificate.invertible and self.rho_certificate.invertible
                and self.morphism_checks.passed)

    def to_json(self):
        return {
            "h_d0_dims": {str(k): v for k, v in self.h_d0.dims().items()},
            "h_d0_a1_dims": {str(k): v for k, v in self.h_d0_a1.dims().items()},
            "h_d1_dims": {str(k): v for k, v in self.h_d1.dims().items()},
            "iota": self.iota_certificate.to_json(),
            "rho": self.rho_certificate.to_json(),
            "morphisms": self.morphism_checks.to_json(),
            "product_preserved_on_cohomology": self.morphism_checks.passed,
            "certified": self.certified,
        }


def _quasi_iso_certificate(mats: dict, src: CohomologyPresentation,
                           tgt: CohomologyPresentation) -> QuasiIsoCertificate:
    dims_s, dims_t = src.dims(), tgt.dims()
    invertible = set(dims_s) == set(dims_t) and all(
        dims_s[k] == dims_t[k] for k in dims_s)
    if invertible:
        for k, n in dims_s.items():
            m = mats.get(k, Matrix(dims_t.get(k, 0), n))
            if m.rows != m.cols or m.rank() != m.rows:
                invertible = False
                break
    return QuasiIsoCertificate(dims_s, dims_t, mats, invertible)


def formality_zigzag(b: Bicomplex) -> FormalityZigzag:
    """Build and certify the formality zig-zag of a strong-lemma algebra.

    Raises PreconditionError naming the failing axiom when the input is not
    a strong-lemma algebra with derivation differentials; raises
    InternalCheckError if a certificate fails on certified input (that would
    contradict the formality theorem, so it is treated as a self-test).
    """
    verdict = is_ddbar_algebra(b)
    if not verdict.strong_lemma:
        raise PreconditionError("formality requires the strong lemma; "
                                f"witness: {verdict.witnesses}")
    deriv = b.derivations
    if not deriv.passed:
        raise PreconditionError(
            f"formality requires derivation differentials: {deriv.failures()[0].name}")

    alg = b.algebra
    space = alg.space
    d0, d1 = b.d0, b.d1

    # A1 = ker(d1) as a sub-structured-algebra
    ker_d1 = Subquotient(alg, {}, {k: d1.kernel(k).vectors() for k in space.degrees()}, "k")
    a1_space = ker_d1.space
    d0_blocks = ker_d1.blocks(
        d0, escape=lambda k: InternalCheckError("d0 does not preserve ker(d1)"))
    a1 = StructuredAlgebra._derived(
        a1_space, alg.kind,
        {b.d0_name: GradedMap(a1_space, a1_space, 1, d0_blocks)},
        ker_d1.structure(
            lambda k: InternalCheckError("ker(d1) is not closed under the product")))

    inclusion = GradedMap(a1_space, space, 0, {
        k: Matrix.from_columns(space.dim(k), basis) for k, basis in ker_d1.reps.items() if basis})

    h_d1 = cohomology(alg, b.d1_name)
    h_alg = h_d1.as_algebra(b.d0_name)

    projection = GradedMap(a1_space, h_d1.space, 0, {
        k: Matrix.from_columns(h_d1.dim(k), h_d1.project(k, basis))
        for k, basis in ker_d1.reps.items() if basis})

    checks = ValidationReport()
    for name, f, tgt in (("inclusion", inclusion, alg), ("projection", projection, h_alg)):
        witness = algebra_map_witness(a1, f, tgt)
        checks.add(f"{name} preserves product", witness is None, witness)
    for name, f, d_tgt in (("inclusion", inclusion, d0),
                           ("projection", projection, h_alg.differential(b.d0_name))):
        bad = chain_map_failure(f, a1.differential(b.d0_name), d_tgt)
        checks.add(f"{name} chain map", bad is None, None if bad is None else {"degree": bad})

    h_d0 = cohomology(alg, b.d0_name)
    h_d0_a1 = cohomology(a1, b.d0_name)
    h_h = cohomology(h_alg, b.d0_name)

    iota_mats = induced_map_on_cohomology(inclusion, h_d0_a1, h_d0)
    rho_mats = induced_map_on_cohomology(projection, h_d0_a1, h_h)
    iota_cert = _quasi_iso_certificate(iota_mats, h_d0_a1, h_d0)
    rho_cert = _quasi_iso_certificate(rho_mats, h_d0_a1, h_h)

    zigzag = FormalityZigzag(b, a1, h_alg, inclusion, projection,
                             h_d0, h_d0_a1, h_d1, iota_cert, rho_cert, checks)
    if not zigzag.certified:
        raise InternalCheckError(
            "formality certificate failed on strong-lemma input: "
            f"{zigzag.to_json()}")
    return zigzag


# ---------------------------------------------------------------------------
# derived constructions


def sum_twist(b: Bicomplex) -> Bicomplex:
    """(d0, d1) -> (d0 + d1, d1); the result is again a strong-lemma bicomplex.

    The twisted pair's strong lemma is asserted (it is a theorem for
    strong-lemma inputs, so failure raises InternalCheckError).
    """
    verdict = is_ddbar_algebra(b)
    if not (verdict.strong_lemma and verdict.is_ddbar_algebra):
        raise PreconditionError("sum_twist requires a strong-lemma algebra "
                                "with derivation differentials")
    total_name = f"{b.d0_name}_plus_{b.d1_name}"
    total = b.d0.add(b.d1)
    new_diffs = dict(b.algebra.differentials)
    new_diffs[total_name] = total
    twisted = Bicomplex(b.algebra.with_differentials(new_diffs),
                        total_name, b.d1_name)
    check = strong_lemma_check(twisted)
    if not check.strong_lemma:
        raise InternalCheckError("sum twist lost the strong lemma")
    return twisted


@dataclass
class HomotopyAbelianVerdict:
    formal: Optional[bool]
    induced_bracket_trivial: Optional[bool]
    homotopy_abelian: Optional[bool]
    note: str = ""

    def to_json(self):
        return {"formal": self.formal,
                "induced_bracket_trivial": self.induced_bracket_trivial,
                "homotopy_abelian": self.homotopy_abelian,
                "note": self.note}


def homotopy_abelian_verdict(l: StructuredAlgebra, d_name: str,
                             certificate: Optional[FormalityZigzag]) -> HomotopyAbelianVerdict:
    """Homotopy abelian = formal (certified) + trivial bracket on cohomology."""
    if l.kind != "lie":
        raise PreconditionError("homotopy_abelian_verdict expects a DGLA")
    if certificate is None:
        return HomotopyAbelianVerdict(None, None, None,
                                      "unknown: formality not established")
    h = cohomology(l, d_name)
    bracket_trivial = not h.induced_structure()
    formal = certificate.certified
    return HomotopyAbelianVerdict(formal, bracket_trivial,
                                  formal and bracket_trivial)

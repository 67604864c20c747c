import hashlib
import json
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgkit.ddbar import Bicomplex, formality_zigzag
from dgkit.deform import (
    DeformationContext,
    Series,
    connection_correspondence,
    curvature_has_weight_zero,
    evaluation_functors,
    exp_multiplication,
    exp_sum,
    first_order_dictionary,
    multiplication_series,
    qa_mc_split,
    quadraticity_probe,
    random_series,
    strong_mc_samples,
    tangent_and_obstruction,
)
from dgkit.errors import ModelError, PreconditionError
from dgkit.graded import GradedMap, GradedSpace, StructuredAlgebra, format_vector
from dgkit.linalg import Matrix, invert, linear_solve
from dgkit.models import (
    connection_from_bicomplex,
    dots_squares_model,
    end_tensor,
    nilpotent_torus_model,
    random_connection_model,
    torus_model,
)
from dgkit.qdolbeault import DEL_BAR, DEL_BAR_J, ConnectionModel, build_quaternionic_complex
from dgkit.scalars import ONE, ZERO, Scalar
from strategies import (
    dense,
    dg_algebras,
    graded_maps,
    random_algebras,
    sparse,
    sparse_vectors,
    vec,
    vscale,
    vsum,
)


def cone_dgla():
    """Zero differential, bracket [u1,u1] = 2w (the quadratic cone q = diag(1,0))."""
    space = GradedSpace({1: ["u1", "u2"], 2: ["w"]})
    zero = GradedMap.zero(space, space, 1)
    return StructuredAlgebra(space, "lie", {"d0": zero, "d1": zero},
                             StructuredAlgebra.structure_from_triples(
                                 [("u1", "u1", "w", Scalar(2))]))


def cone_algebra():
    """The associative cone u1 u1 = w, zero differentials: its graded
    commutator is the bracket of cone_dgla, [u1, u1] = 2 u1 u1 = 2w."""
    space = GradedSpace({1: ["u1", "u2"], 2: ["w"]})
    zero = GradedMap.zero(space, space, 1)
    return StructuredAlgebra(space, "associative", {"d0": zero, "d1": zero},
                             StructuredAlgebra.structure_from_triples([("u1", "u1", "w", ONE)]))


def cone_plus_square():
    """The cone bracket living next to a fully exact square: nontrivial
    differentials and a nonzero obstruction at the same time."""
    space = GradedSpace({0: ["a0"], 1: ["u1", "u2", "b", "c"], 2: ["w", "e"]})
    d0 = GradedMap.from_entries(space, space, 1,
                                [("a0", "b", ONE), ("c", "e", Scalar(-1))])
    d1 = GradedMap.from_entries(space, space, 1,
                                [("a0", "c", ONE), ("b", "e", ONE)])
    return StructuredAlgebra(space, "lie", {"d0": d0, "d1": d1},
                             StructuredAlgebra.structure_from_triples(
                                 [("u1", "u1", "w", Scalar(2))]))


def series_from(ctx, order, degree, *vectors):
    """The element of L ⊗ m with the given coefficients at t^1, t^2, ..."""
    coeffs = [{}] + [v if v is not None else {} for v in vectors]
    while len(coeffs) < order:
        coeffs.append({})
    return Series(degree, coeffs)


# -- references: the loops of the former two-type design ------------------------
# Vectors of L ⊗ m were stored at t^1..t^(N-1) and operators at t^0..t^(N-1),
# with one hand-written loop per product and per exponential.  These read the
# shared t^0 layout but keep those loops, as oracles for Series.times, exp_sum
# and the two exponentials built on it.


def ref_add(u, v):
    """The former Series.add and OpSeries.add."""
    add = GradedMap.add if isinstance(u.coeffs[0], GradedMap) else vsum
    return Series(u.degree, [add(a, b) for a, b in zip(u.coeffs, v.coeffs)])


def ref_scale(u, q):
    """The former Series.scale and OpSeries.scale."""
    c = Scalar(q)
    if isinstance(u.coeffs[0], GradedMap):
        return Series(u.degree, [m.scale(c) for m in u.coeffs])
    return Series(u.degree, [vscale(c, v) for v in u.coeffs])


def ref_bracket_series(alg, u, v):
    """The former bracket_series loop, over the coefficients at t^1..t^(N-1)."""
    degree = u.degree + v.degree
    n = len(u.coeffs) - 1
    out = [{} for _ in range(n)]
    for i, ci in enumerate(u.coeffs[1:], start=1):
        if not ci:
            continue
        for j, cj in enumerate(v.coeffs[1:], start=1):
            if i + j > n or not cj:
                continue
            out[i + j - 1] = vsum(out[i + j - 1],
                                  alg.bracket(u.degree, ci, v.degree, cj))
    return Series(degree, [{}] + out)


def ref_compose(a, b):
    """The former OpSeries.compose loop: a o b, truncated at t^N."""
    n = len(a.coeffs)
    shift = a.coeffs[0].shift + b.coeffs[0].shift
    out = [GradedMap.zero(b.coeffs[0].source, a.coeffs[0].target, shift)
           for _ in range(n)]
    for i, x in enumerate(a.coeffs):
        if x.is_zero():
            continue
        for j, y in enumerate(b.coeffs):
            if i + j >= n or y.is_zero():
                continue
            out[i + j] = out[i + j].add(x.compose(y))
    return Series(shift, out)


def ref_gauge_transform(ctx, a, x):
    """The former gauge_transform loop: x + sum ad_a^n/(n+1)! ([a,x] - da)."""
    da = Series(1, [ctx.d.apply(0, c) for c in a.coeffs])
    u = ref_add(ref_bracket_series(ctx.algebra, a, x), ref_scale(da, Fraction(-1)))
    result = x
    term = u
    n = 0
    factorial = 1
    while any(term.coeffs):
        factorial *= (n + 1)
        result = ref_add(result, ref_scale(term, Fraction(1, factorial)))
        term = ref_bracket_series(ctx.algebra, a, term)
        n += 1
        if n > len(x.coeffs) - 1:
            break
    return result


def exp_adjoint(ctx, a, x):
    """exp(ad_a)(x), the gauge action of a differential-free DGLA: the
    former DeformationContext.exp_adjoint loop."""
    result = x
    term = x
    n = 0
    factorial = 1
    while True:
        term = ref_bracket_series(ctx.algebra, a, term)
        n += 1
        factorial *= n
        if not any(term.coeffs) or n > len(x.coeffs) - 1:
            break
        result = ref_add(result, ref_scale(term, Fraction(1, factorial)))
    return result


def ref_exp_series(s):
    """The former exp_series loop: sum s^n / n! of a nilpotent operator series."""
    space = s.coeffs[0].source
    ident = Series(0, [GradedMap.identity(space)]
                   + [GradedMap.zero(space, space, 0)] * (len(s.coeffs) - 1))
    out = ident
    term = ident
    factorial = 1
    for n in range(1, len(s.coeffs)):
        term = ref_compose(term, s)
        factorial *= n
        if all(m.is_zero() for m in term.coeffs):
            break
        out = ref_add(out, ref_scale(term, Fraction(1, factorial)))
    return out


# -- mc_check -------------------------------------------------------------------


def test_zero_element_is_mc_both_modes():
    ctx = DeformationContext(cone_dgla(), "d0")
    x = Series.zero(1, 4)
    assert ctx.mc_check(x, "classical").passed
    assert ctx.mc_check(x, "strong").passed


def test_abelian_everything_is_mc():
    space = GradedSpace({1: ["p", "q"], 2: ["r"]})
    zero = GradedMap.zero(space, space, 1)
    abelian = StructuredAlgebra(space, "lie", {"d": zero}, {})
    ctx = DeformationContext(abelian, "d")
    rnd = random.Random(0)
    for _ in range(10):
        x = random_series(space, 1, 4, rnd)
        assert ctx.mc_check(x, "classical").passed
        assert ctx.mc_check(x, "strong").passed


def test_strong_failure_shows_quadratic_residual():
    # closed x1 with [x1, x1] != 0: residual is [x1,x1] t^2 / 2 classically
    dgla = cone_dgla()
    ctx = DeformationContext(dgla, "d0")
    _, u1 = dgla.space.basis_vector("u1")
    x = series_from(ctx, 3, 1, u1)
    rep = ctx.mc_check(x, "strong")
    assert not rep.passed and rep.strong is False
    classical = ctx.mc_check(x, "classical")
    assert not classical.passed
    table = classical.residual_table()
    assert list(table) == ["t^2"] and table["t^2"] == [["w", "1"]]


def test_coefficient_degree_rejected():
    ctx = DeformationContext(cone_dgla(), "d0")
    with pytest.raises(Exception):
        ctx.mc_check(Series.zero(0, 3))


# -- order-by-order verdicts against the all-orders formula ---------------------


def first_nonzero(*series):
    """The first power of t at which one of the series has a non-zero
    coefficient, or None."""
    return next((p for p, cs in enumerate(zip(*(u.coeffs for u in series)))
                 if any(cs)), None)


def ref_mc_check(ctx, x, mode):
    """The former mc_check, which built every order of d x and [x, x] before
    deciding: (passed, classical, strong, residual, first failing order)."""
    dx = Series(2, [ctx.d.apply(1, c) for c in x.coeffs])
    br = ref_bracket_series(ctx.algebra, x, x)
    residual = ref_add(dx, ref_scale(br, Fraction(1, 2)))
    classical = residual.is_zero()
    if mode == "classical":
        return classical, classical, None, residual, first_nonzero(residual)
    strong = dx.is_zero() and br.is_zero()
    return strong, classical, strong, residual, first_nonzero(dx, br)


def mc_elements(ctx, order):
    """Degree-1 elements of L ⊗ m: zero, seeded random ones, and ones built
    from basis vectors to pass, or to fail first at t^1 (d x_1 != 0), t^2 or
    t^3, where the DGLA has them.  The last one, where it exists, solves
    d x_2 = -1/2 [x_1, x_1] != 0: only the strong mode fails at t^2."""
    alg, d, space = ctx.algebra, ctx.d, ctx.algebra.space
    labels = space.labels(1)
    basis = [space.basis_vector(lab)[1] for lab in labels]
    closed = [v for v in basis if not d.apply(1, v)]
    sums = closed + [vsum(a, b) for a, b in combinations(closed, 2)]

    def sq(v):
        return alg.bracket(1, v, 1, v)

    rnd = random.Random(7)
    out = [Series.zero(1, order)]
    out += [random_series(space, 1, order, rnd, support) for support in (None, labels[:4])]
    candidates = [
        [series_from(ctx, order, 1, v, v, v) for v in closed if not sq(v)],
        [series_from(ctx, order, 1, v) for v in basis if d.apply(1, v)],
        [series_from(ctx, order, 1, v) for v in sums if sq(v)],
        [series_from(ctx, order, 1, a, b) for a in closed for b in closed
         if not sq(a) and alg.bracket(1, a, 1, b)],
        [series_from(ctx, order, 1, v, sol) for v in sums if sq(v)
         for sol in [linear_solve(d.block(1), vscale(Scalar(Fraction(-1, 2)), sq(v)))]
         if sol is not None],
    ]
    return out + [found[0] for found in candidates if found]


MC_DGLAS = {
    "cone": (cone_dgla, "d0"),
    "cone_plus_square": (cone_plus_square, "d0"),
    "torus_r2": (lambda: build_quaternionic_complex(torus_model(2)).algebra, "total"),
    "nilpotent_torus_r2": (lambda: build_quaternionic_complex(nilpotent_torus_model(2)).algebra,
                           "total"),
}

# (mode, first failing order) that the elements of each DGLA reach; None passes
MC_FIRST_FAILURES = {
    "cone": {(m, p) for m in ("classical", "strong") for p in (None, 2)},
    "cone_plus_square": {(m, p) for m in ("classical", "strong") for p in (None, 1, 2)},
    "torus_r2": {(m, p) for m in ("classical", "strong") for p in (None, 2, 3)},
    "nilpotent_torus_r2": {(m, p) for m in ("classical", "strong") for p in (None, 1, 2, 3)},
}


@pytest.mark.parametrize("name", sorted(MC_DGLAS))
def test_mc_verdicts_match_the_all_orders_formula(name):
    build, d_name = MC_DGLAS[name]
    ctx = DeformationContext(build(), d_name)
    space = ctx.algebra.space
    reached = set()
    for x in mc_elements(ctx, 5):
        for mode in ("classical", "strong"):
            passed, classical, strong, residual, fails_at = ref_mc_check(ctx, x, mode)
            rep = ctx.mc_check(x, mode)
            assert (rep.passed, rep.classical, rep.strong) == (passed, classical, strong)
            assert rep.residual == residual
            assert rep.residual_table() == {f"t^{p}": format_vector(space, 2, c)
                                            for p, c in enumerate(residual.coeffs)
                                            if c}
            reached.add((mode, fails_at))
    assert reached >= MC_FIRST_FAILURES[name]


def test_a_strong_failure_with_a_classical_solution_walks_on():
    """x_1 = a + b and d x_2 = -1/2 [x_1, x_1]: the strong verdict fails at
    t^2, where the classical residual still vanishes, so the walk goes on and
    finds the classical failure that d x_3 != 0 puts at t^3."""
    ctx = DeformationContext(MC_DGLAS["nilpotent_torus_r2"][0](), "total")
    x = mc_elements(ctx, 5)[-1]
    assert x.coeffs[2]
    rep = ctx.mc_check(x, "strong")
    assert (rep.passed, rep.classical, rep.strong) == (False, True, False)
    assert rep.residual_table() == {}
    c = next(v for v in mc_elements(ctx, 5) if ctx.d.apply(1, v.coeffs[1]))
    x.coeffs[3] = c.coeffs[1]
    rep = ctx.mc_check(x, "strong")
    assert (rep.passed, rep.classical, rep.strong) == (False, False, False)
    assert next(iter(rep.residual_table())) == "t^3"


def test_mc_check_stops_at_the_first_failing_order(monkeypatch):
    """The verdict reads [x, x] at t^2 only; the residual's later orders are
    built when the report's reader asks for them."""
    dgla = cone_dgla()
    ctx = DeformationContext(dgla, "d0")
    _, u1 = dgla.space.basis_vector("u1")
    x = series_from(ctx, 5, 1, u1, u1, u1, u1)
    calls = []
    mul = StructuredAlgebra.mul
    monkeypatch.setattr(StructuredAlgebra, "mul",
                        lambda self, *args: calls.append(args) or mul(self, *args))
    for mode in ("classical", "strong"):
        calls.clear()
        rep = ctx.mc_check(x, mode)
        assert not rep.passed and len(calls) == 1
        assert list(rep.residual_table()) == ["t^2", "t^3", "t^4"]
        # t^3 adds [x_1, x_2] and [x_2, x_1]; t^4 three more pairs
        assert len(calls) == 1 + 2 + 3


def test_probe_draws_fail_where_pinned_and_split_like_the_full_series():
    """The split samples of `deform torus_r2.model --order 5 --samples 10
    --seed k`, k = 0..19, are the first ten draws of random.Random(k).  The
    probe's report keeps only counts, so this pins the first failing order of
    (full, xi2, xi1, mixed) over those 200 samples, and checks each sample's
    four verdicts against the all-orders formulas."""
    q = build_quaternionic_complex(torus_model(2))
    full = DeformationContext(q.algebra, "total")
    dolb = q.model.dolbeault
    ctx_y = DeformationContext(dolb, DEL_BAR)
    ctx_x = DeformationContext(dolb, DEL_BAR_J)
    pi_x, pi_y = q.evaluations
    first = Counter()
    for seed in range(20):
        rnd = random.Random(seed)
        for _ in range(10):
            x = random_series(q.space, 1, 5, rnd)
            xi1, xi2 = x.apply(pi_x), x.apply(pi_y)
            mixed = ref_add(ref_add(xi2.apply(ctx_x.d), xi1.apply(ctx_y.d)),
                            ref_bracket_series(dolb, xi1, xi2))
            orders = (ref_mc_check(full, x, "classical")[4],
                      ref_mc_check(ctx_y, xi2, "classical")[4],
                      ref_mc_check(ctx_x, xi1, "classical")[4],
                      first_nonzero(mixed))
            rep = qa_mc_split(q, x)
            assert (rep.full, rep.xi2_mc, rep.xi1_mc, rep.mixed_zero) == \
                tuple(p is None for p in orders)
            first[orders] += 1
    assert first == {(2, 2, 2, 2): 195, (2, 3, 2, 2): 3, (2, 2, 3, 2): 2}


# -- gauge action ---------------------------------------------------------------


def test_gauge_identity_element():
    dgla = cone_plus_square()
    ctx = DeformationContext(dgla, "d0")
    rnd = random.Random(1)
    x = random_series(dgla.space, 1, 4, rnd)
    assert ctx.gauge_transform(Series.zero(0, 4), x) == x


def test_gauge_of_zero_with_zero_differential_is_zero():
    dgla = cone_dgla()
    ctx = DeformationContext(dgla, "d0")
    a = series_from(ctx, 4, 0)
    assert ctx.gauge_transform(a, Series.zero(1, 4)).is_zero()


def test_gauge_of_zero_series_expansion():
    # a * 0 = -(d a1) t - 1/2 [a1, d a1] t^2 + O(t^3)
    b = end_tensor(dots_squares_model({0: 1}, [0], seed=8), 2)
    alg = b.algebra
    ctx = DeformationContext(alg, "d0")
    space = alg.space
    _, one12 = space.basis_vector("one|E1_2")
    _, a021 = space.basis_vector("s0a|E2_1")
    a1 = vsum(one12, a021)
    a = series_from(ctx, 3, 0, a1)
    got = ctx.gauge_transform(a, Series.zero(1, 3))
    da1 = ctx.d.apply(0, a1)
    expected1 = vscale(Scalar(-1), da1)
    expected2 = vscale(Scalar(Fraction(-1, 2)), alg.bracket(0, a1, 1, da1))
    assert expected2  # the example is non-degenerate
    assert not got.coeffs[0]
    assert got.coeffs[1] == expected1
    assert got.coeffs[2] == expected2


def test_gauge_matches_exponential_adjoint_when_flat():
    dolb = torus_model(2).dolbeault
    ctx = DeformationContext(dolb, DEL_BAR)
    rnd = random.Random(5)
    corner = [l for l in dolb.space.labels(1) if l.endswith("|E1_2")]
    for x in strong_mc_samples(dolb, DEL_BAR, 4, 3, seed=2, support=corner):
        a = random_series(dolb.space, 0, 4, rnd)
        assert ctx.gauge_transform(a, x) == exp_adjoint(ctx, a, x)


def test_gauge_preserves_mc():
    dgla = cone_plus_square()
    ctx = DeformationContext(dgla, "d0")
    rnd = random.Random(3)
    _, u2 = dgla.space.basis_vector("u2")
    x = series_from(ctx, 4, 1, u2)  # [u2, u2] = 0, d0 u2 = 0: strong solution
    assert ctx.mc_check(x).passed
    for _ in range(10):
        a = random_series(dgla.space, 0, 4, rnd)
        x2 = ctx.gauge_transform(a, x)
        assert ctx.mc_check(x2).passed


# -- tangent and obstruction ------------------------------------------------------


def test_abelian_obstruction_vanishes():
    space = GradedSpace({1: ["p"], 2: ["r"]})
    zero = GradedMap.zero(space, space, 1)
    abelian = StructuredAlgebra(space, "lie", {"d": zero}, {})
    tan = tangent_and_obstruction(abelian, "d")
    assert tan.h1_dim == 1
    assert not tan.obstruction(vec(1))
    assert tan.cross_check.passed


def test_cone_obstruction_is_half_square():
    tan = tangent_and_obstruction(cone_dgla(), "d0")
    got = tan.obstruction(vec(1, 0))       # class u1: -1/2 [u1,u1] = -w
    assert got == vec(-1)
    assert not tan.obstruction(vec(0, 1))
    assert tan.cross_check.passed


def test_obstruction_transports_along_the_zigzag():
    dgla = cone_plus_square()
    b = Bicomplex(dgla, "d0", "d1")
    zig = formality_zigzag(b)
    tan = tangent_and_obstruction(dgla, "d0")
    h_alg = zig.h_algebra
    # transport H_{d0}(L) -> H_{d0}(ker d1) -> H_{d1}(L)
    t1 = zig.rho_certificate.matrices[1] * invert(zig.iota_certificate.matrices[1])
    t2 = zig.rho_certificate.matrices[2] * invert(zig.iota_certificate.matrices[2])
    for xi in [vec(1, 0), vec(0, 1), vec(1, 1)]:
        ob_l = tan.obstruction(xi)
        eta = t1.apply(xi)
        ob_h = vscale(Scalar(Fraction(-1, 2)), h_alg.mul(1, eta, 1, eta))
        assert t2.apply(ob_l) == ob_h


# -- quadraticity ------------------------------------------------------------------


def test_quadraticity_cone_model():
    dgla = cone_dgla()
    cert = formality_zigzag(Bicomplex(dgla, "d0", "d1"))
    samples = [vec(0, 1), vec(1, 0), vec(1, 1)]
    rep = quadraticity_probe(cert, samples, k_max=6)
    assert rep.passed
    flat = {tuple(s.to_json()["class"]): s for s in rep.samples}
    assert flat[("0", "1")].lifted_to == 6
    assert flat[("1", "0")].order3_unsolvable is True


# the samples of test_quadraticity_cone_model and of acceptance criterion 13
@pytest.mark.parametrize("samples", [
    [vec(0, 1), vec(1, 0), vec(1, 1)],
    [vec(0, 1), vec(0, 3), vec(1, 0), vec(1, 1), vec(2, -1)],
], ids=["cone_model", "criterion_13"])
def test_associative_formality_feeds_quadraticity(samples):
    """The formality zig-zag of the associative cone certifies the
    quadraticity of its commutator DGLA: the probe reads brackets through
    `bracket` and reports what it reports on the lie cone."""
    reports = [quadraticity_probe(formality_zigzag(Bicomplex(alg, "d0", "d1")), samples,
                                  k_max=6).to_json()
               for alg in (cone_algebra(), cone_dgla())]
    assert reports[0] == reports[1]
    assert reports[0]["passed"]


def test_quadraticity_with_nontrivial_differential():
    dgla = cone_plus_square()
    cert = formality_zigzag(Bicomplex(dgla, "d0", "d1"))
    h1 = cert.h_d1.dim(1)
    samples = []
    rnd = random.Random(4)
    for _ in range(6):
        samples.append(vec(*(rnd.randint(-2, 2) for _ in range(h1))))
    rep = quadraticity_probe(cert, samples, k_max=5)
    assert rep.passed


def test_quadraticity_requires_certificate():
    with pytest.raises(PreconditionError):
        quadraticity_probe(None, [], 4)


# -- quaternionic splits -----------------------------------------------------------


def test_split_zero_element():
    q = build_quaternionic_complex(torus_model(1))
    elt = Series.zero(1, 3)
    rep = qa_mc_split(q, elt)
    assert rep.full and rep.xi1_mc and rep.xi2_mc and rep.mixed_zero


def test_split_equivalence_random_draws():
    b = end_tensor(dots_squares_model({0: 1, 1: 1}, [0], seed=3), 2)
    mq = connection_from_bicomplex(b)
    q = build_quaternionic_complex(mq)
    rnd = random.Random(7)
    for _ in range(20):
        elt = random_series(q.space, 1, 3, rnd)
        rep = qa_mc_split(q, elt)
        assert rep.equivalent


def test_split_walks_every_order_of_the_series():
    """x = t^2 (x xi1 + y xi2) with xi1 = dzb1|E1_2 and xi2 = dzb2|E2_1 over
    F[t]/(t^5): each side is Maurer-Cartan, and the mixed bracket [xi1, xi2]
    first appears at t^4, so every check must walk all five orders."""
    q = build_quaternionic_complex(torus_model(2))
    t2 = vsum(q.space.basis_vector("x1y0:dzb1|E1_2")[1],
              q.space.basis_vector("x0y1:dzb2|E2_1")[1])
    x = Series.zero(1, 5)
    x.coeffs[2] = t2
    rep = qa_mc_split(q, x)
    assert (rep.full, rep.xi1_mc, rep.xi2_mc, rep.mixed_zero, rep.equivalent) == \
        (False, True, True, False, True)


def test_split_rejects_wrong_support():
    q = build_quaternionic_complex(torus_model(1))
    bad = Series(2, [{}] + [{0: ONE}] * 2)
    with pytest.raises(Exception):
        qa_mc_split(q, bad)


def test_split_and_evaluations_refuse_the_extended_complex():
    m = torus_model(1)
    q = build_quaternionic_complex(m, window=2)
    elt = Series.zero(1, 3)
    for probe in (lambda: qa_mc_split(q, elt),
                  lambda: evaluation_functors(q, elt),
                  lambda: connection_correspondence(m, q, elt)):
        with pytest.raises(PreconditionError, match="standard complex"):
            probe()


# -- the evaluation maps against the label walks they replaced -----------------------


def ref_cell(label):
    """(p, q, D-label) parsed from the written cell label x{p}y{q}:{D-label}."""
    head, dlabel = label.split(":", 1)
    xpart, ypart = head[1:].split("y")
    return int(xpart), int(ypart), dlabel


def ref_split(q, element):
    """The label walk that split a qA^1 series into (xi1, xi2)."""
    d_space = q.model.dolbeault.space
    n1 = d_space.dim(1)
    labels = q.space.labels(1)
    xi1, xi2 = [], []
    for coeff in element.coeffs:
        v1 = [ZERO] * n1
        v2 = [ZERO] * n1
        for idx, c in coeff.items():
            p, qq, dlabel = ref_cell(labels[idx])
            pos = d_space.label_loc[dlabel][1]
            if (p, qq) == (1, 0):
                v1[pos] = v1[pos] + c
            elif (p, qq) == (0, 1):
                v2[pos] = v2[pos] + c
            else:
                raise ModelError("element not supported in bidegrees (1,0)+(0,1)")
        xi1.append(sparse(v1))
        xi2.append(sparse(v2))
    return Series(1, xi1), Series(1, xi2)


def ref_join(q, xi1, xi2):
    """The label walk that joined (xi1, xi2) into x xi1 + y xi2."""
    d_space = q.model.dolbeault.space
    labels = q.space.labels(1)
    coeffs = []
    for c1, c2 in zip(xi1.coeffs, xi2.coeffs):
        v = [ZERO] * q.space.dim(1)
        for idx, lab in enumerate(labels):
            p, qq, dlabel = ref_cell(lab)
            pos = d_space.label_loc[dlabel][1]
            if (p, qq) == (1, 0):
                v[idx] = c1.get(pos, ZERO)
            elif (p, qq) == (0, 1):
                v[idx] = c2.get(pos, ZERO)
        coeffs.append(sparse(v))
    return Series(1, coeffs)


def split(q, element):
    pi_x, pi_y = q.evaluations
    return element.apply(pi_x), element.apply(pi_y)


def join(q, xi1, xi2):
    x_section, y_section = q.sections
    return xi1.apply(x_section).add(xi2.apply(y_section))


SPLIT_JOIN_MODELS = [
    lambda: torus_model(1), lambda: torus_model(2), lambda: nilpotent_torus_model(2),
    lambda: connection_from_bicomplex(
        end_tensor(dots_squares_model({0: 1, 1: 1}, [0], seed=3), 2))]


@pytest.mark.parametrize("index", range(4))
def test_split_and_join_match_the_label_walks(index):
    m = SPLIT_JOIN_MODELS[index]()
    q = build_quaternionic_complex(m)
    rnd = random.Random(40 + index)
    d_space = m.dolbeault.space
    for _ in range(6):
        elt = random_series(q.space, 1, 4, rnd)
        xi1, xi2 = split(q, elt)
        assert (xi1, xi2) == ref_split(q, elt)
        assert join(q, xi1, xi2) == ref_join(q, xi1, xi2) == elt
        b1 = random_series(d_space, 1, 4, rnd)
        b2 = random_series(d_space, 1, 4, rnd)
        assert join(q, b1, b2) == ref_join(q, b1, b2)
        assert split(q, join(q, b1, b2)) == (b1, b2)


@pytest.mark.parametrize("index", range(4))
def test_evaluations_and_sections_match_the_cell_labels(index):
    m = SPLIT_JOIN_MODELS[index]()
    q = build_quaternionic_complex(m)
    d_space = m.dolbeault.space
    pi_x, pi_y = q.evaluations
    x_section, y_section = q.sections
    x_axis = [(lab, ref_cell(lab)[2], ONE) for lab in q.space.all_labels()
              if ref_cell(lab)[1] == 0]
    y_axis = [(lab, ref_cell(lab)[2], ONE) for lab in q.space.all_labels()
              if ref_cell(lab)[0] == 0]
    assert pi_x == GradedMap.from_entries(q.space, d_space, 0, x_axis)
    assert pi_y == GradedMap.from_entries(q.space, d_space, 0, y_axis)
    identity = GradedMap.identity(d_space)
    assert pi_x.compose(x_section) == identity == pi_y.compose(y_section)
    # x^0 = y^0: a section survives the other evaluation in degree 0 only
    degree_zero = GradedMap(d_space, d_space, 0, {0: identity.block(0)})
    assert pi_x.compose(y_section) == degree_zero == pi_y.compose(x_section)


def test_cell_table_matches_the_written_labels():
    m = torus_model(1)
    for q in (build_quaternionic_complex(m),
              build_quaternionic_complex(m, window=2)):
        assert all(q.cell_of_label(lab) == ref_cell(lab) for lab in q.space.all_labels())
    # the window (-2, 2) reaches negative powers
    assert q.cell_of_label(q.space.labels(0)[0])[:2] == (-2, 2)


# sha256 of the (xi1, xi2) splits of four seeded random_series(q.space, 1, ...)
# elements and of the y-lifts y b of three corner strong samples b, at order 4,
# recorded with the label walks before the evaluation maps replaced them
SPLIT_AND_LIFT_SHA256 = {
    "torus": ("67baac755aa82068f17196a1b3e3aba91d09302d5089e93e196a13f51dac0fbc",
              "f33fd806672440e055cacab07b8d4671d589b70a4a51b8f7885f7016e65fc8c7"),
    "nilpotent": ("5a1a47465fb165c37474e25b479085a4db8c997c4c2d9f9253c94c9a5195150b",
                  "14fca589c81c591fd6495bf86ecec9244af1fe4e9f5553cb698e2722e192f18c"),
}


@pytest.mark.parametrize("name, build, seeds", [
    ("torus", torus_model, (11, 12)), ("nilpotent", nilpotent_torus_model, (13, 14))])
def test_splits_and_y_lifts_are_pinned(name, build, seeds):
    m = build(2)
    q = build_quaternionic_complex(m)
    rnd = random.Random(seeds[0])
    splits = []
    for _ in range(4):
        splits += split(q, random_series(q.space, 1, 4, rnd))
    corner = [l for l in m.dolbeault.space.labels(1) if l.endswith("|E1_2")]
    lifts = strong_mc_samples(m.dolbeault, DEL_BAR, 4, 3, seed=seeds[1], support=corner)
    ys = [b.apply(q.sections[1]) for b in lifts]

    def digest(series, n):
        text = repr([[tuple(str(c) for c in dense(v, n)) for v in s.coeffs] for s in series])
        return hashlib.sha256(text.encode()).hexdigest()

    assert (digest(splits, m.dolbeault.space.dim(1)), digest(ys, q.space.dim(1))) == \
        SPLIT_AND_LIFT_SHA256[name]


# -- evaluations and lifts ---------------------------------------------------------


def test_evaluation_zero_element_and_tangent_dims():
    m = torus_model(1)
    q = build_quaternionic_complex(m)
    elt = Series.zero(1, 3)
    rep = evaluation_functors(q, elt, certified=True)
    assert rep.pi_x_mc and rep.pi_y_mc
    assert rep.tangent_dim_q == 4 and rep.tangent_dim_base == 2
    assert rep.tangent_doubles and rep.tangent_bijection


def test_y_lift_of_kernel_mc_elements():
    m = torus_model(2)
    q = build_quaternionic_complex(m)
    corner = [l for l in m.dolbeault.space.labels(1) if l.endswith("|E1_2")]
    lifts = strong_mc_samples(m.dolbeault, DEL_BAR, 3, 4, seed=9, support=corner)
    elt = Series.zero(1, 3)
    rep = evaluation_functors(q, elt, lifts=lifts, certified=True)
    assert all(rep.lift_checks)
    # pi_y returns b, pi_x returns 0 on a pure y-lift
    y_elt = lifts[0].apply(q.sections[1])
    xi1, xi2 = split(q, y_elt)
    assert xi1.is_zero() and xi2 == lifts[0]


def test_y_lift_of_a_non_strong_kernel_element():
    """On the twisted torus, b = t b1 + t^2 b2 with [b1, b1] != 0 is MC for
    del_bar and killed by del_bar_J: its y-lift y b is MC in the total
    complex, while x b is not (it would need del_bar b = 0)."""
    m = nilpotent_torus_model(2)
    q = build_quaternionic_complex(m)
    dolb = m.dolbeault
    kernel_j = m.del_bar_j.kernel(1).vectors()
    system = Matrix.from_columns(dolb.space.dim(2), [m.del_bar.apply(1, v) for v in kernel_j])
    joint = m.del_bar.kernel(1).intersect(m.del_bar_j.kernel(1)).vectors()
    for u, v in combinations(joint, 2):
        b1 = vsum(u, v)
        rhs = vscale(Scalar(Fraction(-1, 2)), dolb.bracket(1, b1, 1, b1))
        sol = linear_solve(system, rhs)
        if rhs and sol is not None:
            break
    b2 = Matrix.from_columns(dolb.space.dim(1), kernel_j).apply(sol)
    b = Series(1, [{}, b1, b2])
    zero = Series.zero(1, 3)
    assert evaluation_functors(q, zero, lifts=[b]).lift_checks == [True]
    full = DeformationContext(q.algebra, "total")
    x_section, y_section = q.sections
    assert full.mc_check(b.apply(y_section)).passed
    assert not full.mc_check(b.apply(x_section)).passed


def test_evaluation_rejects_non_mc():
    b = end_tensor(dots_squares_model({0: 1, 1: 1}, [0], seed=3), 2)
    mq = connection_from_bicomplex(b)
    q = build_quaternionic_complex(mq)
    rnd = random.Random(13)
    for _ in range(20):
        elt = random_series(q.space, 1, 3, rnd)
        full = DeformationContext(q.algebra, "total")
        if not full.mc_check(elt).passed:
            with pytest.raises(PreconditionError):
                evaluation_functors(q, elt)
            break
    else:
        pytest.skip("all random draws were MC (unexpected)")


def test_tangent_bijection_on_certified_end_model():
    b = end_tensor(dots_squares_model({0: 1, 1: 1, 2: 1}, [0], seed=5), 2)
    mq = connection_from_bicomplex(b)
    q = build_quaternionic_complex(mq)
    elt = Series.zero(1, 2)
    rep = evaluation_functors(q, elt, certified=True)
    assert rep.tangent_doubles and rep.tangent_bijection


# -- connection correspondence ------------------------------------------------------


def test_correspondence_zero_element():
    m = torus_model(2)
    q = build_quaternionic_complex(m)
    elt = Series.zero(1, 3)
    rep = connection_correspondence(m, q, elt)
    assert rep.relations_over_b.passed and rep.reduces_to_base
    assert rep.curvature_oracle is True and rep.oracle_agrees


def test_correspondence_y_lift_is_autodual_over_b():
    m = torus_model(2)
    q = build_quaternionic_complex(m)
    corner = [l for l in m.dolbeault.space.labels(1) if l.endswith("|E1_2")]
    b_elt = strong_mc_samples(m.dolbeault, DEL_BAR, 3, 1, seed=21, support=corner)[0]
    y_elt = b_elt.apply(q.sections[1])
    rep = connection_correspondence(m, q, y_elt)
    assert rep.relations_over_b.passed


def test_correspondence_gauge_conjugation():
    m = torus_model(2)
    q = build_quaternionic_complex(m)
    corner = [l for l in m.dolbeault.space.labels(1) if l.endswith("|E1_2")]
    xi1, xi2 = strong_mc_samples(m.dolbeault, DEL_BAR, 3, 2, seed=22, support=corner)
    elt = join(q, xi1, xi2)
    rnd = random.Random(23)
    gauge = random_series(m.dolbeault.space, 0, 3, rnd)
    rep = connection_correspondence(m, q, elt, gauge=gauge)
    assert rep.gauge_conjugation is True
    assert rep.oracle_agrees


def full_model_theta(full, order, *labels):
    """The degree-1 series whose t^1 coefficient is the sum of the labels."""
    space = full.space
    t1 = {}
    for lab in labels:
        t1 = vsum(t1, space.basis_vector(lab)[1])
    return Series(1, [{}, t1] + [{}] * (order - 2))


def test_curvature_oracle_reads_false_off_weight_zero():
    # theta ^ theta = dz1 dz2 (E1_1 - E2_2) at t^2, of h-weight -2
    full = torus_model(2).full_model
    theta = full_model_theta(full, 3, "dz1|E1_2", "dz2|E2_1")
    square = full.mul(1, theta.coeffs[1], 1, theta.coeffs[1])
    assert square
    assert full.maps["h"].apply(2, square)
    assert full.maps["e"].apply(2, square)
    assert curvature_has_weight_zero(full, theta) is False


def test_curvature_oracle_reads_true_on_a_square_zero_theta():
    full = torus_model(2).full_model
    theta = full_model_theta(full, 3, "dz1|E1_1")
    assert curvature_has_weight_zero(full, theta) is True


def test_first_order_dictionary_on_certified_models():
    assert first_order_dictionary(torus_model(1)).bijection
    b = end_tensor(dots_squares_model({0: 1, 1: 1}, [0], seed=6), 2)
    assert first_order_dictionary(connection_from_bicomplex(b)).bijection


def test_correspondence_requires_j_data():
    b = end_tensor(dots_squares_model({0: 1, 1: 1}, [0], seed=3), 2)
    m = connection_from_bicomplex(b)
    q = build_quaternionic_complex(m)
    elt = Series.zero(1, 3)
    with pytest.raises(ModelError):
        connection_correspondence(m, q, elt)


def test_constant_terms_are_refused():
    # MC and gauge elements live in L ⊗ m; a gauge element with a t^0 term
    # would make the gauge series infinite
    ctx = DeformationContext(cone_plus_square(), "d0")
    _, u2 = ctx.algebra.space.basis_vector("u2")
    _, a0 = ctx.algebra.space.basis_vector("a0")
    x0, a = Series.zero(1, 3), Series.zero(0, 3)
    with pytest.raises(ModelError):
        ctx.mc_check(Series(1, [u2] + x0.coeffs[1:]))
    with pytest.raises(ModelError):
        ctx.gauge_transform(Series(0, [a0] + a.coeffs[1:]), x0)


def test_series_of_different_orders_are_refused():
    """The series fixes its ring: a sum, product or gauge action of series of
    orders 5 and 3 is refused, not truncated to order 3."""
    dgla = cone_plus_square()
    ctx = DeformationContext(dgla, "d0")
    rnd = random.Random(11)
    x5, x3 = (random_series(dgla.space, 1, order, rnd) for order in (5, 3))
    a3 = random_series(dgla.space, 0, 3, rnd)
    for refused in (lambda: x5.add(x3), lambda: x3.add(x5),
                    lambda: x5.times(x3, lambda u, v: dgla.mul(1, u, 1, v), {}),
                    lambda: ctx.bracket_series(a3, x5),
                    lambda: ctx.gauge_transform(a3, x5)):
        with pytest.raises(ModelError, match="series orders differ"):
            refused()


def test_zero_series_needs_order_two():
    with pytest.raises(ModelError, match="order >= 2"):
        Series.zero(1, 1)


# -- one series type: Series.times and exp_sum against the former loops -----------

series_oracle = settings(max_examples=60, deadline=None)


def m_series(draw, space, degree, order):
    """A random element of L^degree ⊗ m over F[t]/(t^order)."""
    n = space.dim(degree)
    return Series(degree, [{}] + [draw(sparse_vectors(n)) for _ in range(order - 1)])


# the loops compared here need no Lie axioms, so the brackets are random:
# random lie structures, or the graded commutators of random products
EITHER_KIND = st.sampled_from(("associative", "lie")).flatmap(dg_algebras)


@series_oracle
@given(EITHER_KIND, st.integers(2, 5), st.data())
def test_bracket_series_matches_the_former_loop(alg, order, data):
    ctx = DeformationContext(alg, "d")
    k1, k2 = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    u = m_series(data.draw, alg.space, k1, order)
    v = m_series(data.draw, alg.space, k2, order)
    assert ctx.bracket_series(u, v) == ref_bracket_series(alg, u, v)


@series_oracle
@given(random_algebras(), st.integers(2, 5), st.data())
def test_composition_matches_the_former_loop(alg, order, data):
    space = alg.space
    s1, s2 = data.draw(st.integers(0, 1)), data.draw(st.integers(0, 1))
    a = Series(s1, [data.draw(graded_maps(space, space, s1)) for _ in range(order)])
    b = Series(s2, [data.draw(graded_maps(space, space, s2)) for _ in range(order)])
    got = a.times(b, GradedMap.compose, GradedMap.zero(space, space, s1 + s2))
    assert got == ref_compose(a, b)


@series_oracle
@given(EITHER_KIND, st.integers(2, 5), st.data())
def test_exponentials_match_the_former_loops(alg, order, data):
    ctx = DeformationContext(alg, "d")
    a = m_series(data.draw, alg.space, 0, order)
    x = m_series(data.draw, alg.space, 1, order)
    assert ctx.gauge_transform(a, x) == ref_gauge_transform(ctx, a, x)
    assert exp_sum(x, lambda term: ctx.bracket_series(a, term), 0) == exp_adjoint(ctx, a, x)


# L_s o L_u = L_(su) needs an associative algebra, so the exponential of a
# multiplication operator is checked on the Dolbeault algebras of the
# generated models, not on the strategies' random_algebras, which are not
# associative
DOLBEAULT_MODELS = {
    "torus_r1": lambda: torus_model(1),
    "torus_r2": lambda: torus_model(2),
    "nilpotent_torus_r2": lambda: nilpotent_torus_model(2),
    **{f"random_connection_seed{seed}": (lambda seed=seed: random_connection_model(seed)[0])
       for seed in (0, 4, 9)},
}


@pytest.mark.parametrize("name", list(DOLBEAULT_MODELS))
def test_exp_multiplication_matches_the_operator_series_loop(name):
    """id + L_(e^s - 1), summed in D, is the sum of the composed powers of
    the operator series L_s."""
    dolb = DOLBEAULT_MODELS[name]().dolbeault
    assert dolb._associativity_failure is None
    rnd = random.Random(61)
    for order in range(2, 6):
        for _ in range(3):
            s = random_series(dolb.space, 0, order, rnd)
            assert exp_multiplication(dolb, s) == ref_exp_series(multiplication_series(dolb, s))


def test_exp_multiplication_refuses_a_t0_term_and_a_nonzero_degree():
    """A t^0 term would make e^s - 1 an infinite sum: with the unit of D as
    s, every power s^n is the unit."""
    dolb = torus_model(1).dolbeault
    _, unit = dolb.space.basis_vector(dolb.space.labels(0)[0])
    assert dolb.mul(0, unit, 0, unit) == unit
    s = random_series(dolb.space, 0, 3, random.Random(62))
    for refused in (Series(0, [unit] + s.coeffs[1:]),
                    random_series(dolb.space, 1, 3, random.Random(63))):
        with pytest.raises(ModelError, match="degree-0 series with zero t\\^0 coefficient"):
            exp_multiplication(dolb, refused)


@pytest.mark.parametrize("name", list(DOLBEAULT_MODELS))
def test_total_degree_zero_is_dolbeault_degree_zero(name):
    """connection_correspondence gauges the total complex by a series of D^0:
    degree 0 of the total complex is x^0 y^0 ⊗ D^0, label for label in D's
    order, so a D^0 vector is a total degree-0 vector as it stands."""
    m = DOLBEAULT_MODELS[name]()
    q = build_quaternionic_complex(m)
    assert q.space.labels(0) == ["x0y0:" + lab for lab in m.dolbeault.space.labels(0)]


# -- pinned deform reports ----------------------------------------------------------

# sha256 of the `--format json` reports, run in the directory of the model files;
# recorded before the vector and operator series types were merged, and the
# twisted torus ones (where d != 0, so the gauge element is non-trivial)
# before the gauge exponential was summed in the algebra
DEFORM_REPORT_SHA256 = {
    ("torus_r2.model", "--order", "5", "--samples", "10", "--seed", "0"):
        "c8637ea211195614626c3a2935059c34c54ac1b3b8517128c25f6243311344c7",
    ("torus_r2.model", "--order", "5", "--samples", "10", "--seed", "1"):
        "1b36ff38d9cc93ce9501a3803646c831db8cc622648f47a8064e14fa6ec6fe16",
    ("ds.model",): "5d4f971564afff7b8fbe50b23d0f31b7516cf110ffb053637eb1755f127d8620",
    ("twisted_r2.model", "--order", "4", "--samples", "4", "--seed", "0"):
        "5f9864f1de37cee0015e93a07e1065e537756cd12d5498754d22d3f553338260",
    ("twisted_r2.model", "--order", "4", "--samples", "4", "--seed", "1"):
        "d2e8f49111f4de2b0cf0089f71ca877d30bced7365a114890cd2c906bb366511",
    ("twisted_r2.model", "--order", "4", "--samples", "4", "--seed", "2"):
        "1ad10d637d59b9191e5d066ff420a2fce9503513f9b6713baeeec27f0efee4e4",
}


@pytest.fixture(scope="module")
def deform_models(cli_run):
    """cli_run in a directory holding the rank-2 torus, its nilpotent twist
    and a dots-squares model."""
    assert cli_run("generate", "torus", "--rank", "2", "-o", "torus_r2.model")[0] == 0
    assert cli_run("generate", "torus", "--rank", "2", "--nilpotent-twist",
                   "-o", "twisted_r2.model")[0] == 0
    assert cli_run("generate", "dots-squares", "--dots", "0:1,1:2,2:1", "--squares", "0",
                   "--end-rank", "2", "--seed", "5", "-o", "ds.model")[0] == 0
    return cli_run


@pytest.mark.parametrize("argv", list(DEFORM_REPORT_SHA256),
                         ids=["torus_r2-seed0", "torus_r2-seed1", "dots_squares",
                              "twisted_r2-seed0", "twisted_r2-seed1", "twisted_r2-seed2"])
def test_deform_reports_are_pinned(deform_models, argv):
    code, out = deform_models("--format", "json", "deform", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DEFORM_REPORT_SHA256[argv]


def test_first_order_dictionary_is_not_asserted_without_the_strong_lemma(deform_models):
    """On the twisted torus the strong lemma fails for (del_bar_J, del_bar),
    so the dictionary is reported, not asserted: H^1 has 8 dimensions and the
    first-order quotient 6."""
    assert deform_models("generate", "torus", "--rank", "2", "--nilpotent-twist",
                         "-o", "twisted_r2.model")[0] == 0
    code, out = deform_models("--format", "json", "deform", "twisted_r2.model",
                              "--samples", "3")
    report = json.loads(out)
    assert code == 0 and report["passed"] is True
    assert report["report"]["first_order_dictionary"] == {
        "bijection": False, "gauge_directions_dim": 0, "h1_del_bar_J_dim": 8,
        "quotient_dim": 6, "strong_first_order_dim": 6}
    code, out = deform_models("--format", "json", "spectral", "twisted_r2.model")
    assert json.loads(out)["report"]["strong_lemma_certified"] is False


@pytest.mark.parametrize("seed", ["0", "1"])
def test_a_non_associative_dolbeault_algebra_is_bad_input(deform_models, seed):
    """exp(L_s) = id + L_(e^s - 1) needs D associative: the twisted torus
    with one product constant of D^0 doubled is refused before any probe
    runs, naming a non-associative triple as a model error.  Without that
    check, seed 0 reported gauge_conjugation_identity false and seed 1 hit
    the failed g o g^-1 = id check."""
    workdir = deform_models.workdir
    text = (workdir / "twisted_r2.model").read_text()
    line = "1|E1_2 1|E2_1 -> 1|E1_1 : 1\n"
    assert text.count(line) == 1
    (workdir / "twisted_bad.model").write_text(text.replace(line, line.replace(": 1", ": 2")))
    code, out = deform_models("--format", "json", "deform", "twisted_bad.model",
                              "--order", "4", "--samples", "4", "--seed", seed)
    assert code == 1
    assert json.loads(out)["report"] == {
        "error": "D is not associative at ('1|E1_2', '1|E2_1', '1|E1_2')"}


# a degree-0 bracket with [a, b] = c and [b, c] = a, skew and a Lie algebra;
# BAD_LIE_BRACKET adds [a, c] = a, which keeps it skew but breaks Jacobi
LIE_MODEL = """kind lie

degrees
0 : a b c

map d shift 1

structure
a b -> c : 1
b a -> c : -1
b c -> a : 1
c b -> a : -1
"""
BAD_LIE_BRACKET = "a c -> a : 1\nc a -> a : -1\n"

# (model file, the checks `validate` fails, the error `deform` reports)
AXIOM_FAILURES = {
    "leibniz": ("ds_plain.model", "w0_0 s0a -> s0a : 1\n",
                {"Leibniz(d0)", "Leibniz(d1)", "associativity"},
                "model is not a DG algebra: Leibniz(d0)"),
    "associativity": ("ds_plain.model", "w0_0 w0_0 -> w0_0 : 1\nw0_0 s0a -> w0_0 : 1\n",
                      {"associativity"},
                      "model is not a DG algebra: associativity"),
    "jacobi": ("lie.model", BAD_LIE_BRACKET, {"Jacobi"}, "model is not a DGLA: Jacobi"),
}


@pytest.mark.parametrize("name", list(AXIOM_FAILURES))
def test_deform_refuses_an_algebra_that_fails_its_axioms(deform_models, name):
    """The tangent/obstruction probe needs a DG algebra (or a DGLA): a file
    that `validate` fails is bad input, exit 1, not a passed probe.  Before
    this check, all three files reported passed and exit 0."""
    workdir = deform_models.workdir
    assert deform_models("generate", "dots-squares", "--dots", "0:1,1:2,2:1",
                         "--squares", "0", "-o", "ds_plain.model")[0] == 0
    (workdir / "lie.model").write_text(LIE_MODEL)
    base, extra, failing, error = AXIOM_FAILURES[name]
    # the file without the extra constants is valid and is probed
    assert deform_models("--format", "json", "validate", base)[0] == 0
    code, out = deform_models("--format", "json", "deform", base)
    assert code == 0 and "tangent_obstruction" in json.loads(out)["report"]
    bad = f"bad_{name}.model"
    (workdir / bad).write_text((workdir / base).read_text() + extra)
    code, out = deform_models("--format", "json", "validate", bad)
    assert code == 1
    assert {check["name"] for rep in json.loads(out)["report"].values()
            for check in rep["checks"] if not check["passed"]} == failing
    code, out = deform_models("--format", "json", "deform", bad)
    assert code == 1
    assert json.loads(out)["report"] == {"error": error}


# a connection file whose Dolbeault part D is a Lie algebra: [x, y] = y
LIE_CONNECTION_MODEL = """kind lie

degrees
0 : x y
1 : a

map del_bar shift 1

map del_bar_J shift 1

structure
x y -> y : 1
y x -> y : -1
"""
# sha256 of its `--format json` spectral and qdolbeault reports, which read
# no product, recorded before deform refused the kind
LIE_CONNECTION_SHA256 = {
    "spectral": "f293609aff6ef4578485e7f44f57cf2d2dd587c8855a1bf7137c918566471f59",
    "qdolbeault": "a025330f4f8a1f021a75bd4d3988b7592e9443b0327d098bf6c7c23c3664c2a2",
}


def test_deform_refuses_a_lie_kind_dolbeault_algebra(deform_models):
    """The gauge exponential needs D to be a product: a lie-kind D is refused
    by its kind, where it used to be read as a product and blamed for a
    failed associativity triple ('x', 'x', 'y')."""
    (deform_models.workdir / "lie_conn.model").write_text(LIE_CONNECTION_MODEL)
    code, out = deform_models("--format", "json", "deform", "lie_conn.model")
    assert code == 1
    assert json.loads(out)["report"] == {
        "error": "D must be an associative algebra, not of kind 'lie'"}
    for command, digest in LIE_CONNECTION_SHA256.items():
        code, out = deform_models("--format", "json", command, "lie_conn.model")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_first_order_dictionary_failure_on_a_certified_pair_is_internal(
        deform_models, monkeypatch, capsys):
    import dgkit.cli as cli

    def certified_calls(model):
        calls.append(model)
        return real(model)

    calls = []
    real = ConnectionModel.strong_lemma_certified
    monkeypatch.setattr(ConnectionModel, "strong_lemma_certified", certified_calls)
    path = str(deform_models.workdir / "torus_r2.model")
    # a bijection needs no strong-lemma check
    assert cli.main(["deform", path, "--samples", "2"]) == 0
    assert calls == []
    capsys.readouterr()
    monkeypatch.setattr(cli, "first_order_dictionary",
                        lambda m: replace(first_order_dictionary(m), bijection=False))
    assert cli.main(["--format", "json", "deform", path, "--samples", "2"]) == 1
    report = json.loads(capsys.readouterr().out)["report"]
    assert len(calls) == 1
    assert report["internal_error"] == (
        "first-order dictionary is not a bijection on a certified model")


# sha256 of the t^1..t^3 coefficients of seeded samples at order 4, recorded
# before the two series types were merged: the draws keep their order
SEEDED_SAMPLES_SHA256 = "f0546c9ca236ca95bd23422716ac4a8127f95e2d4f8d17b63153817fdd4b3fd4"


def test_seeded_samples_are_pinned():
    m = torus_model(2)
    dolb = m.dolbeault
    corner = [l for l in dolb.space.labels(1) if l.endswith("|E1_2")]
    cone = cone_plus_square()
    xs = strong_mc_samples(dolb, DEL_BAR, 4, 5, seed=3, support=corner)
    xs += strong_mc_samples(cone, "d0", 4, 4, seed=4)
    rnd = random.Random(7)
    q = build_quaternionic_complex(m)
    xs += [random_series(q.space, 1, 4, rnd) for _ in range(3)]
    xs += [random_series(m.dolbeault.space, 0, 4, rnd)]
    assert not any(x.coeffs[0] for x in xs)
    dims = [dolb.space.dim(1)] * 5 + [cone.space.dim(1)] * 4 + [q.space.dim(1)] * 3 \
        + [m.dolbeault.space.dim(0)]
    text = repr([[tuple(str(c) for c in dense(v, n)) for v in x.coeffs[1:]]
                 for x, n in zip(xs, dims)])
    assert hashlib.sha256(text.encode()).hexdigest() == SEEDED_SAMPLES_SHA256

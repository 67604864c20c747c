"""Acceptance suite: one test per criterion, exact arithmetic, zero tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.
"""

import random
import time

from dgkit.ddbar import (
    Bicomplex,
    ddbar_condition_check,
    formality_zigzag,
    strong_lemma_check,
    sum_twist,
)
from dgkit.deform import (
    DeformationContext,
    Series,
    connection_correspondence,
    evaluation_functors,
    qa_mc_split,
    quadraticity_probe,
    random_series,
    strong_mc_samples,
)
from dgkit.graded import GradedMap, GradedSpace, StructuredAlgebra, cohomology
from dgkit.linalg import add_multiple, kernel_of
from dgkit.models import (
    connection_from_bicomplex,
    dots_squares_model,
    end_tensor,
    random_connection_model,
    torus_model,
)
from dgkit.qdolbeault import (
    DEL_BAR,
    autoduality_check,
    build_quaternionic_complex,
    double_complex_spectral_sequence,
    phi_isomorphism,
    quaternionic_cohomology_check,
)
from dgkit.scalars import ONE, ZERO, Scalar
from strategies import commutator_lie, sparse
from test_ddbar import ref_induced_algebra_map_ok
from test_deform import cone_plus_square, exp_adjoint


def announce(number: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"{status} criterion {number:2d}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def seeded_square_recipe(seed: int, zigzags: bool):
    rnd = random.Random(seed)
    dots = {k: rnd.randint(0, 3) for k in range(4)}
    squares = [rnd.randint(0, 2) for _ in range(rnd.randint(1, 6))]
    zz = [rnd.randint(0, 2) for _ in range(rnd.randint(1, 2))] if zigzags else []
    return dots_squares_model(dots, squares, zz, seed=seed)


def strong_lemma_model_suite():
    """Small strong-lemma algebras with products, incl. gl(2) coefficients."""
    suite = [
        dots_squares_model({0: 1, 1: 2}, [0], seed=31),
        dots_squares_model({0: 2, 2: 1}, [0, 1], seed=32),
        end_tensor(dots_squares_model({0: 1, 1: 1}, [0], seed=33), 2),
    ]
    torus = torus_model(1)
    suite.append(torus.bicomplex)
    torus2 = torus_model(2)
    suite.append(torus2.bicomplex)
    return suite


def test_criterion_01_strong_lemma_dichotomy():
    worst = 0.0
    for seed in range(20):
        start = time.perf_counter()
        b = seeded_square_recipe(seed, zigzags=False)
        assert b.space.total_dim() <= 60
        verdict = strong_lemma_check(b)
        worst = max(worst, time.perf_counter() - start)
        assert verdict.strong_lemma, f"seed {seed} unexpectedly failed"
    witnessed = 0
    for seed in range(100, 110):
        start = time.perf_counter()
        b = seeded_square_recipe(seed, zigzags=True)
        assert b.space.total_dim() <= 60
        verdict = strong_lemma_check(b)
        worst = max(worst, time.perf_counter() - start)
        assert not verdict.strong_lemma
        assert verdict.witnesses.get("strong", {}).get("vector"), "missing witness"
        witnessed += 1
    announce(1, witnessed == 10 and worst < 5.0,
             f"20 square models pass, 10 zigzag models fail with witnesses, "
             f"worst run {worst*1000:.0f} ms")


def test_criterion_02_lemma_equivalence():
    checked = 0
    for seed in list(range(20)) + list(range(100, 110)):
        b = seeded_square_recipe(seed, zigzags=seed >= 100)
        verdict = ddbar_condition_check(b)
        for row in verdict.per_degree:
            assert row.strong == (row.b and row.bstar)
            assert row.b == row.c and row.bstar == row.cstar
        assert verdict.strong_lemma == (verdict.condition_b and verdict.condition_bstar)
        checked += 1
    announce(2, checked == 30,
             "strong = b AND b*, b <-> c, b* <-> c* on all 30 models, degreewise")


def test_criterion_03_formality_certificates():
    count = 0
    for b in strong_lemma_model_suite():
        zig = formality_zigzag(b)
        assert zig.certified
        assert zig.iota_certificate.invertible and zig.rho_certificate.invertible
        h_h = cohomology(zig.h_algebra, b.d0_name)
        assert ref_induced_algebra_map_ok(zig.iota_certificate.matrices, zig.h_d0_a1, zig.h_d0)
        assert ref_induced_algebra_map_ok(zig.rho_certificate.matrices, zig.h_d0_a1, h_h)
        dims0 = cohomology(b.algebra, b.d0_name).dims()
        dims1 = cohomology(b.algebra, b.d1_name).dims()
        assert dims0 == dims1
        count += 1
        # the Lie variant through the graded commutator
        lie = commutator_lie(b.algebra)
        zig_lie = formality_zigzag(Bicomplex(lie, b.d0_name, b.d1_name))
        assert zig_lie.certified
        count += 1
    announce(3, count == 10,
             f"{count} zig-zags certified (quasi-isos + product preservation), "
             "H_d0 = H_d1 dimwise, incl. gl(2) variants")


def test_criterion_04_sum_twist():
    count = 0
    for b in strong_lemma_model_suite():
        twisted = sum_twist(b)
        assert strong_lemma_check(twisted).strong_lemma
        count += 1
    announce(4, count == 5, "twisted pair (d0+d1, d1) stays strong on every model")


def test_criterion_05_autoduality_iff_flat_total():
    agreements = 0
    for seed in range(50):
        model, expected = random_connection_model(seed, corrupt=(seed % 2 == 1))
        autodual = autoduality_check(model).autodual
        q = build_quaternionic_complex(model, allow_non_autodual=True)
        flat = q.total_squares_to_zero()
        assert autodual == flat == expected
        agreements += 1
    announce(5, agreements == 50,
             "d^2 = 0 on the total complex agrees with the three relations, 50 seeds")


def test_criterion_06_cohomology_factorization():
    r1 = quaternionic_cohomology_check(build_quaternionic_complex(torus_model(1)))
    assert r1.certified and r1.equal
    assert r1.q_dims == {0: 1, 1: 4, 2: 3}
    r2 = quaternionic_cohomology_check(build_quaternionic_complex(torus_model(2)))
    assert r2.certified and r2.equal
    synth = 0
    for seed in (41, 42):
        b = dots_squares_model({0: 1, 1: 1}, [0, 1], seed=seed)
        rep = quaternionic_cohomology_check(
            build_quaternionic_complex(connection_from_bicomplex(b)))
        assert rep.certified and rep.equal
        synth += 1
    announce(6, synth == 2,
             "dim H^k(total) = (k+1) dim H^k on torus r=1 (1,4,3), r=2, and "
             "certified synthetic models")


def test_criterion_07_page_behavior():
    m = connection_from_bicomplex(dots_squares_model({}, [0], seed=51, unit=False))
    pages = double_complex_spectral_sequence(build_quaternionic_complex(m))
    assert not pages.degenerate_at_e1
    assert pages.e1_ne_e2_witness == (1, 0)
    assert pages.degenerate_at_e2
    degenerate = 0
    for seed in (52, 53, 54):
        b = dots_squares_model({0: 1, 1: 2}, [0, 1], seed=seed)
        q = build_quaternionic_complex(connection_from_bicomplex(b))
        p = double_complex_spectral_sequence(q)
        assert p.degenerate_at_e2
        degenerate += 1
    q1 = build_quaternionic_complex(torus_model(1))
    assert double_complex_spectral_sequence(q1).degenerate_at_e2
    announce(7, degenerate == 3,
             "square at row zero: E1 != E2 with witness (1,0), E2 = E-infinity; "
             "certified builds degenerate at E2")


def test_criterion_08_phi_certificates():
    for r in (1, 2):
        cert = phi_isomorphism(torus_model(r))
        assert cert.identities_hold, f"phi o phi^-1 failed at rank {r}"
        assert cert.inverse_well_defined
        assert cert.intertwine_horizontal and cert.intertwine_vertical
        assert cert.degree_one_spot_check
    announce(8, True,
             "phi and phi^-1 compose to the identity entrywise and intertwine "
             "the differential pairs, torus r=1 and r=2")


def test_criterion_09_mc_split_equivalence():
    total = 0
    models = [
        build_quaternionic_complex(torus_model(2)),
        build_quaternionic_complex(connection_from_bicomplex(
            end_tensor(dots_squares_model({0: 1, 1: 1}, [0], seed=61), 2))),
    ]
    for qi, q in enumerate(models):
        rnd = random.Random(600 + qi)
        for _ in range(100):
            elt = random_series(q.space, 1, 3, rnd)
            rep = qa_mc_split(q, elt)
            assert rep.equivalent  # qa_mc_split raises on any discrepancy
            total += 1
    announce(9, total == 200,
             "full MC <-> (xi2 MC) AND (xi1 MC) AND (mixed bracket = 0): "
             f"{total} seeded elements, zero discrepancies")


def test_criterion_10_evaluation_and_lift():
    order = 3
    # 20 seeded kernel-MC elements across two models
    m_torus = torus_model(2)
    q_torus = build_quaternionic_complex(m_torus)
    dolb = m_torus.dolbeault
    corner = [l for l in dolb.space.labels(1) if l.endswith("|E1_2")]
    torus_lifts = strong_mc_samples(dolb, DEL_BAR, order, 12, seed=71, support=corner)

    b = end_tensor(dots_squares_model({0: 1, 1: 1, 2: 1}, [0], seed=72), 2)
    m_sq = connection_from_bicomplex(b)
    q_sq = build_quaternionic_complex(m_sq)
    space = m_sq.dolbeault.space
    joint = kernel_of(m_sq.del_bar_j.block(1)).intersect(
        kernel_of(m_sq.del_bar.block(1)))
    corner_sq = [space.basis_vector(l)[1] for l in space.labels(1)
                 if l.endswith("|E1_2")]
    from dgkit.linalg import Subspace
    corner_joint = joint.intersect(Subspace.from_vectors(space.dim(1), corner_sq))
    rnd = random.Random(73)
    sq_lifts = []
    while len(sq_lifts) < 8:
        coeffs = []
        for _ in range(order - 1):
            v = {}
            for bv in corner_joint.vectors():
                c = rnd.randint(-2, 2)
                if c:
                    add_multiple(v, Scalar(c), bv)
            coeffs.append(v)
        sq_lifts.append(Series(1, [{}] + coeffs))

    lifted = 0
    for q, m, lifts in ((q_torus, m_torus, torus_lifts), (q_sq, m_sq, sq_lifts)):
        zero_elt = Series.zero(1, order)
        rep = evaluation_functors(q, zero_elt, lifts=lifts, certified=True)
        assert all(rep.lift_checks)
        assert rep.tangent_doubles and rep.tangent_bijection
        lifted += len(lifts)
    announce(10, lifted == 20,
             f"y-lifts of {lifted} kernel MC elements are MC in the total "
             "complex; (pi_y, pi_x) tangent map bijective, dim H^1 doubles")


def test_criterion_11_gauge_contract():
    pairs = 0
    # flat model: gauge must equal the exponential adjoint action entrywise
    m = torus_model(2)
    dolb = m.dolbeault
    order = 4
    ctx = DeformationContext(dolb, DEL_BAR)
    corner = [l for l in dolb.space.labels(1) if l.endswith("|E1_2")]
    xs = strong_mc_samples(dolb, DEL_BAR, order, 10, seed=81, support=corner)
    rnd = random.Random(82)
    for x in xs:
        for _ in range(5):
            a = random_series(dolb.space, 0, order, rnd)
            out = ctx.gauge_transform(a, x)
            assert ctx.mc_check(out).passed
            assert out == exp_adjoint(ctx, a, x)
            pairs += 1
    # nonzero differential: preservation on gauge orbits of strong solutions
    dgla = cone_plus_square()
    ctx2 = DeformationContext(dgla, "d0")
    _, u2 = dgla.space.basis_vector("u2")
    base = Series(1, [{}, u2] + [{}] * (order - 2))
    x = base
    rnd2 = random.Random(83)
    for _ in range(50):
        a = random_series(dgla.space, 0, order, rnd2)
        x = ctx2.gauge_transform(a, x)
        assert ctx2.mc_check(x).passed
        pairs += 1
    announce(11, pairs == 100,
             f"{pairs} seeded (a, x) pairs at order 4: MC preserved; "
             "flat case equals the exponential adjoint action entrywise")


def test_criterion_12_connection_correspondence():
    order = 3
    m = torus_model(2)
    q = build_quaternionic_complex(m)
    corner = [l for l in m.dolbeault.space.labels(1) if l.endswith("|E1_2")]
    samples = strong_mc_samples(m.dolbeault, DEL_BAR, order, 40, seed=91, support=corner)
    rnd = random.Random(92)
    qa_ctx = DeformationContext(q.algebra, "total")
    x_section, y_section = q.sections
    done = 0
    for i in range(20):
        xi1, xi2 = samples[2 * i], samples[2 * i + 1]
        elt = xi1.apply(x_section).add(xi2.apply(y_section))
        if i % 2 == 1:
            # also exercise non-corner inputs via a seeded gauge twist
            elt = qa_ctx.gauge_transform(
                random_series(q.space, 0, order, rnd), elt)
        gauge = random_series(m.dolbeault.space, 0, order, rnd)
        rep = connection_correspondence(m, q, elt, gauge=gauge)
        assert rep.relations_over_b.passed
        assert rep.reduces_to_base
        assert rep.gauge_conjugation is True
        assert rep.curvature_oracle is True and rep.oracle_agrees
        done += 1
    announce(12, done == 20,
             "20 rebuilt deformations satisfy the relations over B, reduce to "
             "the base pair mod m, and conjugate by exp(a) under gauge")


def test_criterion_13_quadraticity():
    space = GradedSpace({1: ["u1", "u2"], 2: ["w"]})
    zero = GradedMap.zero(space, space, 1)
    cone = StructuredAlgebra(space, "lie", {"d0": zero, "d1": zero},
                             StructuredAlgebra.structure_from_triples(
                                 [("u1", "u1", "w", Scalar(2))]))
    cert = formality_zigzag(Bicomplex(cone, "d0", "d1"))
    flat_classes = [(ZERO, ONE), (ZERO, Scalar(3))]
    obstructed = [(ONE, ZERO), (ONE, ONE), (Scalar(2), Scalar(-1))]
    rep = quadraticity_probe(cert, [sparse(xi) for xi in flat_classes + obstructed], k_max=6)
    assert rep.passed
    by_class = {tuple(s.to_json()["class"]): s for s in rep.samples}
    for xi in flat_classes:
        s = by_class[tuple(str(c) for c in xi)]
        assert s.lifted_to == 6 and not s.cone_obstructed
    for xi in obstructed:
        s = by_class[tuple(str(c) for c in xi)]
        assert s.cone_obstructed and s.order3_unsolvable
    announce(13, True,
             "cone classes with [xi,xi] = 0 lift to order 6; obstructed "
             "classes already fail at order 3")

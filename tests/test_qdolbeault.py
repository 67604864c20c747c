import pytest

from dgkit.ddbar import strong_lemma_check
from dgkit.errors import ModelError, PreconditionError
from dgkit.graded import GradedMap, GradedSpace, StructuredAlgebra
from dgkit.models import (
    connection_from_bicomplex,
    dots_squares_model,
    end_tensor,
    random_connection_model,
    torus_model,
    zigzag_model,
)
from dgkit.qdolbeault import (
    ConnectionModel,
    autoduality_check,
    build_quaternionic_complex,
    double_complex_spectral_sequence,
    extended_strong_lemma_interior,
    phi_isomorphism,
    quaternionic_cohomology_check,
)
from dgkit.scalars import ONE


def test_zero_operators_are_autodual():
    assert autoduality_check(torus_model(1)).autodual


def test_square_pair_is_autodual():
    m = connection_from_bicomplex(dots_squares_model({}, [0], seed=1, unit=False))
    rep = autoduality_check(m)
    assert rep.autodual


def test_anticommutator_violation_detected_with_witness():
    space = GradedSpace({0: ["a"], 1: ["b"], 2: ["c"]})
    del_bar = GradedMap.from_entries(space, space, 1, [("a", "b", ONE)])
    del_bar_j = GradedMap.from_entries(space, space, 1, [("b", "c", ONE)])
    alg = StructuredAlgebra(space, "associative",
                            {"del_bar": del_bar, "del_bar_J": del_bar_j}, {})
    rep = autoduality_check(ConnectionModel(alg))
    assert not rep.autodual
    failing = rep.relations.failures()
    assert failing and failing[0].witness["label"] == "a"


# -- building the total complex ----------------------------------------------


def test_torus_dims_follow_copy_count():
    q = build_quaternionic_complex(torus_model(1))
    assert {k: q.space.dim(k) for k in q.space.degrees()} == {0: 1, 1: 4, 2: 3}


def test_empty_model_builds_empty_complex():
    space = GradedSpace({})
    alg = StructuredAlgebra(space, "associative",
                            {"del_bar": GradedMap.zero(space, space, 1),
                             "del_bar_J": GradedMap.zero(space, space, 1)}, {})
    q = build_quaternionic_complex(ConnectionModel(alg))
    assert q.space.total_dim() == 0


def test_square_total_differential_squares_to_zero():
    m = connection_from_bicomplex(dots_squares_model({}, [0], seed=2, unit=False))
    q = build_quaternionic_complex(m)
    assert q.total_squares_to_zero()


def test_non_autodual_build_requires_flag():
    m, ok = random_connection_model(1, corrupt=True)
    assert not ok
    with pytest.raises(PreconditionError):
        build_quaternionic_complex(m)
    q = build_quaternionic_complex(m, allow_non_autodual=True)
    assert not q.total_squares_to_zero()


def test_d_squared_iff_autodual_over_seeds():
    for seed in range(12):
        m, expected = random_connection_model(seed, corrupt=(seed % 2 == 0))
        q = build_quaternionic_complex(m, allow_non_autodual=True)
        assert q.total_squares_to_zero() == expected == autoduality_check(m).autodual


def test_extended_variant_requires_window():
    with pytest.raises(ModelError):
        build_quaternionic_complex(torus_model(1), extended=True)


def test_product_inherited_with_central_tags():
    q = build_quaternionic_complex(torus_model(1))
    alg = q.algebra
    # (x 1) * (y 1) = xy (1*1) in bidegree (1,1)
    l1 = "x1y0:dzb1|E1_1"
    l2 = "x0y1:dzb2|E1_1"
    prod = alg.mul_labels(l1, l2)
    assert prod == {"x1y1:dzb1^dzb2|E1_1": ONE}
    assert alg.validate_dg_algebra("total").passed


# -- cohomology factorization ---------------------------------------------------


def test_torus_factorization():
    rep = quaternionic_cohomology_check(build_quaternionic_complex(torus_model(1)))
    assert rep.certified and rep.equal
    assert rep.q_dims == {0: 1, 1: 4, 2: 3}


def test_dots_squares_end_factorization():
    b = end_tensor(dots_squares_model({0: 1, 1: 1}, [0], seed=4), 2)
    m = connection_from_bicomplex(b)
    rep = quaternionic_cohomology_check(build_quaternionic_complex(m))
    assert rep.certified and rep.equal


def test_zigzag_factorization_unconditional():
    m = connection_from_bicomplex(zigzag_model(0))
    rep = quaternionic_cohomology_check(build_quaternionic_complex(m))
    assert not rep.certified  # reported without the assertion


# -- spectral pages -------------------------------------------------------------


def test_zero_differentials_degenerate_at_e1():
    pages = double_complex_spectral_sequence(build_quaternionic_complex(torus_model(1)))
    assert pages.degenerate_at_e1 and pages.e1_equals_e2 and pages.degenerate_at_e2


def test_square_page_drop_at_first_column():
    m = connection_from_bicomplex(dots_squares_model({}, [0], seed=3, unit=False))
    pages = double_complex_spectral_sequence(build_quaternionic_complex(m))
    assert pages.e1_dims[(1, 0)] == 1 and pages.e2_dims[(1, 0)] == 0
    assert not pages.e1_equals_e2
    assert pages.e1_ne_e2_witness == (1, 0)
    assert pages.degenerate_at_e2


def test_strong_lemma_fails_on_truncated_total_complex():
    # the first-quadrant total complex of a square model is not strong
    m = connection_from_bicomplex(dots_squares_model({}, [0], seed=3, unit=False))
    q = build_quaternionic_complex(m)
    assert not strong_lemma_check(q.bicomplex).strong_lemma


def test_degeneration_on_certified_models():
    for seed in range(3):
        b = dots_squares_model({0: 1, 1: 1}, [0, 1], seed=seed, unit=False)
        m = connection_from_bicomplex(b)
        pages = double_complex_spectral_sequence(build_quaternionic_complex(m))
        assert pages.degenerate_at_e2


# -- phi --------------------------------------------------------------------


def test_phi_certificate_on_torus():
    cert = phi_isomorphism(torus_model(1))
    assert cert.certified
    assert cert.degree_one_spot_check


def test_phi_requires_full_model():
    m = connection_from_bicomplex(dots_squares_model({0: 1}, [0], seed=1))
    with pytest.raises(ModelError):
        phi_isomorphism(m)


# -- extended window -----------------------------------------------------------


def test_extended_interior_strong_lemma_on_squares():
    m = connection_from_bicomplex(dots_squares_model({0: 1}, [0], seed=2, unit=False))
    q = build_quaternionic_complex(m, extended=True, window=4)
    rep = extended_strong_lemma_interior(q)
    assert rep.passed
    # with no margin the truncation artifacts are visible
    assert not extended_strong_lemma_interior(q, margin=0).passed


def test_interior_check_rejects_standard_build():
    q = build_quaternionic_complex(torus_model(1))
    with pytest.raises(PreconditionError):
        extended_strong_lemma_interior(q)


def test_evaluation_maps_are_dgla_morphisms():
    m = connection_from_bicomplex(
        dots_squares_model({0: 1, 1: 1}, [0], seed=17))
    q = build_quaternionic_complex(m)
    pi_x, pi_y = q.evaluations
    # chain maps: pi_y total = del_bar pi_y and pi_x total = del_bar_J pi_x
    assert pi_y.compose(q.total) == m.del_bar.compose(pi_y)
    assert pi_x.compose(q.total) == m.del_bar_j.compose(pi_x)
    # multiplicative on the algebra (hence bracket-preserving)
    qs = q.algebra.space
    ds = m.dolbeault.space
    for pi in (pi_x, pi_y):
        for l1 in qs.all_labels():
            k1, v1 = qs.basis_vector(l1)
            for l2 in qs.all_labels():
                k2, v2 = qs.basis_vector(l2)
                lhs = pi.apply(k1 + k2, q.algebra.mul(k1, v1, k2, v2))
                rhs = m.dolbeault.mul(k1, pi.apply(k1, v1), k2, pi.apply(k2, v2))
                assert lhs == rhs


def test_extended_interior_on_tensored_model():
    b = end_tensor(dots_squares_model({0: 1}, [0], seed=7, unit=False), 2)
    m = connection_from_bicomplex(b)
    q = build_quaternionic_complex(m, extended=True, window=3)
    assert extended_strong_lemma_interior(q).passed

import hashlib

import pytest

from dgkit.ddbar import strong_lemma_check
from dgkit.errors import ModelError
from dgkit.models import (
    dots_squares_model,
    end_tensor,
    nilpotent_torus_model,
    random_connection_model,
    torus_model,
    zigzag_model,
)
from dgkit.modelfile import serialize_connection_model, serialize_model
from dgkit.qdolbeault import autoduality_check
from strategies import commutator_lie


def test_torus_dolbeault_dims_scale_with_rank():
    m1 = torus_model(1)
    dims1 = {k: m1.dolbeault.space.dim(k) for k in m1.dolbeault.space.degrees()}
    assert dims1 == {0: 1, 1: 2, 2: 1}
    m2 = torus_model(2)
    dims2 = {k: m2.dolbeault.space.dim(k) for k in m2.dolbeault.space.degrees()}
    assert dims2 == {0: 4, 1: 8, 2: 4}


def test_torus_autodual_for_all_ranks():
    for r in (1, 2):
        assert autoduality_check(torus_model(r)).autodual


def test_torus_full_model_validates_both_differentials():
    full = torus_model(1).full_model
    assert full.validate_dg_algebra("del").passed
    assert full.validate_dg_algebra("del_bar").passed


def test_torus_rejects_rank_zero():
    with pytest.raises(ModelError):
        torus_model(0)


def test_generator_determinism():
    a = serialize_model(dots_squares_model({0: 2}, [0, 1], [1], seed=11).algebra)
    b = serialize_model(dots_squares_model({0: 2}, [0, 1], [1], seed=11).algebra)
    assert a == b
    c = serialize_connection_model(torus_model(2))
    d = serialize_connection_model(torus_model(2))
    assert c == d


def test_seed_changes_coefficients():
    a = serialize_model(dots_squares_model({}, [0], seed=1, unit=False).algebra)
    b = serialize_model(dots_squares_model({}, [0], seed=2, unit=False).algebra)
    assert a != b


def test_single_square_has_no_cohomology():
    from dgkit.graded import cohomology
    b = dots_squares_model({}, [0], seed=0, unit=False)
    assert cohomology(b.algebra, "d0").dims() == {}
    assert cohomology(b.algebra, "d1").dims() == {}


def test_dots_only_model_trivially_strong():
    b = dots_squares_model({0: 2, 1: 3}, [], seed=0, unit=False)
    from dgkit.graded import cohomology
    assert strong_lemma_check(b).strong_lemma
    assert cohomology(b.algebra, "d0").dims() == {0: 2, 1: 3}


def test_dichotomy_squares_pass_zigzags_fail():
    for seed in range(8):
        good = dots_squares_model({0: 1, 1: 1}, [0, 1], seed=seed)
        assert strong_lemma_check(good).strong_lemma
        bad = dots_squares_model({0: 1}, [0], [0], seed=seed)
        assert not strong_lemma_check(bad).strong_lemma
    assert not strong_lemma_check(zigzag_model(2)).strong_lemma


def test_end_tensor_preserves_the_lemma_and_validates():
    b = end_tensor(dots_squares_model({0: 1, 1: 1}, [0], seed=6), 2)
    assert strong_lemma_check(b).strong_lemma
    assert b.algebra.validate_dg_algebra("d0").passed
    assert b.algebra.validate_dg_algebra("d1").passed


def test_end_tensor_bracket_nonzero_on_h0():
    # gl(2) coefficients make the unit-degree bracket nonzero
    b = end_tensor(dots_squares_model({0: 1}, [], seed=0), 2)
    space = b.algebra.space
    (_, e12), (_, e21) = space.basis_vector("one|E1_2"), space.basis_vector("one|E2_1")
    assert b.algebra.bracket(0, e12, 0, e21)


def test_random_connection_suite_agreement():
    autodual_count = 0
    for seed in range(10):
        model, expected = random_connection_model(seed, corrupt=(seed % 3 == 0))
        assert autoduality_check(model).autodual == expected
        autodual_count += expected
    assert 0 < autodual_count < 10


def test_torus_r2_formal_but_not_homotopy_abelian():
    from dgkit.ddbar import Bicomplex, formality_zigzag, homotopy_abelian_verdict

    m = torus_model(2)
    lie = commutator_lie(m.dolbeault)
    cert = formality_zigzag(Bicomplex(lie, "del_bar_J", "del_bar"))
    verdict = homotopy_abelian_verdict(lie, "del_bar", cert)
    assert verdict.formal is True
    assert verdict.homotopy_abelian is False  # gl(2) bracket survives on H^0


def test_nilpotent_twisted_torus():
    from dgkit.models import nilpotent_torus_model
    from dgkit.qdolbeault import (build_quaternionic_complex, phi_isomorphism,
                                  quaternionic_cohomology_check)

    m = nilpotent_torus_model(2)
    assert not m.del_bar.is_zero()
    assert autoduality_check(m).autodual
    assert m.full_model.validate_dg_algebra("del_bar").passed
    # not a strong-lemma pair: the factorization is reported unconditionally
    rep = quaternionic_cohomology_check(build_quaternionic_complex(m))
    assert not rep.certified and not rep.equal
    # the bigraded identification still certifies exactly
    assert phi_isomorphism(m).certified

    with pytest.raises(ModelError):
        nilpotent_torus_model(1)


# sha256 of serialize_connection_model(nilpotent_torus_model(r)), recorded
# before its twist operator was read off the product table
NILPOTENT_TORUS_SHA256 = {
    2: "6ee305ea9c684eccbabd60fb5802bf1d611a3474b908ea5edd0a8531c1b95be5",
    3: "14fe721efeea5e1ac234ab94e83e00cfd962ae91e3bafc8e5b102ee3cc002a1f",
}


@pytest.mark.parametrize("r", sorted(NILPOTENT_TORUS_SHA256))
def test_nilpotent_torus_model_file_is_pinned(r):
    text = serialize_connection_model(nilpotent_torus_model(r))
    assert hashlib.sha256(text.encode()).hexdigest() == NILPOTENT_TORUS_SHA256[r]

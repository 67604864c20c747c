"""Algebras that dgkit derives from a checked one skip `_check_triple`.

Each derived algebra is rebuilt through the checking constructor and must
come out equal: its labels are in its space, its constants respect the
grading and none is zero.  The work-count guard counts, on the rank-2 flat
torus, the structure keys checked and the label pairs the Leibniz walk
visits, with monkeypatched counters rather than a timer.
"""

import pytest

from dgkit.ddbar import Bicomplex, formality_zigzag
from dgkit.graded import StructuredAlgebra, cohomology
from dgkit.modelfile import parse_model, serialize_connection_model
from dgkit.models import dots_squares_model, nilpotent_torus_model, torus_model
from dgkit.qdolbeault import (
    DEL_BAR,
    DEL_BAR_J,
    build_quaternionic_complex,
    connection_model,
    connection_model_from_full,
)


def assert_as_checked(alg):
    """alg equals itself rebuilt through the checking constructor."""
    checked = StructuredAlgebra(alg.space, alg.kind, alg.differentials, alg.structure, alg.maps)
    assert (checked.space, checked.kind, checked.differentials, checked.maps) == \
        (alg.space, alg.kind, alg.differentials, alg.maps)
    assert checked.structure == alg.structure


def derived_algebras():
    """(name, algebra) for every derived construction, on the flat and the
    twisted rank-2 torus and on a dots-squares bicomplex."""
    flat, twisted = torus_model(2), nilpotent_torus_model(2)
    squares = dots_squares_model({0: 1, 1: 1}, [0, 1], seed=4)
    for name, m in (("flat", flat), ("twisted", twisted)):
        full = m.full_model
        yield f"{name} with_differentials", full.with_differentials(
            {DEL_BAR: full.differential(DEL_BAR)})
        yield f"{name} D of the full model", connection_model_from_full(full).dolbeault
        yield f"{name} Q", build_quaternionic_complex(m, allow_non_autodual=True).algebra
        yield f"{name} extended Q", build_quaternionic_complex(
            m, window=2, allow_non_autodual=True).algebra
        yield f"{name} H(D, del_bar)", cohomology(m.dolbeault, DEL_BAR).as_algebra()
        yield f"{name} sl2 quotient", m.plus_quotient.algebra
    zigzag = formality_zigzag(Bicomplex(flat.dolbeault, DEL_BAR_J, DEL_BAR))
    yield "flat zig-zag A1", zigzag.a1_algebra
    yield "flat zig-zag H", zigzag.h_algebra
    zigzag = formality_zigzag(squares)
    yield "dots-squares zig-zag A1", zigzag.a1_algebra
    yield "dots-squares H(A, d1)", cohomology(squares.algebra, "d1").as_algebra("d0")


DERIVED = dict(derived_algebras())


@pytest.mark.parametrize("name", sorted(DERIVED))
def test_a_derived_algebra_equals_its_checked_rebuild(name):
    assert_as_checked(DERIVED[name])


def test_the_derived_algebras_carry_products():
    """The equality above is not vacuous: the products survive."""
    assert all(DERIVED[name].structure for name in DERIVED if "extended" not in name)


@pytest.fixture
def counted(monkeypatch):
    """calls["check"] lists the structure keys `_check_triple` checks and
    calls["pair"] the label pairs whose product is read by `mul_labels`."""
    calls = {"check": [], "pair": []}
    check, mul_labels = StructuredAlgebra._check_triple, StructuredAlgebra.mul_labels

    def counted_check(self, l1, l2, targets):
        calls["check"].append((l1, l2))
        return check(self, l1, l2, targets)

    def counted_mul_labels(self, l1, l2):
        calls["pair"].append((l1, l2))
        return mul_labels(self, l1, l2)

    monkeypatch.setattr(StructuredAlgebra, "_check_triple", counted_check)
    monkeypatch.setattr(StructuredAlgebra, "mul_labels", counted_mul_labels)
    return calls


def test_loading_the_rank_2_torus_checks_each_structure_key_once(counted):
    text = serialize_connection_model(torus_model(2))
    lines = text.split("\nstructure\n", 1)[1].split("\n\n", 1)[0].splitlines()
    keys = {tuple(line.split()[:2]) for line in lines}
    counted["check"].clear()
    full = parse_model(text)
    assert len(keys) == 648
    assert sorted(counted["check"]) == sorted(keys) == sorted(full.structure)
    counted["check"].clear()
    m = connection_model(full)
    build_quaternionic_complex(m)
    full.with_differentials(dict(full.differentials))
    assert counted["check"] == []


def test_the_leibniz_walk_of_a_zero_differential_visits_no_pair(counted):
    flat = torus_model(2).full_model
    assert flat.differential("del").is_zero() and flat.differential(DEL_BAR).is_zero()
    counted["pair"].clear()
    assert Bicomplex(flat, "del", DEL_BAR).derivations.passed
    assert counted["pair"] == []
    # a differential that is not zero is walked, on fewer pairs than the
    # structure has: 270 of the twisted torus's 648
    twisted = nilpotent_torus_model(2).full_model
    counted["pair"].clear()
    assert Bicomplex(twisted, "del", DEL_BAR).derivations.passed
    assert len(counted["pair"]) == 270 < len(twisted.structure) == 648

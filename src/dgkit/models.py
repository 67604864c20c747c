"""Deterministic generators for the finite models the test-suite runs on.

Three families:

* torus models: the invariant-form model of a flat 2-complex-dimensional
  torus, the full exterior algebra on dz1, dz2, dzb1, dzb2 (multiplicative
  J, sl(2)-action by derivations, zero connection operators) tensored with
  gl(r);
* dots and squares: bounded bicomplexes assembled from isolated cohomology
  generators (dots), fully exact 4-element blocks (squares), and the
  elementary strong-lemma violations (zigzags);
* gl(r) coefficient extensions of either family.

Identical recipe + seed gives a bit-identical model.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence

from dgkit.ddbar import Bicomplex
from dgkit.errors import ModelError
from dgkit.graded import GradedMap, GradedSpace, StructuredAlgebra, adjoint_operator
from dgkit.linalg import add_multiple
from dgkit.qdolbeault import (
    DEL,
    DEL_BAR,
    ConnectionModel,
    connection_from_bicomplex,
    connection_model_from_full,
)
from dgkit.scalars import ONE, Scalar
from dgkit.sl2 import Sl2Module

GENS = ("dz1", "dz2", "dzb1", "dzb2")

# generator-level actions: index -> (index, coefficient)
_H_ACTION = {0: (0, Scalar(-1)), 1: (1, Scalar(-1)), 2: (2, ONE), 3: (3, ONE)}
_E_ACTION = {0: (3, ONE), 1: (2, Scalar(-1))}
_F_ACTION = {2: (1, Scalar(-1)), 3: (0, ONE)}
_J_ACTION = {0: (3, ONE), 1: (2, Scalar(-1)), 2: (1, ONE), 3: (0, Scalar(-1))}


def _sort_sign(seq: Iterable[int]) -> tuple:
    """Sorted tuple and the sign of the sorting permutation; (None, 0) when
    an index repeats (the wedge vanishes)."""
    out: list[int] = []
    sign = 1
    for x in seq:
        pos = len(out)
        while pos > 0 and out[pos - 1] > x:
            pos -= 1
        if pos > 0 and out[pos - 1] == x:
            return None, 0
        sign *= (-1) ** (len(out) - pos)
        out.insert(pos, x)
    return tuple(out), sign


def _merge_sign(left: tuple, right: tuple) -> tuple:
    if set(left) & set(right):
        return None, 0
    return _sort_sign(list(left) + list(right))


def _mono_label(mono: tuple) -> str:
    if not mono:
        return "1"
    return "^".join(GENS[i] for i in mono)


def _derivation_on_monomial(action: dict, mono: tuple) -> dict[tuple, Scalar]:
    """Extend a generator action to a degree-0 derivation on a monomial."""
    out: dict[tuple, Scalar] = {}
    for j, g in enumerate(mono):
        if g not in action:
            continue
        tgt, c = action[g]
        replaced = mono[:j] + (tgt,) + mono[j + 1:]
        merged, sign = _sort_sign(replaced)
        if merged is None:
            continue
        add_multiple(out, c.scale(Fraction(sign)), {merged: ONE})
    return out


def _j_on_monomial(mono: tuple) -> tuple[tuple, Scalar]:
    """Multiplicative J: wedge of the generator images (each a single term)."""
    coeff = ONE
    images = []
    for g in mono:
        tgt, c = _J_ACTION[g]
        coeff = coeff * c
        images.append(tgt)
    merged, sign = _sort_sign(images)
    if merged is None:
        raise ModelError("J image degenerates on a monomial")
    return merged, coeff.scale(Fraction(sign))


def _torus_forms() -> StructuredAlgebra:
    """The invariant forms of the flat torus: the exterior algebra on GENS,
    with the sl(2)-action e/f/h by derivations, the multiplicative J, and
    zero del/del_bar."""
    monos = [mono for size in range(5) for mono in combinations(range(4), size)]
    components: dict[int, list[str]] = {}
    for mono in monos:
        components.setdefault(len(mono), []).append(_mono_label(mono))
    space = GradedSpace(components)

    triples = []
    for m1 in monos:
        for m2 in monos:
            merged, sign = _merge_sign(m1, m2)
            if merged is not None:
                triples.append((_mono_label(m1), _mono_label(m2), _mono_label(merged),
                                Scalar(sign)))

    def derivation_map(action) -> GradedMap:
        return GradedMap.from_entries(space, space, 0, [
            (_mono_label(mono), _mono_label(tgt), c)
            for mono in monos for tgt, c in _derivation_on_monomial(action, mono).items()])

    j_entries = []
    for mono in monos:
        tgt, c = _j_on_monomial(mono)
        j_entries.append((_mono_label(mono), _mono_label(tgt), c))
    maps = {"e": derivation_map(_E_ACTION), "f": derivation_map(_F_ACTION),
            "h": derivation_map(_H_ACTION),
            "J": GradedMap.from_entries(space, space, 0, j_entries)}
    diffs = {DEL: GradedMap.zero(space, space, 1),
             DEL_BAR: GradedMap.zero(space, space, 1)}
    return StructuredAlgebra(space, "associative", diffs,
                             StructuredAlgebra.structure_from_triples(triples), maps)


def torus_model(r: int = 1) -> ConnectionModel:
    """Invariant-form model of a flat torus with gl(r) coefficients: the
    torus forms tensored with gl(r).

    Connection operators are zero (flat trivial connection); J satisfies
    J^2 = -1 on 1-forms and the e/f/h triple is a valid sl(2)-action, both
    verified at build time.
    """
    full = tensor_gl(_torus_forms(), r)

    # build-time consistency: sl(2) relations and J^2 = -1 on 1-forms
    sl2_report = Sl2Module.from_algebra(full).validate()
    if not sl2_report.passed:
        raise ModelError(f"torus sl(2) action broken: {sl2_report.failures()[0].name}")
    expect = GradedMap.identity(full.space).scale(Scalar(-1)).block(1)
    if full.maps["J"].square.block(1) != expect:
        raise ModelError("torus J does not square to -1 on 1-forms")

    model = connection_model_from_full(full)
    if not model.autoduality.autodual:
        raise ModelError("flat torus model failed autoduality")
    return model


def nilpotent_torus_model(r: int = 2) -> ConnectionModel:
    """Torus model twisted by the constant connection form dzb1 (x) E_{1,r}.

    The form is square-zero, so the twisted operator pair is flat (hence
    autodual) while acting nontrivially; the pair is not a strong-lemma
    pair, so the factorization of the total-complex cohomology genuinely
    fails on this model.
    """
    if r < 2:
        raise ModelError("the nilpotent twist needs coefficient rank >= 2")
    base = torus_model(r)
    full = base.full_model
    theta_label = f"dzb1|E1_{r}"
    _, theta = full.space.basis_vector(theta_label)
    ad_theta = adjoint_operator(full, 1, theta)
    twisted = StructuredAlgebra(
        full.space, full.kind,
        {DEL: GradedMap.zero(full.space, full.space, 1), DEL_BAR: ad_theta},
        full.structure, full.maps)
    model = connection_model_from_full(twisted)
    if not model.autoduality.autodual:
        raise ModelError("nilpotent twist failed autoduality")
    return model


# ---------------------------------------------------------------------------
# dots, squares, zigzags


def _random_nonzero(rnd: random.Random) -> Scalar:
    def frac():
        num = rnd.choice([-3, -2, -1, 1, 2, 3])
        den = rnd.choice([1, 1, 2, 3])
        return Fraction(num, den)

    re = frac()
    im = frac() if rnd.random() < 0.3 else Fraction(0)
    return Scalar(re, im)


def dots_squares_model(dots: Optional[dict[int, int]] = None,
                       squares: Sequence[int] = (),
                       zigzags: Sequence[int] = (),
                       seed: int = 0,
                       unit: bool = True) -> Bicomplex:
    """Bicomplex with the given dots (per-degree counts), squares and
    zigzags (base degrees).  Arrow coefficients are seeded random nonzero
    scalars subject to the anticommutation constraint.

    Squares at base degree k contribute a, b, c, e with
        d0 a = l1*b,  d1 a = l2*c,  d1 b = l3*e,  d0 c = -(l1*l3/l2)*e,
    so every square is fully d0d1-exact; zigzags contribute a, b with
    d0 a = b only, the elementary strong-lemma violation.
    """
    rnd = random.Random(seed)
    dots = dict(dots or {})
    components: dict[int, list[str]] = {}

    def push(deg, label):
        components.setdefault(deg, []).append(label)

    if unit:
        push(0, "one")
    for deg in sorted(dots):
        for i in range(dots[deg]):
            push(deg, f"w{deg}_{i}")
    d0_entries = []
    d1_entries = []
    for i, k in enumerate(squares):
        a, b, c, e = (f"s{i}a", f"s{i}b", f"s{i}c", f"s{i}e")
        push(k, a)
        push(k + 1, b)
        push(k + 1, c)
        push(k + 2, e)
        l1, l2, l3 = (_random_nonzero(rnd) for _ in range(3))
        d0_entries.append((a, b, l1))
        d1_entries.append((a, c, l2))
        d1_entries.append((b, e, l3))
        d0_entries.append((c, e, (l1 * l3 / l2).scale(-1)))
    for i, k in enumerate(zigzags):
        a, b = f"z{i}a", f"z{i}b"
        push(k, a)
        push(k + 1, b)
        d0_entries.append((a, b, _random_nonzero(rnd)))

    space = GradedSpace(components)
    triples = []
    if unit:
        for lab in space.all_labels():
            triples.append(("one", lab, lab, ONE))
            if lab != "one":
                triples.append((lab, "one", lab, ONE))
    algebra = StructuredAlgebra(
        space, "associative",
        {"d0": GradedMap.from_entries(space, space, 1, d0_entries),
         "d1": GradedMap.from_entries(space, space, 1, d1_entries)},
        StructuredAlgebra.structure_from_triples(triples))
    return Bicomplex(algebra, "d0", "d1")


def zigzag_model(k: int = 0, seed: int = 0) -> Bicomplex:
    """A single two-element zigzag at base degree k: d0 a = b, d1 = 0."""
    return dots_squares_model({}, (), (k,), seed=seed, unit=False)


# ---------------------------------------------------------------------------
# gl(r) coefficient extension


def tensor_gl(algebra: StructuredAlgebra, r: int) -> StructuredAlgebra:
    """Coefficients in gl(r): products compose, operators act on the form part."""
    if r < 1:
        raise ModelError("rank must be at least 1")
    e_labels = [f"E{a}_{b}" for a in range(1, r + 1) for b in range(1, r + 1)]
    space = GradedSpace({
        k: [f"{lab}|{el}" for lab in algebra.space.labels(k) for el in e_labels]
        for k in algebra.space.degrees()
    })

    def lift(g: GradedMap, shift: int) -> GradedMap:
        entries = []
        for frm, to, c in g.entries():
            for el in e_labels:
                entries.append((f"{frm}|{el}", f"{to}|{el}", c))
        return GradedMap.from_entries(space, space, shift, entries)

    triples = []
    for (l1, l2), targets in algebra.structure.items():
        for lt, c in targets.items():
            for a in range(1, r + 1):
                for b in range(1, r + 1):
                    for d in range(1, r + 1):
                        triples.append((f"{l1}|E{a}_{b}", f"{l2}|E{b}_{d}",
                                        f"{lt}|E{a}_{d}", c))
    return StructuredAlgebra(
        space, algebra.kind,
        {name: lift(g, 1) for name, g in algebra.differentials.items()},
        StructuredAlgebra.structure_from_triples(triples),
        {name: lift(g, 0) for name, g in algebra.maps.items()})


def end_tensor(b: Bicomplex, r: int) -> Bicomplex:
    """gl(r)-coefficient extension of a bicomplex."""
    return Bicomplex(tensor_gl(b.algebra, r), b.d0_name, b.d1_name)


# ---------------------------------------------------------------------------
# seeded random connection models, plus corruption


def random_connection_model(seed: int, corrupt: bool = False) -> tuple[ConnectionModel, bool]:
    """Seeded random dots/squares/zigzags connection model whose D carries
    no product: it is built without a unit, so its structure table is empty.

    With corrupt=True, three fresh chained basis vectors are appended whose
    arrows force one of the three autoduality relations to fail; which
    relation is seed-chosen.  Returns (model, is_autodual).
    """
    rnd = random.Random(seed)
    dots = {k: rnd.randint(0, 2) for k in range(3)}
    squares = [rnd.randint(0, 2) for _ in range(rnd.randint(0, 2))]
    zigzags = [rnd.randint(0, 1) for _ in range(rnd.randint(0, 1))]
    base = dots_squares_model(dots, squares, zigzags, seed=seed, unit=False)
    if not corrupt:
        model = connection_from_bicomplex(base)
        return model, True

    space = base.algebra.space
    k = rnd.randint(0, 1)
    components = {deg: list(space.labels(deg)) for deg in space.degrees()}
    fresh = [f"bad{k}", f"bad{k + 1}", f"bad{k + 2}"]
    for i, labf in enumerate(fresh):
        components.setdefault(k + i, []).append(labf)
    big = GradedSpace(components)

    d0_entries = base.d0.entries()
    d1_entries = base.d1.entries()
    mode = rnd.choice(["sq0", "sq1", "anti"])
    c1, c2 = _random_nonzero(rnd), _random_nonzero(rnd)
    if mode == "sq0":       # del_bar_J^2 != 0
        d0_entries += [(fresh[0], fresh[1], c1), (fresh[1], fresh[2], c2)]
    elif mode == "sq1":     # del_bar^2 != 0
        d1_entries += [(fresh[0], fresh[1], c1), (fresh[1], fresh[2], c2)]
    else:                   # anticommutator != 0
        d0_entries += [(fresh[0], fresh[1], c1)]
        d1_entries += [(fresh[1], fresh[2], c2)]
    algebra = StructuredAlgebra(
        big, "associative",
        {"d0": GradedMap.from_entries(big, big, 1, d0_entries),
         "d1": GradedMap.from_entries(big, big, 1, d1_entries)},
        {})
    model = connection_from_bicomplex(Bicomplex(algebra))
    if model.autoduality.autodual:
        raise ModelError("corruption failed to break autoduality")
    return model, False

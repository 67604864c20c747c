"""Independent-oracle cross-checks.

Each test recomputes a certified quantity through a second route that shares
no code with the primary one (per-vector linear solves instead of canonical
subspace equality, matrix ranks instead of basis extension) and demands
exact agreement.
"""

import random

from dgkit.ddbar import strong_lemma_check
from dgkit.graded import cohomology
from dgkit.linalg import Matrix, add_multiple, kernel_of, linear_solve
from dgkit.models import dots_squares_model, end_tensor
from dgkit.scalars import Scalar


def brute_force_strong_lemma(b) -> bool:
    """Strong lemma via per-vector membership solves.

    LHS basis vectors are found by intersecting kernels with the stacked
    image system; membership in im(d0 d1) is decided by linear_solve, not by
    canonical-form equality.
    """
    space = b.space
    d0d1 = b.d0.compose(b.d1)
    for k in space.degrees():
        n = space.dim(k)
        if n == 0:
            continue
        ker0 = kernel_of(b.d0.block(k))
        ker1 = kernel_of(b.d1.block(k))
        both = ker0.intersect(ker1)
        # intersect with im(d0) + im(d1) by solving [d0 | d1] z = v
        m0 = b.d0.block(k - 1)
        m1 = b.d1.block(k - 1)
        stacked = m0.hstack(m1)
        comp = d0d1.block(k - 2)
        for v in both.vectors():
            in_sum = linear_solve(stacked, v) is not None
            if not in_sum:
                continue
            in_im01 = linear_solve(comp, v) is not None
            if not in_im01:
                return False
    return True


def test_strong_lemma_agrees_with_membership_solver():
    for seed in range(12):
        zz = [0] if seed % 3 == 0 else []
        b = dots_squares_model({0: 1, 1: 2}, [0, seed % 2], zz, seed=seed)
        assert strong_lemma_check(b).strong_lemma == brute_force_strong_lemma(b)


def test_cohomology_dims_agree_with_rank_nullity():
    for seed in range(6):
        b = end_tensor(dots_squares_model({0: 1, 1: 1}, [seed % 2], seed=seed), 2)
        for name in ("d0", "d1"):
            h = cohomology(b.algebra, name)
            d = b.algebra.differential(name)
            for k in b.space.degrees():
                n = b.space.dim(k)
                expected = n - d.block(k).rank() - d.block(k - 1).rank()
                assert h.dim(k) == expected


def test_class_of_product_is_product_of_classes_random():
    rnd = random.Random(99)
    b = end_tensor(dots_squares_model({0: 1, 1: 1, 2: 1}, [0], seed=23), 2)
    alg = b.algebra
    h = cohomology(alg, "d0")
    d = alg.differential("d0")
    for _ in range(25):
        k1 = rnd.choice(alg.space.degrees())
        k2 = rnd.choice(alg.space.degrees())
        if alg.space.dim(k1 + k2) == 0:
            continue
        closed = []
        for k in (k1, k2):
            basis = kernel_of(d.block(k)).vectors()
            v = {}
            for bv in basis:
                c = rnd.randint(-2, 2)
                if c:
                    add_multiple(v, Scalar(c), bv)
            closed.append(v)
        x, y = closed
        [lhs] = h.project(k1 + k2, [alg.mul(k1, x, k2, y)])
        if h.dim(k1) and h.dim(k2):
            [hx] = h.project(k1, [x])
            [hy] = h.project(k2, [y])
            assert lhs == h.as_algebra().mul(k1, hx, k2, hy)
        else:
            # one factor is exact, so the product class must vanish
            assert not lhs

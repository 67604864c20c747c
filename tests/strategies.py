"""Hypothesis strategies shared by the graded-algebra, sl(2) and deformation
tests, and the conversions between a vector (the {index: Scalar} dict of its
non-zero entries) and its dense entries, which the dense reference oracles
of the tests work on."""

from fractions import Fraction

from hypothesis import strategies as st

from dgkit.graded import GradedMap, GradedSpace, StructuredAlgebra
from dgkit.scalars import ONE, ZERO, Scalar

COEFFS = (ONE, -ONE, Scalar(0, 1), Scalar(2), Scalar(1, -1))
# non-integral Gaussian rationals with mixed denominators, so that products
# and sums go through a common denominator larger than 1
FRACTIONS = (Scalar(Fraction(1, 2)), Scalar(Fraction(-2, 3)),
             Scalar(Fraction(1, 3), Fraction(1, 4)), Scalar(Fraction(3, 4), Fraction(-1, 6)))
DEGREES = range(3)


def vec(*xs):
    """The vector with the dense entries xs (Scalars, ints or Fractions)."""
    return sparse([x if isinstance(x, Scalar) else Scalar(x) for x in xs])


def sparse(v):
    """The vector of a dense sequence of Scalars."""
    return {i: x for i, x in enumerate(v) if not x.is_zero()}


def vsum(u, v):
    """u + v, on their dense entries."""
    n = 1 + max((*u, *v), default=-1)
    return sparse([a + b for a, b in zip(dense(u, n), dense(v, n))])


def vscale(c, u):
    """c * u, entry by entry."""
    return {} if c.is_zero() else {i: c * x for i, x in u.items()}


def dense(v, n):
    """The n dense entries of the vector v."""
    assert all(0 <= i < n for i in v)
    return tuple(v.get(i, ZERO) for i in range(n))


@st.composite
def graded_spaces(draw, prefix="g"):
    """Labels prefix{k}_{i} in degrees 0-2, at most three per degree."""
    return GradedSpace({k: [f"{prefix}{k}_{i}" for i in range(draw(st.integers(0, 3)))]
                        for k in DEGREES})


@st.composite
def random_algebras(draw, space=None, coeffs=COEFFS):
    """Random structure constants from coeffs on a graded space in degrees
    0-2; the triples repeat (l1, l2, lt) with opposite signs, so some
    constants cancel to empty products.  The products are in general neither
    commutative nor associative."""
    space = draw(graded_spaces()) if space is None else space
    labels = space.all_labels()
    triples = []
    for l1 in labels:
        for l2 in labels:
            targets = space.labels(space.degree_of(l1) + space.degree_of(l2))
            for lt in targets:
                if draw(st.integers(0, 2)) == 0:
                    c = draw(st.sampled_from(coeffs))
                    triples.append((l1, l2, lt, c))
                    if draw(st.booleans()):
                        triples.append((l1, l2, lt, -c))
    return StructuredAlgebra(space, "associative", {},
                             StructuredAlgebra.structure_from_triples(triples))


@st.composite
def dg_algebras(draw, kind="associative"):
    """random_algebras() with a random shift-1 map as the differential "d".
    d is in general neither square-zero nor a derivation; with kind "lie"
    the structure constants are a bracket that in general is neither
    skew-symmetric nor satisfies Jacobi."""
    alg = draw(random_algebras())
    d = draw(graded_maps(alg.space, alg.space, 1))
    return StructuredAlgebra(alg.space, kind, {"d": d}, alg.structure)


def ref_commutator_structure(alg):
    """The graded commutator [l1, l2] = l1 l2 - (-1)^(k1 k2) l2 l1 of each
    label pair with a product either way, as structure constants: the oracle
    for `StructuredAlgebra.bracket` of an associative algebra."""
    structure = {}
    for (l1, l2) in set(alg.structure) | {(b, a) for (a, b) in alg.structure}:
        k1, k2 = alg.space.degree_of(l1), alg.space.degree_of(l2)
        sign = -ONE if (k1 * k2) % 2 == 0 else ONE
        br = dict(alg.mul_labels(l1, l2))
        for lab, c in alg.mul_labels(l2, l1).items():
            br[lab] = br.get(lab, ZERO) + sign * c
        br = {lab: c for lab, c in br.items() if not c.is_zero()}
        if br:
            structure[(l1, l2)] = br
    return structure


def commutator_lie(alg):
    """The lie-kind algebra of alg's graded commutator, with alg's
    differentials and maps: the tests' one source of a DGLA built from an
    associative algebra."""
    return StructuredAlgebra(alg.space, "lie", alg.differentials,
                             ref_commutator_structure(alg), alg.maps)


@st.composite
def sparse_vectors(draw, n, coeffs=COEFFS):
    """Vectors of F^n, each entry zero with probability about 2/7."""
    return sparse([draw(st.sampled_from((ZERO, ZERO) + coeffs)) for _ in range(n)])


@st.composite
def dense_vectors(draw, n, coeffs=COEFFS):
    """Vectors of F^n with every entry non-zero."""
    return sparse([draw(st.sampled_from(coeffs)) for _ in range(n)])


def vectors(n):
    """Vectors of F^n of every shape: zero, one entry, some entries or all,
    over integral and fractional Gaussian coefficients."""
    mixed = COEFFS + FRACTIONS
    one_entry = (st.tuples(st.integers(0, n - 1), st.sampled_from(mixed)).map(lambda ic: dict([ic]))
                 if n else st.just({}))
    return st.one_of(st.just({}), one_entry, sparse_vectors(n, mixed), dense_vectors(n, mixed))


@st.composite
def graded_maps(draw, source, target, shift=0):
    """A random map of the given degree shift between two graded spaces."""
    entries = [(frm, to, draw(st.sampled_from(COEFFS)))
               for k in source.degrees() for frm in source.labels(k)
               for to in target.labels(k + shift) if draw(st.integers(0, 1))]
    return GradedMap.from_entries(source, target, shift, entries)

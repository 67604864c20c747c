import contextlib
import io
import os

import pytest

from dgkit.cli import main
from dgkit.graded import GradedMap, GradedSpace, StructuredAlgebra
from dgkit.scalars import ONE, Scalar


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    """run(*argv) -> (exit code, stdout) of cli.main(argv), run in one fresh
    directory per test module (run.workdir) and memoised per argv."""
    workdir = tmp_path_factory.mktemp("cli")
    cache = {}

    def run(*argv):
        if argv not in cache:
            out = io.StringIO()
            cwd = os.getcwd()
            os.chdir(workdir)
            try:
                with contextlib.redirect_stdout(out):
                    code = main(list(argv))
            finally:
                os.chdir(cwd)
            cache[argv] = (code, out.getvalue())
        return cache[argv]

    run.workdir = workdir
    return run


def exterior_two_generators(d_entries=()):
    """Unital exterior algebra on two degree-1 generators g1, g2."""
    space = GradedSpace({0: ["one"], 1: ["g1", "g2"], 2: ["g12"]})
    triples = [
        ("one", "one", "one", ONE),
        ("one", "g1", "g1", ONE), ("g1", "one", "g1", ONE),
        ("one", "g2", "g2", ONE), ("g2", "one", "g2", ONE),
        ("one", "g12", "g12", ONE), ("g12", "one", "g12", ONE),
        ("g1", "g2", "g12", ONE), ("g2", "g1", "g12", Scalar(-1)),
    ]
    d = GradedMap.from_entries(space, space, 1, d_entries)
    return StructuredAlgebra(
        space, "associative", {"d": d},
        StructuredAlgebra.structure_from_triples(triples))


def gl2_algebra():
    """gl(2) in degree 0 as an associative matrix algebra, zero differential."""
    labels = ["E11", "E12", "E21", "E22"]
    space = GradedSpace({0: labels})
    triples = []
    for a in (1, 2):
        for b in (1, 2):
            for c in (1, 2):
                for d in (1, 2):
                    if b == c:
                        triples.append((f"E{a}{b}", f"E{c}{d}", f"E{a}{d}", ONE))
    dmap = GradedMap.zero(space, space, 1)
    return StructuredAlgebra(
        space, "associative", {"d": dmap},
        StructuredAlgebra.structure_from_triples(triples))


def square_bicomplex_algebra():
    """One 4-element square: d0 a = b, d1 a = c, d1 b = e, d0 c = -e.

    Products all zero except the degree-0 unit; base degree 0.
    """
    space = GradedSpace({0: ["one", "a0"], 1: ["b", "c"], 2: ["e"]})
    triples = [("one", lab, lab, ONE) for lab in ["one", "a0", "b", "c", "e"]]
    triples += [(lab, "one", lab, ONE) for lab in ["a0", "b", "c", "e"]]
    d0 = GradedMap.from_entries(space, space, 1, [("a0", "b", ONE), ("c", "e", Scalar(-1))])
    d1 = GradedMap.from_entries(space, space, 1, [("a0", "c", ONE), ("b", "e", ONE)])
    return StructuredAlgebra(
        space, "associative", {"d0": d0, "d1": d1},
        StructuredAlgebra.structure_from_triples(triples))


@pytest.fixture
def exterior2():
    return exterior_two_generators()


@pytest.fixture
def gl2():
    return gl2_algebra()


@pytest.fixture
def square():
    return square_bicomplex_algebra()

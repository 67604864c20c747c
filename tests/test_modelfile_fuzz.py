"""Mutation fuzz of model files through the CLI.

Each example takes a generated model file, deletes, duplicates or rewrites
tokens of a few of its lines, and runs the result through the checking
subcommands.  Whatever the mutant, a run must end in a report with exit code
0 (checks passed), 1 (a check failed or the input was refused) or 2 (usage
error), never in an uncaught exception.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgkit.cli import main
from dgkit.modelfile import serialize_connection_model, serialize_model
from dgkit.models import dots_squares_model, torus_model, zigzag_model

BASE_MODELS = {
    "torus_r1": serialize_connection_model(torus_model(1)),
    "dots-squares": serialize_model(
        dots_squares_model({0: 1, 1: 1}, [0], [1], seed=3).algebra),
    "zigzag": serialize_model(zigzag_model(0, seed=0).algebra),
}

# each base model's differential pair, so that dgms and formality reach their checks
PAIRS = {"torus_r1": ["--d0", "del", "--d1", "del_bar"], "dots-squares": [], "zigzag": []}

COMMANDS = [
    ["validate"],
    ["sl2"],
    ["spectral"],
    ["dgms", "PAIR"],
    ["formality", "PAIR"],
    ["deform", "--order", "3", "--samples", "3", "--seed", "0"],
]

JUNK = ["", "0", "-1", "2", "1/0", "1/2+1*i", "x", ":", "->", "kind", "lie", "degrees",
        "map", "structure", "shift", "-3", "99999999999999999999"]


@st.composite
def mutants(draw):
    name = draw(st.sampled_from(sorted(BASE_MODELS)))
    lines = BASE_MODELS[name].splitlines()
    tokens = sorted({t for line in lines for t in line.split()})
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["delete", "duplicate", "replace"]))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif lines[i].split():
            words = lines[i].split()
            j = draw(st.integers(0, len(words) - 1))
            words[j] = draw(st.sampled_from(JUNK) | st.sampled_from(tokens))
            lines[i] = " ".join(words)
    return name, "".join(line + "\n" for line in lines)


def run(argv) -> int:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutant.model"


@settings(max_examples=50, deadline=None)
@given(mutants())
def test_mutated_model_files_never_crash_the_cli(model_path, mutant):
    name, text = mutant
    model_path.write_text(text)
    for command in COMMANDS:
        argv = [a for c in command for a in (PAIRS[name] if c == "PAIR" else [c])]
        code = run(["--format", "json", *argv, str(model_path)])
        assert code in (0, 1, 2), (argv, text)

"""The CLI reads a well-formed command line straight off the invoked
subcommand's row of SUBCOMMANDS (the one-command parser) and builds the full
argparse parser only for help and errors: parity of the two paths, the
parsers each path builds, and the report-format variable."""

import argparse
import contextlib
import importlib.util
import io
import os
import re
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgkit import cli
from dgkit.cli import SUBCOMMANDS, Report, main
from dgkit.modelfile import serialize_connection_model
from dgkit.models import torus_model

MODEL_TEXT = serialize_connection_model(torus_model(1))
FULL_BUILD = 1 + len(SUBCOMMANDS)  # the top-level parser and one per subcommand


def _arg(command):
    return "torus" if command == "generate" else "m.model"


def run(argv, full=False):
    """(exit code, stdout, stderr) of main(argv), through argparse alone when
    full; report timings are masked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        if full:
            stack.enter_context(mock.patch.object(cli, "_plain_parse", lambda argv: None))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, re.sub(r"\(\d+\.\d ms\)", "(... ms)", out.getvalue()), err.getvalue()


def argparse_items(argv):
    """The (dest, value) pairs of the full argparse parser on argv, in order."""
    with contextlib.redirect_stderr(io.StringIO()):
        return list(vars(cli.build_parser().parse_args(argv)).items())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory for a rank-1 torus model file m.model."""
    return tmp_path_factory.mktemp("parser")


@pytest.fixture
def in_workdir(workdir, monkeypatch):
    """workdir as the working directory, m.model written afresh (a generate
    -o m.model run may have replaced it) and no DGKIT_REPORT_FORMAT."""
    (workdir / "m.model").write_text(MODEL_TEXT)
    monkeypatch.chdir(workdir)
    monkeypatch.delenv("DGKIT_REPORT_FORMAT", raising=False)
    return workdir


# a well-formed argv per subcommand, options in and out of table order
WELL_FORMED = {
    "validate": ["validate", "--differential", "del", "m.model"],
    "dgms": ["dgms", "m.model", "--d1", "del_bar", "--d0", "del"],
    "cohomology": ["cohomology", "m.model"],
    "formality": ["--format", "json", "formality", "--d0", "del", "m.model", "--d1", "del_bar"],
    "sl2": ["--format", "text", "sl2", "m.model"],
    "qdolbeault": ["qdolbeault", "--phi", "m.model", "--window", "2", "--extended"],
    "spectral": ["spectral", "m.model"],
    "deform": ["deform", "m.model", "--seed", "5", "--order", "2", "--samples", "1"],
    "generate": ["generate", "dots-squares", "--dots", "", "--squares", "0", "--no-unit",
                 "--end-rank", "2", "-o", "out.model"],
}

PARITY = [
    [], ["-h"], ["--form", "json"], ["--format=json"], ["--format"], ["foo", "m.model"],
    ["-h", "validate"], ["cohomology", "validate"], ["--format", "validate", "sl2", "m.model"],
    ["--", "validate", "m.model"], ["cohomology", "--", "m.model"],
    ["qdolbeault", "m.model", "--extended", "--window", "0"],
    ["qdolbeault", "m.model", "--window", "x"], ["qdolbeault", "m.model", "--phi", "--phi"],
    ["deform", "m.model", "--samples", "0"], ["deform", "m.model", "--order", "1"],
    ["deform", "m.model", "--samples", "1", "--seed", "-1"], ["deform", "m.model", "--seed"],
    ["deform", "m.model", "--samples", "1", "--sam", "2"],
    ["generate", "torus", "--rank", "0"], ["generate", "dots-squares", "--end-rank", "0"],
    ["generate", "dots-squares", "--dots", "0:-1"], ["generate", "zigzag", "--squares", "x"],
    ["generate", "bogus"], ["generate", "torus", "--rank", "2", "--rank", "1"],
    ["generate", "torus", "-oout.model"], ["generate", "torus", "--output=out.model"],
    ["generate", "torus", "zigzag"], ["--format", "json", "--format", "text", "sl2", "m.model"],
    ["dgms", "m.model", "--d0", "--d1", "del_bar"], ["validate", "m.model", "--differential", "-h"],
    *WELL_FORMED.values(),
] + [argv for command in SUBCOMMANDS for argv in (
    [command, "-h"], [command], ["--format=json", command, _arg(command)],
    ["--form", "json", command, _arg(command)], ["--format", "xml", command, _arg(command)],
    ["--bogus", command, _arg(command)], [command, _arg(command), "--bogus"],
    [command, _arg(command), "--format", "json"])]


@pytest.mark.parametrize("argv", PARITY, ids=" ".join)
def test_one_command_parser_matches_the_full_parser(in_workdir, argv):
    assert run(argv) == run(argv, full=True)


def test_full_parser_errors_name_the_command_argument(in_workdir):
    assert run([])[2].endswith("error: the following arguments are required: command\n")
    assert "error: argument command: invalid choice: 'foo'" in run(["foo", "m.model"])[2]


TOKENS = [*SUBCOMMANDS, "m.model", "torus", "zigzag", "-h", "--format", "--format=json",
          "--format=xml", "--form", "json", "text", "xml", "JSON", "--bogus", "--", "--window",
          "--samples", "--order", "--rank", "--differential", "--d0", "d0", "0", "1", "x",
          "5", "-1", "3", "0:1", "--seed", "--phi", "--extended", "--d1", "-o", "out.model"]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=5))
def test_one_command_parser_matches_the_full_parser_on_any_tokens(workdir, argv):
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        (workdir / "m.model").write_text(MODEL_TEXT)
        with mock.patch.dict(os.environ):
            os.environ.pop("DGKIT_REPORT_FORMAT", None)
            assert run(argv) == run(argv, full=True)
    finally:
        os.chdir(cwd)


VALUES = ["5", "-1", "3", "0:1", "0:-1", "x", "0", "", "out.model", "torus", "zigzag", "del",
          "--d1", "--phi", "-h"]


@st.composite
def command_lines(draw):
    """[--format F] COMMAND, then some of its positional and options in any
    order, with values from VALUES and a stray token from TOKENS or none."""
    command = draw(st.sampled_from(list(SUBCOMMANDS)))
    pieces = []
    for *flags, kwargs in SUBCOMMANDS[command][2]:
        if flags[0][0] != "-":
            value = draw(st.sampled_from([_arg(command), *VALUES]))
            pieces.append([value] if draw(st.integers(0, 5)) else [])
        elif draw(st.booleans()):
            value = [] if "action" in kwargs else [draw(st.sampled_from(VALUES))]
            pieces.append([draw(st.sampled_from(flags)), *value])
    pieces = draw(st.permutations(pieces))
    if draw(st.integers(0, 2)) == 0:
        pieces.insert(draw(st.integers(0, len(pieces))), [draw(st.sampled_from(TOKENS))])
    head = draw(st.sampled_from([[], ["--format", "json"], ["--format", "xml"]]))
    return [*head, command, *(token for piece in pieces for token in piece)]


@settings(max_examples=300, deadline=None)
@given(command_lines(), st.sampled_from([None, "json", "text", "xml"]))
def test_a_plain_namespace_is_the_one_argparse_builds(argv, variable):
    with mock.patch.dict(os.environ):
        os.environ.pop("DGKIT_REPORT_FORMAT", None)
        if variable is not None:
            os.environ["DGKIT_REPORT_FORMAT"] = variable
        args = cli._plain_parse(argv)
        if args is not None:  # argparse accepts argv and builds the same Namespace
            assert list(vars(args).items()) == argparse_items(argv)


def test_a_string_default_goes_through_the_type(monkeypatch):
    # every string default in SUBCOMMANDS keeps its text, so probe with one that does not
    monkeypatch.setitem(SUBCOMMANDS, "probe", ("", None, (("model", {}),
                                                          ("--n", {"type": int, "default": "7"}))))
    monkeypatch.delenv("DGKIT_REPORT_FORMAT", raising=False)
    assert list(vars(cli._plain_parse(["probe", "m"])).items()) == argparse_items(["probe", "m"])
    assert cli._plain_parse(["probe", "m"]).n == 7


@pytest.fixture
def parsers_built(monkeypatch):
    """A list that gets one entry per argparse.ArgumentParser built."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return built


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_main_builds_only_the_invoked_subparser(in_workdir, monkeypatch, parsers_built, command):
    """A well-formed argv is parsed from the invoked subcommand's row of
    SUBCOMMANDS alone, into argparse's Namespace, with no argparse parser."""
    argv = WELL_FORMED[command]
    assert list(vars(cli._plain_parse(argv)).items()) == argparse_items(argv)
    rows = []

    class Recording(dict):
        def __getitem__(self, name):
            rows.append(name)
            return super().__getitem__(name)

    monkeypatch.setattr(cli, "SUBCOMMANDS", Recording(SUBCOMMANDS))
    parsers_built.clear()
    assert run(argv)[0] in (0, 1)
    assert parsers_built == [] and set(rows) == {command}


@pytest.mark.parametrize("argv", PARITY, ids=" ".join)
def test_argparse_is_built_whole_where_the_plain_parser_declines(in_workdir, parsers_built,
                                                                argv):
    plain = cli._plain_parse(argv) is not None
    code, out, err = run(argv)
    assert len(parsers_built) == (0 if plain else FULL_BUILD)
    if err or out.startswith("usage:"):  # help and every usage error
        assert not plain


def test_importing_the_cli_builds_no_parser(parsers_built):
    spec = importlib.util.spec_from_file_location("dgkit_cli_fresh", cli.__file__)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
    assert parsers_built == []


def _workloads():
    """perfbench/workloads.py, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules, {spec.name: module}):
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["torus", "bicomplex", "deform"])
def test_every_benchmark_argv_takes_the_plain_path(monkeypatch, workload):
    monkeypatch.delenv("DGKIT_REPORT_FORMAT", raising=False)
    jobs = _workloads().catalogue(workload)
    assert jobs
    for job in jobs:
        argv = ["--format", "json", *job.argv]
        args = cli._plain_parse(argv)
        assert args is not None, argv
        assert list(vars(args).items()) == argparse_items(argv)


@pytest.mark.parametrize("value", ["xml", "JSON"])
def test_invalid_report_format_variable_is_a_usage_error(in_workdir, monkeypatch, value):
    monkeypatch.setenv("DGKIT_REPORT_FORMAT", value)
    assert cli._plain_parse(["cohomology", "m.model"]) is None
    code, out, err = run(["cohomology", "m.model"])
    assert code == 2 and out == ""
    assert f"DGKIT_REPORT_FORMAT: invalid choice: {value!r}" in err
    # an explicit --format does not read the variable
    code, out, _ = run(["--format", "json", "cohomology", "m.model"])
    assert code == 0 and out.startswith("{")


def test_valid_report_format_variable_is_the_default(in_workdir, monkeypatch):
    monkeypatch.setenv("DGKIT_REPORT_FORMAT", "json")
    assert cli._plain_parse(["cohomology", "m.model"]).format == "json"
    code, out, _ = run(["cohomology", "m.model"])
    assert code == 0 and out.startswith("{")


def test_text_report_prints_an_inner_list_of_scalars_on_one_line():
    report = Report("demo", {})
    report.put("induced_structure", [["a", "b", "ab", "1/2"], ["b", "a", "ab", "-1/2"]])
    report.put("nested", [{"x": 1}, [[1, 2], 3]])
    text = report.to_text()
    assert "    - [a, b, ab, 1/2]\n    - [b, a, ab, -1/2]\n" in text
    assert "    x: 1\n    - [1, 2]\n    - 3\n" in text

"""The CLI builds only the invoked subcommand's parser: parity with the full
parser, the one add_parser call per run, and the report-format variable."""

import argparse
import contextlib
import io
import os
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgkit import cli
from dgkit.cli import SUBCOMMANDS, Report, main
from dgkit.modelfile import serialize_connection_model
from dgkit.models import torus_model


def _arg(command):
    return "torus" if command == "generate" else "m.model"


def run(argv, full=False):
    """(exit code, stdout, stderr) of main(argv), with the parser of every
    subcommand when full; report timings are masked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        if full:
            stack.enter_context(mock.patch.object(cli, "_invoked", lambda argv: None))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, re.sub(r"\(\d+\.\d ms\)", "(... ms)", out.getvalue()), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory with a rank-1 torus model file m.model, made the working
    directory for the test."""
    path = tmp_path_factory.mktemp("parser")
    (path / "m.model").write_text(serialize_connection_model(torus_model(1)))
    return path


@pytest.fixture
def in_workdir(workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    monkeypatch.delenv("DGKIT_REPORT_FORMAT", raising=False)
    return workdir


PARITY = [
    [], ["-h"], ["--form", "json"], ["--format=json"], ["--format"], ["foo", "m.model"],
    ["-h", "validate"], ["cohomology", "validate"], ["--format", "validate", "sl2", "m.model"],
    ["--", "validate", "m.model"],
    ["qdolbeault", "m.model", "--extended", "--window", "0"],
    ["qdolbeault", "m.model", "--window", "x"],
    ["deform", "m.model", "--samples", "0"], ["deform", "m.model", "--order", "1"],
    ["generate", "torus", "--rank", "0"], ["generate", "dots-squares", "--end-rank", "0"],
    ["generate", "dots-squares", "--dots", "0:-1"], ["generate", "zigzag", "--squares", "x"],
    ["generate", "bogus"],
] + [argv for command in SUBCOMMANDS for argv in (
    [command, "-h"], [command], ["--format=json", command, _arg(command)],
    ["--form", "json", command, _arg(command)], ["--format", "xml", command, _arg(command)],
    ["--bogus", command, _arg(command)], [command, _arg(command), "--bogus"])]


@pytest.mark.parametrize("argv", PARITY, ids=" ".join)
def test_one_command_parser_matches_the_full_parser(in_workdir, argv):
    assert run(argv) == run(argv, full=True)


def test_full_parser_errors_name_the_command_argument(in_workdir):
    # a metavar on the full parser would rename "command" in these errors
    assert run([])[2].endswith("error: the following arguments are required: command\n")
    assert "error: argument command: invalid choice: 'foo'" in run(["foo", "m.model"])[2]


TOKENS = [*SUBCOMMANDS, "m.model", "torus", "zigzag", "-h", "--format", "--format=json",
          "--format=xml", "--form", "json", "text", "xml", "JSON", "--bogus", "--", "--window",
          "--samples", "--order", "--rank", "--differential", "--d0", "d0", "0", "1", "x"]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=5))
def test_one_command_parser_matches_the_full_parser_on_any_tokens(workdir, argv):
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with mock.patch.dict(os.environ):
            os.environ.pop("DGKIT_REPORT_FORMAT", None)
            assert run(argv) == run(argv, full=True)
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_main_builds_only_the_invoked_subparser(in_workdir, monkeypatch, command):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    assert run([command, "-h"])[0] == 0
    assert built == [command]
    built.clear()
    run(["--format", "json", command, _arg(command)])
    assert built == [command]


@pytest.mark.parametrize("value", ["xml", "JSON"])
def test_invalid_report_format_variable_is_a_usage_error(in_workdir, monkeypatch, value):
    monkeypatch.setenv("DGKIT_REPORT_FORMAT", value)
    code, out, err = run(["cohomology", "m.model"])
    assert code == 2 and out == ""
    assert f"DGKIT_REPORT_FORMAT: invalid choice: {value!r}" in err
    # an explicit --format does not read the variable
    code, out, _ = run(["--format", "json", "cohomology", "m.model"])
    assert code == 0 and out.startswith("{")


def test_valid_report_format_variable_is_the_default(in_workdir, monkeypatch):
    monkeypatch.setenv("DGKIT_REPORT_FORMAT", "json")
    code, out, _ = run(["cohomology", "m.model"])
    assert code == 0 and out.startswith("{")


def test_text_report_prints_an_inner_list_of_scalars_on_one_line():
    report = Report("demo", {})
    report.put("induced_structure", [["a", "b", "ab", "1/2"], ["b", "a", "ab", "-1/2"]])
    report.put("nested", [{"x": 1}, [[1, 2], 3]])
    text = report.to_text()
    assert "    - [a, b, ab, 1/2]\n    - [b, a, ab, -1/2]\n" in text
    assert "    x: 1\n    - [1, 2]\n    - 3\n" in text

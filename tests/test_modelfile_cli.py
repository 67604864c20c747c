import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dgkit.cli import main
from dgkit.errors import ModelError
from dgkit.modelfile import (
    ParseError,
    parse_model,
    serialize_connection_model,
    serialize_model,
)
from dgkit.models import dots_squares_model, torus_model
from dgkit.qdolbeault import autoduality_check
from dgkit.scalars import Scalar

GOOD = """
kind associative

degrees
0 : one
1 : a
2 : b

map d0 shift 1
a -> b : 1/2

structure
one a -> a : 1
"""


def test_parse_and_canonical_round_trip():
    parsed = parse_model(GOOD)
    text = serialize_model(parsed.algebra)
    again = parse_model(text)
    assert serialize_model(again.algebra) == text


def test_generated_models_round_trip():
    b = dots_squares_model({0: 1, 1: 2}, [0], [1], seed=13)
    text = serialize_model(b.algebra)
    parsed = parse_model(text)
    assert serialize_model(parsed.algebra) == text

    torus_text = serialize_connection_model(torus_model(1))
    parsed = parse_model(torus_text)
    assert parsed.is_full()
    model = parsed.to_connection_model()
    assert autoduality_check(model).autodual
    assert serialize_model(parsed.algebra) == torus_text


def test_zero_denominator_scalar_is_parse_error():
    bad = GOOD.replace("1/2", "1/0")
    with pytest.raises(ParseError) as err:
        parse_model(bad)
    assert "denominator" in str(err.value)
    assert "line" in str(err.value)


def test_repeated_scalar_tokens_each_report_their_own_position():
    # "1" parses once and is shared; a bad token is never stored, so each
    # occurrence raises at its own line and column
    text = GOOD + "one one -> one : 1\none b -> b :  1/0\n"
    parsed = parse_model(text.replace("1/0", "1"))
    assert parsed.algebra.mul_labels("one", "one") == {"one": Scalar(1)}
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert (err.value.line, err.value.column) == (15, 15)
    with pytest.raises(ParseError) as err:
        parse_model(text.replace("a -> b : 1/2", "a -> b : 1/0"))
    assert (err.value.line, err.value.column) == (10, 10)


def test_unknown_label_is_semantic_error():
    bad = GOOD.replace("a -> b", "a -> zz")
    with pytest.raises(ModelError):
        parse_model(bad)


def test_grading_violation_names_the_triple():
    bad = GOOD + "structure\na b -> a : 1\n"
    with pytest.raises(ModelError) as err:
        parse_model(bad)
    assert "grading" in str(err.value)


def test_malformed_line_reports_position():
    with pytest.raises(ParseError) as err:
        parse_model("kind associative\n\nnonsense here\n")
    assert err.value.line == 3


# -- CLI ----------------------------------------------------------------------


def run_cli(args):
    # run in-process for speed; capture stdout via subprocess for byte checks
    return main(args)


def test_cli_dgms_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.model"
    good.write_text(serialize_model(dots_squares_model({0: 1}, [0], seed=1).algebra))
    assert run_cli(["dgms", str(good)]) == 0
    bad = tmp_path / "bad.model"
    bad.write_text(serialize_model(
        dots_squares_model({0: 1}, [], [0], seed=1).algebra))
    assert run_cli(["dgms", str(bad)]) == 1
    capsys.readouterr()


def test_cli_validate_and_cohomology(tmp_path, capsys):
    path = tmp_path / "m.model"
    path.write_text(serialize_model(dots_squares_model({0: 1, 1: 1}, [0], seed=2).algebra))
    assert run_cli(["validate", str(path)]) == 0
    assert run_cli(["cohomology", str(path), "--differential", "d0"]) == 0
    out = capsys.readouterr().out
    assert "dims" in out


def test_cli_qdolbeault_on_torus(tmp_path, capsys):
    path = tmp_path / "torus.model"
    path.write_text(serialize_connection_model(torus_model(1)))
    assert run_cli(["--format", "json", "qdolbeault", str(path), "--phi"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["report"]["dims"] == {"0": 1, "1": 4, "2": 3}
    assert payload["report"]["phi"]["certified"] is True


def test_cli_spectral_and_deform(tmp_path, capsys):
    path = tmp_path / "sq.model"
    sq = dots_squares_model({0: 1, 1: 1}, [0], seed=4, unit=True)
    from dgkit.models import connection_from_bicomplex
    text = serialize_model(connection_from_bicomplex(sq).dolbeault)
    path.write_text(text)
    assert run_cli(["spectral", str(path)]) == 0
    assert run_cli(["deform", str(path), "--order", "3", "--samples", "5",
                    "--seed", "1"]) == 0
    capsys.readouterr()


def test_cli_json_reports_are_deterministic(tmp_path):
    # Two fresh interpreters must print the same bytes.  The children run in
    # tmp_path and find dgkit through the absolute src path, so the test works
    # from any directory, installed or not.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)

    def run(cmd):
        return subprocess.run(cmd, capture_output=True, cwd=tmp_path, env=env)

    path = tmp_path / "m.model"
    path.write_text(serialize_model(dots_squares_model({0: 2}, [0], seed=3).algebra))
    cmd = [sys.executable, "-m", "dgkit.cli", "--format", "json", "dgms", str(path)]
    first = run(cmd)
    second = run(cmd)
    assert first.stdout == second.stdout and first.returncode == 0, (
        first.stderr.decode() + second.stderr.decode())

    dcmd = [sys.executable, "-m", "dgkit.cli", "--format", "json", "deform",
            str(path), "--order", "3", "--samples", "4", "--seed", "7"]
    a = run(dcmd)
    b = run(dcmd)
    assert a.stdout == b.stdout, a.stderr.decode() + b.stderr.decode()
    assert a.returncode == 0, a.stderr.decode()
    assert json.loads(a.stdout)["command"] == "deform", a.stderr.decode()


def test_cli_generate_round_trip(tmp_path, capsys):
    out = tmp_path / "t.model"
    assert run_cli(["generate", "torus", "--rank", "1", "-o", str(out)]) == 0
    assert run_cli(["qdolbeault", str(out)]) == 0
    capsys.readouterr()


def test_cli_unknown_subcommand_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code != 0
    capsys.readouterr()


# one name given to two maps: a second header, or an sl2/J line that names
# another map as a declared e, f, h or J; each is refused at its line
TWO_MAPS_ONE_NAME = {
    "repeated header": ("0 : x\n1 : y\n\nmap d shift 1\nx -> y : 1\n\nmap d shift 1\n",
                        "line 10: map 'd' is already declared at line 7"),
    "alias collision": ("0 : x y\n\nmap d shift 1\n\nmap e shift 0\ny -> x : 1\n\n"
                        "map up shift 0\n\nmap down shift 0\n\nmap cartan shift 0\n\n"
                        "sl2 up down cartan\n",
                        "line 17: sl2 names map 'up' as 'e', but map 'e' is declared at line 8"),
}


@pytest.mark.parametrize("case", TWO_MAPS_ONE_NAME)
def test_cli_refuses_a_map_name_given_twice(tmp_path, capsys, case):
    body, message = TWO_MAPS_ONE_NAME[case]
    text = f"kind associative\n\ndegrees\n{body}"
    with pytest.raises(ParseError, match=message):
        parse_model(text)
    path = tmp_path / "twice.model"
    path.write_text(text)
    for command in ("cohomology", "sl2"):
        assert run_cli(["--format", "json", command, str(path)]) == 1
        assert json.loads(capsys.readouterr().out)["report"] == {"error": message}


def test_sl2_and_j_lines_alias_declared_maps(tmp_path, capsys):
    """A file whose sl2 and J lines name other maps reads as e, f, h, J equal
    to those maps, round-trips canonically and gives the same sl2 report."""
    plain = serialize_connection_model(torus_model(1))
    renames = {"map e ": "map up ", "map f ": "map down ", "map h ": "map cartan ",
               "map J ": "map jay ", "sl2 e f h": "sl2 up down cartan", "J J": "J jay"}
    aliased = plain
    for old, new in renames.items():
        assert aliased.count(old) == 1
        aliased = aliased.replace(old, new)
    maps = parse_model(aliased).algebra.maps
    for alias, name in (("e", "up"), ("f", "down"), ("h", "cartan"), ("J", "jay")):
        assert maps[alias] is maps[name]
        assert maps[alias] == parse_model(plain).algebra.maps[alias]
    text = serialize_model(parse_model(aliased).algebra)
    assert serialize_model(parse_model(text).algebra) == text

    reports = []
    for name, body in (("plain", plain), ("aliased", aliased)):
        (tmp_path / name).mkdir()
        (tmp_path / name / "torus.model").write_text(body)
        assert run_cli(["--format", "json", "sl2", f"{tmp_path / name}/torus.model"]) == 0
        reports.append(json.loads(capsys.readouterr().out)["report"])
    assert reports[0] == reports[1]


def test_cli_parse_error_reported(tmp_path, capsys):
    path = tmp_path / "broken.model"
    path.write_text("kind associative\n\ndegrees\n0 : x\n\nmap d shift 1\nx -> x : 1/0\n")
    assert run_cli(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "error" in out


def test_cli_unreadable_model_file_reported(tmp_path, capsys):
    missing = tmp_path / "no_such.model"
    assert run_cli(["--format", "json", "validate", str(missing)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    assert "cannot read model file" in report["report"]["error"]
    assert "No such file" in report["report"]["error"]
    binary = tmp_path / "binary.model"
    binary.write_bytes(b"\xff\xfe\x00")
    assert run_cli(["sl2", str(binary)]) == 1
    assert "cannot read model file" in capsys.readouterr().out


# a full torus file whose del_bar, or whose product, sends (0,*) labels
# outside the (0,*) part; the error names the first offending pair or triple
LEAVES_D = {
    "operator": (("map del_bar shift 1\n", "map del_bar shift 1\n"
                  "dzb2|E1_1 -> dz2^dzb2|E1_1 : 1\n"
                  "dzb1|E1_1 -> dz1^dzb1|E1_1 : 1\n"
                  "dzb1|E1_1 -> dz1^dz2|E1_1 : 1\n"),
                 "operator leaves the (0,*) part at 'dzb1|E1_1' -> 'dz1^dz2|E1_1'"),
    "product": (("dzb1|E1_1 dzb2|E1_1 -> dzb1^dzb2|E1_1 : 1\n",
                 "dzb1|E1_1 dzb2|E1_1 -> dz1^dzb2|E1_1 : 1\n"),
                "product leaves the (0,*) part at 'dzb1|E1_1' * 'dzb2|E1_1' -> 'dz1^dzb2|E1_1'"),
}


@pytest.mark.parametrize("part", LEAVES_D)
def test_cli_reports_a_full_model_that_leaves_the_dolbeault_part(tmp_path, part):
    (old, new), message = LEAVES_D[part]
    text = serialize_connection_model(torus_model(1))
    assert text.count(old) == 1
    path = tmp_path / "bad.model"
    path.write_text(text.replace(old, new))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-m", "dgkit.cli", "--format", "json",
                          "qdolbeault", str(path)], capture_output=True, cwd=tmp_path, env=env)
    assert run.returncode == 1 and run.stderr == b"", run.stderr.decode()
    report = json.loads(run.stdout)
    assert report["passed"] is False
    assert report["report"] == {"error": message}


@pytest.mark.parametrize("where, reason", [("missing/t.model", "No such file"),
                                           (".", "Is a directory")])
def test_cli_unwritable_generate_output_reported(tmp_path, capsys, where, reason):
    path = str(tmp_path / where)
    assert run_cli(["--format", "json", "generate", "torus", "-o", path]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False and "written" not in report["report"]
    assert report["report"]["error"].startswith(f"cannot write model file {path!r}: ")
    assert reason in report["report"]["error"]


def test_cli_formality_and_sl2(tmp_path, capsys):
    ds = tmp_path / "ds.model"
    ds.write_text(serialize_model(dots_squares_model({0: 1, 1: 1}, [0], seed=9).algebra))
    assert run_cli(["formality", str(ds)]) == 0
    torus = tmp_path / "torus.model"
    torus.write_text(serialize_connection_model(torus_model(1)))
    assert run_cli(["sl2", str(torus)]) == 0
    assert run_cli(["--format", "json", "qdolbeault", str(torus),
                    "--extended", "--window", "3"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", ["dgms", "formality"])
def test_cli_reads_torus_files_without_flags(tmp_path, capsys, command):
    """A full model file without (d0, d1) is read as its connection model's
    (del_bar_J, del_bar) bicomplex, as `spectral` reads it."""
    torus = tmp_path / "torus.model"
    torus.write_text(serialize_connection_model(torus_model(1)))
    assert run_cli(["--format", "json", command, str(torus)]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    if command == "dgms":
        assert report["conditions"]["strong_lemma"] is True
    else:
        assert report["zigzag"]["certified"] is True


@pytest.mark.parametrize("command", ["dgms", "formality"])
@pytest.mark.parametrize("flags, missing", [
    (("--d0", "del", "--d1", "nope"), "'nope' (--d1)"),
    (("--d0", "nope", "--d1", "del_bar"), "'nope' (--d0)"),
    (("--d0", "nope"), "'nope' (--d0)"),
    (("--d1", "del_bar"), "'d0' (--d0)"),
])
def test_cli_a_named_differential_the_model_lacks_is_bad_input(tmp_path, capsys, command,
                                                              flags, missing):
    """Only the default pair (d0, d1) falls back to (del_bar_J, del_bar): a
    missing differential of any other pair is a model error naming it and
    its flag, not a report on another pair."""
    torus = tmp_path / "torus.model"
    torus.write_text(serialize_connection_model(torus_model(1)))
    assert run_cli(["--format", "json", command, str(torus), *flags]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["report"] == {"error": f"model has no differential {missing}"}


@pytest.mark.parametrize("command", ["dgms", "formality"])
def test_cli_the_default_pair_falls_back_when_typed(tmp_path, capsys, command):
    """The fallback reads the pair's names, so typing the defaults is the
    same as giving no flag."""
    torus = tmp_path / "torus.model"
    torus.write_text(serialize_connection_model(torus_model(1)))
    reports = []
    for flags in ((), ("--d0", "d0", "--d1", "d1")):
        assert run_cli(["--format", "json", command, str(torus), *flags]) == 0
        reports.append(json.loads(capsys.readouterr().out)["report"])
    assert reports[0] == reports[1]


def test_cli_formality_fails_on_zigzag(tmp_path, capsys):
    from dgkit.models import zigzag_model
    zz = tmp_path / "zz.model"
    zz.write_text(serialize_model(zigzag_model(0).algebra))
    assert run_cli(["formality", str(zz)]) == 1
    capsys.readouterr()


def test_text_and_json_reports_carry_the_same_verdicts(tmp_path):
    from dgkit.cli import Report

    report = Report("demo", {"model": "m"})
    report.put("alpha", {"passed": True, "dims": {"0": 2}}, asserted=True)
    report.put("beta", [1, 2, 3])
    text = report.to_text()
    payload = report.to_dict()

    def leaves(obj):
        if isinstance(obj, dict):
            for k, v in obj.items():
                yield from leaves(v)
        elif isinstance(obj, list):
            for v in obj:
                yield from leaves(v)
        else:
            yield obj

    for leaf in leaves(payload["report"]):
        assert str(leaf) in text
    assert ("PASS" in text) == payload["passed"]


@pytest.mark.parametrize("text", ["", "# only a comment\n", "kind lie\n\nstructure\n",
                                  "kind associative\n\ndegrees\n0 :\n"],
                         ids=["empty", "comment", "no-degrees", "no-labels"])
def test_cli_model_without_degrees_rejected(tmp_path, capsys, text):
    with pytest.raises(ParseError, match="no basis labels"):
        parse_model(text)
    path = tmp_path / "bare.model"
    path.write_text(text)
    assert run_cli(["--format", "json", "validate", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    assert "no basis labels" in report["report"]["error"]


@pytest.mark.parametrize("window", ["0", "-2", "x"])
def test_cli_window_below_one_usage_error(tmp_path, capsys, window):
    torus = tmp_path / "torus.model"
    torus.write_text(serialize_connection_model(torus_model(1)))
    with pytest.raises(SystemExit) as exc:
        main(["qdolbeault", "--extended", "--window", window, str(torus)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--window" in err and "window must" in err


@pytest.mark.parametrize("samples", ["0", "-3", "x"])
def test_cli_samples_below_one_usage_error(tmp_path, capsys, samples):
    torus = tmp_path / "torus.model"
    torus.write_text(serialize_connection_model(torus_model(1)))
    with pytest.raises(SystemExit) as exc:
        main(["deform", "--samples", samples, str(torus)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--samples" in err and "samples must" in err


@pytest.mark.parametrize("rank", ["0", "-2", "x"])
def test_cli_end_rank_below_one_usage_error(capsys, rank):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "dots-squares", "--dots", "0:1", "--end-rank", rank])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--end-rank" in err and "end-rank must" in err


@pytest.mark.parametrize("order", ["1", "0", "-1", "x"])
def test_cli_order_below_two_usage_error(tmp_path, capsys, order):
    torus = tmp_path / "torus.model"
    torus.write_text(serialize_connection_model(torus_model(1)))
    with pytest.raises(SystemExit) as exc:
        main(["deform", "--order", order, str(torus)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--order" in err and "order must" in err


@pytest.mark.parametrize("nilpotent", [False, True])
@pytest.mark.parametrize("rank", ["0", "-2", "x"])
def test_cli_torus_rank_below_one_usage_error(capsys, rank, nilpotent):
    argv = ["generate", "torus", "--rank", rank] + (["--nilpotent-twist"] if nilpotent else [])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--rank" in err and "rank must" in err


def test_cli_nilpotent_twist_at_rank_one_is_refused(tmp_path, capsys):
    """The twist needs rank 2; rank 1, the default, is not raised silently."""
    path = tmp_path / "twisted.model"
    assert run_cli(["--format", "json", "generate", "torus", "--nilpotent-twist",
                    "-o", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["options"]["rank"] == 1
    assert report["report"] == {"error": "the nilpotent twist needs coefficient rank >= 2"}
    assert not path.exists()


def test_cli_qdolbeault_refuses_phi_with_extended(tmp_path, capsys):
    torus = tmp_path / "torus.model"
    torus.write_text(serialize_connection_model(torus_model(1)))
    assert run_cli(["--format", "json", "qdolbeault", str(torus), "--extended", "--phi"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    assert report["report"] == {
        "error": "--phi needs the standard complex and cannot be combined with --extended"}


# d c = b, and x * b = w: the class of x times a representative of [w]
# depends on the representative, and only on the right factor
RIGHT_DEPENDENT = """
kind associative

degrees
0 : x c
1 : b w

map d shift 1
c -> b : 1

structure
x b -> w : 1
"""


def cohomology_refusal(tmp_path, capsys, text):
    """The whole JSON report of `cohomology` on the model text, which must
    exit 1 with the witness of `validate`'s Leibniz(d) check."""
    path = tmp_path / "m.model"
    path.write_text(text)
    assert run_cli(["--format", "json", "validate", str(path)]) == 1
    leibniz = {c["name"]: c for c in json.loads(capsys.readouterr().out)["report"]["d"]["checks"]}
    assert run_cli(["--format", "json", "cohomology", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["report"]["well_defined_witness"] == leibniz["Leibniz(d)"]["witness"]
    assert report["options"] == {"model": str(path)}
    del report["options"]
    return report


def test_cli_cohomology_refuses_a_right_factor_dependence(tmp_path, capsys):
    assert cohomology_refusal(tmp_path, capsys, RIGHT_DEPENDENT) == {
        "command": "cohomology", "passed": False,
        "report": {"differential": "d", "dims": {"0": 1, "1": 1}, "well_defined": False,
                   "well_defined_witness": {"pair": ["x", "c"],
                                            "difference": [["w", "-1"]]}}}


# Leibniz fails on each model, and no induced structure is reported: the
# first two have an induced product that depends on representatives (on
# both factors at once, and through a boundary of a degree without
# classes), and in the third x is closed and x * x = y is not
NON_LEIBNIZ = {
    "both_factors": ("""
degrees
0 : x c
1 : b w
2 : z

map d shift 1
c -> b : 1

structure
b b -> z : 1
""", {"0": 1, "1": 1, "2": 1}, {"pair": ["c", "b"], "difference": [["z", "-1"]]}),
    "zero_class": ("""
degrees
-1 : c
0 : b
1 : w

map d shift 1
c -> b : 1

structure
b w -> w : 1
""", {"1": 1}, {"pair": ["c", "w"], "difference": [["w", "-1"]]}),
    "not_closed": ("""
degrees
0 : x y
1 : z

map d shift 1
y -> z : 1

structure
x x -> y : 1
""", {"0": 1}, {"pair": ["x", "x"], "difference": [["z", "1"]]}),
}


@pytest.mark.parametrize("case", sorted(NON_LEIBNIZ))
def test_cli_cohomology_refuses_a_model_that_fails_leibniz(tmp_path, capsys, case):
    text, dims, witness = NON_LEIBNIZ[case]
    assert cohomology_refusal(tmp_path, capsys, "kind associative\n" + text) == {
        "command": "cohomology", "passed": False,
        "report": {"differential": "d", "dims": dims, "well_defined": False,
                   "well_defined_witness": witness}}


@pytest.mark.parametrize("dots", ["0:-1", "1:2,0:-3", "0", "a:1"])
def test_cli_bad_dot_count_usage_error(capsys, dots):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "dots-squares", "--dots", dots])
    assert exc.value.code == 2
    assert "--dots" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["x", "0,,1", "1.5", "0,"])
@pytest.mark.parametrize("option", ["--squares", "--zigzags"])
def test_cli_bad_degree_list_usage_error(capsys, option, value):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "dots-squares", option, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert option in err and "integer degrees" in err


def test_cli_dots_echoed_as_given(capsys):
    assert run_cli(["--format", "json", "generate", "dots-squares",
                    "--dots", "0:0,1:2", "--squares", "0", "--zigzags", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["options"]["dots"] == "0:0,1:2"
    assert report["options"]["squares"] == "0"
    assert report["options"]["zigzags"] == "1"
    assert "w1_1" in "\n".join(report["report"]["model"])


@pytest.mark.parametrize("command", ["deform", "cohomology"])
def test_cli_model_without_differential_reported(tmp_path, capsys, command):
    path = tmp_path / "flat.model"
    path.write_text("kind associative\n\ndegrees\n0 : one\n\nstructure\none one -> one : 1\n")
    assert run_cli(["--format", "json", command, str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert "no differential" in report["report"]["error"]


NO_DIFFERENTIAL = {
    # (xx)x = yx = x while x(xx) = xy = 0: not associative
    "associative": "degrees\n0 : one x y\n\nstructure\nx x -> y : 1\ny x -> x : 1\n",
    # [x, y] = [y, x] = y: not skew-symmetric
    "lie": "degrees\n0 : x y\n\nstructure\nx y -> y : 1\ny x -> y : 1\n",
}


@pytest.mark.parametrize("kind", list(NO_DIFFERENTIAL))
def test_cli_validate_refuses_a_model_without_differential(tmp_path, kind):
    """Without a differential no axiom check runs, so validate refuses the
    model as bad input, as cohomology and deform do."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    path = tmp_path / "flat.model"
    path.write_text(f"kind {kind}\n\n{NO_DIFFERENTIAL[kind]}")
    run = subprocess.run([sys.executable, "-m", "dgkit.cli", "--format", "json", "validate",
                          str(path)], capture_output=True, cwd=tmp_path, env=env)
    assert run.returncode == 1, run.stderr.decode()
    report = json.loads(run.stdout)
    assert report["passed"] is False
    assert report["report"] == {"error": "model has no differential (no map with shift 1)"}


def test_cli_validate_checks_a_model_with_an_empty_differential(tmp_path, capsys):
    path = tmp_path / "flat.model"
    text = NO_DIFFERENTIAL["associative"].replace("\nstructure", "\nmap d shift 1\n\nstructure")
    path.write_text(f"kind associative\n\n{text}")
    assert run_cli(["--format", "json", "validate", str(path)]) == 1
    checks = json.loads(capsys.readouterr().out)["report"]["d"]["checks"]
    assert checks[-1] == {"name": "associativity", "passed": False,
                          "witness": {"triple": ["x", "x", "x"]}}


def test_cli_exits_1_without_a_traceback_when_stdout_is_closed(tmp_path):
    """`dgkit ... | head -c 400` closes the pipe early; the report is then
    lost, and the run ends with exit code 1 and nothing on stderr."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    path = tmp_path / "torus.model"
    path.write_text(serialize_connection_model(torus_model(1)))
    proc = subprocess.Popen([sys.executable, "-m", "dgkit.cli", "--format", "json", "validate",
                             str(path)], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=tmp_path, env=env)
    proc.stdout.close()  # before the report is written: the reader is gone
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert stderr == ""

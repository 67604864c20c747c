"""Command-line front end.

Subcommands: validate, dgms, cohomology, formality, sl2, qdolbeault,
spectral, deform, generate.  Exit code 0 exactly when every asserted check
in the run passed.  Reports render as text (default) or JSON; identical
argv + files + seed produce byte-identical JSON (timing appears only in the
text format).  The environment variable DGKIT_REPORT_FORMAT (text or json,
anything else is a usage error) overrides the default format.

A well-formed command line is read straight off the SUBCOMMANDS table:
`[--format text|json] COMMAND`, then the command's positional and options in
any order, each option spelled in full, a flag alone and any other option
followed by a separate value that does not start with "-".  Every other
command line (help, abbreviations, --opt=value, --, bad values) goes to the
full argparse parser, which writes every usage, help and error text.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

from dgkit.ddbar import (
    Bicomplex,
    formality_zigzag,
    induced_differential_triviality,
    is_ddbar_algebra,
    strong_lemma_check,
    sum_twist,
)
from dgkit.deform import (
    DeformationContext,
    Series,
    connection_correspondence,
    first_order_dictionary,
    qa_mc_split,
    random_series,
    require_associative,
    tangent_and_obstruction,
)
from dgkit.errors import InternalCheckError, ModelError, PreconditionError
from dgkit.graded import cohomology
from dgkit.modelfile import (
    ParseError,
    parse_model_file,
    serialize_connection_model,
    serialize_model,
)
from dgkit.models import (
    dots_squares_model,
    end_tensor,
    nilpotent_torus_model,
    torus_model,
    zigzag_model,
)
from dgkit.qdolbeault import (
    build_quaternionic_complex,
    double_complex_spectral_sequence,
    extended_strong_lemma_interior,
    phi_isomorphism,
    quaternionic_cohomology_check,
)
from dgkit.sl2 import Sl2Module, low_weight_ideal, plus_quotient, weight_decomposition


class Report:
    def __init__(self, command: str, options: dict):
        self.command = command
        self.options = options
        self.body: dict = {}
        self.passed = True
        self.started = time.perf_counter()

    def put(self, key: str, value, asserted: bool | None = None):
        self.body[key] = value
        if asserted is not None:
            self.passed = self.passed and asserted

    def to_dict(self) -> dict:
        return {"command": self.command, "options": self.options,
                "report": self.body, "passed": self.passed}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [f"dgkit {self.command}  "
                 + " ".join(f"{k}={v}" for k, v in self.options.items())]

        def walk(obj, indent):
            pad = "  " * indent
            if isinstance(obj, dict):
                for k, v in obj.items():
                    if isinstance(v, (dict, list)):
                        lines.append(f"{pad}{k}:")
                        walk(v, indent + 1)
                    else:
                        lines.append(f"{pad}{k}: {v}")
            elif isinstance(obj, list):
                for v in obj:
                    if isinstance(v, list) and not any(isinstance(x, (dict, list)) for x in v):
                        lines.append(f"{pad}- [{', '.join(map(str, v))}]")
                    elif isinstance(v, (dict, list)):
                        walk(v, indent)
                    else:
                        lines.append(f"{pad}- {v}")

        walk(self.body, 1)
        elapsed = time.perf_counter() - self.started
        lines.append(f"  verdict: {'PASS' if self.passed else 'FAIL'}"
                     f"  ({elapsed * 1000:.1f} ms)")
        return "\n".join(lines)


def _emit(report: Report, fmt: str) -> int:
    if fmt == "json":
        print(report.to_json())
    else:
        print(report.to_text())
    return 0 if report.passed else 1


def _bicomplex_from_file(path: str, d0: str, d1: str) -> Bicomplex:
    """The bicomplex (d0, d1) of a model file.  A model that lacks one of them
    falls back to the (del_bar_J, del_bar) pair of its connection model (of
    the Dolbeault part, for a full model) only when the pair is the default
    ("d0", "d1"), whether typed or not; for any other pair the missing
    differential is bad input, named with its flag."""
    parsed = parse_model_file(path)
    diffs = parsed.algebra.differentials
    if d0 in diffs and d1 in diffs:
        return Bicomplex(parsed.algebra, d0, d1)
    if (d0, d1) != ("d0", "d1"):
        flag, name = ("--d0", d0) if d0 not in diffs else ("--d1", d1)
        raise ModelError(f"model has no differential {name!r} ({flag})")
    if not (parsed.is_connection() or parsed.is_full()):
        raise ModelError(f"model has no differential pair ({d0}, {d1}) and no "
                         f"(del_bar_J, del_bar)")
    return parsed.to_connection_model().bicomplex


def _first_differential(alg) -> str:
    """The differential a command uses when the model file does not say."""
    if not alg.differentials:
        raise ModelError("model has no differential (no map with shift 1)")
    return sorted(alg.differentials)[0]


def _axiom_checks(alg):
    """The axiom checks of the algebra's kind, and what they certify."""
    if alg.kind == "associative":
        return alg.validate_dg_algebra, "a DG algebra"
    return alg.validate_dgla, "a DGLA"


# -- subcommand implementations ----------------------------------------------


def cmd_validate(args, report: Report):
    parsed = parse_model_file(args.model)
    alg = parsed.algebra
    if args.differential:
        names = [args.differential]
    else:
        _first_differential(alg)  # without a differential no check would run
        names = sorted(alg.differentials)
    check, _ = _axiom_checks(alg)
    for name in names:
        rep = check(name)
        report.put(name, rep.to_json(), asserted=rep.passed)


def cmd_dgms(args, report: Report):
    b = _bicomplex_from_file(args.model, args.d0, args.d1)
    structure = b.invariants
    report.put("bicomplex_invariants", structure.to_json(), asserted=structure.passed)
    if not structure.passed:
        return
    verdict = is_ddbar_algebra(b)
    report.put("conditions", verdict.to_json(), asserted=verdict.strong_lemma)
    induced = induced_differential_triviality(b)
    report.put("induced_differentials", induced.to_json())
    if verdict.is_ddbar_algebra:
        twisted = sum_twist(b)
        twist_verdict = strong_lemma_check(twisted)
        report.put("sum_twist_strong_lemma", twist_verdict.strong_lemma,
                   asserted=twist_verdict.strong_lemma)


def cmd_cohomology(args, report: Report):
    parsed = parse_model_file(args.model)
    alg = parsed.algebra
    name = args.differential or _first_differential(alg)
    h = cohomology(alg, name)
    wd = h.check_well_defined().checks[0]
    report.put("differential", name)
    report.put("dims", {str(k): v for k, v in h.dims().items()})
    # without Leibniz the structure on representatives need not descend
    if wd.passed:
        report.put("induced_structure",
                   [[l1, l2, lt, str(c)] for (l1, l2, lt, c) in sorted(
                       (l1, l2, lt, c) for (l1, l2), ts in h.induced_structure().items()
                       for lt, c in ts.items())])
    report.put("well_defined", wd.passed, asserted=wd.passed)
    if not wd.passed:
        report.put("well_defined_witness", wd.witness)


def cmd_formality(args, report: Report):
    b = _bicomplex_from_file(args.model, args.d0, args.d1)
    zig = formality_zigzag(b)
    report.put("zigzag", zig.to_json(), asserted=zig.certified)


def cmd_sl2(args, report: Report):
    parsed = parse_model_file(args.model)
    alg = parsed.algebra
    module = Sl2Module.from_algebra(alg)
    decomp = weight_decomposition(module)
    report.put("decomposition", decomp.to_json())
    ideal = low_weight_ideal(alg, decomp)
    report.put("ideal_dims", {str(k): s.dim for k, s in ideal.items()})
    quotient = plus_quotient(alg, ideal, decomp)
    report.put("quotient", quotient.to_json(),
               asserted=quotient.checks.passed and bool(quotient.embedding_injective))


def cmd_qdolbeault(args, report: Report):
    if args.extended and args.phi:
        raise ModelError("--phi needs the standard complex and cannot be combined "
                         "with --extended")
    parsed = parse_model_file(args.model)
    model = parsed.to_connection_model()
    auto = model.autoduality
    report.put("autoduality", auto.to_json(), asserted=auto.autodual)
    if not auto.autodual:
        return
    if args.extended:
        q = build_quaternionic_complex(model, window=args.window)
        interior = extended_strong_lemma_interior(q)
        report.put("window", list(q.window))
        report.put("extended_interior_strong_lemma", interior.to_json(),
                   asserted=interior.passed)
        return
    q = build_quaternionic_complex(model)
    report.put("dims", {str(k): q.space.dim(k) for k in q.space.degrees()})
    fact = quaternionic_cohomology_check(q)
    report.put("cohomology_factorization", fact.to_json(),
               asserted=(fact.equal if fact.certified else None))
    if args.phi:
        cert = phi_isomorphism(model)
        report.put("phi", cert.to_json(), asserted=cert.certified)


def cmd_spectral(args, report: Report):
    parsed = parse_model_file(args.model)
    model = parsed.to_connection_model()
    q = build_quaternionic_complex(model)
    pages = double_complex_spectral_sequence(q)
    certified = model.strong_lemma_certified()
    # degeneration at the second page is a theorem only for certified pairs
    report.put("strong_lemma_certified", certified)
    report.put("pages", pages.to_json(),
               asserted=pages.degenerate_at_e2 if certified else None)


def cmd_deform(args, report: Report):
    parsed = parse_model_file(args.model)
    rnd = random.Random(args.seed)
    if parsed.is_connection() or parsed.is_full():
        model = parsed.to_connection_model()
        require_associative(model.dolbeault)
        q = build_quaternionic_complex(model)
        splits = 0
        for _ in range(args.samples):
            elt = random_series(q.space, 1, args.order, rnd)
            rep = qa_mc_split(q, elt)
            splits += 1 if rep.equivalent else 0
        report.put("split_equivalence", {"samples": args.samples, "agree": splits},
                   asserted=splits == args.samples)

        ctx = DeformationContext(q.algebra, "total")
        x = Series.zero(1, args.order)
        preserved = 0
        element = None
        for _ in range(args.samples):
            a = random_series(q.space, 0, args.order, rnd)
            x = ctx.gauge_transform(a, x)
            if ctx.mc_check(x).passed:
                preserved += 1
                element = x
        report.put("gauge_orbit_of_zero",
                   {"steps": args.samples, "still_mc": preserved},
                   asserted=preserved == args.samples)

        has_j = model.full_model is not None and "J" in model.full_model.maps
        if element is not None and has_j:
            gauge = random_series(model.dolbeault.space, 0, args.order, rnd)
            corr = connection_correspondence(model, q, element, gauge=gauge)
            ok = corr.relations_over_b.passed and corr.reduces_to_base and (
                corr.gauge_conjugation is not False)
            report.put("correspondence", corr.to_json(), asserted=ok)
        elif not has_j:
            report.put("correspondence", "skipped: model has no J data")
        # the dictionary is a theorem only where the strong lemma holds for
        # (del_bar_J, del_bar), checked only when the bijection fails
        fo = first_order_dictionary(model)
        if not fo.bijection and model.strong_lemma_certified():
            raise InternalCheckError(
                "first-order dictionary is not a bijection on a certified model")
        report.put("first_order_dictionary", fo.to_json(), asserted=fo.bijection or None)
    else:
        # an algebra that fails its DG or DGLA axioms is refused, not probed
        alg = parsed.algebra
        check, what = _axiom_checks(alg)
        failed = [f for name in alg.differentials for f in check(name).failures()]
        if failed:
            raise ModelError(f"model is not {what}: {failed[0].name}")
        name = _first_differential(alg)
        tan = tangent_and_obstruction(alg, name)
        report.put("tangent_obstruction", tan.to_json(),
                   asserted=tan.cross_check.passed)


def cmd_generate(args, report: Report):
    if args.recipe == "torus":
        if args.nilpotent_twist:
            model = nilpotent_torus_model(args.rank)
        else:
            model = torus_model(args.rank)
        text = serialize_connection_model(model)
    elif args.recipe == "dots-squares":
        dots = _dot_counts(args.dots)
        squares = _degree_list(args.squares)
        zigzags = _degree_list(args.zigzags)
        b = dots_squares_model(dots, squares, zigzags, seed=args.seed,
                               unit=not args.no_unit)
        if args.end_rank > 1:
            b = end_tensor(b, args.end_rank)
        text = serialize_model(b.algebra)
    elif args.recipe == "zigzag":
        text = serialize_model(zigzag_model(args.degree, seed=args.seed).algebra)
    else:
        raise ModelError(f"unknown recipe {args.recipe!r}")
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ModelError(f"cannot write model file {args.output!r}: {exc}") from exc
        report.put("written", args.output)
    else:
        report.put("model", text.splitlines())


# -- dispatcher ---------------------------------------------------------------


def _at_least(minimum: int, name: str):
    """argparse type of an integer option that must be at least `minimum`
    (--window, --samples, --end-rank, --rank at 1; --order at 2)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be an integer, got {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"{name} must be at least {minimum}, got {value}")
        return value
    return parse


def _dot_counts(text: str) -> dict[int, int]:
    """--dots DEGREE:COUNT,...: the number of dots per degree."""
    dots = {}
    for part in text.split(",") if text else []:
        try:
            deg, count = (int(x) for x in part.split(":"))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"dots entry must be DEGREE:COUNT, got {part!r}")
        if count < 0:
            raise argparse.ArgumentTypeError(
                f"dot count must not be negative, got {part!r}")
        dots[deg] = count
    return dots


def _degree_list(text: str) -> list[int]:
    """--squares / --zigzags DEGREE,...: the degree of each square or zigzag."""
    try:
        return [int(x) for x in text.split(",")] if text else []
    except ValueError:
        raise argparse.ArgumentTypeError(f"entries must be integer degrees, got {text!r}")


def _echoed(check):
    """argparse type that checks the text at parse time and keeps it as given."""
    def parse(text: str) -> str:
        check(text)
        return text
    return parse


_MODEL = ("model", {"help": "model file"})
_PAIR = (("--d0", {"default": "d0"}), ("--d1", {"default": "d1"}))
_SEED = ("--seed", {"type": int, "default": 0})

# name: (help, handler, specs), each spec the flags and keyword arguments of
# one add_argument call, in the order the parser adds them
SUBCOMMANDS = {
    "validate": ("DG/DGLA axiom checks", cmd_validate, (_MODEL, ("--differential", {}))),
    "dgms": ("condition table, strong lemma, twist", cmd_dgms, (_MODEL, *_PAIR)),
    "cohomology": ("dims and induced structure", cmd_cohomology,
                   (_MODEL, ("--differential", {}))),
    "formality": ("zig-zag certificate", cmd_formality, (_MODEL, *_PAIR)),
    "sl2": ("weight decomposition, ideal, quotient", cmd_sl2, (_MODEL,)),
    "qdolbeault": ("build and check the total complex", cmd_qdolbeault, (
        _MODEL, ("--extended", {"action": "store_true"}),
        ("--window", {"type": _at_least(1, "window"), "default": 3}),
        ("--phi", {"action": "store_true"}))),
    "spectral": ("E1/E2 pages and degeneration", cmd_spectral, (_MODEL,)),
    "deform": ("Maurer-Cartan probes", cmd_deform, (
        _MODEL, ("--order", {"type": _at_least(2, "order"), "default": 3}),
        ("--samples", {"type": _at_least(1, "samples"), "default": 20}), _SEED)),
    "generate": ("emit model files", cmd_generate, (
        ("recipe", {"choices": ("torus", "dots-squares", "zigzag")}),
        ("--rank", {"type": _at_least(1, "rank"), "default": 1}),
        ("--nilpotent-twist", {"action": "store_true"}),
        ("--dots", {"type": _echoed(_dot_counts), "default": ""}),
        ("--squares", {"type": _echoed(_degree_list), "default": ""}),
        ("--zigzags", {"type": _echoed(_degree_list), "default": ""}),
        ("--degree", {"type": int, "default": 0}), _SEED,
        ("--end-rank", {"type": _at_least(1, "end-rank"), "default": 1}),
        ("--no-unit", {"action": "store_true"}), ("-o", "--output", {}))),
}
FORMATS = ("text", "json")


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of every subcommand.  main builds it only for an
    argv the plain parser leaves alone, so argparse writes every usage, help
    and error text."""
    parser = argparse.ArgumentParser(prog="dgkit", description="exact checks for "
                                     "bicomplexes, formality and deformations")
    parser.add_argument("--format", choices=FORMATS,
                        default=os.environ.get("DGKIT_REPORT_FORMAT", "text"))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, specs) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for *flags, kwargs in specs:
            p.add_argument(*flags, **kwargs)
    return parser


def _plain_parse(argv: list) -> argparse.Namespace | None:
    """The Namespace argparse would build for a well-formed argv (see the
    module docstring), read off the invoked subcommand's row of SUBCOMMANDS,
    with the same keys in the same order and string defaults through their
    type.  None for anything else, a repeated token, a failing type or choice,
    a missing positional or an invalid DGKIT_REPORT_FORMAT included."""
    fmt = os.environ.get("DGKIT_REPORT_FORMAT", "text")
    if argv[:1] == ["--format"] and len(argv) > 1:
        fmt, argv = argv[1], argv[2:]
    if fmt not in FORMATS or not argv or argv[0] not in SUBCOMMANDS:
        return None
    # (dest, flags, kwargs) per spec; the long flag is the last one
    specs = [(flags[-1].lstrip("-").replace("-", "_"), flags, kwargs)
             for *flags, kwargs in SUBCOMMANDS[argv[0]][2]]
    options = {flag: spec for spec in specs for flag in spec[1] if flag[0] == "-"}
    positional = next(spec for spec in specs if spec[1][0][0] != "-")
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        spec = options.get(token) or (positional if token[:1] != "-" else None)
        if spec is None or spec[0] in given:
            return None
        if spec is positional:
            given[spec[0]] = token
        elif "action" in spec[2]:
            given[spec[0]] = True
        else:
            given[spec[0]] = value = next(tokens, "-")
            if value[:1] == "-":
                return None
    if positional[0] not in given:
        return None
    values = {"format": fmt, "command": argv[0]}
    for dest, _, kwargs in specs:
        value = given.get(dest, kwargs.get("default", False if "action" in kwargs else None))
        try:
            if isinstance(value, str):
                value = kwargs.get("type", str)(value)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if dest in given and value not in kwargs.get("choices", (value,)):
            return None
        values[dest] = value
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_parse(argv)
    if args is None:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.format not in FORMATS:  # argparse leaves string defaults unchecked
            parser.error(f"environment variable DGKIT_REPORT_FORMAT: invalid choice: "
                         f"{args.format!r} (choose from 'text', 'json')")
    options = {k: v for k, v in vars(args).items()
               if k not in ("command", "format") and v is not None}
    report = Report(args.command, options)
    try:
        SUBCOMMANDS[args.command][1](args, report)
    except (ModelError, PreconditionError, ParseError) as exc:
        report.put("error", str(exc), asserted=False)
    except InternalCheckError as exc:
        report.put("internal_error", str(exc), asserted=False)
    return _emit(report, args.format)


if __name__ == "__main__":
    sys.exit(main())

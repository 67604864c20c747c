"""The three benchmark workloads: which models each one generates and which
dgkit CLI jobs it runs on them.

A job list is a pure function of (workload, seed) and needs no dgkit import;
only `build_models` imports dgkit.  Every job names its model by a file name
relative to the run's work directory, so the JSON report (which echoes the
model path) is the same in every checkout.

The models and every job's argv are fixed; the seed orders the jobs and, on
`deform`, draws which Maurer-Cartan probes of a fixed pool run.  So each
job's report is the same at every seed, and expected.json holds the digest
of every job in `catalogue(workload)`, the jobs any seed can draw.

Verdicts follow from how each model is built: squares are d0d1-exact,
zigzags break the strong lemma, and the nilpotent twist of the torus is
never a strong-lemma pair.  `expected_rc` declares them, and
`expected_error` the one refusal dgkit reports as an error (formality
without the strong lemma), so a recording of expected.json cannot take a
wrong verdict for the right one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0
WORKLOADS = ("torus", "bicomplex", "deform")


@dataclass(frozen=True)
class Job:
    name: str  # stable across seeds; the key into expected.json
    argv: tuple  # arguments of dgkit.cli.main, without "--format json"
    expected_rc: int
    expected_error: str = ""  # start of the report's "error", or "" for none


@dataclass(frozen=True)
class ModelSpec:
    name: str  # file stem
    recipe: str  # "torus", "twisted", "dots-squares" or "zigzag"
    rank: int = 1  # torus rank, or the end_tensor rank of a bicomplex
    dots: tuple = ()  # ((degree, count), ...)
    squares: tuple = ()
    zigzags: tuple = ()
    seed: int = 0

    @property
    def file(self) -> str:
        return f"{self.name}.model"

    @property
    def breaks_strong_lemma(self) -> bool:
        return self.recipe in ("twisted", "zigzag") or bool(self.zigzags)


TORUS_COMMANDS = (
    ("sl2", ("sl2",), ()),
    ("phi", ("qdolbeault",), ("--phi",)),
    ("dgms", ("dgms",), ("--d0", "del", "--d1", "del_bar")),
    ("spectral", ("spectral",), ()),
    ("extended", ("qdolbeault",), ("--extended", "--window", "3")),
)
BICOMPLEX_COMMANDS = ("dgms", "formality", "spectral", "cohomology", "validate")
FORMALITY_REFUSAL = "formality requires the strong lemma"

# Fixed shapes and coefficients, so that the work per run and every report
# are the same at every seed.  Every third shape is tensored with gl(2),
# which quadruples its dimension.
BICOMPLEX_SHAPES = (
    ("ds_a", 1, {0: 1, 1: 2, 2: 1}, (0,), ()),
    ("ds_b", 1, {0: 2, 1: 1}, (0, 1), ()),
    ("ds_c", 2, {0: 1, 1: 1}, (0,), ()),
    ("ds_d", 1, {1: 2, 2: 2}, (0, 1, 2), ()),
    ("ds_e", 1, {0: 1, 2: 1}, (0, 2), ()),
    ("ds_f", 2, {0: 1, 1: 1}, (1,), ()),
    ("ds_g", 1, {0: 1, 1: 1, 2: 1}, (0, 1, 2, 3), ()),
    ("ds_h", 1, {1: 3}, (1, 2), ()),
    ("ds_i", 2, {0: 1}, (0,), ()),
    ("ds_zz", 1, {0: 1}, (0, 1), (1,)),
)
DEFORM_BICOMPLEX = ("ds_a", "ds_c", "ds_d", "ds_zz", "zigzag")
DEFORM_PROBES = 10  # drawn per run from the pool below
DEFORM_K_POOL = tuple(range(20))
COEFFICIENT_SEED = 0  # draws the fixed arrow coefficients of the bicomplexes


def _bicomplex_specs() -> list[ModelSpec]:
    rnd = random.Random(COEFFICIENT_SEED)
    specs = [ModelSpec(name, "dots-squares", rank, tuple(sorted(dots.items())),
                       squares, zigzags, rnd.randrange(2 ** 31))
             for name, rank, dots, squares, zigzags in BICOMPLEX_SHAPES]
    specs.append(ModelSpec("zigzag", "zigzag", zigzags=(0,), seed=rnd.randrange(2 ** 31)))
    return specs


def model_specs(workload: str) -> list[ModelSpec]:
    if workload == "torus":
        return [ModelSpec("torus_r1", "torus", 1), ModelSpec("torus_r2", "torus", 2),
                ModelSpec("twisted_r2", "twisted", 2)]
    if workload == "bicomplex":
        return _bicomplex_specs()
    if workload == "deform":
        wanted = [s for s in _bicomplex_specs() if s.name in DEFORM_BICOMPLEX]
        return [ModelSpec("torus_r2", "torus", 2)] + wanted
    raise ValueError(f"unknown workload {workload!r}")


def _probe(k: int) -> Job:
    return Job(f"torus_r2.deform.k{k:02d}",
               ("deform", "torus_r2.model", "--order", "5", "--samples", "10",
                "--seed", str(k)), 0)


def catalogue(workload: str) -> list[Job]:
    """Every job that some seed can put on the workload's job list."""
    specs = model_specs(workload)
    out = []
    if workload == "torus":
        for spec in specs:
            for label, head, tail in TORUS_COMMANDS:
                fails = spec.breaks_strong_lemma and label in ("dgms", "extended")
                out.append(Job(f"{spec.name}.{label}", head + (spec.file,) + tail,
                               1 if fails else 0))
    elif workload == "bicomplex":
        for spec in specs:
            for cmd in BICOMPLEX_COMMANDS:
                fails = spec.breaks_strong_lemma and cmd in ("dgms", "formality")
                refused = spec.breaks_strong_lemma and cmd == "formality"
                out.append(Job(f"{spec.name}.{cmd}", (cmd, spec.file), 1 if fails else 0,
                               FORMALITY_REFUSAL if refused else ""))
    elif workload == "deform":
        out += [_probe(k) for k in DEFORM_K_POOL]
        out += [Job(f"{spec.name}.deform", ("deform", spec.file), 0) for spec in specs[1:]]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def jobs(workload: str, seed: int) -> list[Job]:
    """The workload's job list at this seed, in the order it runs."""
    rnd = random.Random(seed)
    out = catalogue(workload)
    if workload == "deform":
        drawn = rnd.sample(DEFORM_K_POOL, DEFORM_PROBES)
        left_out = {_probe(k) for k in DEFORM_K_POOL if k not in drawn}
        out = [job for job in out if job not in left_out]
    rnd.shuffle(out)
    return out


def build_models(workload: str) -> dict[str, str]:
    """Generate and serialise the workload's models: {file name: text}."""
    from dgkit.modelfile import serialize_connection_model, serialize_model
    from dgkit.models import (dots_squares_model, end_tensor, nilpotent_torus_model,
                              torus_model, zigzag_model)

    texts = {}
    for spec in model_specs(workload):
        if spec.recipe == "torus":
            text = serialize_connection_model(torus_model(spec.rank))
        elif spec.recipe == "twisted":
            text = serialize_connection_model(nilpotent_torus_model(spec.rank))
        else:
            if spec.recipe == "zigzag":
                b = zigzag_model(spec.zigzags[0], seed=spec.seed)
            else:
                b = dots_squares_model(dict(spec.dots), spec.squares, spec.zigzags,
                                       seed=spec.seed)
            if spec.rank > 1:
                b = end_tensor(b, spec.rank)
            text = serialize_model(b.algebra)
        texts[spec.file] = text
    return texts

#!/usr/bin/env python3
"""dgkit CLI-job benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload torus --seed 0 --seconds 40 --trace 0

Each job is one `dgkit.cli.main([... "--format", "json"])` call on a
generated model file, run in its own forked child of this process, which has
already imported dgkit.  Jobs run one after another (closed loop, one
client), and a child exits after its job, so no memo or module state
reaches the next job, as for a user who starts one process per command.

--trace 0 runs the whole job list once, then keeps going round it, cheapest
job first, running each job whose last time still fits in --seconds, and
reports the end-to-end metrics from each job's median time over its runs.
Times are scaled to a reference speed by a fixed loop timed right before
and after each job (`calibrate()`), and the whole benchmark runs on one
CPU; perfbench/README.md, Steadiness, says why.
--trace 1 runs the list once untraced and once traced, and reports the
per-layer metrics of the traced pass.  Every job's exit code is checked
against the verdict its job list declares, its report must hold only the
error the job list declares (most declare none), and the sha256 of its JSON
report must match expected.json; traced reports must match untraced ones
byte for byte.  The last line of stdout is the result object; a summary
with the environment and every metric by name and unit comes before it.

`--record-expected` rewrites the workload's digests in expected.json from
one run of every job any seed can draw.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
EXPECTED = HERE / "expected.json"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
JOB_TIMEOUT_S = 90.0
RUN_DEADLINE_S = 165.0  # the run must end within 180 s
CRASH_RC = 70

E2E_UNITS = {"wall_s": "s", "job_s.p50": "s", "job_s.max": "s", "setup_s": "s",
             "peak_rss_mb": "MiB", "correct_ratio": "fraction"}


def _layer_units() -> dict:
    units = {key: "count" for key in tracer.SCALAR_COUNTERS}
    for layer in tracer.LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update({"linalg.rref.cells": "count", "linalg.rref.density": "fraction",
                  "linalg.rref.distinct_ratio": "fraction", "linalg.rref.bits.max": "bits",
                  "modelfile.bytes": "bytes", "models.generate_s": "s", "cli.self_s": "s",
                  "cli.report_bytes": "bytes", "trace.self_s": "s",
                  "trace.overhead_ratio": "ratio"})
    return units


LAYER_UNITS = _layer_units()


# -- machine speed ---------------------------------------------------------

CALIBRATION_LOOPS = 50_000
# The calibration loop's time on the reference machine: about the slow one
# of the two speed levels of the 2-vCPU Xeon the bounds were set on.
REFERENCE_CALIBRATION_S = 0.005


def calibrate() -> float:
    """Time a fixed pure-Python loop of about 5 ms: the machine's speed now."""
    start = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOPS):
        x += i * i % 7
    return time.perf_counter() - start


def at_reference_speed(wall_s: float, calibration_s: float) -> float:
    """A wall time scaled to the reference machine's speed."""
    return wall_s * REFERENCE_CALIBRATION_S / calibration_s


# -- one job in a forked child --------------------------------------------


@dataclass
class ChildResult:
    rc: int | None  # None when the child was killed or died on a signal
    payload: bytes
    wall_s: float
    maxrss_kib: int
    timed_out: bool


def run_in_child(fn, timeout: float = JOB_TIMEOUT_S) -> ChildResult:
    """Fork, run fn() -> (exit code, payload bytes) in the child, and collect
    the payload, the wall time from fork to exit and the child's own peak RSS
    (ru_maxrss from os.wait4)."""
    r, w = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        rc = CRASH_RC
        try:
            os.close(r)
            rc, payload = fn()
            view = memoryview(payload)
            while view:
                view = view[os.write(w, view):]
        except BaseException:
            traceback.print_exc()
            rc = CRASH_RC
        finally:
            os._exit(rc)
    os.close(w)
    chunks, timed_out = [], False
    try:
        deadline = start + timeout
        while True:
            left = deadline - time.perf_counter()
            ready = select.select([r], [], [], max(left, 0))[0]
            if not ready:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            chunk = os.read(r, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(r)
        _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    rc = os.waitstatus_to_exitcode(status)
    return ChildResult(rc if rc >= 0 and not timed_out else None, b"".join(chunks),
                       wall, usage.ru_maxrss, timed_out)


def cli_job(argv, workdir: Path, trace: bool):
    """The child's side of one job: run the CLI, return its digest."""

    def fn():
        from dgkit import cli

        os.chdir(workdir)
        t = tracer.Tracer() if trace else None
        if t is not None:
            t.install()
        out = io.StringIO()
        full = ["--format", "json", *argv]
        with contextlib.redirect_stdout(out):
            rc = t.run_root(cli.main, full) if t is not None else cli.main(full)
        report = out.getvalue().encode()
        body = json.loads(report)["report"]
        payload = {"sha256": hashlib.sha256(report).hexdigest(), "bytes": len(report),
                   "error": body.get("error") or body.get("internal_error")}
        if t is not None:
            payload["trace"] = t.summary()
        return rc, json.dumps(payload).encode()

    return fn


@dataclass
class JobResult:
    name: str
    wall_s: float | None = None
    rc: int | None = None
    sha256: str | None = None
    report_bytes: int = 0
    maxrss_kib: int = 0
    trace: dict | None = None
    problems: list = field(default_factory=list)
    calibration_s: float | None = None  # mean of calibrate() before and after

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def ref_s(self) -> float:
        return at_reference_speed(self.wall_s, self.calibration_s)


def run_job(job: workloads.Job, workdir: Path, trace: bool,
            expected: dict | None) -> JobResult:
    """Run one job and check it.  expected maps job names to report digests;
    None skips the digest check (when recording them)."""
    res = JobResult(job.name)
    before = calibrate()
    child = run_in_child(cli_job(job.argv, workdir, trace))
    res.calibration_s = (before + calibrate()) / 2
    res.wall_s, res.rc, res.maxrss_kib = child.wall_s, child.rc, child.maxrss_kib
    if child.timed_out:
        res.problems.append(f"timed out after {JOB_TIMEOUT_S} s")
        return res
    try:
        payload = json.loads(child.payload)
    except ValueError:
        res.problems.append(f"crashed (exit {child.rc})")
        return res
    res.sha256, res.report_bytes = payload["sha256"], payload["bytes"]
    res.trace = payload.get("trace")
    if res.rc != job.expected_rc:
        res.problems.append(f"exit code {res.rc}, expected {job.expected_rc}")
    error = payload["error"] or ""
    if bool(error) != bool(job.expected_error) or not error.startswith(job.expected_error):
        res.problems.append(f"report error {error[:120]!r}, expected {job.expected_error!r}")
    if expected is not None and expected.get(job.name) != res.sha256:
        res.problems.append("report digest differs from expected.json")
    return res


def run_pass(jobs, workdir, trace, expected, deadline) -> tuple[float, list]:
    """Run the job list once; return (wall time, results).  Jobs left when
    the run deadline passes are reported as failed, not run."""
    start = time.perf_counter()
    results = []
    for job in jobs:
        if time.perf_counter() > deadline:
            res = JobResult(job.name)
            res.problems.append("not run: run deadline passed")
            results.append(res)
            continue
        results.append(run_job(job, workdir, trace, expected))
    return time.perf_counter() - start, results


# -- set-up -----------------------------------------------------------------


def write_models(workload: str, workdir: Path) -> float:
    """Generate and serialise the workload's models into workdir; return the
    seconds spent in dgkit.models + dgkit.modelfile."""
    start = time.perf_counter()
    texts = workloads.build_models(workload)
    elapsed = time.perf_counter() - start
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (workdir / name).write_text(text, encoding="utf-8")
    return elapsed


def setup_probe(workload: str, workdir: Path) -> tuple[float, float, float]:
    """One set-up as a user pays it: a fresh interpreter that imports dgkit
    and generates and writes the models.  Returns its wall time, the mean
    calibrate() time before and after, and the generation time it reports."""
    before = calibrate()
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                           str(workdir), "--workload", workload],
                          check=True, timeout=120, capture_output=True, text=True)
    wall = time.perf_counter() - start
    return wall, (before + calibrate()) / 2, float(proc.stdout)


def import_dgkit():
    if not (SRC / "dgkit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no dgkit sources at {SRC}; run from a checkout "
                         f"of the repository")
    sys.path.insert(0, str(SRC))
    import dgkit

    if Path(dgkit.__file__).resolve().parent != (SRC / "dgkit").resolve():
        raise SystemExit(f"perfbench: imported dgkit from {dgkit.__file__}, not {SRC}")
    import dgkit.cli  # noqa: F401  (the job children inherit the import)


# -- environment ------------------------------------------------------------


def environment(workload: str, seed: int) -> dict:
    cpu = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "dgkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "dgkit_commit": commit,
        "dgkit_source_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
        "jobs_per_workload": {w: len(workloads.jobs(w, seed)) for w in workloads.WORKLOADS},
    }


# -- metrics ----------------------------------------------------------------


def run_for(jobs, workdir, expected, seconds, deadline) -> list:
    """Run the job list once, then go round it again and again, cheapest job
    first, running each job whose last time still fits in what is left of
    `seconds`, until none fits; return every result.  So the short jobs,
    whose single runs spread most, get the most runs."""
    start = time.perf_counter()
    _, results = run_pass(jobs, workdir, False, expected, deadline)
    last = {res.name: res.wall_s for res in results}
    if None in last.values():
        return results
    end = min(start + seconds, deadline)
    order = sorted(jobs, key=lambda job: last[job.name])
    ran = True
    while ran:
        ran = False
        for job in order:
            if time.perf_counter() + last[job.name] > end:
                continue
            res = run_job(job, workdir, False, expected)
            results.append(res)
            last[job.name] = res.wall_s
            ran = True
    return results


def e2e_metrics(results, raw=False) -> dict:
    """Every end-to-end metric but setup_s, which needs its own probes.

    A job's time is its median over its runs in this run of the benchmark,
    at the reference speed (raw: as the clock read it).  wall_s is the sum of
    those medians: the job list run once."""
    per_job = {}
    for res in results:
        if res.wall_s is not None:
            per_job.setdefault(res.name, []).append(res)
    job_s = {name: statistics.median(r.wall_s if raw else r.ref_s for r in rs)
             for name, rs in per_job.items()}
    rss = {name: statistics.median(r.maxrss_kib for r in rs) for name, rs in per_job.items()}
    attempted = len(results)
    ok = sum(res.ok for res in results)
    return {
        "wall_s": sum(job_s.values()),
        "job_s.p50": statistics.median(job_s.values()),
        "job_s.max": max(job_s.values()),
        "peak_rss_mb": max(rss.values()) / 1024,
        "correct_ratio": ok / attempted,
    }


def layer_metrics(results, traced_wall, untraced_wall, generate_s) -> dict:
    calls, self_s, counts = {}, {}, {}
    report_bytes = 0
    for res in results:
        if res.trace is None:
            continue
        report_bytes += res.report_bytes
        for layer, n in res.trace["calls"].items():
            calls[layer] = calls.get(layer, 0) + n
        for layer, s in res.trace["self_s"].items():
            self_s[layer] = self_s.get(layer, 0.0) + s
        for key, n in res.trace["counts"].items():
            if key == "linalg.rref.bits.max":
                counts[key] = max(counts.get(key, 0), n)
            else:
                counts[key] = counts.get(key, 0) + n
    out = {key: counts.get(key, 0) for key in tracer.SCALAR_COUNTERS}
    for layer in tracer.LAYERS:
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    rref_calls, cells = calls.get("linalg.rref", 0), counts.get("linalg.rref.cells", 0)
    out["linalg.rref.cells"] = cells
    out["linalg.rref.density"] = counts.get("linalg.rref.nonzeros", 0) / cells if cells else 0.0
    out["linalg.rref.distinct_ratio"] = (counts.get("linalg.rref.distinct", 0) / rref_calls
                                         if rref_calls else 0.0)
    out["linalg.rref.bits.max"] = counts.get("linalg.rref.bits.max", 0)
    out["modelfile.bytes"] = counts.get("modelfile.bytes", 0)
    out["models.generate_s"] = generate_s
    out["cli.self_s"] = self_s.get(tracer.ROOT, 0.0)
    out["cli.report_bytes"] = report_bytes
    out["trace.self_s"] = self_s.get(tracer.TRACE, 0.0)
    out["trace.overhead_ratio"] = traced_wall / untraced_wall
    return out


# -- main -------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description="dgkit CLI-job benchmark")
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    p.add_argument("--record-expected", action="store_true",
                   help="rewrite this workload's digests in expected.json")
    return p.parse_args(argv)


def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def record_expected(workload: str) -> int:
    """Run every job of the workload's catalogue once and store the digests
    of their reports; refuse when a verdict or a report is wrong."""
    workdir = WORK / f"{workload}-record-{os.getpid()}"
    try:
        write_models(workload, workdir)
        results = [run_job(job, workdir, False, None) for job in workloads.catalogue(workload)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = [f"{res.name}: {'; '.join(res.problems)}" for res in results if not res.ok]
    if failures:
        raise SystemExit("perfbench: not recorded, jobs failed:\n" + "\n".join(failures))
    data = load_expected()
    data[workload] = {res.name: res.sha256 for res in results}
    EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        import_dgkit()
        print(write_models(args.workload, Path(args.setup_probe)))
        return 0
    deadline = time.perf_counter() + RUN_DEADLINE_S
    import_dgkit()
    if args.record_expected:
        return record_expected(args.workload)
    expected = load_expected()[args.workload]
    jobs = workloads.jobs(args.workload, args.seed)
    missing = [job.name for job in jobs if job.name not in expected]
    if missing:
        raise SystemExit(f"perfbench: expected.json lacks {missing}")

    env = environment(args.workload, args.seed)
    # One CPU for this process, its job children and the set-up probes, so
    # that calibrate() reads the speed of the CPU the jobs run on.
    env["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["pinned_cpu"]})
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = [setup_probe(args.workload, workdir) for _ in range(SETUP_REPEATS)]
        setup_s = statistics.median(at_reference_speed(wall, cal) for wall, cal, _ in setups)
        raw = {"setup_s": statistics.median(wall for wall, _, _ in setups)}
        if args.trace:
            plain_wall, plain = run_pass(jobs, workdir, False, expected, deadline)
            traced_wall, traced = run_pass(jobs, workdir, True, expected, deadline)
            for a, b in zip(plain, traced):
                if a.sha256 and b.sha256 and a.sha256 != b.sha256:
                    b.problems.append("traced report differs from untraced report")
            results = plain + traced
            generate_s = statistics.median(gen for _, _, gen in setups)
            metrics = layer_metrics(traced, traced_wall, plain_wall, generate_s)
            units = LAYER_UNITS
            shown = {**e2e_metrics(plain), "setup_s": setup_s, **metrics}
            raw.update(e2e_metrics(plain, raw=True))
        else:
            results = run_for(jobs, workdir, expected, args.seconds, deadline)
            metrics = {**e2e_metrics(results), "setup_s": setup_s}
            raw.update(e2e_metrics(results, raw=True))
            units = E2E_UNITS
            shown = metrics
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [(res.name, res.problems) for res in results if not res.ok]
    env.update(job_runs=len(results), jobs=len(jobs), trace=args.trace,
               calibration_ms=1000 * statistics.median(
                   res.calibration_s for res in results if res.calibration_s))
    WORK.mkdir(exist_ok=True)
    record = WORK / f"last-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"environment": env, "metrics": shown, "clock": raw,
                                  "results": [vars(res) for res in results]}, indent=1))
    print("# environment " + json.dumps(env, sort_keys=True))
    for name, problems in failures:
        print(f"# FAILED {name}: {'; '.join(problems)}")
    all_units = {**E2E_UNITS, **LAYER_UNITS}
    for name, value in shown.items():
        note = f"  (clock {raw[name]:.6g} s)" if E2E_UNITS.get(name) == "s" else ""
        if name == "job_s.p50":
            note += f"  ({len(jobs)} jobs)"
        print(f"# {name:34s} {value:.6g} {all_units[name]}{note}")
    result = {"correct": not failures, "attempted": len(results), "failed": len(failures),
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

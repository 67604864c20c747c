"""Tests of the benchmark itself: tracer coverage, byte-identical traced
reports, job isolation and the correctness gate.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

run.import_dgkit()


def child_json(fn):
    """Run fn() -> JSON-able value in a forked child and return the value."""
    res = run.run_in_child(lambda: (0, json.dumps(fn()).encode()), timeout=60)
    assert res.rc == 0, res
    return json.loads(res.payload)


def test_install_rebinds_every_dgkit_reference():
    def check():
        t = tracer.Tracer()
        t.install()
        problems, rebound = [], 0
        for target, (original, wrapper) in t.wrappers.items():
            mod_name, attr = target.split(":")
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(sys.modules[mod_name], cls_name)
                if getattr(owner, meth) is not wrapper:
                    problems.append(f"{target} not wrapped on its class")
                continue
            if getattr(sys.modules[mod_name], attr) is not wrapper:
                problems.append(f"{target} not wrapped where it is defined")
            for mod in tracer.dgkit_modules():
                for name, value in vars(mod).items():
                    if value is original:
                        problems.append(f"{mod.__name__}.{name} still holds {target}")
                    elif value is wrapper:
                        rebound += 1
        return {"problems": problems, "rebound": rebound}

    out = child_json(check)
    assert out["problems"] == []
    # kernel_of alone is imported by name into graded, ddbar, sl2, qdolbeault and deform
    assert out["rebound"] > len(tracer.LAYERS)


def test_names_imported_by_other_modules_resolve_to_wrappers():
    def check():
        tracer.Tracer().install()
        import dgkit.linalg as linalg

        wrong = []
        for mod_name in ("dgkit.graded", "dgkit.ddbar", "dgkit.sl2", "dgkit.qdolbeault",
                         "dgkit.deform"):
            mod = sys.modules[mod_name]
            for name in ("kernel_of", "image_of", "coordinates_in_basis", "invert",
                         "linear_solve"):
                if hasattr(mod, name) and getattr(mod, name) is not getattr(linalg, name):
                    wrong.append(f"{mod_name}.{name}")
                if hasattr(mod, name) and not hasattr(getattr(mod, name), "__wrapped__"):
                    wrong.append(f"{mod_name}.{name} unwrapped")
        return wrong

    assert child_json(check) == []


def fast_jobs():
    """Every bicomplex job, the rank-1 torus jobs and some deform jobs: each
    code path of the three workloads at a fraction of their time."""
    picked = [("bicomplex", job) for job in workloads.jobs("bicomplex", 0)]
    picked += [("torus", job) for job in workloads.jobs("torus", 0)
               if job.name.startswith("torus_r1.")]
    picked += [("deform", job) for job in workloads.catalogue("deform")
               if job.name in (PROBE, "ds_c.deform", "zigzag.deform")]
    return picked


PROBE = "torus_r2.deform.k00"


@pytest.fixture(scope="module")
def workdirs(tmp_path_factory):
    dirs = {}
    for w in workloads.WORKLOADS:
        dirs[w] = tmp_path_factory.mktemp(w)
        run.write_models(w, dirs[w])
    return dirs


def test_traced_and_untraced_reports_are_byte_identical(workdirs):
    expected = run.load_expected()
    for workload, job in fast_jobs():
        plain = run.run_job(job, workdirs[workload], False, expected[workload])
        traced = run.run_job(job, workdirs[workload], True, expected[workload])
        assert plain.ok and traced.ok, (job.name, plain.problems, traced.problems)
        assert plain.sha256 == traced.sha256, job.name
        summary = traced.trace
        assert summary["calls"][tracer.ROOT] == 1
        assert min(summary["self_s"].values()) >= -1e-6, (job.name, summary["self_s"])
        # the job span, which the self times add up to, is the child's wall
        # time but for fork, tracer install and exit
        untimed = traced.wall_s - summary["root_s"]
        assert 0 <= untimed <= 0.03 + 0.05 * traced.wall_s, (job.name, untimed, traced.wall_s)


def test_layers_separate_as_the_workloads_predict(workdirs):
    expected = run.load_expected()

    def traced(workload, name):
        job = next(j for j in workloads.catalogue(workload) if j.name == name)
        res = run.run_job(job, workdirs[workload], True, expected[workload])
        assert res.ok, res.problems
        return res.trace

    sl2 = traced("torus", "torus_r1.sl2")
    assert sl2["calls"]["sl2.integer_spectrum"] > 0
    dgms = traced("bicomplex", "ds_c.dgms")
    assert "sl2.integer_spectrum" not in dgms["calls"]
    assert max(dgms["self_s"], key=dgms["self_s"].get) == "linalg.rref"
    probe = traced("deform", PROBE)
    assert max(probe["self_s"], key=probe["self_s"].get) == "graded.mul"


def test_module_state_does_not_reach_the_next_job():
    def dirty():
        import dgkit.linalg

        dgkit.linalg._perfbench_marker = 1
        return hasattr(dgkit.linalg, "_perfbench_marker")

    def look():
        import dgkit.linalg

        return hasattr(dgkit.linalg, "_perfbench_marker")

    assert child_json(dirty) is True
    assert child_json(look) is False
    import dgkit.linalg

    assert not hasattr(dgkit.linalg, "_perfbench_marker")


def test_peak_rss_is_the_childs_own():
    size = 128 << 20

    def allocate():
        block = bytearray(size)
        return len(block)

    res = run.run_in_child(lambda: (0, json.dumps(allocate()).encode()), timeout=60)
    parent_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert res.maxrss_kib * 1024 >= size
    assert parent_kib * 1024 < size
    cal = run.REFERENCE_CALIBRATION_S
    job = run.JobResult("big", wall_s=1.0, maxrss_kib=res.maxrss_kib, calibration_s=cal)
    small = run.JobResult("small", wall_s=1.0, maxrss_kib=parent_kib, calibration_s=cal)
    assert run.e2e_metrics([job, small])["peak_rss_mb"] == res.maxrss_kib / 1024


def test_times_are_scaled_to_the_reference_speed():
    cal = run.REFERENCE_CALIBRATION_S
    fast = run.JobResult("a", wall_s=1.0, calibration_s=cal / 2)  # machine twice as fast
    slow = run.JobResult("a", wall_s=2.0, calibration_s=cal)
    slower = run.JobResult("a", wall_s=6.0, calibration_s=2 * cal)
    metrics = run.e2e_metrics([fast, slow, slower])
    assert metrics["job_s.max"] == metrics["wall_s"] == 2.0
    assert run.e2e_metrics([fast, slow, slower], raw=True)["job_s.max"] == 2.0
    assert 0 < run.calibrate() < 1


def test_a_wrong_digest_exit_code_or_error_counts_as_failed(workdirs):
    real = run.load_expected()["bicomplex"]
    for name in ("zigzag.dgms", "zigzag.formality"):
        job = next(j for j in workloads.catalogue("bicomplex") if j.name == name)
        assert run.run_job(job, workdirs["bicomplex"], False, real).ok
        assert not run.run_job(job, workdirs["bicomplex"], False, {name: "0" * 64}).ok
        flipped = dataclasses.replace(job, expected_rc=1 - job.expected_rc)
        assert not run.run_job(flipped, workdirs["bicomplex"], False, real).ok
    # a refusal the job list does not declare fails even with the right digest
    # and exit code, and so does a declared refusal that does not happen
    undeclared = dataclasses.replace(job, expected_error="")
    assert not run.run_job(undeclared, workdirs["bicomplex"], False, real).ok
    (workdirs["bicomplex"] / "broken.model").write_text("not a model\n")
    broken = workloads.Job("broken", ("validate", "broken.model"), 1)
    sha = run.run_job(broken, workdirs["bicomplex"], False, None).sha256
    res = run.run_job(broken, workdirs["bicomplex"], False, {"broken": sha})
    assert any("report error" in p for p in res.problems), res.problems
    dgms = next(j for j in workloads.catalogue("bicomplex") if j.name == "zigzag.dgms")
    claimed = dataclasses.replace(dgms, expected_error=workloads.FORMALITY_REFUSAL)
    assert not run.run_job(claimed, workdirs["bicomplex"], False, real).ok


def test_job_lists_are_fixed_by_the_seed_and_covered_by_expected():
    expected = run.load_expected()
    for w in workloads.WORKLOADS:
        names = [job.name for job in workloads.catalogue(w)]
        assert len(set(names)) == len(names)
        assert set(names) == set(expected[w])
        lists = [workloads.jobs(w, seed) for seed in range(4)]
        assert workloads.jobs(w, 3) == lists[3]
        assert len({len(jobs) for jobs in lists}) == 1
        assert all({job.name for job in jobs} <= set(names) for jobs in lists)
        assert len({tuple(jobs) for jobs in lists}) > 1


def test_run_refuses_a_directory_without_sources(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "deform",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

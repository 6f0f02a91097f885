"""Tests of the benchmark itself (not collected by the repo's test run).

    python3 -m pytest -q perfbench/check_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from maxsurf import fileio  # noqa: E402

PASS = 10  # one pattern of each workload


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """run.traced_run over one pattern of each workload: name -> (plain, traced, counts)."""
    out = {}
    for name in workloads.WORKLOADS:
        work = tmp_path_factory.mktemp(name)
        jobs = workloads.build_jobs(name, 7, str(work))[:PASS]
        metrics, _, plain, traced, wrapped = run.traced_run(jobs, str(work / "spans.jsonl"))
        out[name] = plain, traced, dict(wrapped, **metrics)
    return out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_and_untraced_outputs_are_byte_identical(passes, name):
    plain, traced, _ = passes[name]
    assert not plain.failures and not traced.failures
    assert len(plain.digests) == PASS
    assert plain.digests == traced.digests


def test_residual_runs_only_on_search(passes):
    calls = {name: counts["interpolation.residual.calls"] for name, (_, _, counts) in passes.items()}
    assert calls["search"] > 0
    assert calls["boundary"] == 0 and calls["pointwise"] == 0


def test_every_wrapped_function_is_counted_somewhere(passes):
    missed = [key for key in spans.wrapped_keys()
              if not any(counts[key] for _, _, counts in passes.values())]
    assert not missed


def test_install_leaves_no_binding_unwrapped(tmp_path):
    workloads.build_jobs("search", 1, str(tmp_path))  # imports every module
    originals = {}
    for mod_name, attr, _, _ in spans.TARGETS:
        if "." not in attr:
            module = sys.modules[f"maxsurf.{mod_name}"]
            originals[id(getattr(module, attr))] = f"{mod_name}.{attr}"
    undo = spans.install(spans.Tracer())
    try:
        left = [f"{module.__name__}.{name} -> {originals[id(value)]}"
                for module in spans._maxsurf_modules()
                for name, value in vars(module).items() if id(value) in originals]
    finally:
        spans.uninstall(undo)
    assert not left


def _inputs(jobs):
    """What a job reads: spec file text, or its points; never the output paths."""
    out = []
    for job in jobs:
        if getattr(job, "spec", None):
            with open(job.spec, encoding="utf-8") as fh:
                out.append(fh.read())
        elif hasattr(job, "points"):
            out.append(job.points.tobytes())
        elif hasattr(job, "targets"):
            out.append((job.z0, job.targets.tobytes()))
        else:
            with open(job.surface_file, encoding="utf-8") as fh:
                out.append(fh.read())
    return out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_changes_inputs_not_the_job_mix(tmp_path, name):
    for sub in ("a", "again", "b"):
        (tmp_path / sub).mkdir()
    a = workloads.build_jobs(name, 1, str(tmp_path / "a"))
    again = workloads.build_jobs(name, 1, str(tmp_path / "again"))
    b = workloads.build_jobs(name, 2, str(tmp_path / "b"))
    assert [j.kind for j in a] == [j.kind for j in b]
    assert _inputs(a) == _inputs(again)
    changed = [x != y for x, y in zip(_inputs(a), _inputs(b))]
    assert sum(changed) >= 0.9 * len(changed)
    if name == "search":
        assert [j.known_roots for j in a] != [j.known_roots for j in b]


def test_unit_cell_zeros_tells_a_crowded_ray_apart(tmp_path):
    # Seed 502's first null data set: on ray 88 of 128 a second zero of the
    # singular residual shares singular_set's scan cell with |z| = 1.
    samples, _ = workloads.null_data(np.random.default_rng(502))
    spec = workloads._write_json(str(tmp_path / "s.json"), samples)
    planar = fileio.load_surface(workloads._solve_surface(spec, str(tmp_path / "s"))).planar
    assert workloads._unit_cell_zeros(planar, 2.0 * np.pi * 88 / 128) == 2
    assert workloads._unit_cell_zeros(planar, 0.0) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_has_every_declared_metric(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pointwise", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"].keys() == run.declared_units(trace).keys()
    if not trace:
        assert result["attempted"] >= run.MIN_JOBS
        assert all(m["value"] > 0 for m in result["metrics"].values())

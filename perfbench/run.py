"""Run one workload of the maxsurf benchmark and print its metrics.

    python3 perfbench/run.py --workload search --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: maxsurf is imported from ./src.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
separate traced pass.  Workloads, metrics and the load model are described in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

# One process, one client, closed loop: no threads of our own, and NumPy's
# BLAS pool pinned to one thread before NumPy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")

SETUP_PROBES = 4  # fresh interpreters that only set up, half before and half
# after the timed loop; with the run's own set-up, setup_s is a median of 5
MIN_JOBS = 100  # job_ms.p90 needs at least 10 samples beyond it
WALL_CAP_S = 110.0  # stop a run that overshoots, inside 180 s with its set-ups
TRACE_JOBS = 20  # jobs per pass of a traced run

PER_LAYER_GROUPS = [
    "interpolation.residual", "interpolation.search", "interpolation.build",
    "interpolation.assemble", "interpolation.margin",
    "annulus.eval", "annulus.deriv", "annulus.circle", "annulus.estimate",
    "surface.singular_set", "surface.gauss_map", "surface.normal", "surface.classify",
    "surface.w_from_h", "surface.checks",
    "bjorling.validate", "bjorling.solve", "bjorling.reports",
    "fileio.read", "fileio.write", "cli",
]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, then print the set-up time (internal)")
    return parser.parse_args(argv)


def setup(workload: str, seed: int, work: str):
    """Import maxsurf, build the seeded inputs, warm up.  Returns jobs, times.

    Warm-up runs one job of each kind, on inputs that do not depend on the
    seed, so that lazy imports and first-call costs are paid before timing
    starts.
    """
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import maxsurf

    if os.path.dirname(os.path.abspath(maxsurf.__file__)) != os.path.join(SRC, "maxsurf"):
        raise SystemExit(f"maxsurf imported from {maxsurf.__file__}, not from {SRC}")
    import workloads

    t1 = time.perf_counter()
    jobs = workloads.build_jobs(workload, seed, work)
    t2 = time.perf_counter()
    warm = os.path.join(work, "warmup")
    os.makedirs(warm)
    for job in workloads.warmup_jobs(workload, warm):
        outcome = execute(job)
        if outcome[-1] is not None:
            raise RuntimeError(f"warm-up {job.kind} job failed: {outcome[-1]}")
    t3 = time.perf_counter()
    times = {"import_s": t1 - t0, "inputs_s": t2 - t1, "warmup_s": t3 - t2, "setup_s": t3 - t0}
    return jobs, times


def execute(job, tracer=None):
    """Time one job, then check it untimed.  Returns (s, digest, facts, error)."""
    import workloads

    if tracer is not None:
        tracer.enabled = True
        span = tracer.enter("job")
    start = time.perf_counter()
    try:
        result, error = job.run(), None
    except Exception as exc:  # a job that raises is a failed job; keep going
        result, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.leave(span)
        tracer.enabled = False
    if error is not None:
        return elapsed, None, None, error
    try:
        digest, facts = job.check(result)
    except workloads.JobFailure as exc:
        return elapsed, None, None, str(exc)
    except Exception as exc:  # an unreadable output is a wrong output
        return elapsed, None, None, f"check {type(exc).__name__}: {exc}"
    return elapsed, digest, facts, None


class Tally:
    """Latencies, failures, digests and fingerprint facts of one pass."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.digests: dict[int, str] = {}
        self.facts: dict[int, dict] = {}

    def add(self, index: int, job, outcome):
        elapsed, digest, facts, error = outcome
        self.latencies.append(elapsed)
        if error is None and self.digests.setdefault(index, digest) != digest:
            error = "output differs from an earlier run of the same job"
        if error is not None:
            self.failures.append(f"job {index} ({job.kind}): {error}")
        elif index not in self.facts:
            self.facts[index] = facts


def timed_run(jobs, seconds: float) -> Tally:
    """Closed loop over the job list until `seconds` of job time (>= MIN_JOBS).

    A run stopped by the wall-time cap before MIN_JOBS jobs counts as failed:
    its job_ms.p90 would rest on too few samples.
    """
    tally = Tally()
    wall0 = time.perf_counter()
    i = 0
    while sum(tally.latencies) < seconds or len(tally.latencies) < MIN_JOBS:
        if time.perf_counter() - wall0 > WALL_CAP_S:
            tally.failures.append(f"stopped after {WALL_CAP_S:.0f} s of wall time with "
                                  f"{len(tally.latencies)} jobs, fewer than {MIN_JOBS}")
            break
        index = i % len(jobs)
        tally.add(index, jobs[index], execute(jobs[index]))
        i += 1
    return tally


def percentile_ms(values: list[float], q: float) -> float:
    """Nearest-rank percentile, in milliseconds."""
    ordered = sorted(values)
    return 1e3 * ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def setup_probe_times(workload: str, seed: int, count: int) -> list[float]:
    """Set-up time of `count` fresh interpreters, one after another."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def import_breakdown() -> dict:
    """Cumulative import times from `python -X importtime -c 'import maxsurf'`."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import maxsurf"],
        capture_output=True, text=True, timeout=60, cwd=ROOT, check=False,
        env=dict(os.environ, PYTHONPATH=SRC))
    cumulative = {}
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            cumulative[fields[2].strip()] = int(fields[1]) / 1e6
    return {
        "setup.importtime.maxsurf_s": cumulative.get("maxsurf", 0.0),
        "setup.importtime.numpy_s": cumulative.get("numpy", 0.0),
        "setup.importtime.scipy_optimize_s": cumulative.get("scipy.optimize", 0.0),
    }


def traced_run(cycle, spans_path: str):
    """One untraced and one traced pass over the same jobs.

    Writes the spans to `spans_path`; returns (per-layer metrics, failures,
    untraced tally, traced tally, call count of every wrapped function).
    """
    import spans

    plain = Tally()
    for i, job in enumerate(cycle):
        plain.add(i, job, execute(job))
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    traced = Tally()
    try:
        for i, job in enumerate(cycle):
            tracer.job = i
            traced.add(i, job, execute(job, tracer))
    finally:
        spans.uninstall(undo)
    failures = plain.failures + traced.failures
    for i in range(len(cycle)):
        if i in plain.digests and plain.digests.get(i) != traced.digests.get(i):
            failures.append(f"job {i}: traced output differs from the untraced one")
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tracer.write(spans_path)

    counts, self_s = tracer.counts, tracer.self_s
    metrics = {}
    for group in PER_LAYER_GROUPS:
        metrics[f"{group}.calls"] = counts[f"{group}.calls"]
        metrics[f"{group}.self_s"] = self_s[group]
    for key in ("annulus.eval.points", "annulus.deriv.points",
                "surface.singular_set.rays", "surface.singular_set.points",
                "surface.w_from_h.targets", "fileio.read.bytes", "fileio.write.bytes"):
        metrics[key] = counts[key]
    found = counts["interpolation.search.roots"]
    metrics["interpolation.roots.found"] = found
    metrics["interpolation.build.ok_ratio"] = (
        counts["interpolation.build.ok"] / found if found else 0.0)
    metrics["trace.jobs"] = len(cycle)
    metrics["trace.jobs_per_s"] = len(cycle) / sum(traced.latencies)
    metrics["trace.untraced_jobs_per_s"] = len(cycle) / sum(plain.latencies)
    wrapped = {key: counts[key] for key in spans.wrapped_keys()}
    return metrics, failures, plain, traced, wrapped


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "maxsurf", "__init__.py")):
        print(f"no maxsurf sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.setup_probe:
        work = os.path.join(RUNS_DIR, f"work-{os.getpid()}")
        try:
            os.makedirs(work)
            _, times = setup(args.workload, args.seed, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(json.dumps({"setup_s": times["setup_s"]}))
        return 0

    probes = [] if args.trace else setup_probe_times(
        args.workload, args.seed, SETUP_PROBES // 2)
    work = os.path.join(RUNS_DIR, f"work-{os.getpid()}")
    try:
        os.makedirs(work)
        jobs, times = setup(args.workload, args.seed, work)
        import workloads

        info = {"workload": args.workload, "seed": args.seed, "nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
                "python": sys.version.split()[0]}
        if args.trace:
            metrics, failures, plain, tally, wrapped = traced_run(
                jobs[:TRACE_JOBS],
                os.path.join(RUNS_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
            attempted = len(plain.latencies) + len(tally.latencies)
            metrics.update({f"setup.{k}": v for k, v in times.items() if k != "setup_s"})
            metrics.update(import_breakdown())
            info["wrapped_calls"] = wrapped
        else:
            tally = timed_run(jobs, args.seconds)
            failures = tally.failures
            attempted = len(tally.latencies)
            setup_samples = probes + [times["setup_s"]] + setup_probe_times(
                args.workload, args.seed, SETUP_PROBES - SETUP_PROBES // 2)
            metrics = {
                "jobs_per_s": attempted / sum(tally.latencies),
                "job_ms.p50": 1e3 * statistics.median(tally.latencies),
                "job_ms.p90": percentile_ms(tally.latencies, 0.9),
                "setup_s": statistics.median(setup_samples),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            info.update({"jobs": attempted, "job_seconds": sum(tally.latencies),
                         "setup_samples_s": setup_samples,
                         "fail_frac": len(tally.failures) / attempted})
        info["failures"] = failures[:10]
        print("info " + json.dumps(info, sort_keys=True))
        print("fingerprint " + json.dumps(
            workloads.fingerprint(args.workload, tally.facts), sort_keys=True))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

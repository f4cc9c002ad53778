"""The cayley-spectra benchmark: one command, fixed CLI workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A pass runs the workload's job list, each job in a fresh worker process
(``worker.py``) as one CLI invocation would run.  The worker calls
``cayley_spectra.cli.run(argv)`` in-process with stdout captured and
checks the exact answer against ``expected.json``.  Passes repeat while
the next one is expected to end within ``--seconds``; at least two passes
always run.

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
the passes alternate between untraced and traced, and the per-layer
metrics of the traced passes are reported.  Every figure is the median over
the run's passes.  Human-readable lines come first; the last line of
stdout is the JSON result.  A run record with the environment stamp goes
to ``.perfbench-out/`` in the checkout.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKER = HERE / "worker.py"
# The load is one single-threaded process: pin BLAS to one thread (<= nproc).
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 2
# every run must end within 180 s: stop starting passes after this
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_geomean_s": "s",
    "peak_rss_mib": "MiB",
}


class WorkerError(Exception):
    """A worker died or broke the protocol; the run reports no result."""


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


class Worker:
    """One worker process; ``setup_s`` runs from spawn to its ``ready`` line."""

    def __init__(self, workload: str, seed: int, job: int, traced: bool):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
             "--job", str(job), "--trace", str(int(traced))],
            cwd=ROOT, env=_worker_env(), text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        if line.strip() != "ready":
            self.proc.kill()
            _, err = self.proc.communicate()
            raise WorkerError(f"worker did not start:\n{err.strip()}")

    def run_job(self, timeout: float) -> dict:
        try:
            out, err = self.proc.communicate("go\n", timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise WorkerError(f"worker still running after {timeout:.0f} s")
        if self.proc.returncode != 0:
            raise WorkerError(f"worker exited {self.proc.returncode}:\n{err.strip()}")
        lines = out.strip().splitlines()
        if not lines:
            raise WorkerError("worker printed no report")
        return json.loads(lines[-1])


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return res.stdout.strip() or None


def _environment(workload: str, seed: int, trace: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {var: BLAS_THREADS for var in BLAS_VARS},
        "loadavg": list(os.getloadavg()),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


class Run:
    """The set-up and pass samples of one benchmark run."""

    def __init__(self, workload: str, seed: int, trace: int):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.setups: list[float] = []
        self.passes: list[dict] = []

    def spawn(self, job: int, traced: bool) -> Worker:
        worker = Worker(self.workload, self.seed, job, traced)
        self.setups.append(worker.setup_s)
        return worker

    def run_pass(self, traced: bool, deadline: float) -> dict:
        """Run every job of the workload once."""
        jobs, layers = [], Counter()
        for index in range(len(workloads.WORKLOADS[self.workload])):
            worker = self.spawn(index, traced)
            report = worker.run_job(timeout=max(deadline - time.perf_counter(), 1.0))
            layers.update(report.pop("layers", {}))
            jobs.append(report)
        report = {
            "traced": traced,
            "wall_s": sum(j["seconds"] for j in jobs),
            "peak_rss_mib": max(j["peak_rss_mib"] for j in jobs),
            "jobs": jobs,
        }
        if traced:
            report["layers"] = spans.add_ratios(layers)
        return report

    def run_passes(self, seconds: float) -> None:
        """Run passes until the next one would end after ``seconds``.

        When traced, the passes alternate between untraced and traced.
        """
        t0 = time.perf_counter()
        while True:
            traced = bool(self.trace) and len(self.passes) % 2 == 1
            t_pass = time.perf_counter()
            report = self.run_pass(traced, t0 + RUN_LIMIT_S)
            report["pass_s"] = time.perf_counter() - t_pass
            self.passes.append(report)
            elapsed = time.perf_counter() - t0
            if len(self.passes) < MIN_PASSES and elapsed + report["pass_s"] < RUN_LIMIT_S:
                continue
            if elapsed + report["pass_s"] > min(seconds, RUN_LIMIT_S):
                break
        if self.trace and not any(p["traced"] for p in self.passes):
            raise WorkerError("no time left in the run for a traced pass")


def _geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def end_to_end(run: Run) -> dict[str, float]:
    """Medians over the run's set-ups and passes."""
    passes = run.passes
    return {
        "setup_s": statistics.median(run.setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "job_geomean_s": statistics.median(
            _geomean([j["seconds"] for j in p["jobs"]]) for p in passes
        ),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
    }


def per_layer(run: Run) -> dict[str, float]:
    """Medians over the run's traced passes, and the tracing overhead."""
    traced = [p for p in run.passes if p["traced"]]
    plain = [p for p in run.passes if not p["traced"]]
    out = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name in traced[0]["layers"]
    }
    out["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - statistics.median(
        p["wall_s"] for p in plain
    )
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("_per_subset", "_per_gamma")):
        return "ratio"
    return "count"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (ROOT / "src" / "cayley_spectra").is_dir():
        print(f"error: no cayley_spectra package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = _environment(args.workload, args.seed, args.trace)
    run = Run(args.workload, args.seed, args.trace)
    try:
        run.run_passes(args.seconds)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    jobs = [j for p in run.passes for j in p["jobs"]]
    failures = [j for j in jobs if j["failure"] is not None]
    correct = not failures
    metrics = {}
    if correct:
        if args.trace:
            metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in per_layer(run).items()}
        else:
            metrics = {
                k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end(run).items()
            }

    OUT.mkdir(exist_ok=True)
    record = {
        "environment": env,
        "setups_s": run.setups,
        "passes": run.passes,
        "metrics": metrics,
    }
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )

    print(f"environment: {json.dumps(env)}")
    print(f"passes: {len(run.passes)}  set-ups: {len(run.setups)}  jobs attempted: {len(jobs)}")
    for j in failures:
        print(f"FAILED {j['job']}: {j['failure']}")
    print(f"failed_ratio {len(failures) / len(jobs):.4f} ratio")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(jobs),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

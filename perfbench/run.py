"""Benchmark entry point: one workload, one seed, one measured window.

    python3 perfbench/run.py --workload catalog_certify --seed 1 --seconds 50 --trace 0

Run from the root of a checkout.  Each workload runs in a fresh interpreter
(`worker.py`) started from this process; the work inside it is sequential.
Set-up is timed from process start to the first timed op, in SETUP_SAMPLES
fresh interpreters, and reported as their median.  With `--trace 0` the last
line of stdout carries the end-to-end metrics of BENCHMARK.json, with
`--trace 1` its per-layer metrics.  The full record, with run metadata (and
the spans when traced), goes to perfbench/out/.  See BENCHMARK.md.
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
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5
# The whole run, set-up included, must end well inside three minutes.
RUN_DEADLINE_S = 170.0
# Workers run single-threaded BLAS: the work is sequential by design, and an
# idle BLAS thread spinning on the second core adds noise.
BLAS_THREADS = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1")


class BenchError(RuntimeError):
    pass


def git_commit() -> str:
    """HEAD of the checkout; "unknown" outside git or without git."""
    # The ceiling stops git from reporting a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Worker:
    """A worker process, killed if it outlives the run's deadline."""

    def __init__(self, args, deadline: float, extra: list[str]):
        env = dict(os.environ, **BLAS_THREADS)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), *extra]
        self.started = perf_counter()
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                     text=True)
        self.watchdog = threading.Timer(max(0.0, deadline - perf_counter()), self.proc.kill)
        self.watchdog.daemon = True
        self.watchdog.start()

    def read(self, tag: str) -> dict:
        line = self.proc.stdout.readline()
        try:
            if line.startswith(tag + " "):
                return json.loads(line[len(tag) + 1:])
        except ValueError:
            pass
        self.proc.kill()
        self.close()
        raise BenchError(f"worker gave no valid {tag} line (exit code {self.proc.returncode})")

    def close(self) -> None:
        self.proc.stdout.close()
        self.proc.wait()
        self.watchdog.cancel()


def run_workload(args) -> tuple[list[float], list[dict], dict]:
    """Set-up samples (s), READY payloads, and the measuring worker's result."""
    deadline = perf_counter() + RUN_DEADLINE_S
    setups, ready = [], []
    measuring = ["--spans", str(OUT / f"{stem(args)}-spans.json")] if args.trace else []
    for sample in range(SETUP_SAMPLES):
        last = sample == SETUP_SAMPLES - 1
        worker = Worker(args, deadline, measuring if last else ["--setup-only"])
        ready.append(worker.read("READY"))
        setups.append(perf_counter() - worker.started)
        if not last:
            worker.close()
    result = worker.read("RESULT")
    worker.close()
    if worker.proc.returncode != 0:
        raise BenchError(f"worker exited with code {worker.proc.returncode}")
    return setups, ready, result


def stem(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "majorana" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'majorana'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    try:
        setups, ready, result = run_workload(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    values = dict(result["metrics"])
    values["setup_s"] = statistics.median(setups)
    values["setup.import_s"] = statistics.median(r["import_s"] for r in ready)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if not math.isfinite(values.get(m["name"], math.nan))]
    if missing:
        print(f"error: metrics missing or not finite: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    line = {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}

    record = dict(line, metadata={
        **result["metadata"],
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "git_commit": git_commit(),
        "python": platform.python_version(), "machine": platform.machine(),
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "setup_samples_s": setups,
        "fail_frac": result["failed"] / result["attempted"],
    })
    (OUT / f"{stem(args)}.json").write_text(json.dumps(record, indent=1) + "\n")
    for name, metric in metrics.items():
        print(f"{name:42s} {metric['value']:>14.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(record["metadata"]))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

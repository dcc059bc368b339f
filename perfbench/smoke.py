"""Smoke test of the benchmark at reduced size.

    python3 perfbench/smoke.py

For every workload, runs run.py untraced and traced for SECONDS and checks
that the result line is well formed, that every metric BENCHMARK.json names
is emitted with its unit, that the answers passed their checks, and
that in each traced op the layer spans fit inside the op span (self times
add up to the op's duration).  Finally it checks that run.py fails, without
a result line, in a directory holding only BENCHMARK.json and perfbench/.
Exits non-zero on the first problem.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
SECONDS = 2
TIMEOUT_S = 180


def run(cwd: Path, workload: str, seconds: float, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(SEED), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_result(proc, declared: list[dict]) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(line)}")
    if line["correct"] is not True or line["failed"] != 0 or line["attempted"] < 1:
        raise AssertionError(f"answers failed their checks: {proc.stderr[-2000:]}")
    units = {name: metric["unit"] for name, metric in line["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in declared}
    if units != wanted:
        raise AssertionError(f"metrics differ from BENCHMARK.json: "
                             f"{sorted(set(units.items()) ^ set(wanted.items()))}")
    return line


def check_spans(path: Path) -> int:
    """Every op span's children lie inside it and leave a non-negative
    self time; returns the number of op spans checked."""
    spans = json.loads(path.read_text())["spans"]
    children: dict[int, float] = {}
    for name, start, end, parent, _ in spans:
        if end < start:
            raise AssertionError(f"span {name} ends before it starts")
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            if start < p_start or end > p_end:
                raise AssertionError(f"span {name} lies outside its parent {spans[parent][0]}")
            children[parent] = children.get(parent, 0.0) + end - start
    ops = [i for i, span in enumerate(spans) if span[0] == "op"]
    for i in ops:
        if children.get(i, 0.0) > spans[i][2] - spans[i][1]:
            raise AssertionError(f"child spans of op {spans[i][4]} exceed it")
    if not ops:
        raise AssertionError("no op spans recorded")
    return len(ops)


def check_bare_directory(workload: str) -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, workload, 1, 0)
    finally:
        shutil.rmtree(bare)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 0 or last.startswith("{"):
        raise AssertionError("run.py succeeded without the package source")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            line = check_result(run(ROOT, workload, SECONDS, trace), declared)
            note = ""
            if trace:
                ops = check_spans(HERE / "out" / f"{workload}-seed{SEED}-trace1-spans.json")
                note = f", {ops} traced ops"
            print(f"ok  {workload} trace={trace}: {line['attempted']} ops{note}")
    check_bare_directory(spec["workloads"][0]["name"])
    print("ok  no result without the package source")
    return 0


if __name__ == "__main__":
    sys.exit(main())

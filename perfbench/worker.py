"""One fresh interpreter running one workload; started by run.py.

Protocol on stdout: after set-up (import, input generation and one warm-up
op) the worker prints `READY {json}`; unless `--setup-only` is given it then
measures for `--seconds` and prints `RESULT {json}`.  The parent times the
interval from process start to the READY line as the set-up time.

With `--trace 1` every input runs twice, once untraced and once traced, in
alternating order.  The traced runs give the per-layer numbers; their total
op time against the untraced runs' gives the tracing overhead.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
MAX_REPORTED_FAILURES = 5

# Spans reported per layer, with the statistics wanted for each.
LAYER_SPANS = {
    "symstate.to_majorana": ("calls", "busy_s", "ms_p50"),
    "entanglement.geometric_measure": ("calls", "busy_s", "ms_p50"),
    "entanglement.grid_oracle": ("calls", "busy_s"),
    "symmetry.detect_group": ("calls", "busy_s", "ms_p50", "ms_max"),
    "twirl.certify_equivalence": ("calls", "busy_s", "ms_p50", "ms_max"),
    "slocc.slocc_distinguish": ("calls", "busy_s"),
    "catalog.gen": ("busy_s",),
    "cli.gen": ("ms_p50",),
    "cli.convert": ("ms_p50",),
    "cli.entangle": ("ms_p50",),
    "cli.symmetry": ("ms_p50",),
    "cli.twirl": ("ms_p50",),
}


class Phase:
    """Op latencies and failures of one measured stretch."""

    def __init__(self):
        self.times: list[float] = []
        self.failed = 0

    def ops_per_s(self) -> float:
        return (len(self.times) - self.failed) / sum(self.times)


def _run_op(workload, item, tracer, op, phase: Phase) -> None:
    error = None
    with tracer.span("op", op):
        start = perf_counter()
        try:
            result = workload.run(item, tracer)
        except Exception:  # a raising op is a failed op, not a crash
            error = traceback.format_exc()
        elapsed = perf_counter() - start
    phase.times.append(elapsed)
    if error is None:
        with tracer.span("check", op):
            try:
                reasons = workload.check(item, result, tracer)
            except Exception:
                reasons = [traceback.format_exc()]
    else:
        reasons = [error]
    if reasons:
        phase.failed += 1
        if phase.failed <= MAX_REPORTED_FAILURES:
            print(f"op {op} failed: {'; '.join(reasons)}", file=sys.stderr)


def measure(workload, tracers: list, seconds: float) -> list[Phase]:
    """Run ops for `seconds`; each input once under every tracer given,
    alternating which goes first so neither side gains from warm caches."""
    phases = [Phase() for _ in tracers]
    pairs = list(zip(tracers, phases))
    stream = workload.stream(tracers[-1])
    deadline = perf_counter() + seconds
    for op, item in enumerate(stream):
        for tracer, phase in pairs[::-1] if op % 2 else pairs:
            _run_op(workload, item, tracer, op, phase)
        if perf_counter() >= deadline:
            return phases


def _p90_ms(values: list[float]) -> float:
    """90th percentile in ms (statistics.quantiles, exclusive method)."""
    if len(values) == 1:
        return values[0] * 1e3
    return statistics.quantiles(values, n=10)[-1] * 1e3


def end_to_end(phase: Phase, workload_name: str) -> dict:
    usage = resource.RUSAGE_CHILDREN if workload_name == "cli_cold" else resource.RUSAGE_SELF
    return {
        "ops_per_s": phase.ops_per_s(),
        "op_ms_p50": statistics.median(phase.times) * 1e3,
        "op_ms_p90": _p90_ms(phase.times),
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _span_stat(values: list[float], stat: str) -> float:
    if stat == "calls":
        return len(values)
    if stat == "busy_s":
        return sum(values)
    if not values:
        return 0.0
    return (statistics.median(values) if stat == "ms_p50" else max(values)) * 1e3


def per_layer(tracer, untraced: Phase, traced: Phase) -> dict:
    """Layer self times from the spans, counts from the counters."""
    by_name: dict[str, list[float]] = {}
    for (name, *_), own in zip(tracer.spans, tracer.self_times()):
        by_name.setdefault(name, []).append(own)
    metrics = {f"{name}.{stat}": _span_stat(by_name.get(name, []), stat)
               for name, stats in LAYER_SPANS.items() for stat in stats}
    counted = tracer.counters.get
    calls = {name: len(by_name.get(name, [])) for name in LAYER_SPANS}
    metrics.update({
        "entanglement.starts": counted("entanglement.starts", 0),
        "entanglement.converged_ratio": _ratio(counted("entanglement.converged", 0),
                                               calls["entanglement.geometric_measure"]),
        "entanglement.max_gradient_norm": counted("entanglement.max_gradient_norm", 0.0),
        "entanglement.oracle_gap_max": counted("entanglement.oracle_gap_max", 0.0),
        "symmetry.elements": counted("symmetry.elements", 0),
        "symmetry.label_match_ratio": _ratio(counted("symmetry.label_match", 0),
                                             calls["symmetry.detect_group"]),
        "twirl.wigner_rotations": counted("twirl.wigner_rotations", 0),
        "twirl.valid_ratio": _ratio(counted("twirl.valid", 0),
                                    calls["twirl.certify_equivalence"]),
        "slocc.inequivalent_ratio": _ratio(counted("slocc.inequivalent", 0),
                                           calls["slocc.slocc_distinguish"]),
        "cli.nonfinite_rejected": counted("cli.nonfinite_rejected", 0),
        "op.self_s": sum(by_name.get("op", [])),
        "fail_frac": _ratio(untraced.failed + traced.failed,
                            len(untraced.times) + len(traced.times)),
    })
    metrics["trace.overhead_pct"] = (sum(traced.times) / sum(untraced.times) - 1) * 100
    return metrics


def metadata() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "write_bytecode": not sys.dont_write_bytecode}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="write the traced spans here")
    args = parser.parse_args(argv)

    start = perf_counter()
    import majorana
    import_s = perf_counter() - start
    if Path(majorana.__file__).resolve().parent != ROOT / "src" / "majorana":
        print(f"error: imported majorana from {majorana.__file__}, not from this checkout",
              file=sys.stderr)
        return 3
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS

    tracer = Tracer() if args.trace else NullTracer()
    with tracer.span("setup", "setup"):
        workload = WORKLOADS[args.workload](args.seed, tracer)
        # Untraced, so that layer statistics cover measured ops only.
        workload.warm_up(NullTracer())
    print("READY " + json.dumps({"import_s": import_s}), flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        phases = measure(workload, [NullTracer(), tracer], args.seconds)
        workload.finish(tracer)
        metrics = per_layer(tracer, *phases)
        if args.spans:
            tracer.write(args.spans)
    else:
        phases = measure(workload, [tracer], args.seconds)
        metrics = end_to_end(phases[0], args.workload)
        workload.finish(tracer)
    result = {"attempted": sum(len(p.times) for p in phases),
              "failed": sum(p.failed for p in phases),
              "metrics": metrics, "metadata": metadata()}
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

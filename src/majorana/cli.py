"""Command-line front end: JSON in, JSON/CSV/SVG out.

Commands read one state (or configuration) from --input and write to
--output, with "-" meaning stdin/stdout.  Exit codes: 0 success, 1 domain
error (bad parameters, unattainable request), 2 I/O or schema error.  The
environment variable MAJORANA_TOL overrides the default clustering and
symmetry tolerance; a --tol flag beats the environment.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from .catalog import SOLIDS, gen_dicke, gen_dihedral, gen_ghz, gen_platonic, gen_tetrahedral
from .entanglement import OptimizerConfig, geometric_measure, grid_oracle
from .slocc import degeneracy_signature, slocc_distinguish, four_qubit_table
from .symmetry import detect_group
from .symstate import (
    MajoranaConfig,
    SchemaError,
    SymmetricState,
    angles_to_unit,
    cluster_directions,
    parse_json_text,
    to_dicke,
    to_json_dict,
    to_majorana,
    unit_to_angles,
)
from .twirl import certify_equivalence

DEFAULT_TOL = 1e-6


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _write_json(path: str, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, allow_nan=False) + "\n")


def _load_state(path: str) -> SymmetricState:
    parsed = parse_json_text(_read_text(path))
    if isinstance(parsed, MajoranaConfig):
        return to_dicke(parsed)
    return parsed


def _load_config(path: str) -> MajoranaConfig:
    parsed = parse_json_text(_read_text(path))
    if isinstance(parsed, SymmetricState):
        return to_majorana(parsed)
    return parsed


def _tolerance(args) -> float:
    if getattr(args, "tol", None) is not None:
        source, value = "--tol", args.tol
    else:
        raw = os.environ.get("MAJORANA_TOL")
        if raw is None:
            return DEFAULT_TOL
        source = "$MAJORANA_TOL"
        try:
            value = float(raw)
        except ValueError as exc:
            raise SchemaError(source, f"not a number: {raw!r}") from exc
    if not (math.isfinite(value) and value > 0):
        raise SchemaError(source, f"tolerance must be finite and positive, got {value!r}")
    return value


def _optimizer_config(args) -> OptimizerConfig:
    return OptimizerConfig(num_starts=getattr(args, "starts", None),
                           seed=getattr(args, "seed", 0))


def _cmd_gen(args) -> int:
    if args.family == "dicke":
        state = gen_dicke(args.n, args.k)
    elif args.family == "ghz":
        state = gen_ghz(args.n)
    elif args.family == "dihedral":
        state = gen_dihedral(args.n, args.p)
    elif args.family == "tetrahedral":
        state = gen_tetrahedral()
    else:
        state = gen_platonic(args.solid, args.mult)
    _write_json(args.output, to_json_dict(state))
    return 0


def _cmd_convert(args) -> int:
    parsed = parse_json_text(_read_text(args.input))
    if args.to == "majorana":
        result = parsed if isinstance(parsed, MajoranaConfig) else to_majorana(parsed)
    else:
        result = parsed if isinstance(parsed, SymmetricState) else to_dicke(parsed)
    _write_json(args.output, to_json_dict(result))
    return 0


def _cmd_entangle(args) -> int:
    state = _load_state(args.input)
    if args.oracle:
        result = grid_oracle(state, args.resolution)
    else:
        result = geometric_measure(state, _optimizer_config(args))
    _write_json(args.output, {"lambda": result.lam, "eg_bits": result.eg,
                              "theta": result.theta, "phi": result.phi,
                              "converged": result.converged,
                              "starts_used": result.starts_used,
                              "iterations": result.iterations,
                              "max_gradient_norm": result.max_gradient_norm})
    return 0


def _rotation_json(rotation) -> dict:
    return {"axis": [float(c) for c in rotation.axis], "angle": float(rotation.angle)}


def _cmd_symmetry(args) -> int:
    config = _load_config(args.input)
    report = detect_group(config, _tolerance(args))
    _write_json(args.output, {
        "group": report.label,
        "order": report.order,
        "axis": None if report.axis is None else [float(c) for c in report.axis],
        "generators": [_rotation_json(g) for g in report.generators],
        "totally_invariant": report.totally_invariant,
        "witness": report.witness,
    })
    return 0


def _cmd_slocc(args) -> int:
    tol = _tolerance(args)
    state_a = _load_state(args.first)
    state_b = _load_state(args.second)
    verdict = slocc_distinguish(state_a, state_b, _optimizer_config(args), tol)
    sig_a = degeneracy_signature(to_majorana(state_a), tol)
    sig_b = degeneracy_signature(to_majorana(state_b), tol)
    _write_json(args.output, {
        "result": verdict.result,
        "reason": verdict.reason,
        "signature_first": list(sig_a.multiplicities),
        "signature_second": list(sig_b.multiplicities),
    })
    return 0


def _cmd_table4(args) -> int:
    rows, verdicts = four_qubit_table(_optimizer_config(args))
    _write_json(args.output, {
        "rows": [{"name": r.name, "group": r.group,
                  "signature": list(r.signature.multiplicities),
                  "eg_bits": r.eg} for r in rows],
        "verdicts": [{"first": v.first, "second": v.second,
                      "result": v.verdict.result, "reason": v.verdict.reason}
                     for v in verdicts],
    })
    return 0


def _cmd_twirl(args) -> int:
    state = _load_state(args.input)
    ent = geometric_measure(state, _optimizer_config(args))
    report = detect_group(to_majorana(state), _tolerance(args))
    certificate = certify_equivalence(
        state, ent, report,
        require_total_invariance=not args.allow_non_invariant)
    _write_json(args.output, {
        "group": report.label,
        "lambda_claimed": certificate.lambda_claimed,
        "overlap": certificate.overlap,
        "delta_min_eig": certificate.delta_min_eig,
        "delta_psi_component": certificate.delta_psi_component,
        "valid": certificate.valid,
        "multiplicity": certificate.multiplicity,
        "reason": certificate.reason,
    })
    return 0


def plot_rows(config: MajoranaConfig, maximizer=None, tol: float = DEFAULT_TOL):
    """One row per coincidence cluster: angles, Cartesian coordinates,
    multiplicity, role; plus a zero-multiplicity maximizer row if given."""
    vecs = config.unit_vectors()
    rows = []
    for idx in cluster_directions(vecs, tol):
        center = vecs[idx].sum(axis=0)
        center /= np.linalg.norm(center)
        theta, phi = unit_to_angles(center)
        rows.append((float(theta), float(phi), float(center[0]), float(center[1]),
                     float(center[2]), len(idx), "point"))
    if maximizer is not None:
        theta, phi = float(maximizer[0]), float(maximizer[1])
        x, y, z = angles_to_unit(theta, phi)
        rows.append((theta, phi, float(x), float(y), float(z), 0, "maximizer"))
    return rows


def write_csv(rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["theta", "phi", "x", "y", "z", "multiplicity", "role"])
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buffer.getvalue()


def write_svg(rows, size: int = 400) -> str:
    """Orthographic view from +y: screen x right, z up; far-hemisphere
    points are drawn translucent, the maximizer as a hollow circle."""
    center = size / 2.0
    radius = size / 2.0 - 10.0
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
             f'viewBox="0 0 {size} {size}">',
             f'<circle cx="{center}" cy="{center}" r="{radius}" fill="none" '
             'stroke="#888" stroke-width="1"/>']
    for theta, phi, x, y, z, mult, role in rows:
        sx = center + radius * x
        sy = center - radius * z
        opacity = "1.0" if y >= 0 else "0.45"
        if role == "maximizer":
            parts.append(f'<circle cx="{sx:.2f}" cy="{sy:.2f}" r="7" fill="none" '
                         f'stroke="#d00" stroke-width="2" opacity="{opacity}"/>')
        else:
            r = 5.0 + 2.5 * (mult - 1)
            parts.append(f'<circle cx="{sx:.2f}" cy="{sy:.2f}" r="{r:.1f}" '
                         f'fill="#036" opacity="{opacity}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def plot_emit(config: MajoranaConfig, maximizer, path: str,
              svg_path: str | None = None, tol: float = DEFAULT_TOL) -> None:
    """Write the cluster CSV for a configuration (and optionally an SVG).

    `maximizer` is a (theta, phi) pair or None; when present it adds one
    hollow-dot row with multiplicity 0.
    """
    rows = plot_rows(config, maximizer, tol)
    _write_text(path, write_csv(rows))
    if svg_path is not None:
        _write_text(svg_path, write_svg(rows))


def _cmd_plot(args) -> int:
    config = _load_config(args.input)
    maximizer = None
    if args.with_maximizer:
        ent = geometric_measure(to_dicke(config), _optimizer_config(args))
        maximizer = (ent.theta, ent.phi)
    plot_emit(config, maximizer, args.output, args.svg, _tolerance(args))
    return 0


def _add_io(parser, needs_input=True):
    if needs_input:
        parser.add_argument("-i", "--input", default="-",
                            help="input JSON path, '-' for stdin")
    parser.add_argument("-o", "--output", default="-",
                        help="output path, '-' for stdout")


def _add_tol(parser):
    parser.add_argument("--tol", type=float, default=None,
                        help="angular tolerance in radians "
                             "(default: MAJORANA_TOL or 1e-6)")


def _add_optimizer(parser):
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--starts", type=int, default=None,
                        help="multi-start count (default max(32, n^2))")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="majorana",
        description="Symmetric-state entanglement via sphere-point configurations")
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("gen", help="generate a named state as JSON")
    families = gen.add_subparsers(dest="family", required=True)
    dicke = families.add_parser("dicke")
    dicke.add_argument("--n", type=int, required=True)
    dicke.add_argument("--k", type=int, required=True)
    ghz = families.add_parser("ghz")
    ghz.add_argument("--n", type=int, required=True)
    dihedral = families.add_parser("dihedral")
    dihedral.add_argument("--n", type=int, required=True)
    dihedral.add_argument("--p", type=int, required=True)
    families.add_parser("tetrahedral")
    platonic = families.add_parser("platonic")
    platonic.add_argument("--solid", choices=SOLIDS, required=True)
    platonic.add_argument("--mult", type=int, default=1)
    for sub in families.choices.values():
        _add_io(sub, needs_input=False)
    gen.set_defaults(func=_cmd_gen)

    convert = commands.add_parser("convert", help="switch between JSON forms")
    convert.add_argument("--to", choices=("dicke", "majorana"), required=True)
    _add_io(convert)
    convert.set_defaults(func=_cmd_convert)

    entangle = commands.add_parser("entangle", help="geometric entanglement")
    _add_io(entangle)
    _add_optimizer(entangle)
    entangle.add_argument("--oracle", action="store_true",
                          help="use the exhaustive grid instead of multi-start")
    entangle.add_argument("--resolution", type=int, default=300)
    entangle.set_defaults(func=_cmd_entangle)

    symmetry = commands.add_parser("symmetry", help="detect the point group")
    _add_io(symmetry)
    _add_tol(symmetry)
    symmetry.set_defaults(func=_cmd_symmetry)

    slocc = commands.add_parser("slocc", help="inequivalence evidence for two states")
    slocc.add_argument("first", help="path to the first state JSON")
    slocc.add_argument("second", help="path to the second state JSON")
    _add_io(slocc, needs_input=False)
    _add_tol(slocc)
    _add_optimizer(slocc)
    slocc.set_defaults(func=_cmd_slocc)

    table4 = commands.add_parser("table4", help="four-qubit comparison table")
    _add_io(table4, needs_input=False)
    _add_optimizer(table4)
    table4.set_defaults(func=_cmd_table4)

    twirl = commands.add_parser("twirl", help="group-average certificate")
    _add_io(twirl)
    _add_tol(twirl)
    _add_optimizer(twirl)
    twirl.add_argument("--allow-non-invariant", action="store_true",
                       help="run the construction even off-catalog")
    twirl.set_defaults(func=_cmd_twirl)

    plot = commands.add_parser("plot", help="emit point-cluster CSV (and SVG)")
    _add_io(plot)
    _add_tol(plot)
    _add_optimizer(plot)
    plot.add_argument("--with-maximizer", action="store_true")
    plot.add_argument("--svg", default=None, help="also write an SVG here")
    plot.set_defaults(func=_cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

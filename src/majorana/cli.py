"""Command-line front end: JSON in, JSON/CSV/SVG out.

Commands read one state (or configuration) from --input and write to
--output, with "-" meaning stdin/stdout.  Exit codes: 0 success, 1 domain
error (bad parameters, unattainable request), 2 I/O or schema error.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from .catalog import SOLIDS, gen_dicke, gen_dihedral, gen_ghz, gen_platonic, gen_tetrahedral
from .entanglement import geometric_measure, grid_oracle
from .slocc import slocc_distinguish, four_qubit_table
from .symmetry import detect_group
from .symstate import (
    COINCIDENCE_TOL,
    MajoranaConfig,
    SchemaError,
    SymmetricState,
    angles_to_unit,
    parse_json_text,
    site_decomposition,
    to_dicke,
    to_json_dict,
    to_majorana,
    unit_to_angles,
)
from .twirl import certify_equivalence


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


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and positive, got {text!r}")
    return value


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
    load = _load_config if args.to == "majorana" else _load_state
    _write_json(args.output, to_json_dict(load(args.input)))
    return 0


def _cmd_entangle(args) -> int:
    state = _load_state(args.input)
    if args.oracle is not None:
        result = grid_oracle(state, args.oracle)
    else:
        result = geometric_measure(state)
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
    report = detect_group(config, args.tol)
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
    state_a = _load_state(args.first)
    state_b = _load_state(args.second)
    verdict = slocc_distinguish(state_a, state_b, args.tol)
    sig_a, sig_b = verdict.signatures
    _write_json(args.output, {
        "result": verdict.result,
        "reason": verdict.reason,
        "signature_first": list(sig_a.multiplicities),
        "signature_second": list(sig_b.multiplicities),
    })
    return 0


def _cmd_table4(args) -> int:
    rows, verdicts = four_qubit_table()
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
    ent = geometric_measure(state)
    report = detect_group(ent.config, args.tol)
    certificate = certify_equivalence(state, ent, report)
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


def plot_rows(config: MajoranaConfig, maximizer=None, tol: float = COINCIDENCE_TOL):
    """One row per coincidence cluster: angles, Cartesian coordinates,
    multiplicity, role; plus a zero-multiplicity maximizer row if given."""
    sites, mult = site_decomposition(config.unit_vectors(), tol)
    theta, phi = unit_to_angles(sites)
    rows = [(float(t), float(p), float(x), float(y), float(z), int(m), "point")
            for t, p, (x, y, z), m in zip(theta, phi, sites, mult)]
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


# Width and height of the SVG view, in pixels.
_SVG_SIZE = 400


def write_svg(rows) -> str:
    """Orthographic view from +y: screen x right, z up; far-hemisphere
    points are drawn translucent, the maximizer as a hollow circle."""
    center = _SVG_SIZE / 2.0
    radius = _SVG_SIZE / 2.0 - 10.0
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
             f'viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">',
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


def _cmd_plot(args) -> int:
    config = _load_config(args.input)
    maximizer = None
    if args.with_maximizer:
        ent = geometric_measure(to_dicke(config))
        maximizer = (ent.theta, ent.phi)
    rows = plot_rows(config, maximizer, args.tol)
    _write_text(args.output, write_csv(rows))
    if args.svg is not None:
        _write_text(args.svg, write_svg(rows))
    return 0


def _add_io(parser, needs_input=True):
    if needs_input:
        parser.add_argument("-i", "--input", default="-",
                            help="input JSON path, '-' for stdin")
    parser.add_argument("-o", "--output", default="-",
                        help="output path, '-' for stdout")


def _add_tol(parser):
    parser.add_argument("--tol", type=_tolerance, default=COINCIDENCE_TOL,
                        help=f"angular tolerance in radians (default {COINCIDENCE_TOL:g})")


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
    entangle.add_argument("--oracle", type=int, nargs="?", const=300, metavar="RESOLUTION",
                          help="use the exhaustive RESOLUTION x RESOLUTION grid (bare: 300, "
                               "at least 8) instead of the multi-start ascent")
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
    slocc.set_defaults(func=_cmd_slocc)

    table4 = commands.add_parser("table4", help="four-qubit comparison table")
    _add_io(table4, needs_input=False)
    table4.set_defaults(func=_cmd_table4)

    twirl = commands.add_parser("twirl", help="group-average certificate")
    _add_io(twirl)
    _add_tol(twirl)
    twirl.set_defaults(func=_cmd_twirl)

    plot = commands.add_parser("plot", help="emit point-cluster CSV (and SVG)")
    _add_io(plot)
    _add_tol(plot)
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

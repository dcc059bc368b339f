"""End-to-end command behavior: pipelines, exit codes, determinism."""
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import majorana

from majorana.cli import main

from helpers import config_of, cuboctahedron, icosidodecahedron


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_dicke_writes_valid_state(capsys, tmp_path):
    out = tmp_path / "state.json"
    code, _, _ = run(capsys, "gen", "dicke", "--n", "6", "--k", "3", "-o", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["n"] == 6
    assert len(payload["dicke"]) == 7
    assert payload["dicke"][3]["re"] == 1.0


def test_gen_convert_entangle_pipeline(capsys, tmp_path):
    state = tmp_path / "ghz.json"
    config = tmp_path / "ghz_points.json"
    result = tmp_path / "ent.json"
    assert run(capsys, "gen", "ghz", "--n", "4", "-o", str(state))[0] == 0
    assert run(capsys, "convert", "--to", "majorana", "-i", str(state),
               "-o", str(config))[0] == 0
    points = json.loads(config.read_text())
    assert len(points["majorana"]) == 4
    assert run(capsys, "entangle", "-i", str(config), "-o", str(result))[0] == 0
    payload = json.loads(result.read_text())
    assert set(payload) == {"lambda", "eg_bits", "theta", "phi", "converged",
                            "starts_used", "iterations", "max_gradient_norm"}
    assert abs(payload["lambda"] - 0.5) < 1e-9
    assert payload["converged"] is True


def test_entangle_reports_ascent(capsys, tmp_path):
    # the ascent stops on its own, well inside its sweep cap, on a turned
    # GHZ4 (GHZ4 itself is non-negative and takes its meridian maximum with
    # no ascent) and on a random state
    cap = majorana.entanglement._MAX_SWEEPS
    ghz = tmp_path / "ghz.json"
    turn = majorana.Rotation([1.0, 2.0, 3.0], 0.7)
    ghz.write_text(majorana.to_json_text(majorana.rotate_state(majorana.gen_ghz(4), turn)))
    random20 = tmp_path / "r20.json"
    state = majorana.random_symmetric_state(20, np.random.default_rng(0))
    random20.write_text(majorana.to_json_text(state))
    for path, starts in ((ghz, 32), (random20, 400)):
        code, out, _ = run(capsys, "entangle", "-i", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"] is True
        assert payload["starts_used"] >= starts
        assert 0 < payload["iterations"] < cap
        assert 0.0 <= payload["max_gradient_norm"] <= 1e-10


def test_entangle_oracle_flag(capsys, tmp_path):
    state = tmp_path / "w4.json"
    run(capsys, "gen", "dicke", "--n", "4", "--k", "1", "-o", str(state))
    code, out, _ = run(capsys, "entangle", "-i", str(state), "--oracle", "60")
    assert code == 0
    assert abs(json.loads(out)["lambda"] - 27 / 64) < 1e-6
    # one option carries the grid and its resolution, 300 when bare; a grid
    # below 8 x 8 is refused
    assert json.loads(out)["starts_used"] == 60 * 60
    code, out, _ = run(capsys, "entangle", "-i", str(state), "--oracle")
    assert code == 0 and json.loads(out)["starts_used"] == 300 * 300
    code, _, err = run(capsys, "entangle", "-i", str(state), "--oracle", "7")
    assert code == 1 and "at least 8" in err


def test_symmetry_command(capsys, tmp_path):
    state = tmp_path / "t.json"
    run(capsys, "gen", "tetrahedral", "-o", str(state))
    code, out, _ = run(capsys, "symmetry", "-i", str(state))
    assert code == 0
    payload = json.loads(out)
    assert payload["group"] == "T"
    assert payload["totally_invariant"] is True
    # both generators are three-fold turns
    assert len(payload["generators"]) == 2
    assert all(abs(g["angle"] - 2 * math.pi / 3) <= 1e-12 for g in payload["generators"])
    # the total-invariance verdict, read off the sites' stabiliser orders
    icosahedron = tmp_path / "icosahedron.json"
    run(capsys, "gen", "platonic", "--solid", "icosahedron", "-o", str(icosahedron))
    code, out, _ = run(capsys, "symmetry", "-i", str(icosahedron))
    payload = json.loads(out)
    assert code == 0
    assert (payload["group"], payload["totally_invariant"], payload["witness"]) == (
        "Y", True, "points occupy icosahedron vertex positions (12 sites)")


def test_gen_platonic_multiplicity(capsys, tmp_path):
    # two points on each octahedron vertex, within the pattern's cap; the
    # round trip smears each double point, hence the looser tolerance
    state = tmp_path / "octa2.json"
    assert run(capsys, "gen", "platonic", "--solid", "octahedron", "--mult", "2",
               "-o", str(state))[0] == 0
    assert json.loads(state.read_text())["n"] == 12
    code, out, _ = run(capsys, "symmetry", "-i", str(state), "--tol", "1e-4")
    payload = json.loads(out)
    assert code == 0
    assert (payload["group"], payload["totally_invariant"]) == ("O", True)
    assert run(capsys, "gen", "platonic", "--solid", "octahedron", "--mult", "4")[0] == 1


def test_symmetry_reads_point_form_and_stdin(capsys, tmp_path, monkeypatch):
    # point-form JSON goes to detection as it is; "-i -" reads stdin
    state, points = tmp_path / "octa.json", tmp_path / "octa_points.json"
    run(capsys, "gen", "platonic", "--solid", "octahedron", "-o", str(state))
    run(capsys, "convert", "--to", "majorana", "-i", str(state), "-o", str(points))
    assert "majorana" in json.loads(points.read_text())
    expected = ("O", True, "points occupy octahedron vertex positions (6 sites)")
    monkeypatch.setattr(sys, "stdin", io.StringIO(points.read_text()))
    for argv in (("-i", str(points)), ("-i", "-"), ()):
        code, out, _ = run(capsys, "symmetry", *argv)
        payload = json.loads(out)
        assert code == 0, argv
        assert (payload["group"], payload["totally_invariant"], payload["witness"]) == expected
        monkeypatch.setattr(sys, "stdin", io.StringIO(points.read_text()))


def test_slocc_command(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, "gen", "tetrahedral", "-o", str(a))
    run(capsys, "gen", "ghz", "--n", "4", "-o", str(b))
    code, out, _ = run(capsys, "slocc", str(a), str(b))
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "Inequivalent"
    assert payload["signature_first"] == [1, 1, 1, 1]


def test_product_state_commands(capsys, tmp_path):
    # a product state is one exact five-fold point: SO(3), and never a proof
    # of inequivalence against another product state
    tilted, north = tmp_path / "tilted.json", tmp_path / "north.json"
    tilted.write_text(majorana.to_json_text(
        majorana.SymmetricState(5, majorana.coherent_amplitudes(5, 0.8, 0.3))))
    run(capsys, "gen", "dicke", "--n", "5", "--k", "0", "-o", str(north))
    code, out, _ = run(capsys, "symmetry", "-i", str(tilted))
    assert code == 0 and json.loads(out)["group"] == "SO(3)"
    code, out, _ = run(capsys, "convert", "--to", "majorana", "-i", str(tilted))
    points = json.loads(out)["majorana"]
    assert code == 0 and len(points) == 5 and all(p == points[0] for p in points)
    code, out, _ = run(capsys, "slocc", str(north), str(tilted))
    payload = json.loads(out)
    assert code == 0 and payload["result"] != "Inequivalent"
    assert payload["signature_first"] == payload["signature_second"] == [5]
    # 1 - Lambda vanishes, so no certificate can be built
    code, out, err = run(capsys, "twirl", "-i", str(tilted))
    assert code == 1 and out == "" and "product state" in err


def test_slocc_command_reuses_the_verdicts_signatures(capsys, tmp_path, monkeypatch):
    # the printed signatures are the ones slocc_distinguish computed; two
    # states cost two root findings there and one for the rank bound
    from majorana import cli, entanglement, slocc
    calls = []

    def counting(state):
        calls.append(state)
        return majorana.to_majorana(state)

    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, "gen", "tetrahedral", "-o", str(a))
    run(capsys, "gen", "ghz", "--n", "4", "-o", str(b))
    for module in (cli, slocc, entanglement):
        monkeypatch.setattr(module, "to_majorana", counting)
    code, out, _ = run(capsys, "slocc", str(a), str(b))
    assert code == 0
    assert len(calls) <= 3
    payload = json.loads(out)
    assert set(payload) == {"result", "reason", "signature_first", "signature_second"}
    assert payload["signature_first"] == payload["signature_second"] == [1, 1, 1, 1]


def test_table4_command(capsys):
    code, out, _ = run(capsys, "table4")
    assert code == 0
    payload = json.loads(out)
    # each state's one configuration serves its detection, its signature
    # and every verdict it takes part in
    assert [(r["name"], r["group"], r["signature"]) for r in payload["rows"]] == [
        ("T", "T", [1, 1, 1, 1]), ("GHZ4", "D4", [1, 1, 1, 1]), ("S(4,2)", "O(2)", [2, 2]),
        ("W4", "SO(2)", [3, 1])]
    differ = "coincidence signatures differ: "
    assert [(v["first"], v["second"], v["result"], v["reason"])
            for v in payload["verdicts"]] == [
        ("T", "GHZ4", "Inequivalent", "rank bound of the first state (3) exceeds the known "
                                      "rank of the second state (2)"),
        ("T", "S(4,2)", "Inequivalent", differ + "(1,1,1,1) vs (2,2)"),
        ("T", "W4", "Inequivalent", differ + "(1,1,1,1) vs (3,1)"),
        ("GHZ4", "S(4,2)", "Inequivalent", differ + "(1,1,1,1) vs (2,2)"),
        ("GHZ4", "W4", "Inequivalent", differ + "(1,1,1,1) vs (3,1)"),
        ("S(4,2)", "W4", "Inequivalent", differ + "(2,2) vs (3,1)")]


def test_twirl_command(capsys, tmp_path):
    state = tmp_path / "ghz.json"
    run(capsys, "gen", "ghz", "--n", "4", "-o", str(state))
    code, out, _ = run(capsys, "twirl", "-i", str(state))
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert abs(payload["lambda_claimed"] - 0.5) < 1e-9
    assert payload["multiplicity"] == 1
    assert payload["reason"] is None


def test_twirl_certifies_every_detected_group(capsys, tmp_path):
    # the certificate runs without a pattern gate: the dodecahedron and the
    # two-fold-axis solids certify, and the C3 cone fails with the
    # multiplicity as its reason
    cone = np.array([[math.pi / 3, 2 * math.pi * j / 3] for j in range(3)])
    cases = [(majorana.gen_platonic("dodecahedron"), ("Y", True, 1)),
             (config_of(cuboctahedron()), ("O", True, 1)),
             (config_of(icosidodecahedron()), ("Y", True, 1)),
             (majorana.MajoranaConfig(3, cone), ("C3", False, 2))]
    for data, expected in cases:
        path = tmp_path / "input.json"
        path.write_text(majorana.to_json_text(data))
        code, out, _ = run(capsys, "twirl", "-i", str(path))
        assert code == 0, expected
        payload = json.loads(out)
        assert (payload["group"], payload["valid"], payload["multiplicity"]) == expected
        assert (payload["reason"] is None) == payload["valid"]
    assert payload["reason"].startswith("psi's isotypic multiplicity is 2")


def test_twirl_refuses_non_invariant_state(capsys, tmp_path):
    # a generic state has no symmetry to average over
    state = tmp_path / "w5.json"
    run(capsys, "gen", "dicke", "--n", "5", "--k", "1", "-o", str(state))
    raw = json.loads(state.read_text())
    raw["dicke"][0]["re"] = 0.4
    raw["dicke"][3]["im"] = 0.2
    state.write_text(json.dumps(raw))
    code, _, err = run(capsys, "twirl", "-i", str(state))
    assert code == 1
    assert err != ""


def test_plot_csv_and_svg(capsys, tmp_path):
    state = tmp_path / "s62.json"
    svg = tmp_path / "view.svg"
    run(capsys, "gen", "dicke", "--n", "6", "--k", "2", "-o", str(state))
    code, out, _ = run(capsys, "plot", "-i", str(state), "--with-maximizer",
                       "--svg", str(svg))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theta,phi,x,y,z,multiplicity,role"
    # one row per cluster, four points north and two south, then the maximizer
    rows = [line.split(",") for line in lines[1:]]
    assert [(r[-1], int(r[-2])) for r in rows] == [("point", 4), ("point", 2), ("maximizer", 0)]
    assert (float(rows[0][0]), float(rows[1][0])) == (0.0, math.pi)
    assert svg.read_text().startswith("<svg")


def test_deterministic_output(capsys, tmp_path):
    # D5(7,2) takes its meridian maximum; the random state runs the ascent
    # from the lattice's max(32, n^2) = 144 starts
    dihedral, random12 = tmp_path / "d.json", tmp_path / "r12.json"
    run(capsys, "gen", "dihedral", "--n", "7", "--p", "2", "-o", str(dihedral))
    random12.write_text(majorana.to_json_text(
        majorana.random_symmetric_state(12, np.random.default_rng(3))))
    for state, starts in ((dihedral, 0), (random12, 144)):
        _, first, _ = run(capsys, "entangle", "-i", str(state))
        _, second, _ = run(capsys, "entangle", "-i", str(state))
        assert first == second
        assert json.loads(first)["starts_used"] == starts


def test_exit_code_domain_error(capsys, tmp_path):
    code, _, err = run(capsys, "gen", "dicke", "--n", "4", "--k", "9")
    assert code == 1
    assert "k" in err or "error" in err
    # a tolerance that merges GHZ64's whole ring into one cancelling cluster
    # is refused, not given a noise direction
    ring = tmp_path / "ghz64.json"
    run(capsys, "gen", "ghz", "--n", "64", "-o", str(ring))
    code, out, err = run(capsys, "symmetry", "-i", str(ring), "--tol", "0.1")
    assert code == 1 and out == "" and "no mean direction" in err


def test_points_that_miss_the_state_are_refused(capsys, tmp_path, monkeypatch):
    # roots moved by 1e-3 no longer reproduce the state: to_majorana raises
    # rather than return them, and `convert` exits 1
    import majorana._roots
    from majorana.catalog import gen_dihedral

    companion = majorana._roots._companion_eigenvalues
    monkeypatch.setattr(majorana._roots, "_companion_eigenvalues",
                        lambda coeffs: companion(coeffs) + 1e-3)
    state = gen_dihedral(7, 2)
    with pytest.raises(RuntimeError, match="1 - F"):
        majorana.to_majorana(state)
    path = tmp_path / "state.json"
    path.write_text(majorana.to_json_text(state))
    code, out, err = run(capsys, "convert", "--to", "majorana", "-i", str(path))
    assert code == 1 and out == "" and "1 - F" in err


def test_exit_code_schema_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run(capsys, "symmetry", "-i", str(bad))[0] == 2
    missing = tmp_path / "missing.json"
    assert run(capsys, "entangle", "-i", str(missing))[0] == 2


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_exit_code_non_finite_input(capsys, tmp_path, literal):
    angles = tmp_path / "angles.json"
    angles.write_text('{"n": 4, "majorana": [{"theta": %s, "phi": 0.0}, '
                      '{"theta": 2.0, "phi": 0.0}, {"theta": 2.0, "phi": 2.1}, '
                      '{"theta": 2.0, "phi": 4.2}], "phase": 0.0}' % literal)
    amps = tmp_path / "amps.json"
    amps.write_text('{"n": 2, "dicke": [{"re": 1, "im": 0}, {"re": 0, "im": %s}, '
                    '{"re": 1, "im": 0}]}' % literal)
    for path in (angles, amps):
        for argv in (["symmetry"], ["convert", "--to", "dicke"],
                     ["convert", "--to", "majorana"], ["entangle"]):
            code, out, err = run(capsys, *argv, "-i", str(path))
            assert code == 2, (argv, path.name)
            assert out == ""
            assert "finite" in err


def test_cli_import_leaves_scipy_out():
    # scipy costs about half a second of import; nothing on the CLI path needs it
    script = ("import sys, majorana.cli; "
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(majorana.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_exit_code_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "gen", "dicke", "--n", "4")[0] == 2
    # the start set has no seed and no count to set
    code, _, err = run(capsys, "entangle", "--seed", "1")
    assert code == 2 and "unrecognized arguments: --seed" in err
    for argv in (["entangle"], ["slocc", "a.json", "b.json"], ["table4"], ["twirl"],
                 ["plot"]):
        code, _, err = run(capsys, *argv, "--starts", "8")
        assert code == 2 and "unrecognized arguments: --starts" in err, argv


def test_tol_environment_override(capsys, tmp_path, monkeypatch):
    state = tmp_path / "ghz.json"
    run(capsys, "gen", "ghz", "--n", "4", "-o", str(state))
    for bad in ("not-a-number", "nan", "inf", "0", "-1e-6"):
        code, out, err = run(capsys, "symmetry", "-i", str(state), f"--tol={bad}")
        assert code == 2 and out == "" and "finite and positive" in err, bad
    code, default, _ = run(capsys, "symmetry", "-i", str(state))
    assert code == 0 and json.loads(default)["group"] == "D4"
    assert run(capsys, "symmetry", "-i", str(state), "--tol", "1e-8")[:2] == (0, default)
    # the environment does not reach the answer
    monkeypatch.setenv("MAJORANA_TOL", "not-a-number")
    assert run(capsys, "symmetry", "-i", str(state))[:2] == (0, default)


def test_readme_cli_examples_run(tmp_path):
    # every line of the README's CLI block runs as shown, stage piped to
    # stage, so a flag the CLI drops cannot live on in the docs
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```\n", 2)[1]
    env = dict(os.environ, PYTHONPATH=str(Path(majorana.__file__).resolve().parents[1]))
    env.pop("MAJORANA_TOL", None)

    def pipeline(line):
        text = None
        for stage in line.split("#", 1)[0].split("|"):
            program, *argv = stage.split()
            assert program == "majorana", line
            proc = subprocess.run([sys.executable, "-m", "majorana.cli", *argv],
                                  input=text, capture_output=True, text=True,
                                  cwd=tmp_path, env=env, timeout=120)
            assert proc.returncode == 0, (line, proc.stderr)
            text = proc.stdout

    pipeline("majorana gen dicke --n 4 --k 2 -o a.json")
    pipeline("majorana gen ghz --n 4 -o b.json")
    lines = [line for line in block.splitlines() if line.strip()]
    assert len(lines) >= 9
    for line in lines:
        pipeline(line)

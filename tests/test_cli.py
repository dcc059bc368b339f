"""End-to-end command behavior: pipelines, exit codes, determinism."""
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
    # the ascent stops on its own, well inside its sweep cap
    cap = majorana.OptimizerConfig().max_iterations
    ghz = tmp_path / "ghz.json"
    run(capsys, "gen", "ghz", "--n", "4", "-o", str(ghz))
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
    code, out, _ = run(capsys, "entangle", "-i", str(state), "--oracle",
                       "--resolution", "60")
    assert code == 0
    assert abs(json.loads(out)["lambda"] - 27 / 64) < 1e-6


def test_symmetry_command(capsys, tmp_path):
    state = tmp_path / "t.json"
    run(capsys, "gen", "tetrahedral", "-o", str(state))
    code, out, _ = run(capsys, "symmetry", "-i", str(state))
    assert code == 0
    payload = json.loads(out)
    assert payload["group"] == "T"
    assert payload["totally_invariant"] is True
    assert len(payload["generators"]) == 2


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


def test_table4_command(capsys):
    code, out, _ = run(capsys, "table4")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 4
    assert len(payload["verdicts"]) == 6
    assert all(v["result"] == "Inequivalent" for v in payload["verdicts"])


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
    roles = [line.split(",")[-1] for line in lines[1:]]
    assert roles.count("point") == 2
    assert roles.count("maximizer") == 1
    mults = [int(line.split(",")[-2]) for line in lines[1:]]
    assert sorted(mults) == [0, 2, 4]
    assert svg.read_text().startswith("<svg")


def test_deterministic_output(capsys, tmp_path):
    state = tmp_path / "d.json"
    run(capsys, "gen", "dihedral", "--n", "7", "--p", "2", "-o", str(state))
    _, first, _ = run(capsys, "entangle", "-i", str(state))
    _, second, _ = run(capsys, "entangle", "-i", str(state))
    assert first == second


def test_exit_code_domain_error(capsys):
    code, _, err = run(capsys, "gen", "dicke", "--n", "4", "--k", "9")
    assert code == 1
    assert "k" in err or "error" in err


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


def test_tol_environment_override(capsys, tmp_path, monkeypatch):
    state = tmp_path / "ghz.json"
    run(capsys, "gen", "ghz", "--n", "4", "-o", str(state))
    monkeypatch.setenv("MAJORANA_TOL", "not-a-number")
    assert run(capsys, "symmetry", "-i", str(state))[0] == 2
    for bad in ("nan", "inf", "0", "-1e-6"):
        monkeypatch.setenv("MAJORANA_TOL", bad)
        assert run(capsys, "symmetry", "-i", str(state))[0] == 2
        assert run(capsys, "symmetry", "-i", str(state), "--tol", "1e-6")[0] == 0
        monkeypatch.delenv("MAJORANA_TOL")
        assert run(capsys, "symmetry", "-i", str(state), f"--tol={bad}")[0] == 2
    monkeypatch.setenv("MAJORANA_TOL", "1e-8")
    code, out, _ = run(capsys, "symmetry", "-i", str(state))
    assert code == 0
    assert json.loads(out)["group"] == "D4"

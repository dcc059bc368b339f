"""The public API: the exported names, the geometric measure's parameters,
and the imports of the benchmark workloads."""
import inspect
from pathlib import Path

import majorana
from majorana import four_qubit_table, geometric_measure, slocc_distinguish

PUBLIC = {
    # symstate
    "SymmetricState", "MajoranaConfig", "Rotation", "SchemaError", "state_fidelity",
    "to_majorana", "to_dicke", "rotate", "rotate_state", "coherent_amplitudes",
    "config_close", "random_symmetric_state", "to_json_dict", "to_json_text",
    "parse_json_text", "wigner_rotation",
    # entanglement
    "EntanglementResult", "geometric_measure", "grid_oracle",
    "log_overlap_sq", "log_overlap_sq_gradient",
    # symmetry
    "SymmetryReport", "detect_group", "contains_dihedral",
    # twirl
    "TwirlCertificate", "certify_equivalence",
    # slocc
    "Verdict", "degeneracy_signature", "slocc_distinguish", "four_qubit_table",
    # catalog
    "CatalogEntry", "gen_dicke", "gen_ghz", "gen_dihedral", "gen_tetrahedral",
    "gen_platonic", "totally_invariant_states", "SOLIDS",
}


def test_public_names_and_optimizer_fields():
    assert len(PUBLIC) == 38
    assert sorted(majorana.__all__) == sorted(PUBLIC)
    for name in majorana.__all__:
        assert getattr(majorana, name) is not None, name
    # every answer is a function of its input: the measure has no settings
    assert list(inspect.signature(geometric_measure).parameters) == ["state"]
    assert list(inspect.signature(slocc_distinguish).parameters) == [
        "a", "b", "tol", "ent_a", "ent_b"]
    assert list(inspect.signature(four_qubit_table).parameters) == []


def test_benchmark_workloads_import(monkeypatch):
    # the benchmark imports the package by name; an API cut that breaks it
    # fails here rather than in a later benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    assert set(workloads.WORKLOADS) == {"catalog_certify", "cli_cold"}

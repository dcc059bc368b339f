"""Permutation-symmetric qubit states as point configurations on the sphere.

The package converts between symmetric-basis amplitudes and sphere points,
computes the geometric measure of entanglement, detects rotational point
groups, certifies entanglement values by group averaging, and assembles
evidence that two states sit in different invertible-local-operation
classes.  The names below are the public API; helpers such as
`symstate.cluster_directions` or `twirl.group_average` stay importable
from their own modules.
"""
from .symstate import (
    SymmetricState,
    MajoranaConfig,
    Rotation,
    SchemaError,
    state_fidelity,
    to_majorana,
    to_dicke,
    rotate,
    rotate_state,
    coherent_amplitudes,
    config_close,
    random_symmetric_state,
    to_json_dict,
    to_json_text,
    parse_json_text,
    wigner_rotation,
)
from .entanglement import (
    EntanglementResult,
    geometric_measure,
    grid_oracle,
    log_overlap_sq,
    log_overlap_sq_gradient,
)
from .symmetry import SymmetryReport, detect_group, contains_dihedral
from .twirl import TwirlCertificate, certify_equivalence
from .slocc import Verdict, degeneracy_signature, slocc_distinguish, four_qubit_table
from .catalog import (
    CatalogEntry,
    gen_dicke,
    gen_ghz,
    gen_dihedral,
    gen_tetrahedral,
    gen_platonic,
    totally_invariant_states,
    SOLIDS,
)

__version__ = "0.1.0"

__all__ = [
    "SymmetricState",
    "MajoranaConfig",
    "Rotation",
    "SchemaError",
    "state_fidelity",
    "to_majorana",
    "to_dicke",
    "rotate",
    "rotate_state",
    "coherent_amplitudes",
    "config_close",
    "random_symmetric_state",
    "to_json_dict",
    "to_json_text",
    "parse_json_text",
    "wigner_rotation",
    "EntanglementResult",
    "geometric_measure",
    "grid_oracle",
    "log_overlap_sq",
    "log_overlap_sq_gradient",
    "SymmetryReport",
    "detect_group",
    "contains_dihedral",
    "TwirlCertificate",
    "certify_equivalence",
    "Verdict",
    "degeneracy_signature",
    "slocc_distinguish",
    "four_qubit_table",
    "CatalogEntry",
    "gen_dicke",
    "gen_ghz",
    "gen_dihedral",
    "gen_tetrahedral",
    "gen_platonic",
    "totally_invariant_states",
    "SOLIDS",
]

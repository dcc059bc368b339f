"""Named states and the totally invariant inventory."""
import math

import numpy as np
import pytest

from majorana import (
    config_close,
    detect_group,
    geometric_measure,
    grid_oracle,
    state_fidelity,
    to_dicke,
    to_majorana,
    MajoranaConfig,
)
from majorana.catalog import (
    MAX_MULTIPLICITY,
    SOLIDS,
    gen_dicke,
    gen_dihedral,
    gen_ghz,
    gen_platonic,
    gen_tetrahedral,
    platonic_vertices,
    totally_invariant_states,
)
from majorana.symstate import unit_to_angles


def test_dicke_amplitudes_one_hot():
    state = gen_dicke(5, 2)
    expected = np.zeros(6)
    expected[2] = 1.0
    np.testing.assert_allclose(state.amps, expected)
    with pytest.raises(ValueError):
        gen_dicke(4, 5)
    with pytest.raises(ValueError):
        gen_dicke(4, -1)


def test_ghz_amplitudes():
    state = gen_ghz(5)
    assert abs(state.amps[0] - 1 / math.sqrt(2)) < 1e-15
    assert abs(state.amps[5] - 1 / math.sqrt(2)) < 1e-15
    assert np.abs(state.amps[1:5]).max() == 0.0
    with pytest.raises(ValueError):
        gen_ghz(1)


def test_dihedral_point_structure():
    cfg = to_majorana(gen_dihedral(7, 2))
    north = np.sum(cfg.points[:, 0] == 0.0)
    south = np.sum(cfg.points[:, 0] == math.pi)
    ring = np.sum(np.abs(cfg.points[:, 0] - math.pi / 2) < 1e-9)
    assert (north, south, ring) == (2, 2, 3)
    with pytest.raises(ValueError):
        gen_dihedral(5, 2)  # would leave a one-point ring
    with pytest.raises(ValueError):
        gen_dihedral(4, -1)


def test_dihedral_p0_is_ghz():
    assert state_fidelity(gen_dihedral(6, 0), gen_ghz(6)) > 1.0 - 1e-12


def test_tetrahedral_matches_vertex_construction():
    verts = platonic_vertices("tetrahedron")
    thetas = np.arccos(np.clip(verts[:, 2], -1, 1))
    phis = np.arctan2(verts[:, 1], verts[:, 0]) % (2 * math.pi)
    cfg = MajoranaConfig(4, np.column_stack([thetas, phis]))
    assert state_fidelity(gen_tetrahedral(), to_dicke(cfg)) > 1.0 - 1e-12


def test_platonic_vertex_counts_and_norms():
    counts = {"tetrahedron": 4, "octahedron": 6, "cube": 8,
              "icosahedron": 12, "dodecahedron": 20}
    for solid in SOLIDS:
        verts = platonic_vertices(solid)
        assert len(verts) == counts[solid]
        np.testing.assert_allclose(np.linalg.norm(verts, axis=1), 1.0, atol=1e-12)
        # vertex-transitive: every vertex sees the same dot-product spectrum
        dots = np.round(verts @ verts.T, 9)
        spectra = {tuple(sorted(row)) for row in dots}
        assert len(spectra) == 1, solid


def test_tetrahedron_dot_products():
    verts = platonic_vertices("tetrahedron")
    dots = verts @ verts.T
    off = dots[~np.eye(4, dtype=bool)]
    np.testing.assert_allclose(off, -1 / 3, atol=1e-12)


def test_platonic_multiplicity_caps():
    assert MAX_MULTIPLICITY["cube"] == 3
    gen_platonic("cube", 3)  # 24 points, allowed
    with pytest.raises(ValueError):
        gen_platonic("tetrahedron", 3)
    with pytest.raises(ValueError):
        gen_platonic("dodecahedron", 3)
    with pytest.raises(ValueError):
        gen_platonic("nonagon")
    for multiplicity in (True, 2.0, 0):
        with pytest.raises(ValueError, match="multiplicity must be a positive integer"):
            gen_platonic("cube", multiplicity)
    assert gen_platonic("cube", np.int64(2)).n == 16


@pytest.mark.parametrize("make", [lambda n: gen_dicke(n, 1), gen_ghz,
                                  lambda n: gen_dihedral(n, 1), totally_invariant_states],
                         ids=["dicke", "ghz", "dihedral", "inventory"])
@pytest.mark.parametrize("n", [4.0, True, np.float64(4.0)], ids=["float", "bool", "numpy"])
def test_qubit_count_must_be_an_integer(make, n):
    # the count is checked before numpy sizes an array with it
    with pytest.raises(ValueError, match="qubit count must be"):
        make(n)


def test_platonic_amplitudes_keep_one_residue_class():
    # the solid's turn by 2 pi/m about z leaves nonzero amplitudes only at
    # k in one class mod m; the rest are exact zeros, so the octahedron and
    # cube with three points per vertex take their maximum off one meridian
    z_order = {"tetrahedron": 3, "octahedron": 4, "cube": 4, "icosahedron": 5,
               "dodecahedron": 2}
    for solid in SOLIDS:
        for mult in range(1, MAX_MULTIPLICITY[solid] + 1):
            state = gen_platonic(solid, mult)
            theta, phi = unit_to_angles(np.repeat(platonic_vertices(solid), mult, axis=0))
            roots = to_dicke(MajoranaConfig(state.n, np.column_stack([theta, phi])))
            assert state_fidelity(state, roots) >= 1.0 - 1e-12, (solid, mult)
            classes = set(np.flatnonzero(state.amps) % z_order[solid])
            assert len(classes) == 1, (solid, mult, classes)
    for solid in ("octahedron", "cube"):
        state = gen_platonic(solid, 3)
        result = geometric_measure(state)
        assert (result.starts_used, result.iterations, result.converged) == (0, 0, True)
        assert abs(result.lam - grid_oracle(state, 300).lam) <= 1e-12, solid


def test_octahedron_equals_rotated_dihedral():
    # same entanglement, different orientation
    a = geometric_measure(gen_platonic("octahedron")).lam
    b = geometric_measure(gen_dihedral(6, 1)).lam
    assert abs(a - b) < 1e-10
    assert abs(a - 2 / 9) < 1e-10


def test_inventory_entries_are_totally_invariant():
    for n in range(2, 8):
        for entry in totally_invariant_states(n):
            report = detect_group(to_majorana(entry.state))
            assert report.totally_invariant, (n, entry.name)


def test_inventory_special_sizes():
    assert "T" in [e.name for e in totally_invariant_states(4)]
    assert any(e.name == "cube" for e in totally_invariant_states(8))
    assert any(e.name == "icosahedron" for e in totally_invariant_states(12))
    assert any(e.name == "dodecahedron" for e in totally_invariant_states(20))
    with pytest.raises(ValueError):
        totally_invariant_states(1)


def test_inventory_states_differ():
    entries = totally_invariant_states(6)
    for i, a in enumerate(entries):
        for b in entries[i + 1:]:
            assert state_fidelity(a.state, b.state) < 1.0 - 1e-9, (a.name, b.name)


def test_inventory_configs_differ():
    entries = totally_invariant_states(5)
    configs = [to_majorana(e.state) for e in entries]
    for i, a in enumerate(configs):
        for b in configs[i + 1:]:
            assert not config_close(a, b, tol=1e-6)

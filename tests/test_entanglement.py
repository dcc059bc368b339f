"""Geometric measure: closed forms, oracle agreement, optimizer behavior."""
import math

import numpy as np
import pytest

from majorana import (
    MajoranaConfig,
    coherent_amplitudes,
    detect_group,
    geometric_measure,
    grid_oracle,
    log_overlap_sq,
    log_overlap_sq_gradient,
    random_symmetric_state,
    Rotation,
    rotate_state,
    SymmetricState,
    to_dicke,
    to_majorana,
)
from majorana.catalog import (
    gen_dicke,
    gen_dihedral,
    gen_ghz,
    gen_platonic,
    gen_tetrahedral,
    totally_invariant_states,
)
from majorana.entanglement import _MAX_SWEEPS, _frames, fibonacci_sphere
from majorana.symstate import unit_to_angles

from helpers import random_rotation


def dicke_lambda(n: int, k: int) -> float:
    return math.comb(n, k) * (k / n) ** k * ((n - k) / n) ** (n - k)


def test_ghz_half():
    for n in range(2, 9):
        result = geometric_measure(gen_ghz(n))
        assert result.converged
        assert abs(result.lam - 0.5) < 1e-10
        assert abs(result.eg - 1.0) < 1e-9


# A generic turn: no state of the inventory is non-negative after it, so a
# turned copy runs the ascent.
GENERIC_TURN = Rotation([1.0, 2.0, 3.0], 0.7)


def test_dicke_closed_form():
    # S(n,k) is non-negative, so the maximum comes off the meridian with no
    # ascent, on Wei and Goldbart's cone cos(theta) = 1 - 2k/n
    for n in range(2, 65):
        for k in range(1, n):
            result = geometric_measure(gen_dicke(n, k))
            assert result.converged, (n, k)
            assert (result.starts_used, result.iterations) == (0, 0), (n, k)
            expected = dicke_lambda(n, k)
            assert abs(result.lam - expected) <= 1e-13 * expected, (n, k)
            assert abs(math.cos(result.theta) - (1 - 2 * k / n)) <= 1e-12, (n, k)


def test_state_off_the_class_runs_the_ascent():
    # two north points of S(8,3) tilted at different azimuths: the
    # amplitudes are no longer non-negative up to a phase and a z-turn, so
    # the ascent runs and still finds the maximum
    assert geometric_measure(gen_dicke(8, 3)).starts_used == 0
    points = to_majorana(gen_dicke(8, 3)).points.copy()
    north = np.flatnonzero(points[:, 0] == 0.0)
    points[north[0]], points[north[1]] = [0.3, 0.0], [0.4, 1.0]
    state = to_dicke(MajoranaConfig(8, points))
    result = geometric_measure(state)
    assert result.starts_used == 64
    assert result.converged
    assert abs(result.lam - grid_oracle(state, 300).lam) < 1e-8


def test_w4_value():
    result = geometric_measure(gen_dicke(4, 1))
    assert abs(result.lam - 27 / 64) < 1e-10


def test_tetrahedral_value():
    result = geometric_measure(gen_tetrahedral())
    assert abs(result.lam - 1 / 3) < 1e-10
    assert abs(result.eg - math.log2(3)) < 1e-9


def test_octahedron_value():
    result = geometric_measure(gen_platonic("octahedron"))
    assert abs(result.lam - 2 / 9) < 1e-10


def test_dihedral_known_values():
    # ring amplitude dominates: lam(D2(6,2)) = 15/32, lam(D2(8,3)) = 7/16
    assert abs(geometric_measure(gen_dihedral(6, 2)).lam - 15 / 32) < 1e-10
    assert abs(geometric_measure(gen_dihedral(8, 3)).lam - 7 / 16) < 1e-10


def test_product_state_short_circuit():
    coh = coherent_amplitudes(5, 1.1, 2.3)
    result = geometric_measure(SymmetricState(5, coh))
    assert result.lam == 1.0
    assert result.eg == 0.0
    assert result.converged
    assert abs(result.theta - 1.1) < 1e-9
    assert abs(result.phi - 2.3) < 1e-9


@pytest.mark.parametrize("delta", [1e-5, 1e-8, 1e-11, 1e-12, 5e-13])
def test_near_product_states_are_measured(delta):
    # further than 1e-13 in amplitude norm from every coherent state, so
    # not snapped to one point: the ascent runs on the smeared roots and
    # must still find the near-1 maximum
    rng = np.random.default_rng(14)
    for n in (2, 6, 20, 64):
        base = coherent_amplitudes(n, 0.8, 0.3)
        kick = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        kick -= np.vdot(base, kick) * base
        state = SymmetricState(n, base + delta * kick / np.linalg.norm(kick))
        points = to_majorana(state).points
        assert not np.all(points == points[0]), (n, delta)
        result = geometric_measure(state)
        assert result.converged, (n, delta)
        best = max(grid_oracle(state, 200).lam, abs(np.vdot(base, state.amps)) ** 2)
        assert result.lam >= best - 1e-10, (n, delta)


def test_grid_oracle_agrees_with_optimizer():
    rng = np.random.default_rng(31)
    for n in (3, 4, 6):
        state = random_symmetric_state(n, rng)
        fast = geometric_measure(state)
        slow = grid_oracle(state, resolution=80)
        assert abs(fast.lam - slow.lam) < 1e-8, n


def test_optimizer_matches_oracle_on_random_states():
    # 112 seeded random states, four at each n = 3..30
    rng = np.random.default_rng(2)
    for i in range(112):
        n = 3 + i % 28
        state = random_symmetric_state(n, rng)
        fast = geometric_measure(state)
        assert fast.converged, (i, n)
        assert abs(fast.lam - grid_oracle(state, 300).lam) <= 1e-8, (i, n)


def test_optimizer_matches_oracle_past_thirty_points():
    # two seeded random states at each n = 31..64, and generic orbits of the
    # tetrahedral, octahedral and icosahedral groups (12, 24 and 60 points)
    rng = np.random.default_rng(64)
    states = [random_symmetric_state(31 + i % 34, rng) for i in range(68)]
    for solid in ("tetrahedron", "octahedron", "icosahedron"):
        group = detect_group(to_majorana(gen_platonic(solid)))
        for _ in range(2):
            u = rng.standard_normal(3)
            orbit = group.elements @ (u / np.linalg.norm(u))
            theta, phi = unit_to_angles(orbit)
            states.append(to_dicke(MajoranaConfig(len(orbit), np.column_stack([theta, phi]))))
    for i, state in enumerate(states):
        fast = geometric_measure(state)
        assert fast.converged, (i, state.n)
        assert abs(fast.lam - grid_oracle(state, 300).lam) <= 1e-8, (i, state.n)


def test_dihedral_family_past_the_inventory():
    # the dihedral states at n = 15..30 have nearly flat maxima; racing the
    # starts harder (a quarter kept per sweep) leaves D19(21,1) unconverged
    for n in range(15, 31):
        for p in range(n // 2):
            state = gen_dihedral(n, p)
            result = geometric_measure(state)
            assert result.converged, (n, p)
            assert abs(result.lam - grid_oracle(state, 300).lam) <= 1e-8, (n, p)


def test_rotated_states_keep_their_lambda():
    # a rotation changes no overlap, so a rotated state's Lambda is the
    # unrotated one; its roots must reproduce the state for the ascent to
    # find it
    rng = np.random.default_rng(5)
    cases = []
    for n in range(15, 31):
        for p in range(n // 2):
            turns = [random_rotation(rng) for _ in range(3)]
            if (n, p) == (30, 14):
                cases += [(n, p, turn) for turn in turns]
            elif n >= 25:
                cases.append((n, p, turns[0]))
    assert len(cases) == 83
    for n, p, turn in cases:
        state = gen_dihedral(n, p)
        result = geometric_measure(rotate_state(state, turn))
        assert result.converged, (n, p)
        assert abs(result.lam - geometric_measure(state).lam) <= 1e-12, (n, p)
    rng = np.random.default_rng(8)
    for n in range(3, 11):
        for k in range(1, n):
            result = geometric_measure(rotate_state(gen_dicke(n, k), random_rotation(rng)))
            assert result.converged, (n, k)
            assert abs(result.lam - dicke_lambda(n, k)) <= 1e-12, (n, k)


def test_ascent_stays_inside_its_sweep_cap():
    # the inventory's dihedral states and seeds 2 and 15 at n = 20 have
    # ill-conditioned valleys where a fixed-step gradient ascent zig-zags
    states = [entry.state for n in range(3, 15) for entry in totally_invariant_states(n)]
    assert len(states) == 141
    states += [random_symmetric_state(20, np.random.default_rng(s)) for s in range(30)]
    # one random state at each n = 21..64, where the lattice alone has to
    # find the maximum
    states += [random_symmetric_state(n, np.random.default_rng(n)) for n in range(21, 65)]
    for i, state in enumerate(states):
        result = geometric_measure(state)
        assert result.converged, i
        assert result.iterations < _MAX_SWEEPS, i
        assert abs(result.lam - grid_oracle(state, 300).lam) <= 1e-8, i


def test_tangent_frames_are_orthonormal():
    rng = np.random.default_rng(4)
    units = rng.standard_normal((200, 3))
    units /= np.linalg.norm(units, axis=1)[:, None]
    poles = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [-0.0, -0.0, -1.0],
             [1e-9, 0.0, -math.sqrt(1.0 - 1e-18)], [1.0, 0.0, 0.0], [0.0, 1.0, -0.0]]
    units = np.vstack([units, poles])
    e1, e2 = _frames(units)
    assert np.all(np.isfinite(e1)) and np.all(np.isfinite(e2))
    for a, b in ((e1, e1), (e2, e2), (e1, e2), (e1, units), (e2, units)):
        expected = 1.0 if a is b else 0.0
        np.testing.assert_allclose(np.einsum("ij,ij->i", a, b), expected,
                                   rtol=0, atol=1e-14)


def test_grid_oracle_handles_pole_maximizer():
    # GHZ maximizers sit exactly at the poles, between grid cells
    result = grid_oracle(gen_ghz(5), resolution=40)
    assert abs(result.lam - 0.5) < 1e-10


def test_grid_oracle_rejects_tiny_resolution():
    # a fractional resolution would space the grid for one count and scan another
    for resolution in (7, 8.5, 8.0, True):
        with pytest.raises(ValueError, match="resolution must be an integer"):
            grid_oracle(gen_dicke(4, 1), resolution)
    assert grid_oracle(gen_dicke(4, 1), 8).starts_used == 64


def test_fibonacci_sphere_spread():
    points = fibonacci_sphere(200)
    assert points.shape == (200, 3)
    np.testing.assert_allclose(np.linalg.norm(points, axis=1), 1.0, atol=1e-12)
    # no two points closer than a degree at this count
    dots = points @ points.T
    np.fill_diagonal(dots, -1.0)
    assert math.acos(dots.max()) > math.radians(1.0)


def test_gradient_zero_at_maximizer():
    state = gen_dicke(6, 2)
    result = geometric_measure(state)
    grad = log_overlap_sq_gradient(state, result.theta, result.phi)
    assert np.linalg.norm(grad) < 1e-7


def test_gradient_matches_finite_difference():
    # the gradient is an ambient tangent vector; project it onto the chart
    rng = np.random.default_rng(9)
    state = random_symmetric_state(5, rng)
    theta, phi = 0.9, 2.2
    grad = log_overlap_sq_gradient(state, theta, phi)
    e_theta = np.array([math.cos(theta) * math.cos(phi),
                        math.cos(theta) * math.sin(phi), -math.sin(theta)])
    e_phi = np.array([-math.sin(phi), math.cos(phi), 0.0])
    h = 1e-6
    fd_theta = (log_overlap_sq(state, theta + h, phi)
                - log_overlap_sq(state, theta - h, phi)) / (2 * h)
    fd_phi = (log_overlap_sq(state, theta, phi + h)
              - log_overlap_sq(state, theta, phi - h)) / (2 * h)
    np.testing.assert_allclose(grad @ e_theta, fd_theta, rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(math.sin(theta) * (grad @ e_phi), fd_phi,
                               rtol=1e-6, atol=1e-8)


def test_rotation_invariance_of_eg():
    rng = np.random.default_rng(77)
    state = random_symmetric_state(6, rng)
    base = geometric_measure(state).eg
    for _ in range(3):
        rotated = rotate_state(state, random_rotation(rng))
        assert abs(geometric_measure(rotated).eg - base) < 1e-9


def test_eg_invariance_check_vanishes():
    rng = np.random.default_rng(55)
    state = random_symmetric_state(5, rng)
    moved = rotate_state(state, random_rotation(rng))
    assert abs(geometric_measure(state).eg - geometric_measure(moved).eg) < 1e-9


def test_near_coincident_cluster_counts_as_product():
    # two points 1e-10 apart aggregate to a single direction
    amps = coherent_amplitudes(2, 1.0, 1.0)
    state = SymmetricState(2, amps)
    result = geometric_measure(state)
    assert result.lam == 1.0


def test_start_set_is_the_lattice():
    # the starts are a function of n alone: the Fibonacci lattice of
    # max(32, n^2) points
    for state in (rotate_state(gen_ghz(4), GENERIC_TURN), gen_platonic("icosahedron"),
                  random_symmetric_state(20, np.random.default_rng(20))):
        result = geometric_measure(state)
        assert result.starts_used == max(32, state.n ** 2), state.n


def test_start_on_an_antipode_is_nudged_off_it():
    # one point opposite lattice start 5 of the n = 4 lattice: that start
    # sits on a zero of F, and successive halving drops it after one sweep
    rng = np.random.default_rng(4)
    extras = rng.standard_normal((3, 3))
    extras /= np.linalg.norm(extras, axis=1)[:, None]
    theta, phi = unit_to_angles(np.vstack([-fibonacci_sphere(32)[5], extras]))
    state = to_dicke(MajoranaConfig(4, np.column_stack([theta, phi])))
    units = to_majorana(state).unit_vectors()
    assert (0.5 * (1.0 + fibonacci_sphere(32) @ units.T)).min() <= 1e-9
    result = geometric_measure(state)
    assert result.converged
    assert abs(result.lam - grid_oracle(state, 300).lam) < 1e-8


def test_inventory_sweep_budget():
    # a start near a zero of F only doubles its distance from it per sweep;
    # with antipode starts the inventory took 2 368 sweeps, with every start
    # sweeping to the end 1 528, with successive halving 750 (756 later), and
    # with the axial (Dicke) states taking the closed form 311, and with every
    # non-negative state taking its meridian maximum 7 (the icosahedron's)
    states = [entry.state for n in range(3, 15) for entry in totally_invariant_states(n)]
    assert len(states) == 141
    assert sum(geometric_measure(state).iterations for state in states) <= 20


def test_flat_ring_maximum_takes_few_sweeps():
    # the maximum of D12(14,1) lies on a nearly flat ring (chart Hessian
    # eigenvalues -14.0 and -2.2e-4); starts crawling along it far below the
    # best must not hold up the ascent (62 sweeps without halving, 9 with).
    # The ring itself takes its meridian maximum, so a turned copy, 13
    # sweeps, keeps the ascent on it.
    result = geometric_measure(rotate_state(gen_dihedral(14, 1), GENERIC_TURN))
    assert result.starts_used > 0
    assert result.converged
    assert result.iterations <= 20


def test_result_carries_its_configuration():
    state = gen_dihedral(7, 2)
    config = to_majorana(state)
    assert geometric_measure(state).config == config
    assert grid_oracle(state, 40).config == config
    # a product state carries its exact three-fold point
    product = geometric_measure(SymmetricState(3, coherent_amplitudes(3, 0.4, 0.2)))
    points = product.config.points
    assert np.array_equal(points, np.tile(points[0], (3, 1)))
    np.testing.assert_allclose(points[0], [0.4, 0.2], rtol=0, atol=1e-14)


def test_non_negative_states_take_the_meridian():
    # every non-axial inventory state n = 3..14 but the icosahedron is
    # non-negative: its maximum comes off one meridian with no ascent and
    # equals the ascent's on a turned copy
    states = [(entry.name, entry.state) for n in range(3, 15)
              for entry in totally_invariant_states(n)
              if not entry.name.startswith("S(") and entry.name != "icosahedron"]
    assert len(states) == 50 and "cube" in dict(states)
    for name, state in states:
        result = geometric_measure(state)
        assert (result.starts_used, result.iterations) == (0, 0), name
        assert result.converged, name
        turned = geometric_measure(rotate_state(state, GENERIC_TURN))
        assert turned.starts_used > 0, name
        assert abs(result.lam - turned.lam) <= 1e-13, name


def _phase_and_z_turn(state):
    return SymmetricState(state.n, np.exp(0.4j) * rotate_state(
        state, Rotation([0.0, 0.0, 1.0], 0.9)).amps)


def test_meridian_class_up_to_phase_and_z_turn():
    # a global phase and a turn about z keep a state in the class; a 1e-6
    # kick to one phase of the cube takes it out, and the ascent runs (the
    # cube has three amplitudes a_0, a_4, a_8, so no one turn absorbs the
    # kick, as it would on a two-amplitude ring)
    for state in (gen_dihedral(9, 2), gen_platonic("cube")):
        result = geometric_measure(_phase_and_z_turn(state))
        assert (result.starts_used, result.iterations) == (0, 0), state.n
        assert result.converged, state.n
        assert abs(result.lam - geometric_measure(state).lam) <= 1e-13, state.n
    amps = _phase_and_z_turn(gen_platonic("cube")).amps.copy()
    amps[8] *= np.exp(1e-6j)
    kicked = SymmetricState(8, amps)
    result = geometric_measure(kicked)
    assert result.starts_used == 64
    assert result.converged
    assert abs(result.lam - grid_oracle(kicked, 300).lam) <= 1e-8


def test_meridian_returns_the_higher_of_two_maxima():
    # a_2 and a_10 of n = 12 plant two interior maxima on the meridian, at
    # theta near 0.84 and 2.30; the higher one wins, in either hemisphere
    theta = np.linspace(0.0, math.pi, 4001)
    for heights in ((1.0, 0.9), (0.9, 1.0)):
        amps = np.zeros(13)
        amps[2], amps[10] = heights
        state = SymmetricState(12, amps)
        scan = np.array([abs(np.vdot(coherent_amplitudes(12, t, 0.0), state.amps)) ** 2
                         for t in theta])
        peaks = np.flatnonzero((scan[1:-1] > scan[:-2]) & (scan[1:-1] >= scan[2:])) + 1
        assert len(peaks) == 2 and abs(scan[peaks[0]] - scan[peaks[1]]) > 0.01
        top = peaks[np.argmax(scan[peaks])]
        result = geometric_measure(state)
        assert (result.starts_used, result.iterations) == (0, 0)
        assert result.converged
        assert abs(result.theta - theta[top]) < 1e-3
        assert 0.0 <= result.lam - scan[top] <= 1e-6
        assert abs(result.lam - grid_oracle(state, 300).lam) <= 1e-8

"""Geometric measure: closed forms, oracle agreement, optimizer behavior."""
import math

import numpy as np
import pytest

from majorana import (
    OptimizerConfig,
    coherent_amplitudes,
    fibonacci_sphere,
    geometric_measure,
    grid_oracle,
    log_overlap_sq,
    log_overlap_sq_gradient,
    make_state,
    random_symmetric_state,
    rotate_state,
    SymmetricState,
)
from majorana.catalog import (
    gen_dicke,
    gen_dihedral,
    gen_ghz,
    gen_platonic,
    gen_tetrahedral,
    totally_invariant_states,
)
from majorana.entanglement import _frames

from helpers import random_rotation


def dicke_lambda(n: int, k: int) -> float:
    return math.comb(n, k) * (k / n) ** k * ((n - k) / n) ** (n - k)


def test_ghz_half():
    for n in range(2, 9):
        result = geometric_measure(gen_ghz(n))
        assert result.converged
        assert abs(result.lam - 0.5) < 1e-10
        assert abs(result.eg - 1.0) < 1e-9


def test_dicke_closed_form():
    for n in range(2, 8):
        for k in range(1, n):
            result = geometric_measure(gen_dicke(n, k))
            assert result.converged, (n, k)
            assert abs(result.lam - dicke_lambda(n, k)) < 1e-10, (n, k)
            # maximizer latitude satisfies cos(theta) = 1 - 2k/n
            assert abs(math.cos(result.theta) - (1 - 2 * k / n)) < 1e-6, (n, k)


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


def test_ascent_stays_inside_its_sweep_cap():
    # the inventory's dihedral states and seeds 2 and 15 at n = 20 have
    # ill-conditioned valleys where a fixed-step gradient ascent zig-zags
    states = [entry.state for n in range(3, 15) for entry in totally_invariant_states(n)]
    assert len(states) == 141
    states += [random_symmetric_state(20, np.random.default_rng(s)) for s in range(30)]
    cfg = OptimizerConfig()
    for i, state in enumerate(states):
        result = geometric_measure(state, cfg)
        assert result.converged, i
        assert result.iterations < cfg.max_iterations, i
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
    with pytest.raises(ValueError):
        grid_oracle(gen_ghz(3), resolution=7)


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(num_starts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(tol_gradient=0)
    with pytest.raises(ValueError):
        OptimizerConfig(max_iterations=0)


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
    from majorana.entanglement import eg_invariance_check
    rng = np.random.default_rng(55)
    state = random_symmetric_state(5, rng)
    assert eg_invariance_check(state, random_rotation(rng)) < 1e-9


def test_seed_changes_starts_not_answer():
    state = random_symmetric_state(7, np.random.default_rng(123))
    a = geometric_measure(state, OptimizerConfig(seed=0))
    b = geometric_measure(state, OptimizerConfig(seed=99))
    assert abs(a.lam - b.lam) < 1e-10


def test_result_reports_start_count():
    state = gen_ghz(4)
    result = geometric_measure(state, OptimizerConfig(num_starts=40))
    assert result.starts_used >= 40


def test_near_coincident_cluster_counts_as_product():
    # two points 1e-10 apart aggregate to a single direction
    amps = coherent_amplitudes(2, 1.0, 1.0)
    state = SymmetricState(2, amps)
    result = geometric_measure(state)
    assert result.lam == 1.0

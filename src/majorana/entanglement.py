"""Geometric entanglement: maximize the product-state overlap on the sphere.

The objective F(u) = |<product(u)|psi>|^2 factorizes over the configuration
points v_i as a constant times prod_i (1 + u.v_i)/2, so log F has gradient
sum_i v_i / (2 p_i) projected to the tangent plane.  Values are always
evaluated through the amplitude form (numerically exact); the product form
supplies gradients and Hessians for the local refinement.

`geometric_measure` runs batched multi-start ascent (deterministic lattice
starts plus the antipodes of the configuration points plus seeded random
extras).  Each sweep moves only the starts still active; a start drops out
once its tangent gradient is at most 1e-8, or once its value has gained at
most 1e-9 of itself for three sweeps in a row.  Up to three winners within
1e-3 of the best value and at least 1e-2 rad apart are then polished with
Newton steps in a tangent chart, and the best polished one is returned.
For n >= 3 the closest product states are the global maximizers, so a few
distinct ascent winners suffice.  All values come from one coherent-state
kernel, `symstate.coherent_matrix`.  `grid_oracle` is the independent
check: a separable theta x phi evaluation on an equal-area grid followed by
one polish from the best cell.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .symstate import (
    SymmetricState,
    Rotation,
    angles_to_unit,
    binomial_weights,
    cluster_directions,
    coherent_amplitudes,
    coherent_matrix,
    rotate_state,
    to_majorana,
    unit_to_angles,
)

_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
# Probability floor; p_i = 0 only exactly opposite a configuration point.
_P_FLOOR = 1e-300
_SNAP_ONE = 1e-14
# Ascent stopping rule: a start drops out once its tangent gradient is at
# most _ASCENT_GRADIENT_TOL, or once its value has gained at most
# _STALL_GAIN of itself for _STALL_SWEEPS sweeps in a row.
_ASCENT_GRADIENT_TOL = 1e-8
_STALL_GAIN = 1e-9
_STALL_SWEEPS = 3
# Polish: at most _POLISH_COUNT ascent winners within _WINNER_WINDOW of the
# best value and at least _WINNER_SEPARATION radians apart.
_POLISH_COUNT = 3
_WINNER_WINDOW = 1e-3
_WINNER_SEPARATION = 1e-2


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for `geometric_measure`; defaults suit n up to a few dozen.

    `num_starts=None` resolves to max(32, n^2) for the state at hand.
    `max_iterations` only caps the ascent sweeps: the ascent stops on its
    own once every start has dropped out, which a start does when its
    tangent gradient is at most 1e-8 or when its value has gained at most
    1e-9 of itself for three sweeps in a row.  `tol_gradient` is the
    gradient norm the Newton polish must reach for `converged`.
    """

    num_starts: int | None = None
    grid_resolution: int = 300
    tol_gradient: float = 1e-10
    tol_value: float = 1e-12
    max_iterations: int = 300
    seed: int = 0

    def __post_init__(self):
        if self.num_starts is not None and self.num_starts < 1:
            raise ValueError("num_starts must be positive")
        if self.grid_resolution < 8:
            raise ValueError("grid_resolution must be at least 8")
        if self.tol_gradient <= 0 or self.tol_value <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")

    def resolve_starts(self, n: int) -> int:
        return self.num_starts if self.num_starts is not None else max(32, n * n)


@dataclass(frozen=True)
class EntanglementResult:
    """Lambda, E_G = -log2 Lambda and the maximizing direction.

    `starts_used` counts ascent starts (grid cells for `grid_oracle`),
    `iterations` the ascent sweeps run (0 when no ascent ran), and
    `max_gradient_norm` is the final polish's gradient norm, which
    `converged` compares with the polish tolerance.
    """

    lam: float
    eg: float
    theta: float
    phi: float
    starts_used: int
    converged: bool
    max_gradient_norm: float
    iterations: int


def _make_result(lam: float, direction, starts_used: int, converged: bool,
                 gradient_norm: float, iterations: int) -> EntanglementResult:
    lam = min(float(lam), 1.0)
    if lam >= 1.0 - _SNAP_ONE:
        lam = 1.0
    eg = -math.log2(lam)
    if eg == 0.0:
        eg = 0.0  # normalize -0.0
    theta, phi = float(direction[0]), float(direction[1])
    return EntanglementResult(lam, eg, theta, phi, int(starts_used),
                              bool(converged), float(gradient_norm), int(iterations))


def fibonacci_sphere(count: int) -> np.ndarray:
    """Deterministic well-spread unit vectors, shape (count, 3)."""
    i = np.arange(count)
    z = 1.0 - (2.0 * i + 1.0) / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * _GOLDEN_ANGLE
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def _overlap_sq(amps: np.ndarray, units: np.ndarray) -> np.ndarray:
    """|<product(u)|psi>|^2 for a batch of unit vectors, shape (S,)."""
    return np.abs(coherent_matrix(len(amps) - 1, units).conj() @ amps) ** 2


def _tangent_gradients(units: np.ndarray, mp_units: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sphere gradient of log F at each unit vector; also returns P matrix."""
    p = 0.5 * (1.0 + units @ mp_units.T)
    p = np.maximum(p, _P_FLOOR)
    grad = (0.5 / p) @ mp_units
    radial = np.einsum("ij,ij->i", grad, units)
    return grad - radial[:, None] * units, p


def log_overlap_sq_gradient(state: SymmetricState, theta: float, phi: float) -> np.ndarray:
    """Tangent-plane gradient of log |<product|psi>|^2 at one direction."""
    u = angles_to_unit(theta, phi)[None, :]
    mp_units = to_majorana(state).unit_vectors()
    tangent, _ = _tangent_gradients(u, mp_units)
    return tangent[0]


def log_overlap_sq(state: SymmetricState, theta: float, phi: float) -> float:
    value = _overlap_sq(state.amps, angles_to_unit(theta, phi)[None, :])[0]
    return float(np.log(np.maximum(value, _P_FLOOR)))


def _batch_ascend(amps: np.ndarray, mp_units: np.ndarray, units: np.ndarray,
                  max_iterations: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Adaptive-step gradient ascent on all starts at once.

    Each sweep steps only the active starts; see the stopping rule at the
    module constants.  Returns the final units and values and the number of
    sweeps run, at most `max_iterations`.
    """
    units = units.copy()
    values = _overlap_sq(amps, units)
    eta = np.full(len(units), 0.25)
    stalls = np.zeros(len(units), dtype=int)
    active = np.arange(len(units))
    sweeps = 0
    while sweeps < max_iterations:
        tangent, _ = _tangent_gradients(units[active], mp_units)
        moving = np.linalg.norm(tangent, axis=1) > _ASCENT_GRADIENT_TOL
        active, tangent = active[moving], tangent[moving]
        if active.size == 0:
            break
        sweeps += 1
        trial = units[active] + eta[active, None] * tangent
        trial /= np.linalg.norm(trial, axis=1)[:, None]
        trial_values = _overlap_sq(amps, trial)
        gain = trial_values - values[active]
        improved = gain > 0.0
        moved = active[improved]
        units[moved] = trial[improved]
        eta[moved] *= 1.5
        eta[active[~improved]] *= 0.4
        stalled = gain <= _STALL_GAIN * values[active]
        values[moved] = trial_values[improved]
        stalls[active] = np.where(stalled, stalls[active] + 1, 0)
        active = active[stalls[active] < _STALL_SWEEPS]
    return units, values, sweeps


def _distinct_winners(units: np.ndarray, values: np.ndarray) -> list[int]:
    """Indices of up to _POLISH_COUNT starts within _WINNER_WINDOW of the
    best value and pairwise at least _WINNER_SEPARATION apart, best first."""
    order = np.argsort(-values, kind="stable")
    candidates = order[values[order] >= values[order[0]] - _WINNER_WINDOW]
    min_cos = math.cos(_WINNER_SEPARATION)
    picked = []
    while candidates.size and len(picked) < _POLISH_COUNT:
        picked.append(int(candidates[0]))
        candidates = candidates[units[candidates] @ units[candidates[0]] < min_cos]
    return picked


def _chart_basis(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pick = np.zeros(3)
    pick[np.argmin(np.abs(u))] = 1.0
    e1 = np.cross(u, pick)
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(u, e1)


def _chart_gradient_norm(mp_units: np.ndarray, u: np.ndarray) -> float:
    e1, e2 = _chart_basis(u)
    p = np.maximum(0.5 * (1.0 + mp_units @ u), _P_FLOOR)
    return float(math.hypot(np.sum((mp_units @ e1) / (2.0 * p)),
                            np.sum((mp_units @ e2) / (2.0 * p))))


def _polish(amps: np.ndarray, mp_units: np.ndarray, u: np.ndarray,
            tol_gradient: float, max_iterations: int = 80) -> tuple[np.ndarray, float, float]:
    """Newton refinement of one maximizer in a rotating tangent chart.

    Falls back to a scaled gradient step whenever the chart Hessian is not
    negative definite, and backtracks on any value decrease.  Once value
    changes drop below rounding noise a step is still accepted when it
    shrinks the gradient norm, which keeps the terminal Newton contraction
    going well past the square root of machine epsilon.
    """
    u = u / np.linalg.norm(u)
    value = float(_overlap_sq(amps, u[None, :])[0])
    gnorm = math.inf
    for _ in range(max_iterations):
        e1, e2 = _chart_basis(u)
        a = mp_units @ e1
        b = mp_units @ e2
        c = mp_units @ u
        p = np.maximum(0.5 * (1.0 + c), _P_FLOOR)
        g = np.array([np.sum(a / (2.0 * p)), np.sum(b / (2.0 * p))])
        gnorm = float(np.linalg.norm(g))
        if gnorm <= tol_gradient:
            break
        q = 4.0 * p * p
        h_ss = float(np.sum(-c / (2.0 * p) - a * a / q))
        h_tt = float(np.sum(-c / (2.0 * p) - b * b / q))
        h_st = float(np.sum(-a * b / q))
        det = h_ss * h_tt - h_st * h_st
        if h_ss < 0.0 and det > 0.0:
            step = np.linalg.solve(np.array([[h_ss, h_st], [h_st, h_tt]]), -g)
        else:
            step = g / (abs(h_ss) + abs(h_tt) + 1.0)
        norm = np.linalg.norm(step)
        if norm > 0.5:
            step *= 0.5 / norm
        for _ in range(40):
            r = float(np.linalg.norm(step))
            if r < 1e-18:
                break
            direction = (step[0] * e1 + step[1] * e2) / r
            trial = math.cos(r) * u + math.sin(r) * direction
            trial_value = float(_overlap_sq(amps, trial[None, :])[0])
            if trial_value >= value or _chart_gradient_norm(mp_units, trial) <= 0.9 * gnorm:
                u, value = trial, trial_value
                break
            step *= 0.5
        else:
            break
    value = float(_overlap_sq(amps, u[None, :])[0])
    return u, value, _chart_gradient_norm(mp_units, u)


def _start_points(config_units: np.ndarray, n: int, cfg: OptimizerConfig) -> np.ndarray:
    lattice = fibonacci_sphere(cfg.resolve_starts(n))
    clusters = cluster_directions(config_units, 1e-9)
    antipodes = np.array([-config_units[idx[0]] for idx in clusters])
    rng = np.random.default_rng(cfg.seed)
    extras = rng.standard_normal((8, 3))
    extras /= np.linalg.norm(extras, axis=1)[:, None]
    starts = np.vstack([lattice, antipodes, extras])
    # A start exactly opposite a configuration point sits on a log-pole of
    # the objective; nudge such starts by a small deterministic rotation.
    p = 0.5 * (1.0 + starts @ config_units.T)
    bad = p.min(axis=1) <= 1e-9
    if bad.any():
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        starts[bad] = Rotation(axis, 1e-3).apply(starts[bad])
        starts[bad] /= np.linalg.norm(starts[bad], axis=1)[:, None]
    return starts


def _coherent_direction(amps: np.ndarray) -> tuple[float, float] | None:
    """(theta, phi) when the amplitudes form a spin coherent state.

    Root finding smears an n-fold coincident point by roughly eps^(1/n), so
    product states must be recognized in amplitude space instead: dividing
    out the binomial weights leaves a geometric sequence a^(n-k) b^k, whose
    ratio pins the direction exactly.
    """
    n = amps.size - 1
    g = amps / binomial_weights(n)
    j = int(np.argmax(np.abs(g)))
    if j == n and abs(g[n - 1]) == 0.0:
        theta, phi = math.pi, 0.0
    else:
        t = g[j + 1] / g[j] if j < n else g[n] / g[n - 1]
        theta = 2.0 * math.atan(abs(t))
        phi = float(np.angle(t)) % (2.0 * math.pi) if t != 0 else 0.0
    overlap = np.vdot(coherent_amplitudes(n, theta, phi), amps)
    if abs(overlap) ** 2 >= 1.0 - 1e-10:
        return theta, phi
    return None


def geometric_measure(state: SymmetricState,
                      cfg: OptimizerConfig | None = None) -> EntanglementResult:
    """Best product overlap Lambda and its direction for one state."""
    cfg = OptimizerConfig() if cfg is None else cfg
    coherent = _coherent_direction(state.amps)
    if coherent is not None:
        return _make_result(1.0, coherent, 0, True, 0.0, 0)
    mp_units = to_majorana(state).unit_vectors()
    starts = _start_points(mp_units, state.n, cfg)
    units, values, sweeps = _batch_ascend(state.amps, mp_units, starts,
                                          cfg.max_iterations)
    best_u, best_value, best_gnorm = None, -1.0, math.inf
    for index in _distinct_winners(units, values):
        u, value, gnorm = _polish(state.amps, mp_units, units[index], cfg.tol_gradient)
        if value > best_value:
            best_u, best_value, best_gnorm = u, value, gnorm
    theta, phi = unit_to_angles(best_u)
    return _make_result(best_value, (theta, phi), len(starts),
                        best_gnorm <= cfg.tol_gradient, best_gnorm, sweeps)


def grid_oracle(state: SymmetricState, resolution: int = 300) -> EntanglementResult:
    """Exhaustive equal-area scan plus one polish; independent of the
    multi-start path so the two can check each other."""
    if resolution < 8:
        raise ValueError("resolution must be at least 8")
    n = state.n
    j = np.arange(resolution)
    z = 1.0 - (2.0 * j + 1.0) / resolution
    theta = np.arccos(z)
    phi = 2.0 * math.pi * (j + 0.5) / resolution
    k = np.arange(n + 1)
    half = 0.5 * theta
    t = binomial_weights(n) * np.cos(half)[:, None] ** (n - k) \
        * np.sin(half)[:, None] ** k
    e = np.exp(-1j * np.outer(phi, k))
    overlaps = (t * state.amps) @ e.T  # rows: theta index, cols: phi index
    values = np.abs(overlaps) ** 2
    best = np.unravel_index(np.argmax(values), values.shape)
    candidates = [angles_to_unit(theta[best[0]], phi[best[1]]),
                  np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])]
    mp_units = to_majorana(state).unit_vectors()
    best_value, best_u, best_gnorm = -1.0, None, math.inf
    for u0 in candidates:
        p = 0.5 * (1.0 + u0 @ mp_units.T)
        if p.min() <= 1e-12 and _overlap_sq(state.amps, u0[None, :])[0] < 1e-30:
            continue
        u, value, gnorm = _polish(state.amps, mp_units, u0, 1e-10)
        if value > best_value:
            best_value, best_u, best_gnorm = value, u, gnorm
    direction = unit_to_angles(best_u)
    return _make_result(best_value, direction, resolution * resolution,
                        best_gnorm <= 1e-10, best_gnorm, 0)


def eg_invariance_check(state: SymmetricState, r: Rotation,
                        cfg: OptimizerConfig | None = None) -> float:
    """|E_G(state) - E_G(rotated state)|; should vanish up to solver noise."""
    base = geometric_measure(state, cfg)
    moved = geometric_measure(rotate_state(state, r), cfg)
    return abs(base.eg - moved.eg)

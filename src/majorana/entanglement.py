"""Geometric entanglement: maximize the product-state overlap on the sphere.

The objective F(u) = |<product(u)|psi>|^2 factorizes over the configuration
points v_i as a constant times prod_i p_i, p_i = (1 + u.v_i)/2.  In a
tangent chart (e1, e2) at u, log F has gradient sum_i a_i / (2 p_i) and
Hessian -sum_i c_i / (2 p_i) I - sum_i a_i a_i^T / (4 p_i^2), with
c_i = u.v_i and a_i the chart components of v_i.  One product
[u; e1; e2] @ V^T gives all three for a batch of points.

`geometric_measure` runs one batched saddle-free Newton ascent (Dauphin et
al., NeurIPS 2014) from every start at once: deterministic lattice starts,
the antipodes of the configuration points and seeded random extras.  Each
start steps by sum_k (g.v_k) / |lambda_k| v_k over the eigenpairs of its
2x2 chart Hessian, clipped to 0.5 rad, so it climbs out of saddles and
minima and does not zig-zag in ill-conditioned valleys.  Accept decisions
compare sum_i log p_i, which is monotone in F.  A start drops out once its
gradient is at most 1e-8, or once its log value has gained at most 1e-9 for
three sweeps in a row.  Up to three winners within 1e-3 of the best value
and at least 1e-2 rad apart are then polished together by the same routine,
to the gradient tolerance, and the best polished one is returned.  For
n >= 3 the closest product states are the global maximizers, so a few
distinct ascent winners suffice.  Lambda is always evaluated through the
amplitude form (numerically exact) with one coherent-state kernel,
`symstate.coherent_matrix`.  `grid_oracle` is the independent check: a
separable theta x phi evaluation on an equal-area grid whose best cell,
and the poles, are polished by the same routine.
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
# Floor on each p_i = (1 + u.v_i)/2, which vanishes only exactly opposite a
# configuration point; at 1e-150 the Hessian terms (a_i / 2 p_i)^2 stay finite.
_P_FLOOR = 1e-150
# Floor on the overlap itself before `log_overlap_sq` takes its logarithm.
_VALUE_FLOOR = 1e-300
_SNAP_ONE = 1e-14
# Ascent stopping rule: a start drops out once its tangent gradient is at
# most _ASCENT_GRADIENT_TOL, or once its log value has gained at most
# _STALL_GAIN for _STALL_SWEEPS sweeps in a row.
_ASCENT_GRADIENT_TOL = 1e-8
_STALL_GAIN = 1e-9
_STALL_SWEEPS = 3
# Polish: at most _POLISH_COUNT ascent winners within _WINNER_WINDOW of the
# best value and at least _WINNER_SEPARATION radians apart.
_POLISH_COUNT = 3
_WINNER_WINDOW = 1e-3
_WINNER_SEPARATION = 1e-2
# Newton steps: at most _MAX_STEP radians long, eigenvalue magnitudes floored
# at _CURVATURE_FLOOR (a maximum can be nearly degenerate: on D4(8,2) one
# Hessian eigenvalue there is about -4e-7, and a floor of 1e-3 keeps the
# polish above a 1e-10 gradient).  Each rejection scales the step by
# _BACKTRACK, and a start whose scale falls below _MIN_SCALE drops out.  A
# polish step that lowers the value is still accepted when it shrinks the
# gradient to _POLISH_SHRINK of its size; the polish runs at most
# _POLISH_SWEEPS sweeps.
_MAX_STEP = 0.5
_CURVATURE_FLOOR = 1e-12
_BACKTRACK = 0.25
_MIN_SCALE = 1e-12
_POLISH_SHRINK = 0.9
_POLISH_SWEEPS = 100


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for `geometric_measure`; defaults suit n up to a few dozen.

    `num_starts=None` resolves to max(32, n^2) for the state at hand.
    `max_iterations` only caps the sweeps of the saddle-free Newton ascent:
    the ascent stops on its own once every start has dropped out, which a
    start does when its tangent gradient is at most 1e-8 or when its log
    value has gained at most 1e-9 for three sweeps in a row.  `tol_gradient`
    is the gradient norm the polish of the winners must reach for
    `converged`.
    """

    num_starts: int | None = None
    tol_gradient: float = 1e-10
    max_iterations: int = 300
    seed: int = 0

    def __post_init__(self):
        if self.num_starts is not None and self.num_starts < 1:
            raise ValueError("num_starts must be positive")
        if self.tol_gradient <= 0:
            raise ValueError("tol_gradient must be positive")
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


def _frames(units: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal tangent frames (e1, e2) at each unit vector, branch free.

    Duff et al., "Building an orthonormal basis, revisited" (JCGT 2017): the
    sign of z picks the hemisphere, so the frame stays exact at both poles.
    """
    x, y, z = units.T
    sign = np.copysign(1.0, z)
    a = -1.0 / (sign + z)
    b = x * y * a
    e1 = np.column_stack([1.0 + sign * x * x * a, sign * b, -sign * x])
    e2 = np.column_stack([b, sign + y * y * a, -y])
    return e1, e2


def _chart_terms(units: np.ndarray, mp_units: np.ndarray):
    """Sum of log p_i, chart gradient and chart Hessian of log F at each unit.

    One product [u; e1; e2] @ mp_units.T gives c = u.v_i and the frame
    components a, b of every configuration point.  Returns the log values
    (S,), the gradients (S, 2), the Hessian entries (h_11, h_12, h_22) and
    the frames.
    """
    e1, e2 = _frames(units)
    s = len(units)
    dots = np.vstack([units, e1, e2]) @ mp_units.T
    c, a, b = dots[:s], dots[s:2 * s], dots[2 * s:]
    p = np.maximum(0.5 * (1.0 + c), _P_FLOOR)
    w = 0.5 / p
    aw, bw = a * w, b * w
    gradient = np.column_stack([aw.sum(axis=1), bw.sum(axis=1)])
    curvature = -(c * w).sum(axis=1)
    hessian = (curvature - (aw * aw).sum(axis=1), -(aw * bw).sum(axis=1),
               curvature - (bw * bw).sum(axis=1))
    return np.log(p).sum(axis=1), gradient, hessian, e1, e2


def _saddle_free_step(gradient: np.ndarray, hessian, e1: np.ndarray,
                      e2: np.ndarray) -> np.ndarray:
    """Ambient tangent step sum_k (g.v_k) / |lambda_k| v_k, at most
    _MAX_STEP long, from the closed-form eigensystem of each 2x2 Hessian."""
    h11, h12, h22 = hessian
    mean, half = 0.5 * (h11 + h22), 0.5 * (h11 - h22)
    radius = np.hypot(half, h12)
    angle = 0.5 * np.arctan2(h12, half)
    cos, sin = np.cos(angle), np.sin(angle)
    along = (gradient[:, 0] * cos + gradient[:, 1] * sin) \
        / np.maximum(np.abs(mean + radius), _CURVATURE_FLOOR)
    across = (gradient[:, 1] * cos - gradient[:, 0] * sin) \
        / np.maximum(np.abs(mean - radius), _CURVATURE_FLOOR)
    s1, s2 = along * cos - across * sin, along * sin + across * cos
    clip = _MAX_STEP / np.maximum(np.hypot(s1, s2), _MAX_STEP)
    return (clip * s1)[:, None] * e1 + (clip * s2)[:, None] * e2


def log_overlap_sq_gradient(state: SymmetricState, theta: float, phi: float) -> np.ndarray:
    """Tangent-plane gradient of log |<product|psi>|^2 at one direction."""
    u = angles_to_unit(theta, phi)[None, :]
    _, gradient, _, e1, e2 = _chart_terms(u, to_majorana(state).unit_vectors())
    return gradient[0, 0] * e1[0] + gradient[0, 1] * e2[0]


def log_overlap_sq(state: SymmetricState, theta: float, phi: float) -> float:
    value = _overlap_sq(state.amps, angles_to_unit(theta, phi)[None, :])[0]
    return float(np.log(np.maximum(value, _VALUE_FLOOR)))


def _newton_ascent(mp_units: np.ndarray, units: np.ndarray, gradient_tol: float,
                   max_sweeps: int, polish: bool = False):
    """Batched saddle-free Newton ascent of log F from every start at once.

    Each sweep evaluates every active start's trial point once.  An ascent
    step is accepted when it raises the product-form value; a polish step
    (`polish=True`) also when it keeps the value or shrinks the gradient to
    at most _POLISH_SHRINK of its size, which keeps the terminal Newton
    contraction going below rounding noise in the value.  A rejected step
    shrinks that start's step scale by _BACKTRACK.  A start drops out once
    its gradient is at most `gradient_tol`, once its step scale falls below
    _MIN_SCALE, or, outside the polish, after _STALL_SWEEPS sweeps in a row
    that gained at most _STALL_GAIN in log F.  Returns the final units and
    gradient norms, and the number of sweeps run.
    """
    units = units / np.linalg.norm(units, axis=1)[:, None]
    log_values, gradient, hessian, e1, e2 = _chart_terms(units, mp_units)
    gnorms = np.linalg.norm(gradient, axis=1)
    steps = _saddle_free_step(gradient, hessian, e1, e2)
    scale = np.ones(len(units))
    stalls = np.zeros(len(units), dtype=int)
    active = np.flatnonzero(gnorms > gradient_tol)
    sweeps = 0
    while active.size and sweeps < max_sweeps:
        sweeps += 1
        step = scale[active, None] * steps[active]
        r = np.linalg.norm(step, axis=1)
        trial = np.cos(r)[:, None] * units[active] + np.sinc(r / math.pi)[:, None] * step
        trial /= np.linalg.norm(trial, axis=1)[:, None]
        trial_values, gradient, hessian, e1, e2 = _chart_terms(trial, mp_units)
        trial_gnorms = np.linalg.norm(gradient, axis=1)
        gain = trial_values - log_values[active]
        if polish:
            accept = (gain >= 0.0) | (trial_gnorms <= _POLISH_SHRINK * gnorms[active])
        else:
            accept = gain > 0.0
            stalls[active] = np.where(gain <= _STALL_GAIN, stalls[active] + 1, 0)
        moved = active[accept]
        units[moved] = trial[accept]
        log_values[moved] = trial_values[accept]
        gnorms[moved] = trial_gnorms[accept]
        steps[moved] = _saddle_free_step(gradient, hessian, e1, e2)[accept]
        scale[moved] = 1.0
        scale[active[~accept]] *= _BACKTRACK
        active = active[(gnorms[active] > gradient_tol) & (scale[active] >= _MIN_SCALE)
                        & (stalls[active] < _STALL_SWEEPS)]
    return units, gnorms, sweeps


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


def _best_refined(amps: np.ndarray, mp_units: np.ndarray, units: np.ndarray,
                  tol_gradient: float) -> tuple[np.ndarray, float, float]:
    """Polish a few candidates together; the best by amplitude-form value,
    with that value and its gradient norm."""
    units, gnorms, _ = _newton_ascent(mp_units, units, tol_gradient,
                                      _POLISH_SWEEPS, polish=True)
    values = _overlap_sq(amps, units)
    best = int(np.argmax(values))
    return units[best], float(values[best]), float(gnorms[best])


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
    units, _, sweeps = _newton_ascent(mp_units, starts, _ASCENT_GRADIENT_TOL,
                                      cfg.max_iterations)
    winners = _distinct_winners(units, _overlap_sq(state.amps, units))
    best_u, best_value, best_gnorm = _best_refined(state.amps, mp_units, units[winners],
                                                   cfg.tol_gradient)
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
    candidates = np.array([angles_to_unit(theta[best[0]], phi[best[1]]),
                           [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    mp_units = to_majorana(state).unit_vectors()
    # Skip a candidate exactly opposite a configuration point: its overlap
    # vanishes and the log objective has a pole there.
    off_pole = (0.5 * (1.0 + candidates @ mp_units.T)).min(axis=1) > 1e-12
    off_pole |= _overlap_sq(state.amps, candidates) >= 1e-30
    best_u, best_value, best_gnorm = _best_refined(state.amps, mp_units,
                                                   candidates[off_pole], 1e-10)
    direction = unit_to_angles(best_u)
    return _make_result(best_value, direction, resolution * resolution,
                        best_gnorm <= 1e-10, best_gnorm, 0)


def eg_invariance_check(state: SymmetricState, r: Rotation,
                        cfg: OptimizerConfig | None = None) -> float:
    """|E_G(state) - E_G(rotated state)|; should vanish up to solver noise."""
    base = geometric_measure(state, cfg)
    moved = geometric_measure(rotate_state(state, r), cfg)
    return abs(base.eg - moved.eg)

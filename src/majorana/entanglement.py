"""Geometric entanglement: maximize the product-state overlap on the sphere.

The objective F(u) = |<product(u)|psi>|^2 factorizes over the configuration
points v_i as a constant times prod_i p_i, p_i = (1 + u.v_i)/2.  In a
tangent chart (e1, e2) at u, log F has gradient sum_i a_i / (2 p_i) and
Hessian -sum_i c_i / (2 p_i) I - sum_i a_i a_i^T / (4 p_i^2), with
c_i = u.v_i and a_i the chart components of v_i.  One product
[u; e1; e2] @ V^T gives all three for a batch of points.

`geometric_measure` runs one batched saddle-free Newton ascent (Dauphin et
al., NeurIPS 2014) from every start at once: a Fibonacci lattice of
max(32, n^2) points, a function of n alone.  A start may sit on a zero
of F (the antipode of a configuration point, or the point itself when the
configuration is centrally symmetric), where the Newton step is about as
long as the distance to the zero, so it would only double that distance
per sweep; successive halving (below) drops such a start after its first
sweep, so none is moved off the lattice.  Each start steps by
sum_k (g.v_k) / |lambda_k| v_k over the eigenpairs of its 2x2 chart
Hessian, clipped to 0.5 rad, so it climbs out of saddles and minima and
does not zig-zag in ill-conditioned valleys.
Accept decisions compare sum_i log p_i, which is monotone in F.  A start
drops out once its gradient is at most 1e-8, or once its log value has
gained at most 1e-9 for three sweeps in a row.  After each sweep only the
better half of the still-active starts by log value, and never fewer than
three, sweeps on (successive halving, Jamieson and Talwalkar, AISTATS
2016): only three winners are polished, and a sweep costs about the same
numpy dispatch however few starts it moves, so waiting on stragglers far
below the best would set the run time.  Dropped starts keep their
positions and stay candidates, and `iterations` still counts the ascent
sweeps.  Up to three winners within 1e-3 of the best value and at least
1e-2 rad apart are then polished together by the same routine, to the
gradient tolerance, and the best polished one is returned; among winners
within 4 eps of the best value, the one with the smallest gradient.  For
n >= 3 the closest product states are the global maximizers, so a few
distinct ascent winners suffice; a product state, one exact n-fold point
from `to_majorana`, needs no ascent (Lambda = 1).

Nor does a non-negative state, whose amplitudes are a_k = |a_k|
e^(i(alpha + k beta)) for one global phase alpha and one turn beta about z
(every Dicke, GHZ and dihedral state, T, the octahedron and the cube).
There the triangle inequality puts the maximum on the meridian phi = beta
(Huebener et al., PRA 80, 032324, 2009), where with t = tan(theta/2) the
overlap is P(t)/(1 + t^2)^(n/2), P(t) = sum sqrt(C(n,k)) |a_k| t^k.  Its
critical points are the real roots t >= 0 of one polynomial of degree at
most n, and the best of them and the two poles is the maximum; on the
Dicke states it is Wei and Goldbart's closed form (PRA 68, 042307, 2003).
A state counts as non-negative when delta = ||psi - e^(i alpha) D_z(beta)
|psi||| is at most 2.5e-15, which keeps Lambda within 1e-14 of the
meridian value.  The result reports no starts and no sweeps, and the one
point is polished like an ascent winner only if its gradient is above the
polish tolerance.  Lambda is always
evaluated through the amplitude form (numerically exact) with one
coherent-state kernel, `symstate.coherent_matrix`.  `grid_oracle` is the
independent check: a separable theta x phi evaluation on an equal-area
grid whose best cell, and the poles, are polished by the same routine.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from ._roots import polynomial_roots
from .symstate import (
    TWO_PI,
    MajoranaConfig,
    SymmetricState,
    _binomial_rows,
    _check_angles,
    _check_integer,
    _norms,
    _spinors,
    angles_to_unit,
    binomial_weights,
    coherent_matrix,
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
# Sweep cap of the ascent, and the gradient norm the polish must reach for
# `converged` (in `geometric_measure` and `grid_oracle` alike).
_MAX_SWEEPS = 300
_POLISH_GRADIENT_TOL = 1e-10
# Polished winners within this of the best value tie (on D22(26,2)'s ring three
# agree to 4.4e-16, with gradients 7e-11 to 2.6e-8); the flattest wins.
_VALUE_TIE = 4.0 * np.finfo(float).eps
# A state takes the meridian branch when delta = ||psi - psi_+||, psi_+ =
# e^(i alpha) D_z(beta)|psi| and |psi| its amplitude moduli, satisfies
# 4 delta <= _MERIDIAN_TOL.  The meridian maximum u of psi_+ is its global
# one, and sqrt(Lambda) and the overlap at u each move by at most delta
# between psi and psi_+, so sqrt(Lambda) - |<u|psi>| <= 2 delta and
# Lambda - |<u|psi>|^2 <= 4 delta.  On the catalog delta is at most 2.7e-16.
_MERIDIAN_TOL = 1e-14


@dataclass(frozen=True)
class EntanglementResult:
    """Lambda, E_G = -log2 Lambda and the maximizing direction.

    `starts_used` counts ascent starts (grid cells for `grid_oracle`),
    `iterations` the ascent sweeps run (both 0 for product and
    non-negative states, which take their maximum without an ascent), and
    `max_gradient_norm` is the final polish's gradient norm, which
    `converged` compares with the polish tolerance.  `config` is the
    state's configuration, for callers that need it again.
    """

    lam: float
    eg: float
    theta: float
    phi: float
    starts_used: int
    converged: bool
    max_gradient_norm: float
    iterations: int
    config: MajoranaConfig = field(compare=False, repr=False)


def _make_result(lam: float, direction, starts_used: int, converged: bool, gradient_norm: float,
                 iterations: int, config: MajoranaConfig) -> EntanglementResult:
    lam = min(float(lam), 1.0)
    if lam >= 1.0 - _SNAP_ONE:
        lam = 1.0
    eg = -math.log2(lam)
    if eg == 0.0:
        eg = 0.0  # normalize -0.0
    theta, phi = float(direction[0]), float(direction[1])
    return EntanglementResult(lam, eg, theta, phi, int(starts_used), bool(converged),
                              float(gradient_norm), int(iterations), config)


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
    """Tangent-plane gradient of log |<product|psi>|^2 at one direction;
    raises ValueError unless both angles are finite."""
    _check_angles(theta, phi)
    u = angles_to_unit(theta, phi)[None, :]
    _, gradient, _, e1, e2 = _chart_terms(u, to_majorana(state).unit_vectors())
    return gradient[0, 0] * e1[0] + gradient[0, 1] * e2[0]


def log_overlap_sq(state: SymmetricState, theta: float, phi: float) -> float:
    """log |<product|psi>|^2 at one direction; raises ValueError unless both
    angles are finite."""
    _check_angles(theta, phi)
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
    that gained at most _STALL_GAIN in log F.  Outside the polish, only the
    better half of the starts still active after that, by log value and
    never fewer than _POLISH_COUNT, sweeps on.  Returns the final units and
    gradient norms, and the number of sweeps run.
    """
    units = units / _norms(units)[:, None]
    log_values, gradient, hessian, e1, e2 = _chart_terms(units, mp_units)
    gnorms = _norms(gradient)
    steps = _saddle_free_step(gradient, hessian, e1, e2)
    scale = np.ones(len(units))
    stalls = np.zeros(len(units), dtype=int)
    active = np.flatnonzero(gnorms > gradient_tol)
    sweeps = 0
    while active.size and sweeps < max_sweeps:
        sweeps += 1
        step = scale[active, None] * steps[active]
        r = _norms(step)
        trial = np.cos(r)[:, None] * units[active] + np.sinc(r / math.pi)[:, None] * step
        trial /= _norms(trial)[:, None]
        trial_values, gradient, hessian, e1, e2 = _chart_terms(trial, mp_units)
        trial_gnorms = _norms(gradient)
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
        if not polish:
            keep = max(_POLISH_COUNT, active.size // 2)
            active = active[np.argsort(-log_values[active], kind="stable")[:keep]]
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


def _best_refined(amps: np.ndarray, mp_units: np.ndarray,
                  units: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Polish a few candidates together; the best by amplitude-form value,
    ties within _VALUE_TIE to the smallest gradient, with that value and
    its gradient norm."""
    units, gnorms, _ = _newton_ascent(mp_units, units, _POLISH_GRADIENT_TOL,
                                      _POLISH_SWEEPS, polish=True)
    values = _overlap_sq(amps, units)
    tied = np.flatnonzero(values >= values.max() - _VALUE_TIE)
    best = int(tied[np.argmin(gnorms[tied])])
    return units[best], float(values[best]), float(gnorms[best])


def _meridian_turn(amps: np.ndarray) -> float | None:
    """The z-turn beta that makes the amplitudes non-negative up to a global
    phase alpha, or None.

    a_k e^(-i(alpha + k beta)) >= 0 fixes beta from the phases of two
    amplitudes k0 < k1, up to a multiple of 2 pi/(k1 - k0), and then alpha
    from a_k0.  The two are the largest amplitudes, whose phases are the
    best determined.  The candidate with the least delta is accepted when
    4 delta <= _MERIDIAN_TOL.
    """
    moduli = np.abs(amps)
    k0, k1 = sorted(np.argsort(-moduli, kind="stable")[:2].tolist())
    phase0, phase1 = cmath.phase(amps[k0]), cmath.phase(amps[k1])
    betas = (phase1 - phase0 + TWO_PI * np.arange(k1 - k0)) / (k1 - k0)
    turned = moduli * np.exp(1j * (phase0 + np.outer(betas, np.arange(len(amps)) - k0)))
    delta = np.linalg.norm(turned - amps, axis=1)
    best = int(np.argmin(delta))
    return float(betas[best]) if 4.0 * delta[best] <= _MERIDIAN_TOL else None


def _meridian_candidates(amps: np.ndarray, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """The critical points of the overlap on the meridian phi = beta, and
    both poles, as polar angles with their overlaps |<product|psi>|^2 from
    the `coherent_matrix` kernel.

    With t = tan(theta/2) the meridian overlap is P(t)/(1 + t^2)^(n/2),
    P(t) = sum sqrt(C(n,k)) |a_k| t^k, so its critical points are the roots
    t >= 0 of P'(t)(1 + t^2) - n t P(t), a polynomial of degree at most n
    (the t^(n+1) terms cancel).  Every root is taken at its real part when
    that is positive (t = 0 is the north pole): a spurious root only adds a
    point on the meridian, which cannot exceed the maximum.  The polynomial
    vanishes when the overlap is constant on the meridian (GHZ2), and then
    the poles suffice.
    """
    n = len(amps) - 1
    p = binomial_weights(n) * np.abs(amps)
    k = np.arange(1, n + 1)
    q = np.zeros(n + 1)
    q[:-1] = k * p[1:]
    q[1:] -= (n + 1 - k) * p[:-1]
    roots = polynomial_roots(q)[0].real if np.any(q) else np.empty(0)
    theta = np.concatenate([[0.0, math.pi], 2.0 * np.arctan(roots[roots > 0.0])])
    return theta, np.abs(_binomial_rows(*_spinors(theta, beta), n).conj() @ amps) ** 2


def geometric_measure(state: SymmetricState) -> EntanglementResult:
    """Best product overlap Lambda and its direction for one state.

    The ascent starts from a Fibonacci lattice of max(32, n^2) points;
    product states and states non-negative up to a phase and a z-turn
    (`_meridian_turn`) run no ascent.  The ascent
    halves its active starts after every sweep, keeping the better half and
    at least _POLISH_COUNT, and runs at most _MAX_SWEEPS sweeps, stopping on
    its own once every start has dropped out; the result's `iterations`
    counts those ascent sweeps.  The polish of the winners must reach
    _POLISH_GRADIENT_TOL for `converged`.
    """
    config = to_majorana(state)
    if np.all(config.points == config.points[0]):  # a product state
        return _make_result(1.0, config.points[0], 0, True, 0.0, 0, config)
    mp_units = config.unit_vectors()
    beta = _meridian_turn(state.amps)
    if beta is not None:
        theta, values = _meridian_candidates(state.amps, beta)
        # ties, such as GHZ's two poles, go to the smallest gradient
        tied = np.flatnonzero(values >= values.max() - _VALUE_TIE)
        units = angles_to_unit(theta[tied], beta)
        _, gradient, _, _, _ = _chart_terms(units, mp_units)
        gnorms = _norms(gradient)
        best = int(np.argmin(gnorms))
        best_u, best_value, best_gnorm = units[best], values[tied[best]], gnorms[best]
        if best_gnorm > _POLISH_GRADIENT_TOL:
            best_u, best_value, best_gnorm = _best_refined(state.amps, mp_units,
                                                           best_u[None, :])
        return _make_result(best_value, unit_to_angles(best_u), 0,
                            best_gnorm <= _POLISH_GRADIENT_TOL, best_gnorm, 0, config)
    starts = fibonacci_sphere(max(32, state.n * state.n))
    units, _, sweeps = _newton_ascent(mp_units, starts, _ASCENT_GRADIENT_TOL, _MAX_SWEEPS)
    winners = _distinct_winners(units, _overlap_sq(state.amps, units))
    best_u, best_value, best_gnorm = _best_refined(state.amps, mp_units, units[winners])
    return _make_result(best_value, unit_to_angles(best_u), len(starts),
                        best_gnorm <= _POLISH_GRADIENT_TOL, best_gnorm, sweeps, config)


def grid_oracle(state: SymmetricState, resolution: int = 300) -> EntanglementResult:
    """Exhaustive equal-area scan plus one polish; independent of the
    multi-start path so the two can check each other."""
    resolution = _check_integer(resolution, "resolution", 8)
    j = np.arange(resolution)
    z = 1.0 - (2.0 * j + 1.0) / resolution
    theta = np.arccos(z)
    phi = TWO_PI * (j + 0.5) / resolution
    t = _binomial_rows(*_spinors(theta, 0.0), state.n)
    e = np.exp(-1j * np.outer(phi, np.arange(state.n + 1)))
    overlaps = (t * state.amps) @ e.T  # rows: theta index, cols: phi index
    values = np.abs(overlaps) ** 2
    best = np.unravel_index(np.argmax(values), values.shape)
    candidates = np.array([angles_to_unit(theta[best[0]], phi[best[1]]),
                           [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    config = to_majorana(state)
    mp_units = config.unit_vectors()
    # Skip a candidate exactly opposite a configuration point: its overlap
    # vanishes and the log objective has a pole there.
    off_pole = (0.5 * (1.0 + candidates @ mp_units.T)).min(axis=1) > 1e-12
    off_pole |= _overlap_sq(state.amps, candidates) >= 1e-30
    best_u, best_value, best_gnorm = _best_refined(state.amps, mp_units, candidates[off_pole])
    return _make_result(best_value, unit_to_angles(best_u), resolution * resolution,
                        best_gnorm <= _POLISH_GRADIENT_TOL, best_gnorm, 0, config)

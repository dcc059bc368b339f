"""Root finding for the complex polynomials behind point configurations.

Coefficients are ascending (c[0] is the constant term).  The effective degree
drops trailing coefficients whose magnitude is below a relative tolerance;
every dropped top coefficient corresponds to one root at infinity, and
near-zero bottom coefficients are taken as exact roots at the origin.  Finite
roots come from companion-matrix eigenvalues, polished by at most
`_ABERTH_SWEEPS` Aberth-Ehrlich simultaneous-correction sweeps.
"""
from __future__ import annotations

import numpy as np

# Relative cutoff below which a trailing coefficient counts as zero.
DEGREE_DROP_TOL = 1e-13
# Residual bound for every reported finite root, relative to the coefficient
# scale and the root magnitude (see scaled_residuals).
RESIDUAL_TOL = 1e-10
_ABERTH_SWEEPS = 12

MAX_DEGREE = 64


def effective_degree(coeffs) -> int:
    """Index of the last coefficient exceeding DEGREE_DROP_TOL relative to the max."""
    c = np.asarray(coeffs, dtype=complex)
    scale = np.max(np.abs(c))
    if scale == 0.0:
        raise ValueError("zero polynomial has no well-defined degree")
    keep = np.nonzero(np.abs(c) > DEGREE_DROP_TOL * scale)[0]
    return int(keep[-1])


def horner(coeffs, z):
    """Evaluate an ascending-coefficient polynomial at z (scalar or array)."""
    z = np.asarray(z, dtype=complex)
    out = np.full(z.shape, coeffs[-1], dtype=complex)
    for c in coeffs[-2::-1]:
        out = out * z + c
    return out


def scaled_residuals(coeffs, roots) -> np.ndarray:
    """|p(root)| / (max|c| * max(1,|root|)^deg), the acceptance metric."""
    c = np.asarray(coeffs, dtype=complex)
    d = len(c) - 1
    scale = np.max(np.abs(c))
    z = np.asarray(roots, dtype=complex)
    return np.abs(horner(c, z)) / (scale * np.maximum(1.0, np.abs(z)) ** d)


def _companion_eigenvalues(coeffs) -> np.ndarray:
    c = np.asarray(coeffs, dtype=complex)
    d = len(c) - 1
    if d == 0:
        return np.empty(0, dtype=complex)
    if d == 1:
        return np.array([-c[0] / c[1]])
    monic = c[:-1] / c[-1]
    comp = np.zeros((d, d), dtype=complex)
    comp[1:, :-1] = np.eye(d - 1)
    comp[:, -1] = -monic
    return np.linalg.eigvals(comp)


def aberth_refine(coeffs, roots) -> np.ndarray:
    """Polish all roots simultaneously; returns the best iterate per root."""
    c = np.asarray(coeffs, dtype=complex)
    d = len(c) - 1
    if d == 0 or len(roots) == 0:
        return np.asarray(roots, dtype=complex)
    dc = c[1:] * np.arange(1, d + 1)
    z = np.array(roots, dtype=complex)
    best = z.copy()
    best_res = scaled_residuals(c, z)
    for _ in range(_ABERTH_SWEEPS):
        p = horner(c, z)
        dp = horner(dc, z)
        newton = p / np.where(dp == 0, 1e-300, dp)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        # Coincident iterates would blow up the repulsion sum; freeze them out.
        diff = np.where(np.abs(diff) < 1e-14, np.inf, diff)
        repulsion = (1.0 / diff).sum(axis=1)
        denom = 1.0 - newton * repulsion
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        z = z - newton / denom
        res = scaled_residuals(c, z)
        gain = res < best_res
        best[gain] = z[gain]
        best_res[gain] = res[gain]
        if best_res.max() < 1e-15:
            break
    return best


def polynomial_roots(coeffs):
    """All roots of an ascending-coefficient polynomial.

    Returns (finite_roots, num_infinite) where num_infinite counts dropped
    top coefficients.  Near-zero bottom coefficients give exact zero roots.
    Raises RuntimeError if a refined root still violates the residual bound.
    """
    c = np.asarray(coeffs, dtype=complex)
    if len(c) - 1 > MAX_DEGREE:
        raise ValueError(f"degree {len(c) - 1} exceeds supported maximum {MAX_DEGREE}")
    d = effective_degree(c)
    num_infinite = len(c) - 1 - d
    trimmed = c[: d + 1]
    scale = np.max(np.abs(trimmed))
    low = 0
    while low < d and np.abs(trimmed[low]) <= DEGREE_DROP_TOL * scale:
        low += 1
    middle = trimmed[low:]
    finite = aberth_refine(middle, _companion_eigenvalues(middle))
    roots = np.concatenate([np.zeros(low, dtype=complex), finite])
    if len(roots):
        res = scaled_residuals(trimmed, roots)
        if res.max() > RESIDUAL_TOL:
            raise RuntimeError(
                f"root refinement failed: worst residual {res.max():.3e} "
                f"exceeds {RESIDUAL_TOL:.1e}")
    return roots, num_infinite

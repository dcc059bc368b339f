"""Root finding for the complex polynomials behind point configurations.

Coefficients are ascending (c[0] is the constant term).  The effective degree
drops trailing coefficients whose magnitude is below a relative tolerance;
every dropped top coefficient corresponds to one root at infinity, and
near-zero bottom coefficients are taken as exact roots at the origin.  The
finite roots are the companion-matrix eigenvalues, used as they come: they
are backward stable (Edelman and Murakami, Math. Comp. 64 (1995) 763-776),
and `symstate.to_majorana` checks them by the fidelity with which their
points reproduce the state.
"""
from __future__ import annotations

import numpy as np

# Relative cutoff below which a trailing coefficient counts as zero.
DEGREE_DROP_TOL = 1e-13

MAX_DEGREE = 64


def effective_degree(coeffs) -> int:
    """Index of the last coefficient exceeding DEGREE_DROP_TOL relative to the max."""
    c = np.asarray(coeffs, dtype=complex)
    scale = np.max(np.abs(c))
    if scale == 0.0:
        raise ValueError("zero polynomial has no well-defined degree")
    keep = np.nonzero(np.abs(c) > DEGREE_DROP_TOL * scale)[0]
    return int(keep[-1])


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


def polynomial_roots(coeffs):
    """All roots of an ascending-coefficient polynomial.

    Returns (finite_roots, num_infinite) where num_infinite counts dropped
    top coefficients.  Near-zero bottom coefficients give exact zero roots.
    """
    c = np.asarray(coeffs, dtype=complex)
    if len(c) - 1 > MAX_DEGREE:
        raise ValueError(f"degree {len(c) - 1} exceeds supported maximum {MAX_DEGREE}")
    d = effective_degree(c)
    num_infinite = len(c) - 1 - d
    scale = np.max(np.abs(c))
    low = int(np.argmax(np.abs(c[: d + 1]) > DEGREE_DROP_TOL * scale))
    finite = _companion_eigenvalues(c[low: d + 1])
    return np.concatenate([np.zeros(low, dtype=complex), finite]), num_infinite

"""Core state model: Dicke amplitudes, sphere-point configurations, and
exact conversions between the two pictures.

A permutation-symmetric n-qubit state is held as a normalized vector of
n+1 Dicke amplitudes a_0..a_n (a_k multiplies the k-excitation basis state).
The same state is equivalently a multiset of n directions on the unit
sphere: the amplitudes define the polynomial with coefficients
sqrt(C(n,k)) * a_k, whose roots are stereographic images of "zero
directions"; each configuration point is the antipode of a zero direction,
and every degree drop at the top of the coefficient list contributes one
point at the exact north pole.  Root finding would smear an n-fold root,
so a product state is recognized in amplitude space and converts to its
exact n-fold point: when the amplitudes lie within 1e-13, in norm, of a
coherent state times a phase (`_coherent_direction`).  Every other state
takes the companion-matrix roots unpolished, and `to_majorana` accepts a
result only if its points reproduce the state to 1 - F <= 1e-8.  The inverse
conversion and every coherent state stand on one spinor kernel: `_spinors`
gives (cos(theta/2), e^(i phi) sin(theta/2)), exactly zero at the poles;
the product expansion convolves one such factor per point, and
`_binomial_rows` expands n equal ones into sqrt(C(n,k)) a^(n-k) b^k.

Rotations move the points rigidly (`rotate`) and the amplitudes by the
spin-n/2 unitary (`wigner_rotation`), so `rotate_state` finds no roots.
`_axis_angle` reads axes and angles off a (G, 3, 3) matrix stack;
`Rotation.from_matrix` is its one-matrix case, checked for rotations.
Every layer takes the axis-wise norms and cross products of real point
arrays through `_norms` and `_cross`, which give numpy's bits without its
dispatch.

Angles are radians throughout: theta is the polar angle in [0, pi]
measured from +z, phi the azimuth in [0, 2*pi), wrapped there directly, so
a configuration is a fixed point of its constructor and JSON round trip.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._roots import MAX_DEGREE, polynomial_roots

TWO_PI = 2.0 * math.pi

# Default angular tolerance for treating two points as coincident.
COINCIDENCE_TOL = 1e-6

# Below this polar distance a point is snapped onto the exact pole, where
# the azimuth is meaningless and canonicalized to zero.
_POLE_SNAP = 1e-12

# Built products at n <= 64 lie within 2e-14 of their coherent state, while a
# 1e-12 perturbation already splits the points by 0.03 rad or more (n = 6..20).
_PRODUCT_RESIDUAL = 1e-13

# Bound on 1 - |<product(points)|psi>|^2 for every `to_majorana` result.  The
# worst round trips of the unpolished companion roots measured are 1.4e-9 and
# 1.6e-9, on n = 64 states with a 2- and a 4-fold cluster.  Acceptance
# criterion 1 keeps its own 1e-9 bound for n <= 20.
_ROUND_TRIP_TOL = 1e-8

# Largest entry of |M^T M - I| that `Rotation.from_matrix` accepts: rotations
# built in floating point stay within 1e-15 of orthogonal, and the axis and
# angle read off a matrix this close are those of a rotation about as close.
_ORTHOGONAL_TOL = 1e-9

# A cluster of m unit vectors whose sum is at most _CANCELLED_SUM * m long has
# no mean direction: summing them rounds the total by about m^2 eps at most,
# which stays below 1e-12 m for every m up to 4,500, so a shorter sum points
# wherever rounding sent it.
_CANCELLED_SUM = 1e-12


@lru_cache(maxsize=128)
def binomial_weights(n: int) -> np.ndarray:
    """sqrt(C(n, k)) for k = 0..n, exact integers before the square root;
    cached and shared, so read-only."""
    weights = np.sqrt(np.array([math.comb(n, k) for k in range(n + 1)], dtype=float))
    weights.setflags(write=False)
    return weights


def angles_to_unit(theta, phi) -> np.ndarray:
    """Spherical angles to unit vectors; broadcasts, returns shape (..., 3)."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


def unit_to_angles(vecs) -> tuple[np.ndarray, np.ndarray]:
    """Unit vectors to (theta, phi); phi wrapped into [0, 2*pi)."""
    v = np.asarray(vecs, dtype=float)
    theta = np.arctan2(np.hypot(v[..., 0], v[..., 1]), v[..., 2])
    phi = np.arctan2(v[..., 1], v[..., 0]) % TWO_PI
    return theta, phi


def _wrap_angle(x):
    """x mod 2*pi in [0, 2*pi): a second mod takes the 2*pi that the first
    rounds a tiny negative x up to onto 0."""
    return np.mod(np.mod(x, TWO_PI), TWO_PI)


def _canonical_points(points: np.ndarray) -> np.ndarray:
    """Wrap theta into [0, pi] (theta above pi becomes 2*pi - theta, its phi
    gains pi) and phi into [0, 2*pi), zero the azimuth at the poles, sort
    lexicographically.  Each step leaves canonical angles unchanged."""
    theta = np.mod(points[:, 0], TWO_PI)
    over = theta > math.pi
    theta = np.where(over, TWO_PI - theta, theta)
    phi = _wrap_angle(points[:, 1] + np.where(over, math.pi, 0.0))
    north = theta <= _POLE_SNAP
    south = theta >= math.pi - _POLE_SNAP
    theta = np.where(north, 0.0, np.where(south, math.pi, theta))
    phi = np.where(north | south, 0.0, phi)
    order = np.lexsort((phi, theta))
    return np.column_stack([theta[order], phi[order]])


def _check_integer(value, what: str, minimum: int) -> int:
    """`value` as an int; ValueError unless it is an integer (a numpy one
    counts, a bool does not, since numpy indexes with it as a mask) of at
    least `minimum`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        bound = "a positive integer" if minimum == 1 else f"an integer of at least {minimum}"
        raise ValueError(f"{what} must be {bound}, got {value!r}")
    return int(value)


@dataclass(frozen=True, eq=False)
class SymmetricState:
    """Normalized Dicke-amplitude vector for n qubits.

    The constructor rescales to unit norm (rejecting the zero vector and
    non-finite entries), so every instance satisfies sum |a_k|^2 = 1 to
    machine precision.  It divides by the largest real or imaginary part
    first, so amplitudes near the float range normalize without overflow.
    """

    n: int
    amps: np.ndarray

    def __post_init__(self):
        n = _check_integer(self.n, "qubit count", 1)
        amps = np.atleast_1d(np.asarray(self.amps, dtype=complex))
        if amps.shape != (self.n + 1,):
            raise ValueError(
                f"expected {self.n + 1} amplitudes for n={self.n}, got shape {amps.shape}")
        scale = float(np.max(np.maximum(np.abs(amps.real), np.abs(amps.imag))))
        if not np.isfinite(scale):
            raise ValueError("amplitudes must be finite")
        if scale > 0.0:
            amps = amps / scale
        norm = float(np.linalg.norm(amps))
        if scale * norm < 1e-12:
            raise ValueError("amplitude vector must have nonzero norm")
        amps = amps / norm
        amps.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "amps", amps)


@dataclass(frozen=True, eq=False)
class MajoranaConfig:
    """Multiset of n sphere points plus a tracked global phase.

    Angles and phase must be finite.  Points are stored canonically
    (wrapped angles, zero azimuth at the poles, sorted by (theta, phi)),
    so two equal multisets compare equal entrywise.  The phase makes
    `to_dicke` reproduce amplitudes exactly, but it never participates in
    comparisons: states are rays.

    Each instance keeps a private memo of what is read off its points:
    the unit vectors and their `pairwise_angles` matrix, both read-only and
    built on first use, and, per tolerance, the SLOCC evidence of `slocc`
    (coincidence signature and known rank).  The memo lives and dies with
    the instance, so it only saves work that repeats on one configuration.
    """

    n: int
    points: np.ndarray
    global_phase: float = 0.0

    def __post_init__(self):
        n = _check_integer(self.n, "point count", 1)
        pts = np.asarray(self.points, dtype=float)
        if pts.size != 2 * self.n:
            raise ValueError(f"expected {self.n} (theta, phi) pairs, got shape {pts.shape}")
        phase = float(self.global_phase)
        if not (np.all(np.isfinite(pts)) and math.isfinite(phase)):
            raise ValueError("point angles and global phase must be finite")
        self._store(n, _canonical_points(pts.reshape(n, 2)), phase)

    def _store(self, n: int, points: np.ndarray, phase: float) -> None:
        points.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "global_phase", float(_wrap_angle(phase)))
        object.__setattr__(self, "_memo", {})

    @classmethod
    def _from_canonical(cls, n: int, points: np.ndarray, phase: float) -> "MajoranaConfig":
        """A configuration of finite points already in canonical order, which
        the constructor would return unchanged."""
        config = cls.__new__(cls)
        config._store(n, points, phase)
        return config

    def _memoized(self, key, build):
        """The memo's entry `key`, built by `build()` on first use."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value

    def unit_vectors(self) -> np.ndarray:
        """All n points as unit vectors, shape (n, 3), in canonical order;
        built once per instance and read-only."""
        return self._memoized("units", lambda: _read_only(
            angles_to_unit(self.points[:, 0], self.points[:, 1])))

    def _angle_matrix(self) -> np.ndarray:
        """`pairwise_angles` of the unit vectors with themselves, (n, n):
        symmetric with an exactly zero diagonal; built once and read-only."""
        return self._memoized("angles", lambda: _read_only(
            pairwise_angles(self.unit_vectors(), self.unit_vectors())))

    def __eq__(self, other):
        if not isinstance(other, MajoranaConfig):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.points, other.points)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _axis_angle(mats) -> tuple[np.ndarray, np.ndarray]:
    """Unit axes (G, 3) and angles in [0, pi] (G,) of a (G, 3, 3) stack of
    rotation matrices.

    Each quaternion is read off the largest of the three diagonal entries
    and the trace (Shepperd's method), so axes stay exact at angles near
    pi; its sign is then fixed as w >= 0, and at w = 0 the first nonzero of
    x, y, z positive.  Angles below 1e-15 give the identity's axis +z and
    angle 0.
    """
    m = np.asarray(mats, dtype=float)
    rows, diag = np.arange(len(m)), np.diagonal(m, axis1=1, axis2=2)
    trace = np.trace(m, axis1=1, axis2=2)
    skew = m[:, [2, 0, 1], [1, 2, 0]] - m[:, [1, 2, 0], [2, 0, 1]]
    # Row c of each block is 4 q_c (x, y, z, w): one candidate per pivot.
    candidates = np.empty((len(m), 4, 4))
    candidates[:, :3, :3] = m + np.swapaxes(m, 1, 2)
    candidates[:, [0, 1, 2], [0, 1, 2]] = 1.0 - trace[:, None] + 2.0 * diag
    candidates[:, :3, 3] = candidates[:, 3, :3] = skew
    candidates[:, 3, 3] = 1.0 + trace
    q = candidates[rows, np.argmax(np.column_stack([diag, trace]), axis=1)]
    wxyz = q[:, [3, 0, 1, 2]]
    q = np.where(wxyz[rows, np.argmax(wxyz != 0.0, axis=1)][:, None] < 0.0, -q, q)
    norm = np.sqrt(np.sum(q[:, :3] ** 2, axis=1))
    angles = 2.0 * np.arctan2(norm, q[:, 3])
    identity = angles < 1e-15
    axes = q[:, :3] / np.where(identity, 1.0, norm)[:, None]
    return np.where(identity[:, None], [0.0, 0.0, 1.0], axes), np.where(identity, 0.0, angles)


@dataclass(frozen=True, eq=False)
class Rotation:
    """Axis-angle rotation of the sphere (right-hand rule, active)."""

    axis: np.ndarray
    angle: float

    def __post_init__(self):
        ax = np.asarray(self.axis, dtype=float).reshape(3)
        norm = float(np.linalg.norm(ax))
        if not np.isfinite(norm) or norm < 1e-12:
            raise ValueError("rotation axis must be a nonzero 3-vector")
        ax = ax / norm
        ax.flags.writeable = False
        angle = float(self.angle)
        if not math.isfinite(angle):
            raise ValueError(f"rotation angle must be finite, got {angle!r}")
        object.__setattr__(self, "axis", ax)
        object.__setattr__(self, "angle", angle)

    @staticmethod
    def from_matrix(mat) -> "Rotation":
        """Axis and angle in [0, pi] of a rotation matrix: the one-matrix case
        of `_axis_angle`.  Raises ValueError unless the matrix is finite,
        orthogonal within _ORTHOGONAL_TOL and has a positive determinant."""
        m = np.asarray(mat, dtype=float).reshape(3, 3)
        if not (np.all(np.isfinite(m))
                and np.abs(m.T @ m - np.eye(3)).max() <= _ORTHOGONAL_TOL
                and np.linalg.det(m) > 0.0):
            raise ValueError("expected a finite orthogonal 3x3 matrix with determinant +1")
        axes, angles = _axis_angle(m[None])
        return Rotation(axes[0], angles[0])

    def matrix(self) -> np.ndarray:
        """Rodrigues: I + sin(a) K + 2 sin^2(a/2) K^2, K the axis's cross-product matrix."""
        x, y, z = self.axis
        k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
        return (np.eye(3) + math.sin(self.angle) * k
                + 2.0 * math.sin(0.5 * self.angle) ** 2 * (k @ k))

    def apply(self, vecs) -> np.ndarray:
        """Rotate one or many 3-vectors."""
        return np.asarray(vecs, dtype=float) @ self.matrix().T

    def compose(self, other: "Rotation") -> "Rotation":
        """Rotation equal to applying `other` first, then `self`."""
        return Rotation.from_matrix(self.matrix() @ other.matrix())

    def inverse(self) -> "Rotation":
        return Rotation(self.axis, -self.angle)


def state_fidelity(a: SymmetricState, b: SymmetricState) -> float:
    """|<a|b>|^2; raises on mismatched qubit counts."""
    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} vs {b.n}")
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)


@lru_cache(maxsize=64)
def spin_matrices(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Jx, Jy, Jz) for spin n/2 in the excitation-number basis k:
    Jz = diag(n/2 - k), and the lowering operator steps k -> k+1."""
    k = np.arange(n, dtype=float)
    jz = np.diag(n / 2.0 - np.arange(n + 1))
    jminus = np.diag(np.sqrt((k + 1.0) * (n - k)), -1)
    jplus = jminus.T
    jx = 0.5 * (jplus + jminus)
    jy = -0.5j * (jplus - jminus)
    jx.flags.writeable = jy.flags.writeable = jz.flags.writeable = False
    return jx, jy, jz


@lru_cache(maxsize=64)
def _jy_eigenbasis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (snapped to the exact -n/2..n/2) and eigenvectors of Jy."""
    values, vectors = np.linalg.eigh(spin_matrices(n)[1])
    values = np.round(2.0 * values) / 2.0
    for arr in (values, vectors):
        arr.flags.writeable = False
    return values, vectors


def _frame(n: int, axis) -> np.ndarray:
    """A = exp(-i phi Jz) exp(-i theta Jy), (theta, phi) the angles of the
    axis: the action of a rotation carrying +z onto it.  Jz is diagonal and
    Jy's eigenbasis gives the other factor, with no matrix exponential."""
    if n > MAX_DEGREE:
        raise ValueError(f"qubit count {n} exceeds supported maximum {MAX_DEGREE}")
    x, y, z = np.asarray(axis, dtype=float)
    theta, phi = np.arctan2(np.hypot(x, y), z), np.arctan2(y, x)
    values, vectors = _jy_eigenbasis(n)
    small_d = (vectors * np.exp(-1j * theta * values)) @ vectors.conj().T
    return np.exp(-1j * phi * (n / 2.0 - np.arange(n + 1)))[:, None] * small_d


def wigner_rotation(n: int, r: Rotation) -> np.ndarray:
    """Unitary action of a sphere rotation on the n-qubit symmetric subspace:
    exp(-i alpha a.J) = A exp(-i alpha Jz) A^dagger, with a the rotation's
    axis and A = `_frame(n, a)`; ValueError unless n is a positive integer."""
    n = _check_integer(n, "qubit count", 1)
    align = _frame(n, r.axis)
    turn = np.exp(-1j * r.angle * (n / 2.0 - np.arange(n + 1)))
    return (align * turn) @ align.conj().T


def _spinors(theta, phi) -> tuple[np.ndarray, np.ndarray]:
    """Spinors (cos(theta/2), e^(i phi) sin(theta/2)) of a batch of
    directions, exactly zero at both poles."""
    half = 0.5 * theta
    return np.where(theta >= math.pi, 0.0, np.cos(half)), np.sin(half) * np.exp(1j * phi)


def _binomial_rows(a, b, n: int) -> np.ndarray:
    """Rows sqrt(C(n,k)) a^(n-k) b^k for k = 0..n, one per spinor (a, b) of a
    batch; shape (S, n+1).  Both power sequences are cumulative products,
    so S spinors cost O(S n) multiplications and no pow calls."""
    a, b = np.ravel(a), np.ravel(b)
    rows = np.empty((b.size, n + 1), dtype=b.dtype)
    c = np.empty((a.size, n + 1), dtype=a.dtype)
    rows[:, 0] = c[:, 0] = 1.0
    rows[:, 1:], c[:, 1:] = b[:, None], a[:, None]
    np.multiply.accumulate(rows, axis=1, out=rows)
    np.multiply.accumulate(c, axis=1, out=c)
    rows *= c[:, ::-1]
    rows *= binomial_weights(n)
    return rows


def _product_amplitudes(points: np.ndarray) -> np.ndarray:
    """Normalized Dicke amplitudes of the symmetrized product over `points`:
    the convolution of their spinor factors a + b alpha, where a point at
    the exact north pole contributes [1, 0] and so drops a top coefficient."""
    poly = np.array([1.0 + 0.0j])
    for factor in np.column_stack(_spinors(points[:, 0], points[:, 1])):
        poly = np.convolve(poly, factor)
    amps = poly / binomial_weights(len(points))
    return amps / np.linalg.norm(amps)


def _coherent_direction(amps: np.ndarray) -> tuple[float, float] | None:
    """(theta, phi) when the normalized amplitudes lie within
    _PRODUCT_RESIDUAL of a spin coherent state times a phase.

    Root finding smears an n-fold point by about eps^(1/n), so the direction
    comes from the spin vector instead: a coherent state has <J> = (n/2)
    (sin theta cos phi, sin theta sin phi, cos theta), read off
    `spin_matrices`.  Within the bound the spin length falls short of n/2
    by at most n * _PRODUCT_RESIDUAL; a state short by more than ten times
    that is turned away at once.
    """
    n = amps.size - 1
    sx, sy, sz = (np.vdot(amps, j @ amps).real for j in spin_matrices(n))
    if 0.5 * n - math.sqrt(sx * sx + sy * sy + sz * sz) > 10.0 * n * _PRODUCT_RESIDUAL:
        return None
    theta = math.atan2(math.hypot(sx, sy), sz)
    phi = math.atan2(sy, sx)
    coherent = _binomial_rows(*_spinors(theta, phi), n)[0]
    overlap = complex(np.vdot(coherent, amps))
    residual = amps - (overlap / abs(overlap)) * coherent
    return (theta, phi) if np.vdot(residual, residual).real <= _PRODUCT_RESIDUAL ** 2 else None


def to_majorana(state: SymmetricState) -> MajoranaConfig:
    """Decompose a state into its point configuration.

    A product state (`_coherent_direction`) gives its exact n-fold point,
    with no root finding.  Otherwise root alpha of the coefficient
    polynomial lies at stereographic coordinate alpha = e^{-i phi}
    tan(theta/2) of a zero direction, and the configuration point is that
    direction's antipode.  Roots at infinity (degree drops) become points
    at the exact north pole; the root at the origin becomes the exact south
    pole.  The overlap <product(points)|psi> sets the global phase, so that
    `to_dicke` reproduces `state.amps` and not just the ray; RuntimeError
    when 1 - |overlap|^2 exceeds _ROUND_TRIP_TOL.
    """
    n = state.n
    direction = _coherent_direction(state.amps)
    if direction is not None:
        pts = np.tile(direction, (n, 1))
    else:
        finite, n_inf = polynomial_roots(binomial_weights(n) * state.amps)
        pts = np.zeros((n, 2))
        pts[n_inf:, 0] = math.pi - 2.0 * np.arctan(np.abs(finite))
        pts[n_inf:, 1] = math.pi - np.angle(finite)
    pts = _canonical_points(pts)
    overlap = complex(np.vdot(_product_amplitudes(pts), state.amps))
    loss = 1.0 - abs(overlap) ** 2
    if not loss <= _ROUND_TRIP_TOL:  # a NaN loss fails too
        raise RuntimeError(f"Majorana points reproduce the state only to "
                           f"1 - F = {loss:.3e}, above {_ROUND_TRIP_TOL:.0e}")
    return MajoranaConfig._from_canonical(n, pts, float(np.angle(overlap)))


def to_dicke(config: MajoranaConfig) -> SymmetricState:
    """Inverse of `to_majorana`: expand the product over all points."""
    if config.n > MAX_DEGREE:
        raise ValueError(f"point count {config.n} exceeds supported maximum {MAX_DEGREE}")
    amps = _product_amplitudes(config.points) * np.exp(1j * config.global_phase)
    return SymmetricState(config.n, amps)


def rotate(config: MajoranaConfig, r: Rotation) -> MajoranaConfig:
    """Rigidly rotate every point; the stored phase is carried unchanged."""
    theta, phi = unit_to_angles(r.apply(config.unit_vectors()))
    return MajoranaConfig(config.n, np.column_stack([theta, phi]), config.global_phase)


def rotate_state(state: SymmetricState, r: Rotation) -> SymmetricState:
    """Apply `wigner_rotation(n, r)` to the amplitudes: exact, no roots, and
    the global phase is that of the unitary exp(-i alpha a.J)."""
    return SymmetricState(state.n, wigner_rotation(state.n, r) @ state.amps)


def coherent_matrix(n: int, units) -> np.ndarray:
    """Dicke amplitudes of the n-fold product state along each unit vector:
    the `_binomial_rows` of their spinors, shape (S, n+1)."""
    theta, phi = unit_to_angles(np.reshape(units, (-1, 3)))
    return _binomial_rows(*_spinors(theta, phi), n)


def _check_angles(theta: float, phi: float) -> None:
    """Raise ValueError unless both angles of one direction are finite."""
    for name, value in (("theta", theta), ("phi", phi)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def coherent_amplitudes(n: int, theta: float, phi: float) -> np.ndarray:
    """Dicke amplitudes of the n-fold product of one qubit along (theta, phi);
    theta is taken mod 2*pi, and above pi read as 2*pi - theta at phi + pi.
    Raises ValueError unless n is a positive integer and both angles are
    finite."""
    n = _check_integer(n, "qubit count", 1)
    _check_angles(theta, phi)
    theta = float(theta) % TWO_PI
    if theta > math.pi:
        theta, phi = TWO_PI - theta, phi + math.pi
    return _binomial_rows(*_spinors(theta, phi), n)[0]


def _norms(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm(v, axis=-1) of a real array, shape (...): the same sum
    of squares, so the same bits without its dispatch."""
    return np.sqrt(np.add.reduce(v * v, axis=-1))


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross of real 3-vectors (rows pair up), from the same component
    products and differences, so the same bits without its dispatch."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def pairwise_angles(va: np.ndarray, vb: np.ndarray) -> np.ndarray:
    """Angles 2 arctan2(|a - b|, |a + b|) between two sets of unit vectors:
    arccos(a.b) would lose half the precision at coincident or antipodal pairs."""
    va, vb = np.asarray(va)[:, None, :], np.asarray(vb)[None, :, :]
    return 2.0 * np.arctan2(_norms(va - vb), _norms(va + vb))


def cluster_directions(vecs: np.ndarray, tol: float = COINCIDENCE_TOL) -> list[np.ndarray]:
    """Single-linkage clusters of directions at angular tolerance `tol`.

    Returns index arrays, ordered by each cluster's smallest member index;
    raises ValueError unless `tol` is finite and positive.
    """
    label = _cluster_labels(pairwise_angles(vecs, vecs), tol)
    return [np.flatnonzero(label == r) for r in np.flatnonzero(label == np.arange(len(label)))]


def _check_tolerance(tol: float) -> None:
    """Raise ValueError unless the coincidence tolerance `tol` is finite
    and positive."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"coincidence tolerance must be finite and positive, got {tol!r}")


def _cluster_labels(angles: np.ndarray, tol: float) -> np.ndarray:
    """Each point's `cluster_directions` label, the smallest index in its
    cluster, from a `pairwise_angles` matrix, by min-label propagation: each
    point takes the smallest label among the points within `tol` of it,
    itself included, then the label of its label, until no label changes.
    Labels only fall and stay inside their cluster, and the second step
    halves the chain to the cluster's smallest index, so a chain of n
    points settles in O(log n) sweeps."""
    _check_tolerance(tol)
    near, label, previous = angles <= tol, np.arange(len(angles)), None
    while not np.array_equal(label, previous):
        previous = label
        label = np.minimum(label, np.where(near, label, len(near)).min(axis=1, initial=len(near)))
        label = label[label]
    return label


def site_decomposition(vecs: np.ndarray, tol: float):
    """Coincidence clusters of `vecs` as (sites, mult): each cluster's unit
    mean direction and its point count, in `cluster_directions` order.
    Raises ValueError when the points of a cluster cancel, so that it has
    no mean direction."""
    return _site_decomposition(vecs, pairwise_angles(vecs, vecs), tol)


def _site_decomposition(vecs: np.ndarray, angles: np.ndarray, tol: float):
    """`site_decomposition` with the `pairwise_angles` matrix of `vecs` given.
    Each cluster's members are summed from zero in index order, as a loop
    over clusters would, so a -0.0 entry of a lone point becomes 0.0."""
    label = _cluster_labels(angles, tol)
    roots = label == np.arange(len(label))
    cluster = (np.cumsum(roots) - 1)[label]
    sites = np.zeros((int(roots.sum()), 3))
    np.add.at(sites, cluster, vecs)
    mult = np.bincount(cluster)
    norms = _norms(sites)
    if np.any(norms <= _CANCELLED_SUM * mult):
        raise ValueError(f"points merged at tolerance {tol:g} cancel: their cluster has "
                         "no mean direction")
    sites /= norms[:, None]
    return sites, mult


def config_close(a: MajoranaConfig, b: MajoranaConfig, tol: float = 1e-8) -> bool:
    """Whether two configurations match as multisets within angular `tol`.

    True exactly when the points of `a` can be paired one-to-one with those
    of `b` so that every pair is at most `tol` apart: a perfect matching on
    the graph of such pairs, found by augmenting paths.  Neither the order
    of coincident points nor an assignment that is cheaper in total but has
    one long pair can cause a spurious mismatch.  Raises ValueError unless
    `tol` is finite and positive.
    """
    _check_tolerance(tol)
    if a.n != b.n:
        return False
    near = pairwise_angles(a.unit_vectors(), b.unit_vectors()) <= tol
    candidates = [np.flatnonzero(row).tolist() for row in near]
    partner = [-1] * b.n  # partner[j]: the point of `a` paired with point j of `b`

    def augment(i: int, seen: list[bool]) -> bool:
        for j in candidates[i]:
            if not seen[j]:
                seen[j] = True
                if partner[j] < 0 or augment(partner[j], seen):
                    partner[j] = i
                    return True
        return False

    return all(augment(i, [False] * b.n) for i in range(a.n))


def random_symmetric_state(n: int, rng: np.random.Generator | None = None) -> SymmetricState:
    """State with independent standard-normal real and imaginary parts."""
    rng = np.random.default_rng() if rng is None else rng
    amps = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    return SymmetricState(n, amps)


class SchemaError(ValueError):
    """Malformed JSON payload; `path` pinpoints the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def to_json_dict(obj: SymmetricState | MajoranaConfig) -> dict:
    if isinstance(obj, SymmetricState):
        return {
            "n": obj.n,
            "dicke": [{"re": float(a.real), "im": float(a.imag)} for a in obj.amps],
        }
    if isinstance(obj, MajoranaConfig):
        return {
            "n": obj.n,
            "majorana": [{"theta": float(t), "phi": float(p)} for t, p in obj.points],
            "phase": float(obj.global_phase),
        }
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def to_json_text(obj: SymmetricState | MajoranaConfig) -> str:
    return json.dumps(to_json_dict(obj), allow_nan=False)


def _require_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise SchemaError(path, f"expected a finite number, got {number!r}")
    return number


def _number_pairs(data: dict, key: str, count: int, fields: tuple[str, str]) -> np.ndarray:
    """The two numbers `fields` of each of `count` objects under `key`, (count, 2)."""
    entries = data[key]
    if not isinstance(entries, list) or len(entries) != count:
        raise SchemaError(f"$.{key}", f"expected a list of {count} entries")
    pairs = np.zeros((count, 2))
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise SchemaError(f"$.{key}[{i}]", "expected an object with '{}'/'{}'".format(*fields))
        for field in fields:
            if field not in entry:
                raise SchemaError(f"$.{key}[{i}].{field}", "missing required field")
        pairs[i] = [_require_number(entry[field], f"$.{key}[{i}].{field}") for field in fields]
    return pairs


def parse_json_dict(data) -> SymmetricState | MajoranaConfig:
    """Parse either JSON form; raises SchemaError with a field path."""
    if not isinstance(data, dict):
        raise SchemaError("$", f"expected an object, got {type(data).__name__}")
    if "n" not in data:
        raise SchemaError("$.n", "missing required field")
    n = data["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise SchemaError("$.n", f"expected a positive integer, got {n!r}")
    has_dicke = "dicke" in data
    has_majorana = "majorana" in data
    if has_dicke == has_majorana:
        raise SchemaError("$", "exactly one of 'dicke'/'majorana' must be present")
    if has_dicke:
        re_im = _number_pairs(data, "dicke", n + 1, ("re", "im"))
        try:
            return SymmetricState(n, re_im[:, 0] + 1j * re_im[:, 1])
        except ValueError as exc:
            raise SchemaError("$.dicke", str(exc)) from exc
    pts = _number_pairs(data, "majorana", n, ("theta", "phi"))
    phase = _require_number(data.get("phase", 0.0), "$.phase")
    return MajoranaConfig(n, pts, phase)


def parse_json_text(text: str) -> SymmetricState | MajoranaConfig:
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal too long to read
        raise SchemaError("$", f"invalid JSON: {exc}") from exc
    return parse_json_dict(data)

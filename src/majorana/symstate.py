"""Core state model: Dicke amplitudes, sphere-point configurations, and
exact conversions between the two pictures.

A permutation-symmetric n-qubit state is held as a normalized vector of
n+1 Dicke amplitudes a_0..a_n (a_k multiplies the k-excitation basis state).
The same state is equivalently a multiset of n directions on the unit
sphere: the amplitudes define the polynomial with coefficients
sqrt(C(n,k)) * a_k, whose roots are stereographic images of "zero
directions"; each configuration point is the antipode of a zero direction,
and every degree drop at the top of the coefficient list contributes one
point at the exact north pole.  The inverse conversion multiplies one
first-degree factor per point and renormalizes.

Angles are radians throughout: theta is the polar angle in [0, pi]
measured from +z, phi the azimuth in [0, 2*pi).
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


def _canonical_points(points: np.ndarray) -> np.ndarray:
    """Wrap angles, zero the azimuth at the poles, sort lexicographically."""
    vecs = angles_to_unit(points[:, 0], points[:, 1])
    theta, phi = unit_to_angles(vecs)
    north = theta <= _POLE_SNAP
    south = theta >= math.pi - _POLE_SNAP
    theta = np.where(north, 0.0, np.where(south, math.pi, theta))
    phi = np.where(north | south, 0.0, phi)
    order = np.lexsort((phi, theta))
    return np.column_stack([theta[order], phi[order]])


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
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValueError(f"qubit count must be a positive integer, got {self.n!r}")
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
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "amps", amps)


@dataclass(frozen=True, eq=False)
class MajoranaConfig:
    """Multiset of n sphere points plus a tracked global phase.

    Angles and phase must be finite.  Points are stored canonically
    (wrapped angles, zero azimuth at the poles, sorted by (theta, phi)),
    so two equal multisets compare equal entrywise.  The phase makes
    `to_dicke` reproduce amplitudes exactly, but it never participates in
    comparisons: states are rays.
    """

    n: int
    points: np.ndarray
    global_phase: float = 0.0

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValueError(f"point count must be a positive integer, got {self.n!r}")
        pts = np.asarray(self.points, dtype=float)
        if pts.size != 2 * self.n:
            raise ValueError(f"expected {self.n} (theta, phi) pairs, got shape {pts.shape}")
        phase = float(self.global_phase)
        if not (np.all(np.isfinite(pts)) and math.isfinite(phase)):
            raise ValueError("point angles and global phase must be finite")
        pts = _canonical_points(pts.reshape(self.n, 2))
        pts.flags.writeable = False
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "global_phase", phase % TWO_PI)

    def unit_vectors(self) -> np.ndarray:
        """All n points as unit vectors, shape (n, 3), in canonical order."""
        return angles_to_unit(self.points[:, 0], self.points[:, 1])

    def __eq__(self, other):
        if not isinstance(other, MajoranaConfig):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.points, other.points)


@dataclass(frozen=True)
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
        object.__setattr__(self, "axis", ax)
        object.__setattr__(self, "angle", float(self.angle))

    @staticmethod
    def identity() -> "Rotation":
        return Rotation(np.array([0.0, 0.0, 1.0]), 0.0)

    @staticmethod
    def from_matrix(mat) -> "Rotation":
        """Axis and angle in [0, pi] of a rotation matrix.

        The quaternion is read off the largest of the three diagonal entries
        and the trace (Shepperd's method), so axes stay exact at angles near
        pi; its sign is then fixed as w >= 0, and at w = 0 the first nonzero
        of x, y, z positive.
        """
        m = np.asarray(mat, dtype=float).reshape(3, 3).tolist()
        decision = [m[0][0], m[1][1], m[2][2], m[0][0] + m[1][1] + m[2][2]]
        i = max(range(4), key=decision.__getitem__)
        if i == 3:
            q = [m[2][1] - m[1][2], m[0][2] - m[2][0], m[1][0] - m[0][1], 1.0 + decision[3]]
        else:
            j, k = (i + 1) % 3, (i + 2) % 3
            q = [0.0] * 4
            q[i] = 1.0 - decision[3] + 2.0 * m[i][i]
            q[j] = m[j][i] + m[i][j]
            q[k] = m[k][i] + m[i][k]
            q[3] = m[k][j] - m[j][k]
        if next((c for c in (q[3], q[0], q[1], q[2]) if c != 0.0), 1.0) < 0.0:
            q = [-c for c in q]
        norm = math.sqrt(q[0] ** 2 + q[1] ** 2 + q[2] ** 2)
        angle = 2.0 * math.atan2(norm, q[3])
        if angle < 1e-15:
            return Rotation.identity()
        return Rotation(np.array(q[:3]) / norm, angle)

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


def make_state(amps) -> SymmetricState:
    """Validating, normalizing constructor; infers n from the length."""
    arr = np.atleast_1d(np.asarray(amps))
    return SymmetricState(arr.shape[0] - 1, arr)


def state_fidelity(a: SymmetricState, b: SymmetricState) -> float:
    """|<a|b>|^2; raises on mismatched qubit counts."""
    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} vs {b.n}")
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)


def _product_amplitudes(points: np.ndarray) -> np.ndarray:
    """Normalized Dicke amplitudes of the symmetrized product over `points`.

    Multiplies the first-degree factor cos(t/2) + sin(t/2) e^{i phi} alpha
    for each point; points at the exact north pole contribute [1, 0], which
    is what makes the top coefficients vanish for them.
    """
    poly = np.array([1.0 + 0.0j])
    for theta, phi in points:
        half = 0.5 * theta
        factor = np.array([math.cos(half), math.sin(half) * np.exp(1j * phi)])
        poly = np.convolve(poly, factor)
    amps = poly / binomial_weights(len(points))
    return amps / np.linalg.norm(amps)


def to_majorana(state: SymmetricState) -> MajoranaConfig:
    """Decompose a state into its point configuration.

    Root alpha of the coefficient polynomial lies at stereographic
    coordinate alpha = e^{-i phi} tan(theta/2) of a zero direction; the
    configuration point is that direction's antipode.  Roots at infinity
    (degree drops) become points at the exact north pole; the root at the
    origin becomes the exact south pole.  The stored global phase is chosen
    so that `to_dicke` reproduces `state.amps` exactly, not just the ray.
    """
    n = state.n
    coeffs = binomial_weights(n) * state.amps
    finite, n_inf = polynomial_roots(coeffs)
    pts = np.zeros((n, 2))
    if len(finite):
        theta_zero = 2.0 * np.arctan(np.abs(finite))
        phi_zero = (-np.angle(finite)) % TWO_PI
        pts[n_inf:, 0] = math.pi - theta_zero
        pts[n_inf:, 1] = (phi_zero + math.pi) % TWO_PI
    config = MajoranaConfig(n, pts, 0.0)
    recon = _product_amplitudes(config.points)
    phase = float(np.angle(np.vdot(recon, state.amps))) % TWO_PI
    return MajoranaConfig(n, pts, phase)


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
    """Rotate a state by round-tripping through its point configuration.

    The result is the rotated ray; its global phase follows the product
    expansion convention rather than any particular unitary's phase.
    """
    return to_dicke(rotate(to_majorana(state), r))


def coherent_matrix(n: int, units) -> np.ndarray:
    """Dicke amplitudes of the n-fold product state along each unit vector.

    Row s is sqrt(C(n,k)) c^(n-k) z^k for k = 0..n, with c = cos(theta/2)
    and z = sin(theta/2) e^(i phi) of `units[s]`; shape (S, n+1).  Both
    power sequences are cumulative products, so a batch of S directions
    costs O(S n) multiplications and no pow calls.
    """
    theta, phi = unit_to_angles(np.reshape(units, (-1, 3)))
    half = 0.5 * theta
    z = np.empty((theta.size, n + 1), dtype=complex)
    z[:, 0] = 1.0
    z[:, 1:] = (np.sin(half) * np.exp(1j * phi))[:, None]
    c = np.empty((theta.size, n + 1))
    c[:, 0] = 1.0
    c[:, 1:] = np.cos(half)[:, None]
    np.cumprod(z, axis=1, out=z)
    np.cumprod(c, axis=1, out=c)
    z *= c[:, ::-1]
    z *= binomial_weights(n)
    return z


def coherent_amplitudes(n: int, theta: float, phi: float) -> np.ndarray:
    """Dicke amplitudes of the n-fold product of one qubit along (theta, phi)."""
    return coherent_matrix(n, angles_to_unit(theta, phi))[0]


def overlap_product(state: SymmetricState, theta: float, phi: float) -> complex:
    """Amplitude of `state` on the product state along (theta, phi)."""
    return complex(np.vdot(coherent_amplitudes(state.n, theta, phi), state.amps))


def pairwise_angles(vecs: np.ndarray) -> np.ndarray:
    """Symmetric matrix of angular separations between unit vectors."""
    return pairwise_angles_cross(vecs, vecs)


def cluster_directions(vecs: np.ndarray, tol: float = COINCIDENCE_TOL) -> list[np.ndarray]:
    """Single-linkage clusters of directions at angular tolerance `tol`.

    Returns index arrays, ordered by each cluster's smallest member index.
    """
    m = len(vecs)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    ang = pairwise_angles(vecs)
    for i in range(m):
        for j in range(i + 1, m):
            if ang[i, j] <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[int]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return [np.array(groups[r]) for r in sorted(groups)]


def config_close(a: MajoranaConfig, b: MajoranaConfig, tol: float = 1e-8) -> bool:
    """Whether two configurations match as multisets within angular `tol`.

    True exactly when the points of `a` can be paired one-to-one with those
    of `b` so that every pair is at most `tol` apart: a perfect matching on
    the graph of such pairs, found by augmenting paths.  Neither the order
    of coincident points nor an assignment that is cheaper in total but has
    one long pair can cause a spurious mismatch.
    """
    if a.n != b.n:
        return False
    near = pairwise_angles_cross(a.unit_vectors(), b.unit_vectors()) <= tol
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


def pairwise_angles_cross(va: np.ndarray, vb: np.ndarray) -> np.ndarray:
    # arctan2(|cross|, dot) rather than arccos(dot): the latter loses half
    # the working precision near coincident or antipodal directions.
    va, vb = np.asarray(va), np.asarray(vb)
    dots = va @ vb.T
    crosses = np.linalg.norm(np.cross(va[:, None, :], vb[None, :, :]), axis=-1)
    return np.arctan2(crosses, dots)


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
        entries = data["dicke"]
        if not isinstance(entries, list) or len(entries) != n + 1:
            raise SchemaError("$.dicke", f"expected a list of {n + 1} entries")
        amps = np.zeros(n + 1, dtype=complex)
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise SchemaError(f"$.dicke[{i}]", "expected an object with 're'/'im'")
            for key in ("re", "im"):
                if key not in entry:
                    raise SchemaError(f"$.dicke[{i}].{key}", "missing required field")
            amps[i] = complex(_require_number(entry["re"], f"$.dicke[{i}].re"),
                              _require_number(entry["im"], f"$.dicke[{i}].im"))
        try:
            return SymmetricState(n, amps)
        except ValueError as exc:
            raise SchemaError("$.dicke", str(exc)) from exc
    entries = data["majorana"]
    if not isinstance(entries, list) or len(entries) != n:
        raise SchemaError("$.majorana", f"expected a list of {n} entries")
    pts = np.zeros((n, 2))
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise SchemaError(f"$.majorana[{i}]", "expected an object with 'theta'/'phi'")
        for key in ("theta", "phi"):
            if key not in entry:
                raise SchemaError(f"$.majorana[{i}].{key}", "missing required field")
        pts[i] = (_require_number(entry["theta"], f"$.majorana[{i}].theta"),
                  _require_number(entry["phi"], f"$.majorana[{i}].phi"))
    phase = _require_number(data.get("phase", 0.0), "$.phase")
    return MajoranaConfig(n, pts, phase)


def parse_json_text(text: str) -> SymmetricState | MajoranaConfig:
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal too long to read
        raise SchemaError("$", f"invalid JSON: {exc}") from exc
    return parse_json_dict(data)

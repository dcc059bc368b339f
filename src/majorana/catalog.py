"""Generators for the named states: Dicke, GHZ, dihedral, and the states
whose configurations are regular-solid vertex sets.

Solid orientations (documented so detection tests are reproducible):
tetrahedron with one vertex on +z and one ring vertex at azimuth 0;
octahedron on the coordinate axes; cube with vertices at (+-1,+-1,+-1);
icosahedron with poles on +-z and two staggered five-point rings at
latitude cos(theta) = +-1/sqrt(5); dodecahedron in the cube-inscribed
golden-ratio orientation.  With these choices the tetrahedral vertex state
coincides with `gen_tetrahedral` exactly, not merely up to rotation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .symstate import (
    TWO_PI,
    MajoranaConfig,
    SymmetricState,
    _check_integer,
    _norms,
    to_dicke,
    unit_to_angles,
)

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

SOLIDS = ("tetrahedron", "octahedron", "cube", "icosahedron", "dodecahedron")

# Largest per-vertex occupancy `gen_platonic` builds; it keeps every solid
# within 40 points.  A vertex stack of m points is rigid under the solid's
# group while m is below the vertex's stabiliser order (3 for the
# tetrahedron, cube and dodecahedron, 4 for the octahedron, 5 for the
# icosahedron), so every cap is rigid but the cube's: three points on a
# three-fold axis can open into a generic 24-point O orbit.
MAX_MULTIPLICITY = {"tetrahedron": 2, "octahedron": 3, "cube": 3,
                    "icosahedron": 3, "dodecahedron": 2}
# Order of each solid's rotation symmetry about z in the orientations above.
_Z_ORDER = {"tetrahedron": 3, "octahedron": 4, "cube": 4, "icosahedron": 5, "dodecahedron": 2}


@dataclass(frozen=True, eq=False)
class CatalogEntry:
    name: str
    parameters: dict
    state: SymmetricState


def gen_dicke(n: int, k: int) -> SymmetricState:
    """Basis state with k excitations: n-k points north, k points south."""
    if _check_integer(k, "excitation count", 0) > n:
        raise ValueError(f"excitation count {k} out of range for n={n}")
    amps = np.zeros(n + 1)
    amps[k] = 1.0
    return SymmetricState(n, amps)


def gen_ghz(n: int) -> SymmetricState:
    """Equal superposition of all-zero and all-one: an equatorial n-ring."""
    if n < 2:
        raise ValueError("GHZ needs at least 2 qubits")
    amps = np.zeros(n + 1)
    amps[0] = amps[n] = 1.0
    return SymmetricState(n, amps)


def gen_dihedral(n: int, p: int) -> SymmetricState:
    """(|k=p> + |k=n-p>)/sqrt(2): p points per pole, n-2p on the equator."""
    if n - 2 * _check_integer(p, "polar stack size", 0) < 2:
        raise ValueError(f"need a ring of n-2p >= 2 points, got p={p}, n={n}")
    amps = np.zeros(n + 1)
    amps[p] = amps[n - p] = 1.0
    return SymmetricState(n, amps)


def gen_tetrahedral() -> SymmetricState:
    """Four-qubit state whose configuration is a regular tetrahedron."""
    return SymmetricState(4, np.array([1.0, 0.0, 0.0, math.sqrt(2.0), 0.0]))


def platonic_vertices(solid: str) -> np.ndarray:
    """Unit vertex vectors of a regular solid, orientation as per module
    docstring."""
    if solid == "tetrahedron":
        ring_z = -1.0 / 3.0
        ring_r = math.sqrt(8.0) / 3.0
        verts = [(0.0, 0.0, 1.0)]
        for azimuth in (0.0, TWO_PI / 3.0, 2.0 * TWO_PI / 3.0):
            verts.append((ring_r * math.cos(azimuth), ring_r * math.sin(azimuth), ring_z))
        return np.array(verts)
    if solid == "octahedron":
        return np.array([(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                         (0.0, -1.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)])
    if solid == "cube":
        verts = [(x, y, z) for x in (1.0, -1.0) for y in (1.0, -1.0) for z in (1.0, -1.0)]
        return np.array(verts) / math.sqrt(3.0)
    if solid == "icosahedron":
        polar = math.atan2(2.0, 1.0)  # cos = 1/sqrt(5)
        verts = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]
        r = math.sin(polar)
        z = math.cos(polar)
        for j in range(5):
            upper = TWO_PI * j / 5.0
            lower = upper + math.pi / 5.0
            verts.append((r * math.cos(upper), r * math.sin(upper), z))
            verts.append((r * math.cos(lower), r * math.sin(lower), -z))
        return np.array(verts)
    if solid == "dodecahedron":
        verts = [(x, y, z) for x in (1.0, -1.0) for y in (1.0, -1.0) for z in (1.0, -1.0)]
        inv = 1.0 / _GOLDEN
        for a, b in [(inv, _GOLDEN), (-inv, _GOLDEN), (inv, -_GOLDEN), (-inv, -_GOLDEN)]:
            verts.append((0.0, a, b))
            verts.append((a, b, 0.0))
            verts.append((b, 0.0, a))
        arr = np.array(verts)
        return arr / _norms(arr)[:, None]
    raise ValueError(f"unknown solid {solid!r}; choose one of {SOLIDS}")


def gen_platonic(solid: str, multiplicity: int = 1) -> SymmetricState:
    """State whose configuration is `multiplicity` copies of each vertex.

    The turn by 2*pi/m about z that maps the solid onto itself (m in
    `_Z_ORDER`) multiplies each amplitude a_k by its own phase, so only the
    a_k with k in the residue class mod m of the largest one are nonzero;
    the others are set to exact zeros in place of their rounding noise."""
    verts = platonic_vertices(solid)
    cap = MAX_MULTIPLICITY[solid]
    if not 1 <= multiplicity <= cap:
        raise ValueError(f"multiplicity for {solid} must be in 1..{cap}, got {multiplicity}")
    theta, phi = unit_to_angles(np.repeat(verts, multiplicity, axis=0))
    amps = to_dicke(MajoranaConfig(len(theta), np.column_stack([theta, phi]))).amps.copy()
    k = np.arange(len(amps))
    amps[(k - np.argmax(np.abs(amps))) % _Z_ORDER[solid] != 0] = 0.0
    return SymmetricState(len(theta), amps)


def totally_invariant_states(n: int) -> list[CatalogEntry]:
    """All rigid-configuration states on n qubits from the single-orbit
    families: Dicke, dihedral, and the solid-vertex states.

    Mixed polyhedral occupancies (several orbits of one group at once) are
    not enumerated; the smallest such state needs 10 points, so the list
    is complete for n <= 7.  The vertex octahedron is omitted because it
    is a rotated copy of the dihedral state with p=1 on six qubits.
    """
    if n < 2:
        raise ValueError("need at least 2 qubits")
    entries = [CatalogEntry(f"S({n},{k})", {"n": n, "k": k}, gen_dicke(n, k))
               for k in range(1, n)]
    for p in range((n - 2) // 2 + 1):
        m = n - 2 * p
        entries.append(CatalogEntry(f"D{m}({n},{p})", {"n": n, "p": p},
                                    gen_dihedral(n, p)))
    if n == 4:
        entries.append(CatalogEntry("T", {}, gen_tetrahedral()))
    if n == 8:
        entries.append(CatalogEntry("cube", {}, gen_platonic("cube")))
    if n == 12:
        entries.append(CatalogEntry("icosahedron", {}, gen_platonic("icosahedron")))
    if n == 20:
        entries.append(CatalogEntry("dodecahedron", {}, gen_platonic("dodecahedron")))
    return entries

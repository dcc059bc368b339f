"""Shared utilities for the test suite."""
import itertools
import math

import numpy as np

from majorana import MajoranaConfig, Rotation, wigner_rotation
from majorana.catalog import platonic_vertices
from majorana.symstate import unit_to_angles


def random_rotation(rng) -> Rotation:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return Rotation(axis, float(rng.uniform(0.1, np.pi)))


def perturb_config(config: MajoranaConfig, index: int, delta: float) -> MajoranaConfig:
    """Rotate a single point by delta radians about a perpendicular axis."""
    vecs = config.unit_vectors()
    u = vecs[index]
    helper = np.array([1.0, 0.0, 0.0])
    if abs(u[0]) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    axis = np.cross(u, helper)
    axis /= np.linalg.norm(axis)
    vecs = vecs.copy()
    vecs[index] = Rotation(axis, delta).apply(u)
    points = np.array([unit_to_angles(v) for v in vecs])
    return MajoranaConfig(config.n, points, config.global_phase)


def config_of(vecs) -> MajoranaConfig:
    theta, phi = unit_to_angles(vecs)
    return MajoranaConfig(len(vecs), np.column_stack([theta, phi]))


def cuboctahedron() -> np.ndarray:
    return np.array([v for v in itertools.product((-1.0, 0.0, 1.0), repeat=3)
                     if np.count_nonzero(v) == 2]) / math.sqrt(2.0)


def icosidodecahedron() -> np.ndarray:
    ico = platonic_vertices("icosahedron")
    i, j = np.nonzero(np.triu(ico @ ico.T > 0.4, k=1))  # the 30 edges
    mid = ico[i] + ico[j]
    return mid / np.linalg.norm(mid, axis=1)[:, None]


def isotypic_multiplicity(state, report) -> int:
    """Dimension of the symmetric states that transform like psi under the
    group: the trace of (1/|G|) sum_g conj(chi_g) D(g), chi_g = <psi|D(g)|psi>.

    Each element's Wigner matrix is built on its own, from the `Rotation`
    of its matrix.  The axial kinds carry no element stack; their cyclic
    subgroup of order n+1 about the axis already gives every Jz eigenvalue
    its own character, so its multiplicity, an upper bound for the whole
    group's, is used.
    """
    n = state.n
    elements = [Rotation.from_matrix(mat) for mat in report.elements]
    if not elements:
        elements = [Rotation(report.axis, 2 * math.pi * j / (n + 1)) for j in range(n + 1)]
    total = 0j
    for element in elements:
        d = wigner_rotation(n, element)
        total += np.conj(np.vdot(state.amps, d @ state.amps)) * np.trace(d)
    return int(round(total.real / len(elements)))


def rotate_points(config: MajoranaConfig, rotation: Rotation) -> MajoranaConfig:
    vecs = config.unit_vectors() @ rotation.matrix().T
    points = np.array([unit_to_angles(v) for v in vecs])
    return MajoranaConfig(config.n, points, config.global_phase)


# Product-state directions for the snap tests: both poles, near-poles and
# one generic polar angle.
PRODUCT_THETAS = (0.0, 1e-13, 1e-7, 1.1, np.pi - 1e-7, np.pi - 1e-13, np.pi)


def product_states(n: int, theta: float, phi: float, rng) -> list:
    """One n-qubit product state built four ways: coherent amplitudes with a
    random scale and phase, `to_dicke` of n equal points, a rotation of its
    points, and a Wigner matrix acting on the amplitudes."""
    from majorana import (SymmetricState, coherent_amplitudes, rotate, to_dicke, to_majorana,
                          wigner_rotation)

    coherent = coherent_amplitudes(n, theta, phi)
    turn = random_rotation(rng)
    return [SymmetricState(n, coherent * rng.uniform(0.1, 10.0)
                           * np.exp(2j * np.pi * rng.uniform())),
            to_dicke(MajoranaConfig(n, [[theta, phi]] * n, rng.uniform(0.0, 2.0 * np.pi))),
            to_dicke(rotate(to_majorana(SymmetricState(n, coherent)), turn)),
            SymmetricState(n, wigner_rotation(n, turn) @ coherent)]

"""The numpy rotation and Wigner code against scipy as a reference.

scipy is a test dependency only: the package itself imports numpy alone.
"""
import math

import numpy as np
from scipy.linalg import expm
from scipy.spatial.transform import Rotation as SciRotation

from majorana import Rotation, wigner_rotation
from majorana.symstate import spin_matrices

EDGE_ANGLES = (0.0, 1e-9, math.pi - 1e-9, math.pi, 2 * math.pi - 1e-9)


def _rotations(rng):
    angles = list(EDGE_ANGLES) + list(rng.uniform(-3 * math.pi, 3 * math.pi, 20))
    axes = [np.eye(3)[i] * s for i in range(3) for s in (1.0, -1.0)]
    axes += [rng.normal(size=3) for _ in range(20)]
    for angle in angles:
        for axis in axes:
            yield Rotation(axis, angle)


def test_rotation_matrix_matches_scipy():
    rng = np.random.default_rng(41)
    for rot in _rotations(rng):
        expected = SciRotation.from_rotvec(rot.angle * rot.axis).as_matrix()
        np.testing.assert_allclose(rot.matrix(), expected, rtol=0, atol=2e-15)


def test_rotation_from_matrix_matches_scipy():
    # same matrix in, same rotation vector out: angle in [0, pi], and at
    # pi the same axis sign
    rng = np.random.default_rng(43)
    for rot in _rotations(rng):
        for mat in (rot.matrix(), SciRotation.from_rotvec(rot.angle * rot.axis).as_matrix()):
            ours = Rotation.from_matrix(mat)
            expected = SciRotation.from_matrix(mat).as_rotvec()
            assert 0.0 <= ours.angle <= math.pi
            np.testing.assert_allclose(ours.angle * ours.axis, expected, rtol=0, atol=2e-15)
    # half turns given as exactly symmetric matrices 2 n n^T - I: the
    # quaternion's w is exactly 0 and the sign rule picks the axis
    for axis in [rng.normal(size=3) for _ in range(40)] + list(np.eye(3)):
        axis = axis / np.linalg.norm(axis)
        mat = 2.0 * np.outer(axis, axis) - np.eye(3)
        ours = Rotation.from_matrix(mat)
        expected = SciRotation.from_matrix(mat).as_rotvec()
        np.testing.assert_allclose(ours.angle * ours.axis, expected, rtol=0, atol=2e-15)


def test_wigner_rotation_matches_expm():
    rng = np.random.default_rng(47)
    for n in range(1, 65):
        jx, jy, jz = spin_matrices(n)
        cases = [Rotation(rng.normal(size=3), rng.uniform(-2 * math.pi, 2 * math.pi))
                 for _ in range(2)]
        cases.append(Rotation(rng.normal(size=3), EDGE_ANGLES[n % len(EDGE_ANGLES)]))
        cases.append(Rotation(np.array([0.0, 0.0, -1.0 if n % 2 else 1.0]), 2.0))
        for rot in cases:
            generator = rot.axis[0] * jx + rot.axis[1] * jy + rot.axis[2] * jz
            expected = expm(-1j * rot.angle * generator)
            np.testing.assert_allclose(wigner_rotation(n, rot), expected, rtol=0, atol=1e-12)

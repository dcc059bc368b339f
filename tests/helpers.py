"""Shared utilities for the test suite."""
import numpy as np

from majorana import MajoranaConfig, Rotation
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


def rotate_points(config: MajoranaConfig, rotation: Rotation) -> MajoranaConfig:
    vecs = config.unit_vectors() @ rotation.matrix().T
    points = np.array([unit_to_angles(v) for v in vecs])
    return MajoranaConfig(config.n, points, config.global_phase)

"""The benchmark's checks accept right answers and count wrong ones as failed."""
import math

import numpy as np

import checks

GHZ4 = np.array([1.0, 0.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
# Four points on the equator at azimuths pi/4 + j*pi/2 form GHZ4; the
# product along either pole attains Lambda = 1/2.
GHZ4_POINTS = [(math.pi / 2, math.pi / 4 + j * math.pi / 2) for j in range(4)]


def test_ghz4_points_and_maximizer_pass():
    assert checks.check_points(GHZ4, GHZ4_POINTS) == []
    assert checks.fidelity(checks.product_amplitudes(GHZ4_POINTS), GHZ4) > 1 - 1e-12
    assert checks.check_maximizer(GHZ4, 0.5, 0.0, 0.0, True, 0.5) == []


def test_moved_point_fails():
    moved = [(math.pi / 2 + 1e-3, GHZ4_POINTS[0][1])] + GHZ4_POINTS[1:]
    assert checks.check_points(GHZ4, moved)
    back = checks.product_amplitudes(moved)
    assert checks.check_close("fidelity", checks.fidelity(back, GHZ4), 1.0, 1e-9)


def test_lowered_lambda_fails():
    assert checks.check_maximizer(GHZ4, 0.5 - 1e-3, 0.0, 0.0, True, 0.5)


def test_lambda_below_oracle_fails():
    # Attained at the reported direction, but a grid point does better.
    theta = 0.1
    lam = float(checks.overlap_sq(GHZ4, theta, 0.0)[0])
    assert checks.check_maximizer(GHZ4, lam, theta, 0.0, True, 0.5)


def test_unconverged_fails():
    assert checks.check_maximizer(GHZ4, 0.5, 0.0, 0.0, False, 0.5)


def test_wrong_group_label_fails():
    params = {"n": 6, "p": 1}
    assert checks.check_catalog("D4(6,1)", "dihedral", params, "O", True, True, 0.5, 0.5) == []
    assert checks.check_catalog("D4(6,1)", "dihedral", params, "D4", True, True, 0.5, 0.5)


def test_certificate_verdicts():
    dicke = {"n": 4, "k": 2}
    assert checks.check_catalog("S(4,2)", "dicke", dicke, "O(2)", True, True, 0.375, 0.375) == []
    assert checks.check_catalog("S(4,2)", "dicke", dicke, "O(2)", False, True, 0.375, 0.375)
    assert checks.check_catalog("S(4,2)", "dicke", dicke, "O(2)", True, False, None, None)
    assert checks.check_catalog("S(4,2)", "dicke", dicke, "O(2)", True, True, 0.374, 0.375)
    known = {"n": 6, "p": 2}
    assert checks.check_catalog("D2(6,2)", "dihedral", known, "D2", True, False, None, None) == []
    assert checks.check_catalog("D2(6,2)", "dihedral", known, "D2", True, True, 0.2, 0.2)


def test_slocc_verdicts():
    a = checks.expected_signature("dicke", {"n": 4, "k": 1})
    b = checks.expected_signature("dihedral", {"n": 4, "p": 0})
    assert a == (3, 1) and b == (1, 1, 1, 1)
    assert checks.check_slocc(a, b, False, "Inequivalent") == []
    assert checks.check_slocc(a, b, False, "Undetermined")
    assert checks.check_slocc(b, b, True, "Undetermined") == []
    assert checks.check_slocc(b, b, True, "Inequivalent")

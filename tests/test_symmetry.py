"""Point-group detection, total invariance, dihedral membership."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from majorana import (
    MajoranaConfig,
    contains_dihedral,
    detect_group,
    is_totally_invariant,
    to_majorana,
    random_symmetric_state,
)
from majorana import symmetry
from majorana.catalog import (
    SOLIDS,
    gen_dicke,
    gen_dihedral,
    gen_ghz,
    gen_platonic,
    gen_tetrahedral,
)
from majorana.symstate import Rotation, unit_to_angles

from helpers import perturb_config, random_rotation, rotate_points


def _config(state):
    return to_majorana(state)


def ring_config(m, theta, offset=0.0):
    points = np.array([[theta, (offset + 2 * np.pi * j / m) % (2 * np.pi)]
                       for j in range(m)])
    return MajoranaConfig(m, points)


def test_ghz_ring_is_dihedral():
    for n in (3, 4, 5, 7):
        report = detect_group(_config(gen_ghz(n)))
        assert report.label == f"D{n}"
        assert report.order == n
        assert abs(abs(report.axis[2]) - 1.0) < 1e-9
        assert report.totally_invariant


def test_bell_pair_is_o2():
    report = detect_group(_config(gen_ghz(2)))
    assert report.label == "O(2)"
    assert report.totally_invariant


def test_dicke_axial_groups():
    assert detect_group(_config(gen_dicke(4, 1))).label == "SO(2)"
    assert detect_group(_config(gen_dicke(4, 2))).label == "O(2)"
    assert detect_group(_config(gen_dicke(7, 3))).label == "SO(2)"
    assert detect_group(_config(gen_dicke(8, 4))).label == "O(2)"


def test_single_site_is_so3():
    cfg = MajoranaConfig(3, np.array([[0.7, 1.0]] * 3))
    report = detect_group(cfg)
    assert report.label == "SO(3)"
    assert not report.totally_invariant


def test_tetrahedral_detection():
    report = detect_group(_config(gen_tetrahedral()))
    assert report.label == "T"
    assert len(report.elements) == 12
    assert report.totally_invariant


def test_octahedral_detection():
    for solid in ("octahedron", "cube"):
        report = detect_group(_config(gen_platonic(solid)))
        assert report.label == "O", solid
        assert len(report.elements) == 24
        assert report.totally_invariant


def test_icosahedral_detection():
    for solid in ("icosahedron", "dodecahedron"):
        report = detect_group(_config(gen_platonic(solid)))
        assert report.label == "Y", solid
        assert len(report.elements) == 60
        assert report.totally_invariant


def test_rotated_solids_keep_their_groups():
    rng = np.random.default_rng(15)
    for solid, label in (("tetrahedron", "T"), ("cube", "O"), ("icosahedron", "Y")):
        cfg = _config(gen_platonic(solid))
        rotated = rotate_points(cfg, random_rotation(rng))
        report = detect_group(rotated)
        assert report.label == label, solid
        assert report.totally_invariant


def test_dihedral_family_detection():
    cases = {(3, 1): "D3", (5, 0): "D5", (4, 2): "D4", (2, 2): "D2"}
    for (m, p), label in cases.items():
        n = m + 2 * p
        report = detect_group(_config(gen_dihedral(n, p)))
        assert report.label == label, (m, p)
        assert report.totally_invariant


def test_dihedral_geometric_upgrades():
    # some small rings gain extra symmetry: a polar pair is a full circle
    # pattern, a square straddling the poles is D4, and a six-point ring
    # with polar caps is the octahedron
    assert detect_group(_config(gen_dihedral(2, 0))).label == "O(2)"
    assert detect_group(_config(gen_dihedral(4, 1))).label == "D4"
    assert detect_group(_config(gen_dihedral(6, 1))).label == "O"


def test_cone_ring_is_cyclic_not_invariant():
    cfg = ring_config(5, np.pi / 3)
    report = detect_group(cfg)
    assert report.label == "C5"
    assert not report.totally_invariant


def test_prism_is_dihedral_not_invariant():
    # two eclipsed rings mirrored through the equator
    top = ring_config(4, np.pi / 4).points
    bottom = ring_config(4, 3 * np.pi / 4).points
    cfg = MajoranaConfig(8, np.vstack([top, bottom]))
    report = detect_group(cfg)
    assert report.label == "D4"
    assert not report.totally_invariant


def test_doubled_cube_exceeds_orbit_cap():
    # the amplitude round trip smears a k-fold point by about eps^(1/k),
    # so tripled vertices need a looser detection tolerance
    report = detect_group(_config(gen_platonic("cube", 3)), tol=1e-4)
    assert report.label == "O"
    assert report.totally_invariant
    # a fourth copy exceeds the stable range; build the config directly
    verts = np.repeat(_config(gen_platonic("cube", 1)).points, 4, axis=0)
    report = detect_group(MajoranaConfig(32, verts))
    assert report.label == "O"
    assert not report.totally_invariant


def test_perturbation_destroys_invariance():
    rng = np.random.default_rng(44)
    for state in (gen_ghz(4), gen_dicke(4, 1), gen_dicke(4, 2), gen_tetrahedral()):
        cfg = _config(state)
        nudged = perturb_config(cfg, int(rng.integers(cfg.n)), 1e-3)
        report = detect_group(nudged)
        assert not report.totally_invariant


def test_random_state_is_trivial():
    rng = np.random.default_rng(100)
    cfg = _config(random_symmetric_state(6, rng))
    report = detect_group(cfg)
    assert report.label == "Trivial"
    assert len(report.elements) == 1
    assert not report.totally_invariant


def test_detection_tolerance_window():
    # a 1e-5 nudge is invisible at tol 1e-3 but fatal at 1e-7
    cfg = _config(gen_ghz(5))
    nudged = perturb_config(cfg, 0, 1e-5)
    assert detect_group(nudged, tol=1e-3).label == "D5"
    assert detect_group(nudged, tol=1e-7).label == "Trivial"


def test_is_totally_invariant_witness_strings():
    report = detect_group(_config(gen_dicke(5, 2)))
    ok, witness = is_totally_invariant(_config(gen_dicke(5, 2)), report, 1e-6)
    assert ok and "pole" in witness

    cfg = _config(gen_platonic("octahedron"))
    report = detect_group(cfg)
    ok, witness = is_totally_invariant(cfg, report, 1e-6)
    assert ok and "octahedron" in witness


def test_group_closure_is_complete():
    # products of any two detected elements stay in the detected set
    for state in (gen_ghz(4), gen_platonic("octahedron"), gen_tetrahedral()):
        report = detect_group(_config(state))
        mats = [e.matrix() for e in report.elements]
        for a in mats[:6]:
            for b in mats[:6]:
                prod = a @ b
                errs = [np.abs(prod - m).sum() for m in mats]
                assert min(errs) < 1e-9


def test_contains_dihedral():
    ghz4 = _config(gen_ghz(4))
    assert contains_dihedral(ghz4, 4)
    assert contains_dihedral(ghz4, 2)
    assert not contains_dihedral(ghz4, 3)

    bell = _config(gen_ghz(2))  # O(2) contains every dihedral subgroup
    assert contains_dihedral(bell, 2)
    assert contains_dihedral(bell, 7)

    w4 = _config(gen_dicke(4, 1))  # SO(2) has no perpendicular flips
    assert not contains_dihedral(w4, 2)

    octa = _config(gen_platonic("octahedron"))
    assert contains_dihedral(octa, 4)
    assert contains_dihedral(octa, 3)
    assert contains_dihedral(octa, 2)
    assert not contains_dihedral(octa, 5)

    with pytest.raises(ValueError):
        contains_dihedral(ghz4, 1)


def test_report_axis_is_unit_length():
    for state in (gen_ghz(6), gen_dicke(5, 1)):
        report = detect_group(_config(state))
        assert abs(np.linalg.norm(report.axis) - 1.0) < 1e-12


_SYMMETRIC = (gen_ghz(5), gen_dicke(6, 2), gen_dicke(5, 1), gen_dihedral(8, 2),
              gen_tetrahedral(), gen_platonic("octahedron"), gen_platonic("cube"),
              gen_platonic("icosahedron"), gen_platonic("dodecahedron"))


def _nudge(config, index, delta, psi):
    """Rotate one point by `delta` rad towards the direction at angle `psi`
    in its tangent plane."""
    vecs = config.unit_vectors().copy()
    u = vecs[index]
    e1 = symmetry._perpendicular(u)
    e2 = np.cross(u, e1)
    vecs[index] = Rotation(math.cos(psi) * e1 + math.sin(psi) * e2, delta).apply(u)
    theta, phi = unit_to_angles(vecs)
    return MajoranaConfig(config.n, np.column_stack([theta, phi]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(index=st.integers(0, len(_SYMMETRIC) - 1),
       axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1),
       angle=st.floats(0.0, 2.0 * math.pi),
       data=st.data())
def test_label_invariant_under_rotation_and_permutation(index, axis, angle, data):
    cfg = _config(_SYMMETRIC[index])
    expected = detect_group(cfg)
    rotated = rotate_points(cfg, Rotation(np.array(axis), angle))
    order = data.draw(st.permutations(range(cfg.n)))
    moved = MajoranaConfig(cfg.n, rotated.points[list(order)])
    report = detect_group(moved)
    assert (report.label, report.order) == (expected.label, expected.order)
    assert len(report.elements) == len(expected.elements)
    assert report.totally_invariant == expected.totally_invariant


@settings(max_examples=25, deadline=None, derandomize=True)
@given(where=st.floats(0.0, 1.0, exclude_max=True), psi=st.floats(0.0, 2.0 * math.pi))
def test_moving_one_point_breaks_each_solid(where, psi):
    for solid in SOLIDS:
        cfg = _config(gen_platonic(solid))
        full = detect_group(cfg)
        report = detect_group(_nudge(cfg, int(where * cfg.n), 1e-3, psi))
        assert report.label != full.label, solid
        assert len(report.elements) < len(full.elements), solid
        assert not report.totally_invariant, solid


# Reference implementations as plain loops.  The group: every power of each
# validated step is collected, then all pairs of rotations found are
# multiplied until nothing new appears, with membership tested against a
# stack rebuilt for each candidate.  Then candidate axes, the greedy line
# dedupe, axis bins and ring gcds, one rotation or one line at a time.


def _is_known(mats, candidate, mat_tol):
    stack = np.array(mats)
    return bool(np.min(np.abs(stack - candidate).sum(axis=(1, 2))) < mat_tol)


def _collect_rotations(axes, sites, mult, tol, n, mat_tol):
    mats = [np.eye(3)]
    for axis in axes:
        m = symmetry._max_cyclic_order(axis, sites, mult, tol, n)
        if m < 2:
            continue
        step = Rotation(axis, 2 * np.pi / m).matrix()
        mat = np.eye(3)
        for _ in range(m - 1):
            mat = step @ mat
            if not _is_known(mats, mat, mat_tol) and symmetry._maps_sites(mat, sites, mult, tol):
                mats.append(mat)
    return mats


def _close_group(mats, sites, mult, tol, mat_tol, cap=240):
    changed = True
    while changed and len(mats) <= cap:
        changed = False
        snapshot = list(mats)
        for a in snapshot:
            for b in snapshot:
                prod = a @ b
                if not _is_known(mats, prod, mat_tol):
                    if symmetry._maps_sites(prod, sites, mult, tol):
                        mats.append(prod)
                        changed = True
            if len(mats) > cap:
                break
    return mats


def _canonical_axis_loop(v):
    idx = int(np.argmax(np.abs(v)))
    return -v if v[idx] < 0 else v.copy()


def _candidate_axes_loop(sites, tol):
    raw = [s for s in sites]
    for i in range(len(sites)):
        for j in range(i + 1, len(sites)):
            for v in (sites[i] + sites[j], np.cross(sites[i], sites[j])):
                norm = np.linalg.norm(v)
                if norm > 1e-8:
                    raw.append(v / norm)
    threshold = math.cos(min(10.0 * tol, 0.1))
    kept = []
    for v in raw:
        v = _canonical_axis_loop(v)
        if not kept or not np.any(np.abs(np.array(kept) @ v) >= threshold):
            kept.append(v)
    return np.array(kept)


def _first_on_each_line_loop(units, threshold):
    keep = np.zeros(len(units), dtype=bool)
    for i, v in enumerate(units):
        keep[i] = not np.any(np.abs(units[keep] @ v) >= threshold)
    return keep


def _axis_bins_loop(rotations, axis_tol):
    bins = []
    for rot in rotations:
        axis = _canonical_axis_loop(rot.axis)
        for entry in bins:
            if abs(float(entry["axis"] @ axis)) >= math.cos(axis_tol):
                entry["count"] += 1
                break
        else:
            bins.append({"axis": axis, "count": 1})
    return [(entry["axis"], entry["count"]) for entry in bins]


def _ring_gcd_loop(axis, sites, tol):
    lat = sites @ axis
    values = np.sort(lat[np.abs(lat) < math.cos(tol)])
    g = start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[i - 1] > 2.0 * tol:
            g = math.gcd(g, i - start)
            start = i
    return g


def _orbit_config(elements, rng, orbits=1):
    """Generic orbits of a detected group, seeded, as a configuration."""
    vecs = []
    for _ in range(orbits):
        v = rng.normal(size=3)
        vecs += [e.apply(v / np.linalg.norm(v)) for e in elements]
    theta, phi = unit_to_angles(np.array(vecs))
    return MajoranaConfig(len(vecs), np.column_stack([theta, phi]))


def _reference_configs():
    rng = np.random.default_rng(2024)
    solids = [_config(gen_platonic(s)) for s in ("cube", "icosahedron", "dodecahedron")]
    rotated = [rotate_points(cfg, random_rotation(rng)) for cfg in solids]
    groups = [detect_group(cfg).elements for cfg in solids[:2] + [_config(gen_tetrahedral())]]
    orbits = [_orbit_config(elements, rng, orbits) for elements in groups for orbits in (1, 2)
              if len(elements) * orbits <= 48]
    dihedral = [_config(gen_dihedral(n, p)) for n, p in ((7, 1), (12, 0), (14, 4))]
    noise = [_config(random_symmetric_state(n, rng)) for n in (2, 5, 11, 30)]
    return solids + rotated + orbits + dihedral + noise


def test_closure_matches_pairwise_reference():
    for cfg in _reference_configs():
        tol = 1e-6
        mat_tol = max(symmetry._MAT_TOL, 4.0 * tol)
        sites, mult = symmetry._site_decomposition(cfg, tol)
        report = detect_group(cfg)
        # all candidate axes, and the generator axes alone, which leave most
        # of the group to the closure
        for axes in (symmetry._candidate_axes(sites, mult, tol),
                     np.array([g.axis for g in report.generators])):
            collected = _collect_rotations(axes, sites, mult, tol, cfg.n, mat_tol)
            reference = np.array(_close_group(collected, sites, mult, tol, mat_tol))
            found = symmetry._generate_group(axes, sites, mult, tol, cfg.n, mat_tol)
            assert found.shape == reference.shape
            gaps = np.abs(found[:, None] - reference[None]).max(axis=(2, 3))
            assert gaps.min(axis=0).max() < 1e-12 and gaps.min(axis=1).max() < 1e-12
        # the census bins the reported elements as the loop did
        nonid = report.elements[1:]
        bins = symmetry._axis_bins(nonid, mat_tol)
        expected = sorted(_axis_bins_loop(nonid, mat_tol),
                          key=lambda e: (-e[1], tuple(np.round(-e[0], 9))))
        assert [e["count"] for e in bins] == [count for _, count in expected]
        for entry, (axis, _) in zip(bins, expected):
            assert np.array_equal(entry["axis"], axis)


def test_vectorised_axes_match_loops():
    for cfg in _reference_configs():
        sites, mult = symmetry._site_decomposition(cfg, 1e-6)
        if np.linalg.norm(mult @ sites) > 1e-5 * mult.sum():
            continue  # the centroid shortcut returns one axis either way
        axes = symmetry._candidate_axes(sites, mult, 1e-6)
        expected = _candidate_axes_loop(sites, 1e-6)
        assert axes.shape == expected.shape
        np.testing.assert_allclose(axes, expected, rtol=0, atol=1e-15)
        for axis in axes:
            assert symmetry._ring_gcd(axis, sites, 1e-6) == _ring_gcd_loop(axis, sites, 1e-6)


def test_line_dedupe_matches_greedy_loop_on_chains():
    # lines 0.03 rad apart at a 0.05 rad threshold form chains, where the
    # greedy keeps every other line; 400 rows span several blocks
    rng = np.random.default_rng(7)
    starts = rng.normal(size=(40, 3))
    units = []
    for start in starts:
        axis = symmetry._perpendicular(start / np.linalg.norm(start))
        units += [Rotation(axis, 0.03 * k).apply(start / np.linalg.norm(start))
                  for k in range(10)]
    units = np.array(units)[rng.permutation(400)]
    units[rng.random(400) < 0.5] *= -1.0
    threshold = math.cos(0.05)
    keep = symmetry._first_on_each_line(units, threshold)
    assert np.array_equal(keep, _first_on_each_line_loop(units, threshold))
    assert 40 < keep.sum() < 400


def test_half_turn_axes_ignore_rounding_noise():
    # at angle pi the quaternion's w is rounding noise: a +-1e-15
    # antisymmetric term flips its sign, which must not flip the axis
    skew = np.array([[0.0, -1.0, 0.3], [1.0, 0.0, -0.7], [-0.3, 0.7, 0.0]])
    for state in (gen_platonic("octahedron"), gen_platonic("icosahedron"),
                  gen_tetrahedral(), gen_dihedral(8, 2)):
        report = detect_group(_config(state))
        mats = np.array([rot.matrix() for rot in report.elements])
        half_turns = [abs(rot.angle - math.pi) < 1e-6 for rot in report.elements]
        assert any(half_turns)
        expected = symmetry._classify(mats)[4]
        for sign in (1.0, -1.0):
            noisy = mats.copy()
            noisy[half_turns] += sign * 1e-15 * skew
            elements = symmetry._classify(noisy)[4]
            assert len(elements) == len(expected)
            for got, want in zip(elements, expected):
                assert abs(got.angle - want.angle) < 1e-12
                np.testing.assert_allclose(got.axis, want.axis, rtol=0, atol=1e-12)

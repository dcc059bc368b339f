"""Point-group detection, total invariance, dihedral membership."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from majorana import (
    MajoranaConfig,
    contains_dihedral,
    detect_group,
    to_majorana,
    random_symmetric_state,
)
from majorana import symmetry
from majorana.catalog import (
    SOLIDS,
    totally_invariant_states,
    gen_dicke,
    gen_dihedral,
    gen_ghz,
    gen_platonic,
    gen_tetrahedral,
    platonic_vertices,
)
from majorana.symstate import (COINCIDENCE_TOL, Rotation, _axis_angle, site_decomposition,
                               unit_to_angles)

from helpers import (PRODUCT_THETAS, config_of, cuboctahedron, icosidodecahedron, perturb_config,
                     product_states, random_rotation, rotate_points)


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
    report = detect_group(_config(gen_dicke(5, 2)), 1e-6)
    assert report.totally_invariant and "pole" in report.witness

    report = detect_group(_config(gen_platonic("octahedron")), 1e-6)
    assert report.totally_invariant and "octahedron" in report.witness


def test_group_closure_is_complete():
    # the element stack is read-only and starts with the exact identity,
    # products of any two elements stay in it, and each site's stabiliser
    # order times its orbit's size is the group order; the continuous kinds
    # list no elements
    reference = _reference_configs()
    configs = ([_config(state) for state in (gen_ghz(4), gen_platonic("octahedron"),
                                             gen_tetrahedral())]
               + reference + _catalog_configs())
    assert len(configs) == 3 + len(reference) + 144
    finite = 0
    for cfg in configs:
        report = detect_group(cfg)
        mats = report.elements
        assert mats.shape[1:] == (3, 3) and not mats.flags.writeable
        if not len(mats):
            assert report.kind in (symmetry.SO2, symmetry.O2, symmetry.SO3)
            continue
        finite += 1
        assert np.array_equal(mats[0], np.eye(3))
        products = np.einsum("aij,bjk->abik", mats, mats).reshape(-1, 1, 3, 3)
        assert np.abs(products - mats[None]).max(axis=(2, 3)).min(axis=1).max() <= 1e-12
        sites, _ = site_decomposition(cfg.unit_vectors(), COINCIDENCE_TOL)
        orders = symmetry._stabiliser_orders(sites, mats, COINCIDENCE_TOL)
        images = np.argmax((sites @ mats.transpose(0, 2, 1)) @ sites.T, axis=2)
        orbits = [len(set(images[:, i])) for i in range(len(sites))]
        np.testing.assert_array_equal(orders * orbits, len(mats))
    assert finite >= 57


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


def test_contains_dihedral_rejects_non_integer_orders():
    # 5 % 2.5 == 0 once read D5 as holding a "D2.5", and a NaN order as not
    # holding it; orders that are not integers, bools included, now raise
    d5 = _config(gen_dihedral(5, 0))
    assert detect_group(d5).label == "D5"
    for m in (2.5, 5.0, float("nan"), float("inf"), True, False, "5", None):
        with pytest.raises(ValueError):
            contains_dihedral(d5, m)
    for m in (1, 0, -5, np.int64(1)):
        with pytest.raises(ValueError, match="at least 2"):
            contains_dihedral(d5, m)
    assert contains_dihedral(d5, np.int64(5))


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


def test_contains_dihedral_agrees_with_detected_solid():
    # a vertex nudged by 1e-5 rad keeps the solid's group at tol 1e-4 and
    # 1e-3, so it keeps that group's dihedral subgroups too
    subgroups = {"tetrahedron": ("T", {2}), "octahedron": ("O", {2, 3, 4}),
                 "icosahedron": ("Y", {2, 3, 5})}
    for solid, (label, orders) in subgroups.items():
        cfg = _config(gen_platonic(solid))
        for psi in (0.0, 1.0):
            moved = _nudge(cfg, 0, 1e-5, psi)
            for tol in (1e-4, 1e-3):
                assert detect_group(moved, tol).label == label, (solid, psi, tol)
                found = {m for m in range(2, 13) if contains_dihedral(moved, m, tol)}
                assert found == orders, (solid, psi, tol)


def test_dihedral_label_agrees_with_its_listed_turns():
    # a D5(9,2) ring point nudged by exactly the tolerance can hide some
    # rotations from the listing; a D_m label must still list only powers of
    # 2 pi/m about its axis, or give way to the cyclic group of the turns
    cfg = _config(gen_dihedral(9, 2))
    labels = set()
    for index in np.flatnonzero((cfg.points[:, 0] > 0.1) & (cfg.points[:, 0] < 3.0)):
        for j in range(12):
            report = detect_group(_nudge(cfg, index, 1e-5, math.pi * j / 6), 1e-5)
            labels.add(report.label)
            if report.kind == symmetry.DIHEDRAL:
                axes, angles = _axis_angle(report.elements[1:])
                turns = angles[np.abs(axes @ report.axis) >= math.cos(1e-3)]
                step = 2 * math.pi / report.order
                assert np.all(np.abs(turns - step * np.round(turns / step)) <= 1e-3)
    assert labels == {"Trivial", "C2", "C5"}


def test_cyclic_fallback_takes_its_order_from_the_listed_turns():
    # a census count of 3 with 2 pi/5 turns listed is C5, not C3; a lone
    # 0.26 rad near-rotation (two sites closer than 2 tol) generates no
    # cyclic group on three sites, so nothing is reported
    z = np.array([0.0, 0.0, 1.0])
    fifths = np.stack([np.eye(3)] + [Rotation(z, 2 * math.pi * k / 5).matrix() for k in (1, 2)])
    kind, order, _, _, elements = symmetry._classify(fifths, 7)
    assert (kind, order, len(elements)) == (symmetry.CYCLIC, 5, 5)
    near = np.stack([np.eye(3), Rotation(z, 0.26).matrix()])
    kind, order, _, _, elements = symmetry._classify(near, 3)
    assert (kind, order, len(elements)) == (symmetry.TRIVIAL, 0, 1)


# Reference implementation of the axis bins as a plain greedy loop, one
# rotation at a time.


def _canonical_axis_loop(v):
    # the first entry within 1e-9 of the largest magnitude decides the sign
    top = max(abs(c) for c in v)
    lead = next(c for c in v if abs(c) >= top - 1e-9)
    return -v if lead < 0 else v.copy()


def _axis_bins_loop(axes, axis_tol):
    bins = []
    for axis in axes:
        axis = _canonical_axis_loop(axis)
        for entry in bins:
            if abs(float(entry["axis"] @ axis)) >= math.cos(axis_tol):
                entry["count"] += 1
                break
        else:
            bins.append({"axis": axis, "count": 1})
    return [(entry["axis"], entry["count"]) for entry in bins]


def _orbit_config(elements, rng, orbits=1):
    """Generic orbits of a detected group, seeded, as a configuration."""
    vecs = []
    for _ in range(orbits):
        v = rng.normal(size=3)
        vecs += list(elements @ (v / np.linalg.norm(v)))
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


def test_axis_bins_match_greedy_loop():
    for cfg in _reference_configs():
        mat_tol = max(symmetry._MAT_TOL, 4.0 * 1e-6)
        report = detect_group(cfg)
        # the census bins the reported elements as the loop did
        axes, _ = _axis_angle(report.elements[1:])
        bin_axes, orders = symmetry._axis_bins(axes, mat_tol)
        expected = sorted(_axis_bins_loop(axes, mat_tol),
                          key=lambda e: (-e[1], tuple(np.round(-e[0], 9))))
        assert (orders - 1).tolist() == [count for _, count in expected]
        assert len(bin_axes) == len(expected)
        for axis, (expected_axis, _) in zip(bin_axes, expected):
            assert np.array_equal(axis, expected_axis)


def _catalog_configs():
    """The 144 catalog states: the inventory n = 3..14 plus the three solids."""
    states = [entry.state for n in range(3, 15) for entry in totally_invariant_states(n)]
    states += [gen_platonic(solid) for solid in ("cube", "icosahedron", "dodecahedron")]
    return [_config(state) for state in states]


def _closed_group(generators):
    """Every product of the generator matrices, by a plain breadth-first loop."""
    mats, frontier = [np.eye(3)], [np.eye(3)]
    while frontier:
        fresh = []
        for mat in frontier:
            for gen in generators:
                prod = gen @ mat
                if min(np.abs(prod - known).max() for known in mats) > 1e-9:
                    mats.append(prod)
                    fresh.append(prod)
        frontier = fresh
    return np.array(mats)


def _turn(axis, order):
    return Rotation(np.array(axis, dtype=float), 2 * np.pi / order).matrix()


_GOLDEN = (1 + 5 ** 0.5) / 2
_KNOWN_GROUPS = {
    "T": [_turn((0, 0, 1), 2), _turn((1, 1, 1), 3)],
    "O": [_turn((0, 0, 1), 4), _turn((1, 1, 1), 3)],
    "Y": [_turn((0, 1, _GOLDEN), 5), _turn((1, 1, 1), 3)],
    **{f"C{m}": [_turn((0, 0, 1), m)] for m in range(3, 9)},
    **{f"D{m}": [_turn((0, 0, 1), m), _turn((1, 0, 0), 2)] for m in range(3, 9)},
}


def test_detection_matches_known_groups():
    # one and two generic orbits of each group, turned by a random r: the
    # detected elements must be r G r^-1.  No site, pair sum or pair cross
    # product of a generic T orbit lies on a three-fold axis.
    rng = np.random.default_rng(8)
    for label, generators in _KNOWN_GROUPS.items():
        group = _closed_group(generators)
        for orbits in (1, 2):
            turn = random_rotation(rng).matrix()
            starts = rng.normal(size=(orbits, 3))
            starts /= np.linalg.norm(starts, axis=1)[:, None]
            vecs = np.concatenate([turn @ group @ start for start in starts])
            theta, phi = unit_to_angles(vecs)
            report = detect_group(MajoranaConfig(len(vecs), np.column_stack([theta, phi])))
            assert report.label == label, (label, orbits)
            found = report.elements
            expected = turn @ group @ turn.T
            assert found.shape == expected.shape, (label, orbits)
            gaps = np.abs(found[:, None] - expected[None]).max(axis=(2, 3))
            assert gaps.min(axis=0).max() < 1e-12 and gaps.min(axis=1).max() < 1e-12


def test_sixty_four_points():
    ring = _config(gen_ghz(64))
    report = detect_group(ring)
    assert report.label == "D64"
    assert len(report.elements) == 128
    noise = _config(random_symmetric_state(64, np.random.default_rng(64)))
    assert detect_group(noise, tol=0.1).label == "Trivial"
    # at tol 5e-2 the ring's 0.098 rad spacing is within 2 tol, so
    # near-rotations pass as symmetries; the report degrades to a cyclic
    # group no larger than the ring
    report = detect_group(ring, tol=5e-2)
    assert report.kind == symmetry.CYCLIC
    assert report.order <= 64


def _assert_same_elements(noisy, expected, trial=None):
    """The census of `noisy` lists the rotations of `expected` (an
    `_element_order` of the clean stack) in the same order, with the same
    axes and angles."""
    want_mats, want_axes, want_angles = expected
    stack = symmetry._classify(noisy, len(noisy))[4]
    _, axes, angles = symmetry._element_order(noisy)
    assert len(stack) == len(want_mats), trial
    np.testing.assert_allclose(stack, want_mats, rtol=0, atol=1e-12)
    assert np.abs(angles - want_angles).max() < 1e-12, trial
    np.testing.assert_allclose(axes, want_axes, rtol=0, atol=1e-12)


def test_half_turn_axes_ignore_rounding_noise():
    # at angle pi the quaternion's w is rounding noise: a +-1e-15
    # antisymmetric term flips its sign, which must not flip the axis
    skew = np.array([[0.0, -1.0, 0.3], [1.0, 0.0, -0.7], [-0.3, 0.7, 0.0]])
    for state in (gen_platonic("octahedron"), gen_platonic("icosahedron"),
                  gen_tetrahedral(), gen_dihedral(8, 2)):
        report = detect_group(_config(state))
        mats = report.elements
        half_turns = np.abs(_axis_angle(mats)[1] - math.pi) < 1e-6
        assert any(half_turns)
        expected = symmetry._element_order(mats)
        for sign in (1.0, -1.0):
            noisy = mats.copy()
            noisy[half_turns] += sign * 1e-15 * skew
            _assert_same_elements(noisy, expected)


def test_half_turn_order_survives_seeded_noise():
    # axes such as (1, -1, 0)/sqrt(2) tie in their largest magnitudes, so
    # generic noise, not only an antisymmetric term, may reorder the two
    rng = np.random.default_rng(1215)
    for state in (gen_platonic("octahedron"), gen_platonic("cube"), gen_dihedral(8, 2)):
        report = detect_group(_config(state))
        mats = report.elements
        half_turns = np.abs(_axis_angle(mats)[1] - math.pi) < 1e-6
        expected = symmetry._element_order(mats)
        for trial in range(200):
            noisy = mats.copy()
            noisy[half_turns] += 1e-15 * rng.standard_normal((half_turns.sum(), 3, 3))
            _assert_same_elements(noisy, expected, trial)


def test_cyclic_fallback_lists_its_group():
    # at tol 5e-2 near-rotations of the 64-point ring pass as symmetries;
    # the cyclic report lists the powers of its generator, not all of them
    tol = 5e-2
    report = detect_group(_config(gen_ghz(64)), tol=tol)
    assert report.kind == symmetry.CYCLIC
    assert len(report.elements) == report.order <= 64
    mats = report.elements
    assert np.array_equal(mats[0], np.eye(3))
    products = np.einsum("aij,bjk->abik", mats, mats).reshape(-1, 1, 3, 3)
    gaps = np.abs(products - mats[None]).max(axis=(2, 3)).min(axis=1)
    assert gaps.max() <= max(symmetry._MAT_TOL, 4.0 * tol)


def test_product_states_are_so3():
    rng = np.random.default_rng(15)
    for n in range(1, 65):
        for theta in PRODUCT_THETAS:
            for state in product_states(n, theta, rng.uniform(0.0, 2.0 * np.pi), rng):
                assert detect_group(to_majorana(state)).label == "SO(3)", (n, theta)


def test_two_fold_axis_witness():
    # the cuboctahedron and the icosidodecahedron lie on the two-fold axes of
    # O and Y, which the pattern leaves empty: the verdict stays False, and
    # the witness names the axis
    assert len(icosidodecahedron()) == 30
    for vecs, label in ((cuboctahedron(), "O"), (icosidodecahedron(), "Y")):
        report = detect_group(config_of(vecs))
        assert report.label == label
        assert not report.totally_invariant
        assert report.witness == "a point lies on a two-fold axis, which the pattern leaves empty"


def _dihedral_vecs(m, p):
    """m singly occupied equatorial points plus p points at each pole."""
    ring = [(math.cos(2 * math.pi * k / m), math.sin(2 * math.pi * k / m), 0.0)
            for k in range(m)]
    return np.array(ring + [(0.0, 0.0, 1.0)] * p + [(0.0, 0.0, -1.0)] * p)


def _verdict_cases():
    """(vectors, label, totally_invariant) for the states whose pattern
    verdict disagrees with rigidity: True although a stack of m points sits
    on a site of stabiliser order k <= m, or False although every site is
    pinned."""
    cube, octa = platonic_vertices("cube"), platonic_vertices("octahedron")
    ico = platonic_vertices("icosahedron")
    tetrahedron = cube[np.prod(cube, axis=1) > 0]  # in the octahedron's frame
    cubocta, icosid = cuboctahedron(), icosidodecahedron()
    dihedral = [(_dihedral_vecs(n - 2 * p, p), f"D{n - 2 * p}", True)
                for n, p in ((6, 2), (8, 3), (9, 3), (10, 4), (11, 4), (12, 4), (12, 5),
                             (13, 5), (14, 5), (14, 6))]
    return dihedral + [
        (np.repeat(cube, 3, axis=0), "O", True),
        (np.vstack([tetrahedron, np.repeat(octa, 2, axis=0)]), "T", True),
        (np.repeat(octa, 3, axis=0), "O", False),
        (np.repeat(ico, 4, axis=0), "Y", False),
        (cubocta, "O", False),
        (np.vstack([octa, cubocta]), "O", False),
        (np.vstack([cube, cubocta]), "O", False),
        (np.vstack([octa, cube, cubocta]), "O", False),
        (icosid, "Y", False),
        (np.vstack([ico, icosid]), "Y", False),
    ]


def test_pattern_verdicts_that_rigidity_contradicts():
    # the pattern verdict is kept as it is (the catalog is built on it), in
    # any orientation and across the detection tolerances
    rng = np.random.default_rng(14)
    turns = [np.eye(3)] + [random_rotation(rng).matrix() for _ in range(4)]
    for vecs, label, invariant in _verdict_cases():
        for turn in turns:
            config = config_of(vecs @ turn.T)
            for tol in (1e-6, 1e-4, 1e-3):
                report = detect_group(config, tol)
                assert (report.label, report.totally_invariant) == (label, invariant), \
                    (label, len(vecs), tol)


def test_stabiliser_orders():
    # how many listed rotations fix each site: 3 on a three-fold axis, 4 and
    # 5 on the four- and five-fold axes, 2 on a two-fold axis, 1 elsewhere
    rng = np.random.default_rng(13)
    cube = platonic_vertices("cube")
    point = rng.normal(size=3)
    generic = detect_group(config_of(cube)).elements @ (point / np.linalg.norm(point))
    cases = [(platonic_vertices("tetrahedron"), 3), (cube, 3),
             (platonic_vertices("dodecahedron"), 3), (platonic_vertices("octahedron"), 4),
             (platonic_vertices("icosahedron"), 5), (cuboctahedron(), 2), (generic, 1)]
    for vecs, order in cases:
        for turn in (np.eye(3), random_rotation(rng).matrix()):
            sites, mult = site_decomposition(vecs @ turn.T, COINCIDENCE_TOL)
            mats = symmetry._list_group(sites, mult, COINCIDENCE_TOL)
            orders = symmetry._stabiliser_orders(sites, mats, COINCIDENCE_TOL)
            assert len(orders) == len(vecs) and np.all(orders == order), (len(vecs), order)


@pytest.mark.parametrize("n, tol", [(64, 0.1), (40, 0.16), (6, 1.1), (3, 2.2)])
def test_cancelling_cluster_is_refused(n, tol):
    # the GHZ ring merges into one cluster whose points sum to rounding noise
    # (1.7e-14 long for GHZ64): it has no mean direction to report
    config = to_majorana(gen_ghz(n))
    with pytest.raises(ValueError, match=f"tolerance {tol:g} cancel"):
        detect_group(config, tol)
    with pytest.raises(ValueError, match="no mean direction"):
        contains_dihedral(config, 2, tol)
    with pytest.raises(ValueError, match="no mean direction"):
        site_decomposition(config.unit_vectors(), tol)


def test_merged_cluster_that_does_not_cancel_keeps_its_direction():
    # W4's three north points and one south point merge at tol 4 and sum to
    # 2 z: SO(3) about +-z
    report = detect_group(to_majorana(gen_dicke(4, 1)), 4.0)
    assert report.label == "SO(3)"
    assert abs(abs(report.axis[2]) - 1.0) <= 1e-15

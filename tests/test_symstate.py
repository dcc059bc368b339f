"""State/configuration conversions, rotations, clustering, JSON forms."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from majorana import (
    MajoranaConfig,
    Rotation,
    SchemaError,
    SymmetricState,
    coherent_amplitudes,
    config_close,
    gen_dicke,
    gen_dihedral,
    log_overlap_sq,
    log_overlap_sq_gradient,
    parse_json_text,
    random_symmetric_state,
    rotate,
    rotate_state,
    state_fidelity,
    to_dicke,
    to_json_dict,
    to_json_text,
    to_majorana,
)
from majorana import symmetry, symstate
from majorana.symstate import (_axis_angle, _cross, _norms, angles_to_unit, binomial_weights,
                               cluster_directions, pairwise_angles, parse_json_dict,
                               site_decomposition)

from helpers import PRODUCT_THETAS, perturb_config, product_states, random_rotation


def test_binomial_weights_match_comb():
    for n in (1, 4, 9, 30):
        expected = [math.comb(n, k) for k in range(n + 1)]
        np.testing.assert_allclose(binomial_weights(n) ** 2, expected, rtol=1e-13)


def test_binomial_weights_cached_read_only_and_unchanged():
    for n in (0, 1, 4, 9, 30, 64):
        weights = binomial_weights(n)
        assert binomial_weights(n) is weights
        assert not weights.flags.writeable
        with pytest.raises(ValueError):
            weights[0] = 2.0
        # the uncached formula, bit for bit
        fresh = np.sqrt(np.array([math.comb(n, k) for k in range(n + 1)], dtype=float))
        assert np.array_equal(weights, fresh)


def test_state_validation():
    with pytest.raises(ValueError):
        SymmetricState(3, np.zeros(4))
    with pytest.raises(ValueError):
        SymmetricState(3, np.ones(3))
    with pytest.raises(ValueError):
        SymmetricState(0, np.ones(1))
    s = SymmetricState(1, [3.0, 4.0])
    assert abs(np.linalg.norm(s.amps) - 1.0) < 1e-14


def test_state_accepts_amplitudes_near_float_range():
    s = SymmetricState(1, [1e308, 1e308])
    np.testing.assert_allclose(s.amps, [2 ** -0.5, 2 ** -0.5], rtol=1e-15)
    s = SymmetricState(2, [complex(1.5e308, 1.5e308), 0.0, -1e308])
    assert abs(np.linalg.norm(s.amps) - 1.0) < 1e-14
    np.testing.assert_allclose(s.amps[0] / s.amps[2], complex(-1.5, -1.5), rtol=1e-14)
    payload = {"n": 1, "dicke": [{"re": 1e308, "im": 0}, {"re": 1e308, "im": 0}]}
    np.testing.assert_allclose(parse_json_text(json.dumps(payload)).amps,
                               [2 ** -0.5, 2 ** -0.5], rtol=1e-15)
    for bad in ([np.inf, 0.0], [np.nan, 1.0], [1e-13, 0.0]):
        with pytest.raises(ValueError):
            SymmetricState(1, bad)


def test_config_rejects_non_finite_points_and_phase():
    for points, phase in (([[np.nan, 0.0]], 0.0), ([[0.5, np.inf]], 0.0),
                          ([[0.5, 1.0]], np.inf), ([[0.5, 1.0]], -np.inf),
                          ([[0.5, 1.0]], np.nan)):
        with pytest.raises(ValueError):
            MajoranaConfig(1, points, phase)
    assert MajoranaConfig(1, [[0.5, 1.0]], 7.0).global_phase == 7.0 % (2 * np.pi)


def test_json_rejects_non_finite_numbers():
    for literal in ("NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400):
        text = '{"n": 1, "majorana": [{"theta": %s, "phi": 0.0}], "phase": 0.0}' % literal
        with pytest.raises(SchemaError) as err:
            parse_json_text(text)
        assert err.value.path == "$.majorana[0].theta"
        text = '{"n": 1, "dicke": [{"re": 1, "im": 0}, {"re": %s, "im": 0}]}' % literal
        with pytest.raises(SchemaError) as err:
            parse_json_text(text)
        assert err.value.path == "$.dicke[1].re"
    with pytest.raises(SchemaError) as err:
        parse_json_text('{"n": 1' + "0" * 5000 + "}")
    assert err.value.path == "$"


_JUNK = st.one_of(st.integers(), st.integers(-(10 ** 400), 10 ** 400), st.booleans(),
                  st.none(), st.text(max_size=2))


@st.composite
def _payloads(draw):
    """Objects near the schema: mostly the right n, lengths and keys, with
    any float (NaN and infinities included) or, now and then, a non-float."""
    def value():
        return draw(st.floats() if draw(st.integers(0, 9)) else _JUNK)

    odd_n = st.one_of(st.integers(-1, 5), _JUNK)
    n = draw(st.integers(1, 5) if draw(st.integers(0, 4)) else odd_n)
    data = {"n": n}
    forms = draw(st.sampled_from([("dicke",), ("majorana",), ("dicke", "majorana"), ()]))
    for form in forms:
        keys = ("re", "im") if form == "dicke" else ("theta", "phi")
        size = draw(st.integers(0, 7))
        if isinstance(n, int) and draw(st.integers(0, 4)):
            size = max(n + (form == "dicke"), 0)
        data[form] = [{key: value() for key in keys if draw(st.integers(0, 19))}
                      for _ in range(size)]
    if draw(st.booleans()):
        data["phase"] = value()
    return data


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_payloads())
def test_parse_json_dict_fuzz(data):
    # only SchemaError escapes, and whatever parses is finite standard JSON
    try:
        parsed = parse_json_dict(data)
    except SchemaError:
        return
    if isinstance(parsed, SymmetricState):
        assert np.all(np.isfinite(parsed.amps))
    else:
        assert np.all(np.isfinite(parsed.points)) and math.isfinite(parsed.global_phase)
    assert json.loads(to_json_text(parsed)) == to_json_dict(parsed)


def test_state_amplitudes_frozen():
    s = SymmetricState(2, [1.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        s.amps[0] = 5.0


def test_ghz3_points_form_equatorial_triangle():
    ghz = SymmetricState(3, [1.0, 0.0, 0.0, 1.0])
    cfg = to_majorana(ghz)
    thetas = cfg.points[:, 0]
    np.testing.assert_allclose(thetas, np.pi / 2, atol=1e-12)
    phis = np.sort(cfg.points[:, 1])
    np.testing.assert_allclose(np.diff(phis), 2 * np.pi / 3, atol=1e-12)


def test_dicke_points_split_between_poles():
    # k zero roots at the south pole, n-k infinite roots at the north pole
    amps = np.zeros(6)
    amps[2] = 1.0
    cfg = to_majorana(SymmetricState(5, amps))
    north = np.sum(cfg.points[:, 0] == 0.0)
    south = np.sum(cfg.points[:, 0] == np.pi)
    assert north == 3 and south == 2


def test_round_trip_preserves_phase():
    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 11, 17):
        for _ in range(5):
            state = random_symmetric_state(n, rng)
            back = to_dicke(to_majorana(state))
            np.testing.assert_allclose(back.amps, state.amps, atol=1e-9)


def test_config_round_trip():
    rng = np.random.default_rng(11)
    for n in (2, 4, 7):
        points = np.column_stack([np.arccos(rng.uniform(-1, 1, n)),
                                  rng.uniform(0, 2 * np.pi, n)])
        cfg = MajoranaConfig(n, points)
        again = to_majorana(to_dicke(cfg))
        assert config_close(cfg, again, tol=1e-8)


def test_degree_cap():
    # construction alone is fine; only the conversions are capped
    state = random_symmetric_state(65, np.random.default_rng(0))
    with pytest.raises(ValueError):
        to_majorana(state)


def test_rotate_matches_direct_construction():
    rng = np.random.default_rng(8)
    state = random_symmetric_state(6, rng)
    cfg = to_majorana(state)
    rot = random_rotation(rng)
    rotated = rotate(cfg, rot)
    expected = cfg.unit_vectors() @ rot.matrix().T
    got = rotated.unit_vectors()
    # compare as multisets of directions
    cost = got @ expected.T
    assert np.all(np.max(cost, axis=0) > 1.0 - 1e-12)


def test_rotate_state_preserves_fidelity_structure():
    rng = np.random.default_rng(21)
    state = random_symmetric_state(5, rng)
    rot = random_rotation(rng)
    rotated = rotate_state(state, rot)
    # rotation is unitary on the symmetric subspace
    assert abs(np.linalg.norm(rotated.amps) - 1.0) < 1e-12
    back = rotate_state(rotated, rot.inverse())
    assert state_fidelity(back, state) > 1.0 - 1e-12


def _cluster_config(rng, n: int, k: int) -> MajoranaConfig:
    """A k-fold point plus n - k further random points."""
    points = np.column_stack([np.arccos(rng.uniform(-1, 1, n - k + 1)),
                              rng.uniform(0, 2 * np.pi, n - k + 1)])
    return MajoranaConfig(n, np.vstack([np.repeat(points[:1], k, axis=0), points[1:]]))


def test_rotate_state_is_exact_on_large_clusters():
    # a 46-fold cluster is smeared by any root finder, so a rotation that
    # went through the roots would lose fidelity; the spin-n/2 action does not
    rng = np.random.default_rng(46)
    for _ in range(10):
        config = _cluster_config(rng, 53, 46)
        rot = random_rotation(rng)
        expected = to_dicke(rotate(config, rot))
        assert state_fidelity(rotate_state(to_dicke(config), rot), expected) >= 1.0 - 1e-12


def test_clusters_round_trip_to_full_fidelity():
    # a k-fold point makes the polynomial flat near it, so its roots are
    # smeared by about eps^(1/k); unpolished companion eigenvalues still
    # reproduce the state
    rng = np.random.default_rng(10)
    for n, k, count in [(8, 4, 20), (10, 6, 20), (12, 8, 20), (53, 46, 10)]:
        for _ in range(count):
            state = to_dicke(_cluster_config(rng, n, k))
            assert state_fidelity(state, to_dicke(to_majorana(state))) >= 1.0 - 1e-12, k


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_rotation_rejects_non_finite_angle(angle):
    with pytest.raises(ValueError, match="angle"):
        Rotation(np.array([0.0, 0.0, 1.0]), angle)


@pytest.mark.parametrize("call", [
    lambda: coherent_amplitudes(4, math.nan, 0.0),
    lambda: coherent_amplitudes(4, 0.3, math.inf),
    lambda: log_overlap_sq(gen_dicke(4, 1), math.nan, 0.0),
    lambda: log_overlap_sq_gradient(gen_dicke(4, 1), 0.2, math.inf),
], ids=["amplitudes-theta", "amplitudes-phi", "log-overlap-theta", "gradient-phi"])
def test_non_finite_angles_are_refused(call):
    # a NaN or infinite angle must not come back as a NaN answer
    with pytest.raises(ValueError, match="must be finite"):
        call()


def _axis_angle_loop(mat):
    """Reference for `_axis_angle`, one matrix at a time: the quaternion off
    the largest of the diagonal and the trace (Shepperd), signed w >= 0 and
    at w = 0 with the first nonzero of x, y, z positive."""
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
        return np.array([0.0, 0.0, 1.0]), 0.0
    return np.array(q[:3]) / norm, angle


def test_axis_angle_matches_scalar_loop():
    # the vectorised converter against the one-matrix loop: seeded rotations,
    # the identity and near-identity and near-half-turn angles, exact
    # half-turns about coordinate and tie axes, and half-turns whose
    # quaternion w is a +-1e-15 antisymmetric term, which picks the sign
    rng = np.random.default_rng(2201)
    mats = [random_rotation(rng).matrix() for _ in range(500)]
    mats += [Rotation(rng.normal(size=3), rng.uniform(-7.0, 7.0)).matrix() for _ in range(500)]
    mats += [np.eye(3)] + [Rotation(rng.normal(size=3), angle).matrix()
                           for angle in (1e-9, math.pi - 1e-12) for _ in range(20)]
    skew = np.array([[0.0, -1.0, 0.3], [1.0, 0.0, -0.7], [-0.3, 0.7, 0.0]])
    ties = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (-1, 1, 0), (0, 1, -1), (1, 0, 1),
            (1, 1, 1), (1, -1, 1), (-1, -1, 1)]
    for axis in ties:
        axis = np.array(axis, dtype=float) / np.linalg.norm(axis)
        half = 2.0 * np.outer(axis, axis) - np.eye(3)
        mats += [half, half + 1e-15 * skew, half - 1e-15 * skew]
    axes, angles = _axis_angle(np.array(mats))
    for mat, axis, angle in zip(mats, axes, angles):
        want_axis, want_angle = _axis_angle_loop(mat)
        assert abs(angle - want_angle) <= 1e-15
        np.testing.assert_allclose(axis, want_axis, rtol=0, atol=1e-15)
        assert float(axis @ want_axis) > 0.0


def test_rotation_from_matrix_rejects_non_rotations():
    # -I and a reflection are orthogonal with det -1, a NaN matrix is not
    # finite, and a scaled rotation is not orthogonal: none is a rotation
    turn = Rotation(np.array([1.0, 2.0, 3.0]), 0.4).matrix()
    for mat in (-np.eye(3), np.diag([1.0, 1.0, -1.0]), np.full((3, 3), np.nan),
                1.01 * turn, 2.0 * turn):
        with pytest.raises(ValueError, match="orthogonal"):
            Rotation.from_matrix(mat)
    assert abs(Rotation.from_matrix(turn).angle - 0.4) < 1e-15


def test_rotations_compare_by_identity_and_hash():
    # an ndarray field cannot take part in dataclass equality, so rotations
    # compare and hash as objects, like states
    a, b = Rotation([0.0, 0.0, 1.0], 1.0), Rotation([0.0, 0.0, 1.0], 1.0)
    assert a == a and not (a != a)
    assert (a == b) is False and (a != b) is True
    assert len({a, b, a}) == 2


def test_bool_qubit_count_is_refused():
    # bool is an int subclass; True must not pass for n = 1
    with pytest.raises(ValueError, match="positive integer"):
        SymmetricState(True, [1.0, 1.0])
    with pytest.raises(ValueError, match="positive integer"):
        MajoranaConfig(True, [[0.1, 0.2]])


def test_integer_parameters_are_checked():
    # numpy reads a bool index as a mask: gen_dicke(3, True) once set every
    # amplitude, gen_dihedral(6, True) gave the uniform vector, and
    # coherent_amplitudes took True for one qubit and 0 for a 1-vector
    cases = [(gen_dicke, (3, True), "at least 0"), (gen_dicke, (3, 1.0), "at least 0"),
             (gen_dicke, (3, -1), "at least 0"), (gen_dihedral, (6, True), "at least 0"),
             (gen_dihedral, (6, 1.0), "at least 0"), (gen_dihedral, (6, -1), "at least 0"),
             (coherent_amplitudes, (True, 0.3, 0.2), "positive integer"),
             (coherent_amplitudes, (0, 0.3, 0.2), "positive integer"),
             (coherent_amplitudes, (-1, 0.3, 0.2), "positive integer"),
             (coherent_amplitudes, (2.0, 0.3, 0.2), "positive integer")]
    for func, args, message in cases:
        with pytest.raises(ValueError, match=message):
            func(*args)
    np.testing.assert_array_equal(gen_dicke(3, np.int64(1)).amps, [0, 1, 0, 0])
    np.testing.assert_array_equal(gen_dihedral(6, np.int64(1)).amps,
                                  np.array([0, 1, 0, 0, 0, 1, 0]) / math.sqrt(2))
    assert coherent_amplitudes(np.int64(2), 0.3, 0.2).shape == (3,)


def test_rotation_compose_inverse():
    rng = np.random.default_rng(5)
    a, b = random_rotation(rng), random_rotation(rng)
    ab = a.compose(b)
    v = rng.normal(size=3)
    np.testing.assert_allclose(ab.apply(v), a.apply(b.apply(v)), atol=1e-12)
    ident = a.compose(a.inverse())
    np.testing.assert_allclose(ident.matrix(), np.eye(3), atol=1e-12)
    again = Rotation.from_matrix(a.matrix())
    np.testing.assert_allclose(again.matrix(), a.matrix(), atol=1e-12)


def test_coherent_amplitudes_dicke_overlap():
    # equatorial coherent state against the balanced four-qubit Dicke state
    amps = np.zeros(5)
    amps[2] = 1.0
    overlap = np.vdot(coherent_amplitudes(4, np.pi / 2, 0.0), SymmetricState(4, amps).amps)
    assert abs(abs(overlap) - 0.6123724356957945) < 1e-12


def test_coherent_amplitudes_normalized():
    rng = np.random.default_rng(2)
    for _ in range(5):
        theta = rng.uniform(0, np.pi)
        phi = rng.uniform(0, 2 * np.pi)
        coh = coherent_amplitudes(7, theta, phi)
        assert abs(np.linalg.norm(coh) - 1.0) < 1e-12


def test_coherent_matrix_matches_power_formula():
    # the cumulative-product kernel against the direct pow formula
    from majorana.symstate import angles_to_unit, binomial_weights, coherent_matrix
    rng = np.random.default_rng(8)
    theta = np.concatenate([[0.0, 1e-9, np.pi / 2, np.pi - 1e-9, np.pi],
                            rng.uniform(0, np.pi, 20)])
    phi = np.concatenate([[0.0, 1.0, 2.0, 3.0, 4.0], rng.uniform(0, 2 * np.pi, 20)])
    for n in range(1, 65):
        k = np.arange(n + 1)
        expected = (binomial_weights(n) * np.cos(theta / 2)[:, None] ** (n - k)
                    * (np.sin(theta / 2) * np.exp(1j * phi))[:, None] ** k)
        rows = coherent_matrix(n, angles_to_unit(theta, phi))
        np.testing.assert_allclose(rows, expected, rtol=0, atol=1e-13)
        np.testing.assert_array_equal(coherent_amplitudes(n, theta[7], phi[7]), rows[7])


def test_coherent_amplitudes_is_the_spinor_row():
    # canonical angles go straight to the spinor kernel, with no unit-vector
    # round trip to move them by an ulp
    from majorana.symstate import _binomial_rows, _spinors
    rng = np.random.default_rng(17)
    for _ in range(1000):
        n, theta, phi = int(rng.integers(1, 65)), rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        np.testing.assert_array_equal(coherent_amplitudes(n, theta, phi),
                                      _binomial_rows(*_spinors(theta, phi), n)[0])
    # theta outside [0, pi] is wrapped as the canonical point form wraps it
    np.testing.assert_allclose(coherent_amplitudes(6, -0.3, 1.0),
                               coherent_amplitudes(6, 0.3, 1.0 + np.pi), rtol=0, atol=1e-15)


def test_coherent_rows_are_exact_at_the_poles():
    from majorana.symstate import coherent_matrix
    for n in (1, 5, 64):
        rows = coherent_matrix(n, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        np.testing.assert_array_equal(rows, np.eye(n + 1)[[0, n]])


def test_product_states_convert_to_one_exact_point():
    # however a product state is built, it converts to its exact n-fold
    # point rather than to n roots smeared by about eps^(1/n)
    rng = np.random.default_rng(12)
    for n in range(1, 65):
        for theta in PRODUCT_THETAS:
            for state in product_states(n, theta, rng.uniform(0.0, 2.0 * np.pi), rng):
                config = to_majorana(state)
                assert np.array_equal(config.points, np.tile(config.points[0], (n, 1))), \
                    (n, theta)
                assert state_fidelity(state, to_dicke(config)) >= 1.0 - 1e-14, (n, theta)


def test_pole_coherent_overlap_reads_off_amplitude():
    state = SymmetricState(3, [1.0, 0.0, 0.0, 1.0])
    north = np.vdot(coherent_amplitudes(3, 0.0, 0.0), state.amps)
    south = np.vdot(coherent_amplitudes(3, np.pi, 0.0), state.amps)
    assert abs(north - state.amps[0]) < 1e-14
    assert abs(abs(south) - abs(state.amps[3])) < 1e-14


def test_pairwise_angles_and_clusters():
    points = np.array([[0.0, 0.0], [1e-9, 1.0], [np.pi / 2, 0.0], [np.pi, 0.0]])
    cfg = MajoranaConfig(4, points)
    vecs = cfg.unit_vectors()
    angles = pairwise_angles(vecs, vecs)
    assert angles.shape == (4, 4)
    np.testing.assert_array_equal(pairwise_angles(vecs[:2], vecs), angles[:2])
    assert abs(angles[0, 3] - np.pi) < 1e-12
    # full relative precision at coincident and antipodal pairs
    assert abs(angles[0, 1] - 1e-9) < 1e-22
    assert abs(angles[1, 3] - (np.pi - 1e-9)) < 1e-15
    clusters = cluster_directions(vecs, tol=1e-6)
    sizes = sorted(len(c) for c in clusters)
    assert sizes == [1, 1, 2]


def test_cluster_chain_linkage():
    # points spaced just under tol chain into one cluster
    thetas = np.array([0.0, 8e-7, 1.6e-6])
    points = np.column_stack([thetas, np.zeros(3)])
    clusters = cluster_directions(MajoranaConfig(3, points).unit_vectors(), tol=1e-6)
    assert len(clusters) == 1


def _union_find_clusters(vecs, tol):
    # plain single-linkage reference: union every pair within tol
    parent = list(range(len(vecs)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    angles = pairwise_angles(vecs, vecs)
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            if angles[i, j] <= tol:
                ri, rj = find(i), find(j)
                parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(len(vecs)):
        groups.setdefault(find(i), []).append(i)
    return [groups[r] for r in sorted(groups)]


def test_clusters_match_union_find_reference():
    rng = np.random.default_rng(29)
    for case in range(300):
        n = int(rng.integers(1, 65))
        tol = float(rng.choice([1e-6, 1e-3, 2e-3, 5e-2, 0.5]))
        if case % 3 == 0:
            vecs = rng.standard_normal((n, 3))
        else:
            # shuffled chains: steps of 0.3-1.7 tol along a circle offset by one of
            # three base directions, with a fifth of the points on its start
            steps = tol * rng.uniform(0.3, 1.7, n)
            theta = np.cumsum(steps) * (rng.random(n) < 0.8)
            base = rng.standard_normal((3, 3))[rng.integers(0, 3, n)]
            base /= np.linalg.norm(base, axis=1)[:, None]
            vecs = base + np.column_stack([np.cos(theta), np.sin(theta), np.zeros(n)])
            vecs = vecs[rng.permutation(n)]
        vecs /= np.linalg.norm(vecs, axis=1)[:, None]
        clusters = cluster_directions(vecs, tol)
        assert [c.tolist() for c in clusters] == _union_find_clusters(vecs, tol), (case, n, tol)


def _breadth_first_clusters(vecs, tol):
    # plain single-linkage reference: grow each cluster from its smallest
    # unvisited index, one layer of neighbours at a time
    near = pairwise_angles(vecs, vecs) <= tol
    seen, clusters = np.zeros(len(vecs), dtype=bool), []
    for start in range(len(vecs)):
        if seen[start]:
            continue
        seen[start], members, frontier = True, [start], [start]
        while frontier:
            grown = [j for i in frontier for j in np.flatnonzero(near[i] & ~seen)]
            frontier = sorted(set(grown))
            seen[frontier] = True
            members += frontier
        clusters.append(sorted(members))
    return clusters


def test_reversed_chains_rings_and_clusters_match_breadth_first_reference():
    # listed in reverse, a chain's smallest index sits at its far end, which
    # min-label propagation alone reaches one link per sweep
    rng = np.random.default_rng(41)
    for case in range(240):
        n = int(rng.integers(1, 65))
        tol = float(10.0 ** rng.uniform(-6.0, math.log10(0.5)))
        axis = rng.standard_normal(3)
        e1, e2 = np.linalg.qr(np.column_stack([axis, rng.standard_normal((3, 2))]))[0][:, 1:].T
        if case % 3 == 0:
            # a chain along a great circle: steps of 0.5-0.99 tol, a tenth of
            # them breaking it with 1.01-1.5 tol
            steps = tol * np.where(rng.random(n) < 0.9, rng.uniform(0.5, 0.99, n),
                                   rng.uniform(1.01, 1.5, n))
            theta = np.cumsum(steps)
        elif case % 3 == 1:
            # a ring of n evenly spaced points, tol just above or below the gap
            tol = 2.0 * math.pi / n * float(rng.choice([0.98, 1.02]))
            theta = 2.0 * math.pi * np.arange(n) / n
        else:
            # a few centres along the circle, each point jittered by about tol
            centres = rng.uniform(0.0, 2.0 * math.pi, int(rng.integers(1, 9)))
            theta = centres[rng.integers(0, len(centres), n)] + tol * rng.standard_normal(n)
        vecs = np.outer(np.cos(theta), e1) + np.outer(np.sin(theta), e2)
        vecs = vecs[::-1] / np.linalg.norm(vecs[::-1], axis=1)[:, None]
        clusters = cluster_directions(vecs, tol)
        assert [c.tolist() for c in clusters] == _breadth_first_clusters(vecs, tol), (case, n)


def _kernel_arrays(rng):
    """Seeded real arrays of shapes (n, 3), (n, n, 3) and (G, S, 3), n up to
    64, with a fifth of their entries replaced by signed zeros."""
    arrays = []
    for n in (1, 2, 7, 33, 64):
        points = rng.standard_normal((n, 3))
        arrays += [points, points[:, None, :] - points[None, :, :],
                   rng.standard_normal((int(rng.integers(1, 61)), n, 3))]
    for array in arrays:
        zeros = rng.random(array.shape) < 0.2
        array[zeros] = np.where(rng.random(array.shape) < 0.5, 0.0, -0.0)[zeros]
    return arrays


def test_point_kernels_match_numpy_bit_for_bit():
    # `_norms` and `_cross` are the package's one axis-wise norm and cross
    # product of real point arrays, with numpy's bits
    rng = np.random.default_rng(43)
    for a in _kernel_arrays(rng):
        b = rng.permutation(a.reshape(-1, 3)).reshape(a.shape)
        assert _norms(a).shape == a.shape[:-1]
        assert _norms(a).tobytes() == np.linalg.norm(a, axis=-1).tobytes(), a.shape
        assert _cross(a, b).tobytes() == np.cross(a, b).tobytes(), a.shape
        assert _cross(a[-1, ...], b[0, ...]).tobytes() == np.cross(a[-1], b[0]).tobytes()
    assert symmetry._norms is symstate._norms and symmetry._cross is symstate._cross


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_clustering_tolerance_must_be_finite_and_positive(tol):
    from majorana import degeneracy_signature, detect_group
    from majorana.catalog import gen_dicke, gen_ghz
    vecs = to_majorana(gen_ghz(4)).unit_vectors()
    with pytest.raises(ValueError, match="tolerance"):
        cluster_directions(vecs, tol)
    with pytest.raises(ValueError, match="tolerance"):
        detect_group(to_majorana(gen_ghz(4)), tol)
    with pytest.raises(ValueError, match="tolerance"):
        degeneracy_signature(to_majorana(gen_dicke(4, 1)), tol)
    # a NaN or negative matching tolerance must not read as "no match"
    config = to_majorana(gen_ghz(4))
    with pytest.raises(ValueError, match="tolerance"):
        config_close(config, config, tol)


def _site_decomposition_loop(vecs, tol):
    # the per-cluster reference: each cluster's members summed in index order
    clusters = cluster_directions(vecs, tol)
    sites = np.array([vecs[idx].sum(axis=0) for idx in clusters])
    sites /= np.linalg.norm(sites, axis=1)[:, None]
    return sites, np.array([len(idx) for idx in clusters])


def test_site_decomposition_matches_per_cluster_loop():
    # bit for bit, signed zeros included, on clusters, chains and polar stacks
    rng = np.random.default_rng(31)
    poles = np.array([[0.0, 0.0, 1.0], [-0.0, 0.0, 1.0], [0.0, -0.0, -1.0], [-0.0, -0.0, -1.0]])
    for case in range(300):
        n = int(rng.integers(1, 65))
        tol = float(10.0 ** rng.uniform(-6.0, math.log10(0.5)))
        if case % 3 == 0:
            # a few centres, each point jittered by about tol
            centres = rng.standard_normal((int(rng.integers(1, 9)), 3))
            centres /= np.linalg.norm(centres, axis=1)[:, None]
            vecs = centres[rng.integers(0, len(centres), n)] + tol * rng.standard_normal((n, 3))
        elif case % 3 == 1:
            # shuffled chains: steps of 0.3-1.7 tol along a circle
            theta = np.cumsum(tol * rng.uniform(0.3, 1.7, n))
            base = rng.standard_normal((2, 3))[rng.integers(0, 2, n)]
            base /= np.linalg.norm(base, axis=1)[:, None]
            vecs = base + np.column_stack([np.cos(theta), np.sin(theta), np.zeros(n)])
            vecs = vecs[rng.permutation(n)]
        else:
            # polar stacks with signed zeros among generic points
            k = int(rng.integers(0, n + 1))
            vecs = np.vstack([poles[rng.integers(0, 4, k)], rng.standard_normal((n - k, 3))])
            vecs = vecs[rng.permutation(n)]
        vecs /= np.linalg.norm(vecs, axis=1)[:, None]
        sites, mult = site_decomposition(vecs, tol)
        expected_sites, expected_mult = _site_decomposition_loop(vecs, tol)
        assert sites.shape == expected_sites.shape, (case, n, tol)
        assert sites.tobytes() == expected_sites.tobytes(), (case, n, tol)
        assert mult.dtype == expected_mult.dtype and mult.tolist() == expected_mult.tolist()


def test_unit_vectors_are_read_only_and_built_once():
    cfg = to_majorana(random_symmetric_state(9, np.random.default_rng(5)))
    units = cfg.unit_vectors()
    assert not units.flags.writeable
    assert cfg.unit_vectors() is units
    np.testing.assert_array_equal(units, angles_to_unit(cfg.points[:, 0], cfg.points[:, 1]))
    with pytest.raises(ValueError):
        units[0, 0] = 1.0


def test_one_angle_matrix_per_configuration(monkeypatch):
    # detection, signatures and known ranks all read one configuration's
    # unit vectors and angle matrix
    from majorana import degeneracy_signature, detect_group, slocc, symmetry
    from majorana.catalog import gen_platonic
    from majorana.slocc import known_rank
    config = to_majorana(gen_platonic("cube", 2))  # 16 points on 8 sites
    built = {"units": 0, "angles": 0}

    def counting_units(*args):
        built["units"] += 1
        return angles_to_unit(*args)

    def counting_angles(va, vb):
        # the listing's angles between the 8 sites are not the configuration's
        built["angles"] += len(va) == config.n
        return pairwise_angles(va, vb)

    monkeypatch.setattr(symstate, "angles_to_unit", counting_units)
    for module in (symstate, symmetry, slocc):
        # raising=False: a module that does not import the name gains it
        # for the test, so no call path escapes the count
        monkeypatch.setattr(module, "pairwise_angles", counting_angles, raising=False)
    report = detect_group(config)
    signatures = [degeneracy_signature(config) for _ in range(2)]
    ranks = [known_rank(config) for _ in range(2)]
    assert built == {"units": 1, "angles": 1}
    assert report.label == "O" and signatures[0] is signatures[1]
    assert signatures[0].multiplicities == (2,) * 8 and ranks == [None, None]


def test_config_close_permutation_and_perturbation():
    rng = np.random.default_rng(13)
    points = np.column_stack([np.arccos(rng.uniform(-1, 1, 5)),
                              rng.uniform(0, 2 * np.pi, 5)])
    cfg = MajoranaConfig(5, points)
    shuffled = MajoranaConfig(5, points[rng.permutation(5)])
    assert config_close(cfg, shuffled, tol=1e-10)
    nudged = perturb_config(cfg, 2, 1e-3)
    assert not config_close(cfg, nudged, tol=1e-5)
    assert config_close(cfg, nudged, tol=1e-2)
    # pair angles (1e-3 units): a0-b0 0, a0-b1 0.90, a1-b0 0.90, a1-b1 1.49.
    # The least-total pairing takes the 1.49 pair; the crossed one is within tol.
    turn = math.radians(112.0)
    a = MajoranaConfig(2, np.array([[1.0, 0.5], [1.0009, 0.5]]))
    b = MajoranaConfig(2, np.array([[1.0, 0.5], [1.0 + 0.0009 * math.cos(turn),
                                                 0.5 + 0.0009 * math.sin(turn) / math.sin(1.0)]]))
    assert config_close(a, b, tol=1e-3)
    assert config_close(b, a, tol=1e-3)
    assert not config_close(a, b, tol=8.9e-4)


def test_config_equality_ignores_phase():
    points = np.array([[0.5, 0.5], [1.0, 1.0]])
    assert MajoranaConfig(2, points, 0.3) == MajoranaConfig(2, points, 2.9)


def test_json_round_trip_both_forms():
    rng = np.random.default_rng(17)
    state = random_symmetric_state(4, rng)
    again = parse_json_text(to_json_text(state))
    assert isinstance(again, SymmetricState)
    np.testing.assert_allclose(again.amps, state.amps, atol=1e-15)

    cfg = to_majorana(state)
    again = parse_json_text(to_json_text(cfg))
    assert isinstance(again, MajoranaConfig)
    assert config_close(cfg, again, tol=1e-12)
    assert abs(again.global_phase - cfg.global_phase) < 1e-12


def test_canonical_form_is_a_fixed_point():
    # rebuilding a config from its own points, or from its own JSON, changes nothing
    rng = np.random.default_rng(64)
    for n in range(1, 65):
        for _ in range(5):
            cfg = to_majorana(random_symmetric_state(n, rng))
            again = MajoranaConfig(cfg.n, cfg.points, cfg.global_phase)
            np.testing.assert_array_equal(again.points, cfg.points)
            assert again.global_phase == cfg.global_phase
            text = to_json_text(cfg)
            assert parse_json_text(text) == cfg
            assert to_json_text(parse_json_text(text)) == text


def test_canonical_angles_wrap_without_trigonometry():
    # theta above pi reflects and turns phi by pi; a wrap to exactly 2 pi is 0
    cfg = MajoranaConfig(3, [[-0.3, 0.2], [2 * np.pi - 0.5, 1.0], [1.0, -1e-300]], -1e-300)
    np.testing.assert_allclose(cfg.points, [[0.3, 0.2 + np.pi], [0.5, 1.0 + np.pi],
                                            [1.0, 0.0]], rtol=0, atol=1e-15)
    assert cfg.points[2, 1] == 0.0 and cfg.global_phase == 0.0
    poles = MajoranaConfig(2, [[-1e-300, 2.0], [3 * np.pi, 2.0]])
    np.testing.assert_array_equal(poles.points, [[0.0, 0.0], [np.pi, 0.0]])


def test_json_schema_errors_carry_paths():
    with pytest.raises(SchemaError) as err:
        parse_json_text("{not json")
    assert err.value.path == "$"

    with pytest.raises(SchemaError) as err:
        parse_json_text(json.dumps({"n": 2}))
    assert err.value.path == "$"

    with pytest.raises(SchemaError) as err:
        parse_json_text(json.dumps({"n": -1, "dicke": []}))
    assert err.value.path == "$.n"

    payload = {"n": 2, "dicke": [{"re": 1, "im": 0}, {"re": 0, "im": 0},
                                 {"re": 0, "im": "x"}]}
    with pytest.raises(SchemaError) as err:
        parse_json_text(json.dumps(payload))
    assert err.value.path == "$.dicke[2].im"

    payload = {"n": 1, "majorana": [{"theta": 0.1}], "phase": 0.0}
    with pytest.raises(SchemaError) as err:
        parse_json_text(json.dumps(payload))
    assert err.value.path == "$.majorana[0].phi"

    both = {"n": 1, "dicke": [{"re": 1, "im": 0}, {"re": 0, "im": 0}],
            "majorana": [{"theta": 0.0, "phi": 0.0}], "phase": 0.0}
    with pytest.raises(SchemaError):
        parse_json_text(json.dumps(both))


def test_json_dict_shapes():
    state = SymmetricState(1, [1.0, 2.0])
    d = to_json_dict(state)
    assert set(d) == {"n", "dicke"}
    cfg = to_majorana(state)
    d = to_json_dict(cfg)
    assert set(d) == {"n", "majorana", "phase"}

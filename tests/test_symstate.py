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
    cluster_directions,
    coherent_amplitudes,
    config_close,
    make_state,
    overlap_product,
    pairwise_angles,
    parse_json_dict,
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
from majorana.symstate import binomial_weights

from helpers import perturb_config, random_rotation


def test_binomial_weights_match_comb():
    for n in (1, 4, 9, 30):
        expected = [math.comb(n, k) for k in range(n + 1)]
        np.testing.assert_allclose(binomial_weights(n) ** 2, expected, rtol=1e-13)


def test_state_validation():
    with pytest.raises(ValueError):
        SymmetricState(3, np.zeros(4))
    with pytest.raises(ValueError):
        SymmetricState(3, np.ones(3))
    with pytest.raises(ValueError):
        SymmetricState(0, np.ones(1))
    s = make_state([3.0, 4.0])
    assert abs(np.linalg.norm(s.amps) - 1.0) < 1e-14


def test_state_accepts_amplitudes_near_float_range():
    s = make_state([1e308, 1e308])
    np.testing.assert_allclose(s.amps, [2 ** -0.5, 2 ** -0.5], rtol=1e-15)
    s = make_state([complex(1.5e308, 1.5e308), 0.0, -1e308])
    assert abs(np.linalg.norm(s.amps) - 1.0) < 1e-14
    np.testing.assert_allclose(s.amps[0] / s.amps[2], complex(-1.5, -1.5), rtol=1e-14)
    payload = {"n": 1, "dicke": [{"re": 1e308, "im": 0}, {"re": 1e308, "im": 0}]}
    np.testing.assert_allclose(parse_json_text(json.dumps(payload)).amps,
                               [2 ** -0.5, 2 ** -0.5], rtol=1e-15)
    for bad in ([np.inf, 0.0], [np.nan, 1.0], [1e-13, 0.0]):
        with pytest.raises(ValueError):
            make_state(bad)


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
    s = make_state([1.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        s.amps[0] = 5.0


def test_ghz3_points_form_equatorial_triangle():
    ghz = make_state([1.0, 0.0, 0.0, 1.0])
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
    overlap = overlap_product(SymmetricState(4, amps), np.pi / 2, 0.0)
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


def test_pole_coherent_overlap_reads_off_amplitude():
    state = make_state([1.0, 0.0, 0.0, 1.0])
    assert abs(overlap_product(state, 0.0, 0.0) - state.amps[0]) < 1e-14
    assert abs(abs(overlap_product(state, np.pi, 0.0)) - abs(state.amps[3])) < 1e-14


def test_pairwise_angles_and_clusters():
    points = np.array([[0.0, 0.0], [1e-9, 1.0], [np.pi / 2, 0.0], [np.pi, 0.0]])
    cfg = MajoranaConfig(4, points)
    vecs = cfg.unit_vectors()
    angles = pairwise_angles(vecs)
    assert angles.shape == (4, 4)
    assert abs(angles[0, 3] - np.pi) < 1e-12
    clusters = cluster_directions(vecs, tol=1e-6)
    sizes = sorted(len(c) for c in clusters)
    assert sizes == [1, 1, 2]


def test_cluster_chain_linkage():
    # points spaced just under tol chain into one cluster
    thetas = np.array([0.0, 8e-7, 1.6e-6])
    points = np.column_stack([thetas, np.zeros(3)])
    clusters = cluster_directions(MajoranaConfig(3, points).unit_vectors(), tol=1e-6)
    assert len(clusters) == 1


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
    state = make_state([1.0, 2.0])
    d = to_json_dict(state)
    assert set(d) == {"n", "dicke"}
    cfg = to_majorana(state)
    d = to_json_dict(cfg)
    assert set(d) == {"n", "majorana", "phase"}

"""Acceptance suite: one test per release criterion, strict tolerances.

Each criterion is a single test function so that `pytest -v` prints one
pass/fail line per criterion.  Expected numbers were fixed in advance from
closed forms or the independent grid oracle, never from the optimizer
under test.
"""
import math
import time

import numpy as np
import pytest

from majorana import (
    MajoranaConfig,
    certify_equivalence,
    coherent_amplitudes,
    contains_dihedral,
    degeneracy_signature,
    detect_group,
    four_qubit_table,
    geometric_measure,
    grid_oracle,
    log_overlap_sq,
    log_overlap_sq_gradient,
    random_symmetric_state,
    rotate_state,
    slocc_distinguish,
    state_fidelity,
    to_dicke,
    to_majorana,
)
from majorana.catalog import (
    gen_dicke,
    gen_dihedral,
    gen_ghz,
    gen_platonic,
    gen_tetrahedral,
    totally_invariant_states,
)
from majorana.slocc import INEQUIVALENT, UNDETERMINED

from helpers import isotypic_multiplicity, perturb_config, random_rotation, rotate_points


def dicke_lambda(n: int, k: int) -> float:
    return math.comb(n, k) * (k / n) ** k * ((n - k) / n) ** (n - k)


def dihedral_cases():
    return [(m, p) for m in range(2, 9) for p in range(0, 4) if m + 2 * p <= 14]


def test_criterion_1_round_trip_fidelity():
    rng = np.random.default_rng(2026)
    start = time.perf_counter()
    for n in range(2, 21):
        for _ in range(1000):
            state = random_symmetric_state(n, rng)
            back = to_dicke(to_majorana(state))
            assert state_fidelity(state, back) >= 1.0 - 1e-9, n
    assert time.perf_counter() - start < 30.0


def test_criterion_2_ghz_measure_and_maximizer():
    for n in range(3, 11):
        result = geometric_measure(gen_ghz(n))
        assert abs(result.eg - 1.0) <= 1e-6, n
        assert abs(math.cos(result.theta)) >= 1.0 - 1e-6, n


def test_criterion_3_dicke_closed_form_and_oracle():
    for n in range(2, 9):
        for k in range(1, n):
            expected = dicke_lambda(n, k)
            fast = geometric_measure(gen_dicke(n, k))
            assert abs(fast.lam - expected) <= 1e-8, (n, k)
            slow = grid_oracle(gen_dicke(n, k), resolution=300)
            assert abs(slow.lam - expected) <= 1e-4, (n, k)


def test_criterion_4_tetrahedral_state():
    state = gen_tetrahedral()
    result = geometric_measure(state)
    assert abs(result.eg - math.log2(3.0)) <= 1e-6
    vecs = to_majorana(state).unit_vectors()
    dots = vecs @ vecs.T
    off = dots[~np.eye(4, dtype=bool)]
    target = math.acos(-1.0 / 3.0)
    assert np.all(np.abs(np.arccos(np.clip(off, -1, 1)) - target) <= 1e-6)


def test_criterion_5_symmetry_detection_with_perturbation():
    cases = [
        (gen_tetrahedral(), "T"),
        (gen_ghz(4), "D4"),
        (gen_dicke(4, 1), "SO(2)"),
        (gen_dicke(4, 2), "O(2)"),
    ]
    for state, label in cases:
        config = to_majorana(state)
        report = detect_group(config)
        assert report.label == label
        assert report.totally_invariant, label
        nudged = perturb_config(config, 0, 1e-3)
        assert not detect_group(nudged).totally_invariant, label


def test_criterion_6_dihedral_catalog():
    # Three small members carry more symmetry than the generic D_m ring:
    # the two-point "ring" is an antipodal pair (full axial symmetry), the
    # square straddling the poles is D4 about another axis, and the
    # octahedron case is the full octahedral group.  The dihedral subgroup
    # requirement still holds for every member and is asserted directly.
    upgrades = {(2, 0): "O(2)", (2, 1): "D4", (4, 1): "O"}
    for m, p in dihedral_cases():
        n = m + 2 * p
        config = to_majorana(gen_dihedral(n, p))
        report = detect_group(config)
        expected = upgrades.get((m, p), f"D{m}")
        assert report.label == expected, (m, p)
        assert report.totally_invariant, (m, p)
        assert contains_dihedral(config, m), (m, p)


def distance_from_orbit_span(state, direction, report) -> float:
    """Distance of psi from the span of the product states along the group
    orbit of `direction`."""
    theta, phi = direction
    unit = np.array([math.sin(theta) * math.cos(phi),
                     math.sin(theta) * math.sin(phi), math.cos(theta)])
    columns = []
    for x, y, z in report.elements @ unit:
        columns.append(coherent_amplitudes(state.n, math.acos(np.clip(z, -1.0, 1.0)),
                                           math.atan2(y, x)))
    span = np.array(columns).T
    coef = np.linalg.lstsq(span, state.amps, rcond=None)[0]
    return float(np.linalg.norm(state.amps - span @ coef))


def test_criterion_7_twirl_certificates():
    # The group-average certificate (Hayashi et al., PRA 77, 012104) needs
    # psi's isotypic multiplicity to be 1.  Where it is 2 or more, a valid
    # certificate would put psi in the span of its closest product states,
    # which for n >= 3 are the coherent states along the global maximizers
    # (Huebener et al., PRA 80, 032324); these form the group orbit of the
    # optimizer's direction.  psi lying clear of that span shows that no
    # separable certificate of any form exists, and the test demands the
    # certificate to fail there instead.
    states = []
    for n in range(2, 11):
        for k in range(1, n):
            states.append((f"S({n},{k})", gen_dicke(n, k)))
    for m, p in dihedral_cases():
        n = m + 2 * p
        states.append((f"D{m}({n},{p})", gen_dihedral(n, p)))
    states.append(("T", gen_tetrahedral()))
    states.append(("octahedron", gen_platonic("octahedron")))
    assert len(states) == 75

    failures = []
    excused = set()
    for name, state in states:
        ent = geometric_measure(state)
        report = detect_group(to_majorana(state))
        cert = certify_equivalence(state, ent, report)
        multiplicity = isotypic_multiplicity(state, report)
        if cert.multiplicity != multiplicity:
            failures.append(f"{name} (multiplicity {cert.multiplicity}, "
                            f"expected {multiplicity})")
            continue
        if multiplicity >= 2:
            distance = distance_from_orbit_span(state, (ent.theta, ent.phi), report)
            if cert.valid or cert.delta_min_eig >= -1e-6 or distance < 0.05:
                failures.append(f"{name} (multiplicity {multiplicity}, min eig "
                                f"{cert.delta_min_eig:+.4f}, span distance {distance:.3f})")
            excused.add(name)
            continue
        ok = (cert.valid
              and abs(cert.overlap - cert.lambda_claimed) <= 1e-6
              and cert.delta_min_eig >= -1e-9
              and abs(cert.delta_psi_component) <= 1e-9)
        if not ok:
            failures.append(f"{name} (min eig {cert.delta_min_eig:+.4f})")

    # negative control: an off-equator ring keeps C_m but must not certify
    theta = math.pi / 3
    points = np.array([[theta, 2 * math.pi * j / 3] for j in range(3)])
    cone = MajoranaConfig(3, points)
    cone_state = to_dicke(cone)
    cone_cert = certify_equivalence(cone_state, geometric_measure(cone_state),
                                    detect_group(cone))
    assert not cone_cert.valid

    assert not failures, "certificates failed for: " + ", ".join(failures)
    assert excused == {"D2(6,2)", "D2(8,3)", "D3(9,3)"}


def test_criterion_8_slocc_table_and_sweep():
    rows, verdicts = four_qubit_table()
    assert len(verdicts) == 6
    for v in verdicts:
        assert v.verdict.result == INEQUIVALENT, (v.first, v.second)
    t_vs_ghz = next(v for v in verdicts
                    if {v.first, v.second} == {"T", "GHZ4"})
    assert "rank" in t_vs_ghz.verdict.reason

    expected_undetermined = {
        2: {frozenset({"S(2,1)", "D2(2,0)"})},
        3: {frozenset({"S(3,1)", "S(3,2)"})},
        4: {frozenset({"S(4,1)", "S(4,3)"}), frozenset({"D4(4,0)", "D2(4,1)"})},
        5: {frozenset({"S(5,1)", "S(5,4)"}), frozenset({"S(5,2)", "S(5,3)"})},
        6: {frozenset({"S(6,1)", "S(6,5)"}), frozenset({"S(6,2)", "S(6,4)"})},
        7: {frozenset({"S(7,1)", "S(7,6)"}), frozenset({"S(7,2)", "S(7,5)"}),
            frozenset({"S(7,3)", "S(7,4)"})},
    }
    for n in range(2, 8):
        entries = totally_invariant_states(n)
        ents = {e.name: geometric_measure(e.state) for e in entries}
        sigs = {e.name: degeneracy_signature(to_majorana(e.state)).multiplicities
                for e in entries}
        undetermined = set()
        for i, a in enumerate(entries):
            for b in entries[i + 1:]:
                verdict = slocc_distinguish(a.state, b.state,
                                            ent_a=ents[a.name], ent_b=ents[b.name])
                if sigs[a.name] != sigs[b.name]:
                    assert verdict.result == INEQUIVALENT, (a.name, b.name)
                if verdict.result == UNDETERMINED:
                    undetermined.add(frozenset({a.name, b.name}))
        assert undetermined == expected_undetermined[n], n


def test_criterion_9_property_suites():
    # gradient versus central finite difference, relative 1e-5
    rng = np.random.default_rng(90)
    h = 1e-6
    for _ in range(20):
        n = int(rng.integers(2, 13))
        state = random_symmetric_state(n, rng)
        for _ in range(5):
            theta = math.acos(rng.uniform(-1.0, 1.0))
            phi = rng.uniform(0.0, 2.0 * math.pi)
            grad = log_overlap_sq_gradient(state, theta, phi)
            e_theta = np.array([math.cos(theta) * math.cos(phi),
                                math.cos(theta) * math.sin(phi),
                                -math.sin(theta)])
            e_phi = np.array([-math.sin(phi), math.cos(phi), 0.0])
            fd_theta = (log_overlap_sq(state, theta + h, phi)
                        - log_overlap_sq(state, theta - h, phi)) / (2 * h)
            fd_phi = (log_overlap_sq(state, theta, phi + h)
                      - log_overlap_sq(state, theta, phi - h)) / (2 * h)
            scale = max(1.0, abs(fd_theta), abs(fd_phi))
            assert abs(grad @ e_theta - fd_theta) <= 1e-5 * scale
            assert abs(math.sin(theta) * (grad @ e_phi) - fd_phi) <= 1e-5 * scale

    # E_G invariance under rotation
    for _ in range(50):
        n = int(rng.integers(3, 9))
        state = random_symmetric_state(n, rng)
        base = geometric_measure(state).eg
        rotated = rotate_state(state, random_rotation(rng))
        assert abs(geometric_measure(rotated).eg - base) <= 1e-6

    # degeneracy signatures are exactly rotation invariant
    for state in (gen_dicke(6, 2), gen_dihedral(8, 2), gen_tetrahedral()):
        config = to_majorana(state)
        base = degeneracy_signature(config).multiplicities
        for _ in range(10):
            rotated = rotate_points(config, random_rotation(rng))
            assert degeneracy_signature(rotated).multiplicities == base

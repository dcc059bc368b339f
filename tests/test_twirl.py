"""Spin operators, rotations on the symmetric subspace, twirl certificates."""
import math
from collections import Counter

import numpy as np
import pytest

from majorana import (
    Rotation,
    certify_equivalence,
    coherent_amplitudes,
    detect_group,
    geometric_measure,
    random_symmetric_state,
    rotate,
    rotate_state,
    state_fidelity,
    SymmetricState,
    to_dicke,
    to_majorana,
    wigner_rotation,
    MajoranaConfig,
)
from majorana.catalog import (MAX_MULTIPLICITY, SOLIDS, gen_dicke, gen_dihedral, gen_ghz,
                              gen_platonic, gen_tetrahedral, totally_invariant_states)
from majorana.symmetry import O2, SO2
from majorana.symstate import spin_matrices
from majorana.twirl import _KERNEL_TOL, group_average

from helpers import (config_of, cuboctahedron, icosidodecahedron, isotypic_multiplicity,
                     perturb_config, random_rotation)


def test_spin_commutators():
    for n in (1, 2, 5):
        jx, jy, jz = spin_matrices(n)
        np.testing.assert_allclose(jx @ jy - jy @ jx, 1j * jz, atol=1e-12)
        np.testing.assert_allclose(jy @ jz - jz @ jy, 1j * jx, atol=1e-12)
        j = n / 2
        casimir = jx @ jx + jy @ jy + jz @ jz
        np.testing.assert_allclose(casimir, j * (j + 1) * np.eye(n + 1), atol=1e-12)


def test_half_spin_convention():
    # active right-handed rotation by pi about y maps |0> to |1>
    d = wigner_rotation(1, Rotation(np.array([0.0, 1.0, 0.0]), math.pi))
    out = d @ np.array([1.0, 0.0])
    np.testing.assert_allclose(np.abs(out), [0.0, 1.0], atol=1e-12)


def test_wigner_is_unitary():
    rng = np.random.default_rng(6)
    for n in (2, 4, 9):
        d = wigner_rotation(n, random_rotation(rng))
        np.testing.assert_allclose(d @ d.conj().T, np.eye(n + 1), atol=1e-12)


def test_wigner_matches_point_rotation():
    # rotating amplitudes must equal rotating every configuration point
    rng = np.random.default_rng(23)
    for n in (2, 3, 6):
        state = random_symmetric_state(n, rng)
        rot = random_rotation(rng)
        via_wigner = rotate_state(state, rot)
        via_points = to_dicke(rotate(to_majorana(state), rot))
        assert state_fidelity(via_wigner, via_points) > 1.0 - 1e-11


def test_wigner_conjugates_spin_vector_like_the_rotation():
    # D(R) (v.J) D(R)^dagger = (Rv).J for every n the package supports
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 8, 17, 33, 64):
        jvec = np.stack(spin_matrices(n))
        for angle in (0.0, 1e-9, 1.3, math.pi, 2 * math.pi - 1e-9, -2.5):
            axis = rng.normal(size=3)
            rot = Rotation(axis, angle)
            v = rng.normal(size=3)
            d = wigner_rotation(n, rot)
            lhs = d @ np.tensordot(v, jvec, axes=1) @ d.conj().T
            rhs = np.tensordot(rot.apply(v), jvec, axes=1)
            np.testing.assert_allclose(lhs, rhs, atol=1e-11 * max(1, n))
        for axis in ([0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]):
            d = wigner_rotation(n, Rotation(np.array(axis), 0.7))
            np.testing.assert_allclose(d @ d.conj().T, np.eye(n + 1), atol=1e-12)


@pytest.mark.parametrize("n", [2.5, True, -1, 0, 3.0])
def test_wigner_rotation_rejects_bad_qubit_counts(n):
    with pytest.raises(ValueError, match="qubit count must be a positive integer"):
        wigner_rotation(n, Rotation(np.array([0.0, 0.0, 1.0]), 0.7))


def test_group_average_axial_is_dephasing():
    state = gen_dicke(4, 1)
    ent = geometric_measure(state)
    report = detect_group(to_majorana(state))
    omega = group_average((ent.theta, ent.phi), report, 4)
    # averaging over rotations about z kills all off-diagonal terms
    off = omega - np.diag(np.diag(omega))
    assert np.abs(off).max() < 1e-12
    assert abs(np.trace(omega).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(omega)[0] > -1e-15
    # about a tilted axis a, the average commutes with a.J
    rng = np.random.default_rng(6)
    for state in (gen_dicke(5, 2), gen_dicke(4, 2)):
        # the round trip smears D(5,2)'s triple point by about eps^(1/3), so
        # detection takes the looser tolerance for round-tripped clusters
        tilted = to_dicke(rotate(to_majorana(state), random_rotation(rng)))
        ent = geometric_measure(tilted)
        report = detect_group(to_majorana(tilted), tol=1e-4)
        omega = group_average((ent.theta, ent.phi), report, state.n)
        along = np.einsum("i,ijk->jk", report.axis, np.stack(spin_matrices(state.n)))
        np.testing.assert_allclose(omega @ along, along @ omega, atol=1e-10)
        assert abs(np.trace(omega).real - 1.0) < 1e-12


def test_group_average_discrete_properties():
    state = gen_ghz(4)
    ent = geometric_measure(state)
    report = detect_group(to_majorana(state))
    omega = group_average((ent.theta, ent.phi), report, 4)
    assert omega.shape == (5, 5)
    assert abs(np.trace(omega).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(omega)[0] > -1e-12
    # invariance: conjugating by any group element leaves omega fixed
    for mat in report.elements[:4]:
        d = wigner_rotation(4, Rotation.from_matrix(mat))
        conj = d @ omega @ d.conj().T
        np.testing.assert_allclose(conj, omega, atol=1e-10)


def test_group_average_discrete_matches_element_loop():
    # the orbit's coherent projectors average to the element-by-element sum
    # of D P D^dagger, each D built from its element's `Rotation`
    for state in (gen_ghz(5), gen_tetrahedral(), gen_dihedral(9, 3)):
        n = state.n
        ent = geometric_measure(state)
        report = detect_group(to_majorana(state))
        vec = coherent_amplitudes(n, ent.theta, ent.phi)
        projector = np.outer(vec, vec.conj())
        rotations = [Rotation.from_matrix(mat) for mat in report.elements]
        expected = sum(wigner_rotation(n, g) @ projector @ wigner_rotation(n, g).conj().T
                       for g in rotations) / len(rotations)
        omega = group_average((ent.theta, ent.phi), report, n)
        np.testing.assert_allclose(omega, expected, atol=1e-13)


@pytest.mark.parametrize("source", ["D4", "SO(2)", "O(2)"])
def test_group_average_validates_its_inputs(source):
    state = {"D4": gen_ghz(4), "SO(2)": gen_dicke(4, 1), "O(2)": gen_dicke(4, 2)}[source]
    report = detect_group(to_majorana(state))
    assert report.label == source
    for n, direction in ((4.0, (0.3, 0.4)), (True, (0.3, 0.4)), (4, (math.nan, 0.4)),
                         (4, (0.3, math.inf))):
        with pytest.raises(ValueError):
            group_average(direction, report, n)


def test_group_average_rejects_useless_groups():
    state = gen_dicke(3, 1)
    report = detect_group(MajoranaConfig(3, np.array([[0.7, 1.0]] * 3)))
    assert report.label == "SO(3)"
    with pytest.raises(ValueError):
        group_average((0.3, 0.4), report, 3)

    trivial = detect_group(to_majorana(random_symmetric_state(
        4, np.random.default_rng(19))))
    assert trivial.label == "Trivial"
    with pytest.raises(ValueError):
        group_average((0.3, 0.4), trivial, 4)


def _multiplicity_sweep(rng):
    """(name, state, detection tol): the finite-group states of the inventory
    n = 3..14, every `gen_platonic` occupancy, GHZ_n and D(n, p) up to
    n = 64, and of each a seeded rotation and two seeded point nudges."""
    sources = [(entry.name, entry.state) for n in range(3, 15)
               for entry in totally_invariant_states(n)
               if detect_group(to_majorana(entry.state)).kind not in (SO2, O2)]
    sources += [(f"{solid} x{m}", gen_platonic(solid, m))
                for solid in SOLIDS for m in range(1, MAX_MULTIPLICITY[solid] + 1)]
    for n in (16, 24, 32, 48, 64):
        sources.append((f"GHZ{n}", gen_ghz(n)))
        sources += [(f"D({n},{p})", gen_dihedral(n, p)) for p in (1, 3, (n - 3) // 2)]
    cases = []
    for name, state in sources:
        config = to_majorana(state)
        cases += [(name, state, 1e-6),
                  (f"{name} turned", rotate_state(state, random_rotation(rng)), 1e-4)]
        for delta in (1e-5, 1e-4):
            nudged = perturb_config(config, int(rng.integers(state.n)), delta)
            cases.append((f"{name} nudged {delta:g}", to_dicke(nudged), 10 * delta))
    return cases


def _generator_residual_spectrum(state, report):
    """Eigenvalues of H = sum_k (D_k - chi_k)^dagger (D_k - chi_k) over the
    report's generators, chi_k = <psi|D_k|psi>."""
    n = state.n
    residual = np.zeros((n + 1, n + 1), dtype=complex)
    for generator in report.generators:
        d = wigner_rotation(n, generator)
        d = d - np.vdot(state.amps, d @ state.amps) * np.eye(n + 1)
        residual += d.conj().T @ d
    return np.linalg.eigvalsh(residual)


def test_multiplicity_is_the_generators_joint_eigenspace():
    # The certificate reads psi's multiplicity off at most two generators;
    # on every finite group of the sweep it equals the element-loop trace,
    # and H's spectrum splits at least two decades either side of the
    # kernel bound: the kernel at most 2.5e-7, the rest at least GHZ64's
    # 2 - 2 cos(2 pi/64).
    rng = np.random.default_rng(33)
    cases = _multiplicity_sweep(rng)
    assert len(cases) == 336
    kernel, rest, counts = 0.0, math.inf, Counter()
    for name, state, tol in cases:
        report = detect_group(to_majorana(state), tol=tol)
        if len(report.elements) < 2:
            counts["no finite group"] += 1
            continue
        ent = geometric_measure(state)
        if not ent.converged:
            counts["unconverged"] += 1
            continue
        reference = isotypic_multiplicity(state, report)
        assert certify_equivalence(state, ent, report).multiplicity == reference, name
        spectrum = _generator_residual_spectrum(state, report)
        kernel, rest = max(kernel, spectrum[reference - 1]), min(rest, spectrum[reference])
        counts["multiplicity 1" if reference == 1 else "multiplicity >= 2"] += 1
    assert counts == {"multiplicity 1": 265, "multiplicity >= 2": 58,
                      "no finite group": 12, "unconverged": 1}, counts
    assert kernel <= 2.5e-7 <= _KERNEL_TOL / 100
    assert 100 * _KERNEL_TOL <= rest
    assert abs(rest - (2 - 2 * math.cos(2 * math.pi / 64))) < 1e-12


def test_certificates_valid_for_known_states():
    cases = [gen_ghz(4), gen_ghz(7), gen_dicke(4, 1), gen_dicke(4, 2),
             gen_dicke(9, 3), gen_tetrahedral(), gen_platonic("octahedron"),
             gen_dihedral(7, 2), gen_dihedral(9, 2)]
    for state in cases:
        ent = geometric_measure(state)
        report = detect_group(to_majorana(state))
        cert = certify_equivalence(state, ent, report)
        assert cert.valid, report.label
        assert abs(cert.overlap - cert.lambda_claimed) < 1e-9
        assert cert.delta_min_eig > -1e-9
        assert abs(cert.delta_psi_component) < 1e-9


def test_certificate_failure_band_for_heavy_poles():
    """Dihedral states whose pole stacks reach the ring size produce a
    group average that is not positive on the claimed complement; the
    failure is reproducible with sharply stable eigenvalues, and the
    certificate names its cause: psi's isotypic multiplicity is 2."""
    expected = {(6, 2): -0.2003, (8, 3): -0.2436, (9, 3): -0.0505}
    for (n, p), min_eig in expected.items():
        state = gen_dihedral(n, p)
        ent = geometric_measure(state)
        report = detect_group(to_majorana(state))
        cert = certify_equivalence(state, ent, report)
        assert not cert.valid, (n, p)
        assert abs(cert.overlap - cert.lambda_claimed) < 1e-9, (n, p)
        assert abs(cert.delta_psi_component) < 1e-9, (n, p)
        assert abs(cert.delta_min_eig - min_eig) < 5e-4, (n, p)
        assert cert.multiplicity == 2, (n, p)
        assert cert.reason, (n, p)


def test_negative_control_cone_ring():
    # an off-equator ring keeps the cyclic group but is not totally
    # invariant; the certificate must fail, and it fails on positivity
    theta = math.pi / 3
    points = np.array([[theta, 2 * math.pi * j / 3] for j in range(3)])
    cfg = MajoranaConfig(3, points)
    state = to_dicke(cfg)
    report = detect_group(cfg)
    assert report.label == "C3"
    assert not report.totally_invariant
    ent = geometric_measure(state)
    cert = certify_equivalence(state, ent, report)
    assert not cert.valid
    assert cert.multiplicity == 2
    assert cert.delta_min_eig < -1e-6
    assert abs(cert.overlap - cert.lambda_claimed) < 1e-9


def _cone(m, north, south, rng):
    """An m-ring at a seeded latitude and azimuth, with polar stacks."""
    z, start = rng.uniform(-0.8, 0.8), rng.uniform(0.0, 2 * math.pi)
    azimuths = start + 2 * math.pi * np.arange(m) / m
    ring = np.column_stack([math.sqrt(1 - z * z) * np.cos(azimuths),
                            math.sqrt(1 - z * z) * np.sin(azimuths), np.full(m, z)])
    poles = np.array([[0.0, 0.0, 1.0]] * north + [[0.0, 0.0, -1.0]] * south)
    return np.vstack([ring, poles.reshape(-1, 3)])


def test_certificate_verdict_follows_multiplicity():
    # without a pattern gate the certificate judges every detected group:
    # it holds where psi's isotypic multiplicity is 1, and where it is
    # above 1 it fails and its reason opens with the multiplicity
    rng = np.random.default_rng(29)
    cases = [(_cone(m, north, south, rng), f"C{m}")
             for m in (3, 4) for north, south in ((0, 0), (1, 0), (2, 1), (m, 0))]
    for source, label in ((gen_dihedral(3, 0), "D3"), (gen_ghz(4), "D4"),
                          (gen_tetrahedral(), "T"), (gen_platonic("octahedron"), "O")):
        start = rng.normal(size=3)
        cases.append((detect_group(to_majorana(source)).elements @ (start / np.linalg.norm(start)),
                      label))
    cases += [(cuboctahedron(), "O"), (icosidodecahedron(), "Y")]
    certs = []
    for vecs, label in cases:
        cfg = config_of(vecs)
        state = to_dicke(cfg)
        report = detect_group(cfg)
        assert report.label == label
        cert = certify_equivalence(state, geometric_measure(state), report)
        if cert.multiplicity == 1:
            assert cert.valid, (label, cfg.n, cert.reason)
        else:
            assert not cert.valid, (label, cfg.n)
            assert cert.reason.startswith(
                f"psi's isotypic multiplicity is {cert.multiplicity}, not 1"), cert.reason
        certs.append(cert)
    # every cone and generic orbit fails; the two solids, on the two-fold
    # axes of O and Y that the pattern verdict leaves empty, certify
    assert min(cert.multiplicity for cert in certs[:-2]) >= 2
    for cert, lam in zip(certs[-2:], (5 / 32, 0.08008)):
        assert (cert.valid, cert.multiplicity, cert.reason) == (True, 1, None)
        assert abs(cert.lambda_claimed - lam) < 1e-12


def test_certificate_rejects_product_state():
    state = SymmetricState(3, coherent_amplitudes(3, 1.0, 0.5))
    ent = geometric_measure(state)
    report = detect_group(to_majorana(state))
    with pytest.raises(ValueError):
        certify_equivalence(state, ent, report)


def test_certificate_requires_convergence():
    import dataclasses
    state = gen_ghz(4)
    ent = dataclasses.replace(geometric_measure(state), converged=False)
    report = detect_group(to_majorana(state))
    with pytest.raises(ValueError):
        certify_equivalence(state, ent, report)

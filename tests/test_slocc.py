"""Degeneracy signatures, rank bounds, pairwise inequivalence verdicts."""
import math

import numpy as np
import pytest

from majorana import (
    MajoranaConfig,
    degeneracy_signature,
    four_qubit_table,
    geometric_measure,
    known_rank,
    schmidt_bound,
    slocc_distinguish,
    to_majorana,
    to_dicke,
)
from majorana.slocc import GEOMETRIC_BOUND, INEQUIVALENT, KNOWN_VALUE, UNDETERMINED
from majorana.catalog import (
    gen_dicke,
    gen_dihedral,
    gen_ghz,
    gen_platonic,
    gen_tetrahedral,
    totally_invariant_states,
)

from helpers import random_rotation, rotate_points


def test_signatures():
    assert degeneracy_signature(to_majorana(gen_dicke(4, 2))).multiplicities == (2, 2)
    assert degeneracy_signature(to_majorana(gen_dicke(5, 1))).multiplicities == (4, 1)
    assert degeneracy_signature(to_majorana(gen_ghz(4))).multiplicities == (1, 1, 1, 1)
    sig = degeneracy_signature(to_majorana(gen_tetrahedral()))
    assert sig.multiplicities == (1, 1, 1, 1)
    assert not sig.ambiguous
    assert str(sig) == "(1,1,1,1)"


def test_signature_ambiguity_flag():
    # two points separated by 1.5x the tolerance cannot be trusted either way
    points = np.array([[0.0, 0.0], [1.5e-6, 0.0], [math.pi / 2, 1.0]])
    sig = degeneracy_signature(MajoranaConfig(3, points), tol=1e-6)
    assert sig.ambiguous


def test_signature_rotation_invariance_is_exact():
    rng = np.random.default_rng(3)
    cfg = to_majorana(gen_dihedral(6, 2))
    base = degeneracy_signature(cfg).multiplicities
    for _ in range(5):
        rotated = rotate_points(cfg, random_rotation(rng))
        assert degeneracy_signature(rotated).multiplicities == base


def test_known_rank():
    from majorana import coherent_amplitudes, SymmetricState
    product = SymmetricState(4, coherent_amplitudes(4, 0.8, 0.3))
    assert known_rank(product) == 1
    for n in (2, 3, 5):
        assert known_rank(gen_ghz(n)) == 2, n
    # rotated ring is still recognized
    rotated = to_dicke(rotate_points(to_majorana(gen_ghz(4)),
                                     random_rotation(np.random.default_rng(1))))
    assert known_rank(rotated) == 2
    assert known_rank(gen_tetrahedral()) is None
    assert known_rank(gen_dicke(4, 2)) is None


def test_schmidt_bound_values():
    bound = schmidt_bound(gen_tetrahedral())
    assert bound.r_lower == 3
    assert bound.source == GEOMETRIC_BOUND
    bound = schmidt_bound(gen_ghz(4))
    assert bound.r_lower == 2
    assert bound.source == KNOWN_VALUE
    # W4: lam = 27/64, 64/27 exceeds 2, so the bound reaches 3
    assert schmidt_bound(gen_dicke(4, 1)).r_lower == 3


def test_distinguish_by_signature():
    verdict = slocc_distinguish(gen_dicke(4, 2), gen_ghz(4))
    assert verdict.result == INEQUIVALENT
    assert "signature" in verdict.reason


def test_distinguish_by_rank_bound():
    verdict = slocc_distinguish(gen_tetrahedral(), gen_ghz(4))
    assert verdict.result == INEQUIVALENT
    assert "rank" in verdict.reason


def test_complementary_dicke_pair_undetermined():
    verdict = slocc_distinguish(gen_dicke(4, 1), gen_dicke(4, 3))
    assert verdict.result == UNDETERMINED


def test_mismatched_sizes_rejected():
    with pytest.raises(ValueError):
        slocc_distinguish(gen_ghz(3), gen_ghz(4))


def test_four_qubit_table():
    rows, verdicts = four_qubit_table()
    assert [r.name for r in rows] == ["T", "GHZ4", "S(4,2)", "W4"]
    assert [r.group for r in rows] == ["T", "D4", "O(2)", "SO(2)"]
    eg = {r.name: r.eg for r in rows}
    assert abs(eg["T"] - math.log2(3)) < 1e-9
    assert abs(eg["GHZ4"] - 1.0) < 1e-9
    assert abs(eg["S(4,2)"] - math.log2(8 / 3)) < 1e-9
    assert abs(eg["W4"] - math.log2(64 / 27)) < 1e-9
    assert len(verdicts) == 6
    for v in verdicts:
        assert v.verdict.result == INEQUIVALENT, (v.first, v.second)


def test_totally_invariant_inventory_counts():
    expected = {2: 2, 3: 3, 4: 6, 5: 6, 6: 8, 7: 9}
    for n, count in expected.items():
        entries = totally_invariant_states(n)
        assert len(entries) == count, n
        names = [e.name for e in entries]
        assert len(set(names)) == count, n


def test_dihedral_ring_beats_ghz_via_bound():
    # five points: one at each pole plus a triangle; lam = 5/16 forces
    # rank at least 4, while the pentagon ring is rank 2
    verdict = slocc_distinguish(gen_dihedral(5, 1), gen_ghz(5))
    assert verdict.result == INEQUIVALENT

    ent = geometric_measure(gen_dihedral(5, 1))
    assert abs(ent.lam - 5 / 16) < 1e-10
    assert schmidt_bound(gen_dihedral(5, 1), ent).r_lower == 4


def test_precomputed_entanglement_is_honored():
    a, b = gen_tetrahedral(), gen_ghz(4)
    ent_a = geometric_measure(a)
    ent_b = geometric_measure(b)
    verdict = slocc_distinguish(a, b, ent_a=ent_a, ent_b=ent_b)
    assert verdict.result == INEQUIVALENT


def test_one_root_finding_per_state(monkeypatch):
    # the signatures, known ranks and rank bounds share each configuration
    from majorana import slocc
    calls = []

    def counting(state):
        calls.append(state)
        return to_majorana(state)

    monkeypatch.setattr(slocc, "to_majorana", counting)
    for a, b in ((gen_ghz(4), gen_ghz(4)), (gen_ghz(5), gen_dihedral(5, 1)),
                 (gen_tetrahedral(), gen_ghz(4))):
        calls.clear()
        verdict = slocc_distinguish(a, b, ent_a=geometric_measure(a),
                                    ent_b=geometric_measure(b))
        assert len(calls) == 2, verdict

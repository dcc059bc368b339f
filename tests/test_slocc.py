"""Degeneracy signatures, rank bounds, pairwise inequivalence verdicts."""
import math

import numpy as np
import pytest

from majorana import (
    MajoranaConfig,
    degeneracy_signature,
    random_symmetric_state,
    four_qubit_table,
    geometric_measure,
    slocc_distinguish,
    to_majorana,
    to_dicke,
)
from majorana.slocc import (
    INEQUIVALENT,
    UNDETERMINED,
    _rank_bound,
    known_rank,
)
from majorana.catalog import (
    gen_dicke,
    gen_dihedral,
    gen_ghz,
    gen_platonic,
    gen_tetrahedral,
    totally_invariant_states,
)
from majorana.symstate import COINCIDENCE_TOL

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


def test_ambiguous_signatures_prove_nothing():
    # b = diag(1, c)^(x5) a is an invertible local operation on a, so the two
    # are SLOCC-equivalent, yet it pulls a's two points 1.5e-6 rad apart
    # within the 1e-6 clustering tolerance and the signatures differ
    from majorana import SymmetricState
    points = np.array([[0.9, 0.3], [0.9 + 1.5e-6, 0.3], [2.0, 1.7], [1.3, 4.0], [2.6, 5.5]])
    a = to_dicke(MajoranaConfig(5, points))
    for c in (0.5, 0.3, 0.2):
        b = SymmetricState(5, a.amps * c ** np.arange(6))
        verdict = slocc_distinguish(a, b)
        assert verdict.result == UNDETERMINED, (c, verdict.reason)
        assert "signatures" in verdict.reason
        sig_a, sig_b = verdict.signatures
        assert sig_a.multiplicities != sig_b.multiplicities, c
        assert sig_a.ambiguous or sig_b.ambiguous, c


def test_signature_rotation_invariance_is_exact():
    rng = np.random.default_rng(3)
    cfg = to_majorana(gen_dihedral(6, 2))
    base = degeneracy_signature(cfg).multiplicities
    for _ in range(5):
        rotated = rotate_points(cfg, random_rotation(rng))
        assert degeneracy_signature(rotated).multiplicities == base


def _rank(state):
    return known_rank(to_majorana(state))


def _bound(state, ent=None):
    return _rank_bound(geometric_measure(state) if ent is None else ent)


def test_known_rank():
    from majorana import coherent_amplitudes, SymmetricState
    product = SymmetricState(4, coherent_amplitudes(4, 0.8, 0.3))
    assert _rank(product) == 1
    for n in (2, 3, 5):
        assert _rank(gen_ghz(n)) == 2, n
    # rotated ring is still recognized
    rotated = to_dicke(rotate_points(to_majorana(gen_ghz(4)),
                                     random_rotation(np.random.default_rng(1))))
    assert _rank(rotated) == 2
    assert _rank(gen_tetrahedral()) is None
    assert _rank(gen_dicke(4, 2)) is None


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf])
def test_known_rank_tolerance_must_be_finite_and_positive(tol):
    state = gen_ghz(4)
    with pytest.raises(ValueError, match="tolerance"):
        known_rank(to_majorana(state), tol)


def test_schmidt_bound_values():
    assert _bound(gen_tetrahedral()) == 3
    assert _rank(gen_tetrahedral()) is None
    # the GHZ ring's rank is known, not bounded
    assert _rank(gen_ghz(4)) == 2
    # W4: lam = 27/64, 64/27 exceeds 2, so the bound reaches 3
    assert _bound(gen_dicke(4, 1)) == 3


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
    assert _bound(gen_dihedral(5, 1), ent) == 4


def test_precomputed_entanglement_is_honored():
    a, b = gen_tetrahedral(), gen_ghz(4)
    ent_a = geometric_measure(a)
    ent_b = geometric_measure(b)
    verdict = slocc_distinguish(a, b, ent_a=ent_a, ent_b=ent_b)
    assert verdict.result == INEQUIVALENT


def test_one_root_finding_per_state(monkeypatch):
    # the signatures, known ranks and rank bounds share each configuration,
    # and passed results already carry it
    from majorana import slocc
    calls = []

    def counting(state):
        calls.append(state)
        return to_majorana(state)

    monkeypatch.setattr(slocc, "to_majorana", counting)
    for a, b in ((gen_ghz(4), gen_ghz(4)), (gen_ghz(5), gen_dihedral(5, 1)),
                 (gen_tetrahedral(), gen_ghz(4))):
        ent_a, ent_b = geometric_measure(a), geometric_measure(b)
        calls.clear()
        with_results = slocc_distinguish(a, b, ent_a=ent_a, ent_b=ent_b)
        assert len(calls) == 0, with_results
        without = slocc_distinguish(a, b)
        assert len(calls) == 2, without
        assert without == with_results


def _nudged_ghz5():
    # the pentagon ring with one point turned 1e-4 rad about the ring's axis
    config = to_majorana(gen_ghz(5))
    points = config.points.copy()
    points[0, 1] += 1e-4
    return to_dicke(MajoranaConfig(5, points))


def test_known_ranks_read_at_the_callers_tolerance():
    # at tol 1e-3 the nudged ring still counts as GHZ, so its rank is known;
    # the product state's exact five-fold point already proves inequivalence,
    # and the verdict must not depend on argument order
    from majorana import SymmetricState, coherent_amplitudes
    product = SymmetricState(5, coherent_amplitudes(5, 0.8, 0.3))
    ring = _nudged_ghz5()
    assert known_rank(to_majorana(ring), 1e-3) == 2
    assert known_rank(to_majorana(ring)) is None
    forward = slocc_distinguish(product, ring, tol=1e-3)
    backward = slocc_distinguish(ring, product, tol=1e-3)
    assert forward.result == backward.result == INEQUIVALENT
    assert forward.reason == "coincidence signatures differ: (5) vs (1,1,1,1,1)"
    assert backward.reason == "coincidence signatures differ: (1,1,1,1,1) vs (5)"


def test_product_states_are_never_proved_inequivalent():
    # any two product states are related by a local unitary
    from majorana import SymmetricState, coherent_amplitudes
    for n in list(range(2, 13)) + [64]:
        north, tilted = gen_dicke(n, 0), SymmetricState(n, coherent_amplitudes(n, 0.8, 0.3))
        for a, b in ((north, tilted), (tilted, north)):
            verdict = slocc_distinguish(a, b)
            assert verdict.result != INEQUIVALENT, (n, verdict.reason)
            assert [s.multiplicities for s in verdict.signatures] == [(n,), (n,)]


def test_known_ranks_differ_where_a_signature_is_ambiguous():
    # at tol 0.06 the GHZ64 ring's neighbours, 2 pi / 64 apart, lie between
    # tol and 2 tol, so only the known ranks prove inequivalence
    from majorana import SymmetricState, coherent_amplitudes
    product = SymmetricState(64, coherent_amplitudes(64, 0.8, 0.3))
    ring = gen_ghz(64)
    forward = slocc_distinguish(product, ring, tol=0.06)
    backward = slocc_distinguish(ring, product, tol=0.06)
    assert forward.signatures[1].ambiguous and backward.signatures[0].ambiguous
    assert forward.result == backward.result == INEQUIVALENT
    assert forward.reason == "known product ranks differ: 1 vs 2"
    assert backward.reason == "known product ranks differ: 2 vs 1"


def test_one_known_rank_per_state(monkeypatch):
    from majorana import SymmetricState, coherent_amplitudes, slocc
    calls = []

    def counting(config, *args):
        calls.append(config)
        return known_rank(config, *args)

    monkeypatch.setattr(slocc, "known_rank", counting)
    product = SymmetricState(5, coherent_amplitudes(5, 0.8, 0.3))
    for a, b, tol in ((gen_ghz(4), gen_ghz(4), 1e-6), (gen_tetrahedral(), gen_ghz(4), 1e-6),
                      (gen_ghz(5), gen_dihedral(5, 1), 1e-6), (product, _nudged_ghz5(), 1e-3),
                      (_nudged_ghz5(), product, 1e-3), (gen_dicke(4, 1), gen_dicke(4, 3), 1e-6)):
        calls.clear()
        slocc_distinguish(a, b, tol=tol)
        # at most one call per state, each on that state's configuration
        configs = to_majorana(a), to_majorana(b)
        assert len(calls) <= 2 and all(c == configs[i] for i, c in enumerate(calls))


def test_each_configuration_is_clustered_once_along_a_chain(monkeypatch):
    # a sweep that passes results hands each configuration to two pairs;
    # the second reads its signature and known rank from the memo
    from majorana import slocc
    from majorana.symstate import _cluster_labels
    states = [gen_ghz(6), gen_dicke(6, 1), gen_dicke(6, 2), gen_dicke(6, 3),
              gen_platonic("octahedron"), gen_dihedral(6, 1),
              random_symmetric_state(6, np.random.default_rng(11))]
    ents = [geometric_measure(state) for state in states]
    fresh = [slocc_distinguish(a, b) for a, b in zip(states, states[1:])]
    clustered = []

    def counting(angles, tol):
        clustered.append(angles)
        return _cluster_labels(angles, tol)

    monkeypatch.setattr(slocc, "_cluster_labels", counting)
    chained = [slocc_distinguish(states[i], states[i + 1], ent_a=ents[i], ent_b=ents[i + 1])
               for i in range(6)]
    assert chained == fresh
    assert [id(a) for a in clustered] == [id(ent.config._angle_matrix()) for ent in ents]


def test_memo_is_keyed_by_tolerance():
    # one configuration asked at two tolerances, in both orders
    for order in ((0.06, COINCIDENCE_TOL), (COINCIDENCE_TOL, 0.06)):
        config = to_majorana(gen_ghz(64))
        ambiguous = {tol: degeneracy_signature(config, tol).ambiguous for tol in order}
        assert ambiguous == {0.06: True, COINCIDENCE_TOL: False}
    for order in ((1e-3, COINCIDENCE_TOL), (COINCIDENCE_TOL, 1e-3)):
        config = to_majorana(_nudged_ghz5())
        ranks = {tol: known_rank(config, tol) for tol in order}
        assert ranks == {1e-3: 2, COINCIDENCE_TOL: None}

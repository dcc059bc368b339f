"""SLOCC-inequivalence evidence: coincidence signatures and rank bounds.

Two symmetric states can only be SLOCC-equivalent if their configurations
have the same multiset of point-coincidence multiplicities, so differing
signatures are a proof of inequivalence, unless either signature is
ambiguous: two points between tol and 2 tol apart may or may not belong
together, and an invertible local operation can pull them within tol.  A
second route compares a known product-state rank r (known only for product
states, whose n points `to_majorana` makes exactly equal, and the GHZ
family) against the other state's known rank, or else its lower bound
ceil(2^E_G); a mismatch, or the bound exceeding the known rank, is again a
proof.  Everything else is reported Undetermined: the tool never claims
equivalence.  Each state's signature and known rank are computed once per
configuration and tolerance and kept in the configuration's memo, so a
sweep that passes results (whose configurations ride along) reuses them
from pair to pair; `slocc_distinguish` computes the geometric measure only
when a bound is needed and no result was passed.

The signature route is not sound for close pairs beyond twice the
tolerance: an invertible local operation can bring two distinct points
arbitrarily close, so with two of five points 3e-6 rad apart at tol 1e-6
and b = diag(1, c)^(x5) a for c = 0.2, 0.1 or 0.05, the signatures read
(1,1,1,1,1) against (2,1,1,1), neither is ambiguous, and equivalent
states are reported Inequivalent.  A Möbius-map test would settle it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .entanglement import EntanglementResult, geometric_measure
from .symstate import (
    COINCIDENCE_TOL,
    TWO_PI,
    MajoranaConfig,
    SymmetricState,
    _check_tolerance,
    _cluster_labels,
    _cross,
    to_majorana,
)

INEQUIVALENT = "Inequivalent"
UNDETERMINED = "Undetermined"

# Slack subtracted before the ceiling so that solver noise around an exact
# power of two cannot inflate the bound.
_BOUND_MARGIN = 1e-6


@dataclass(frozen=True)
class DegeneracySignature:
    multiplicities: tuple[int, ...]
    ambiguous: bool

    def __str__(self):
        return "(" + ",".join(str(m) for m in self.multiplicities) + ")"


@dataclass(frozen=True)
class Verdict:
    """`signatures` holds the two states' coincidence signatures, in
    argument order."""

    result: str
    reason: str | None = None
    signatures: tuple[DegeneracySignature, ...] = ()

    @property
    def inequivalent(self) -> bool:
        return self.result == INEQUIVALENT


def degeneracy_signature(config: MajoranaConfig,
                         tol: float = COINCIDENCE_TOL) -> DegeneracySignature:
    """Sorted coincidence multiplicities; flags borderline separations.

    A pair separated by more than `tol` but less than twice it makes the
    clustering unstable under tolerance choice, so the signature carries
    an `ambiguous` warning flag in that case.  Computed once per
    configuration and tolerance, in the configuration's memo.
    """
    def build():
        angles = config._angle_matrix()
        sizes = np.bincount(_cluster_labels(angles, tol))
        # the diagonal is exactly zero, so the mask leaves it out
        ambiguous = bool(np.any((angles > tol) & (angles < 2.0 * tol)))
        return DegeneracySignature(tuple(sorted(sizes[sizes > 0].tolist(), reverse=True)),
                                   ambiguous)

    return config._memoized(("signature", tol), build)


def _is_great_circle_ring(config: MajoranaConfig, tol: float = COINCIDENCE_TOL) -> bool:
    """No two points within `tol`, all on one great circle, evenly spaced."""
    n = config.n
    if n < 2:
        return False
    # the n zeros on the diagonal aside, no angle may be within tol
    if np.count_nonzero(config._angle_matrix() <= tol) > n:
        return False
    vecs = config.unit_vectors()
    # Plane through the origin: the smallest singular value must vanish.
    _, singular, vt = np.linalg.svd(vecs, full_matrices=False)
    if singular[-1] > n * tol:
        return False
    normal = vt[-1]
    e1 = vecs[0] - float(vecs[0] @ normal) * normal
    e1 /= np.linalg.norm(e1)
    e2 = _cross(normal, e1)
    azimuth = np.sort(np.arctan2(vecs @ e2, vecs @ e1) % TWO_PI)
    gaps = np.diff(np.append(azimuth, azimuth[0] + TWO_PI))
    return bool(np.max(np.abs(gaps - TWO_PI / n)) <= max(10.0 * tol, 1e-8))


def known_rank(config: MajoranaConfig, tol: float = COINCIDENCE_TOL) -> int | None:
    """Product-state rank when recognizable: 1 for product states, whose n
    points `to_majorana` makes exactly equal, 2 for the GHZ ring family;
    otherwise None.  Computed once per configuration and tolerance, in the
    configuration's memo.  Raises ValueError unless `tol` is finite and
    positive."""
    _check_tolerance(tol)

    def build():
        if np.all(config.points == config.points[0]):
            return 1
        return 2 if _is_great_circle_ring(config, tol) else None

    return config._memoized(("rank", tol), build)


def _rank_bound(ent: EntanglementResult) -> int:
    """Lower bound ceil(2^E_G) on the product-state rank of the state `ent`
    was computed for."""
    return max(1, math.ceil(2.0 ** ent.eg - _BOUND_MARGIN))


def slocc_distinguish(a: SymmetricState, b: SymmetricState,
                      tol: float = COINCIDENCE_TOL,
                      ent_a: EntanglementResult | None = None,
                      ent_b: EntanglementResult | None = None) -> Verdict:
    """Inequivalence proof if one exists, else Undetermined.

    Precomputed optimizer results may be passed to avoid repeated work in
    pairwise sweeps: `ent_a` and `ent_b` must be results for `a` and `b`,
    whose configurations are then reused instead of finding the roots
    again.
    """
    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} vs {b.n}")
    config_a = to_majorana(a) if ent_a is None else ent_a.config
    config_b = to_majorana(b) if ent_b is None else ent_b.config
    signatures = sig_a, sig_b = (degeneracy_signature(config_a, tol),
                                 degeneracy_signature(config_b, tol))
    undetermined = None
    if sig_a.multiplicities != sig_b.multiplicities:
        if not (sig_a.ambiguous or sig_b.ambiguous):
            return Verdict(INEQUIVALENT,
                           f"coincidence signatures differ: {sig_a} vs {sig_b}", signatures)
        undetermined = (f"coincidence signatures {sig_a} vs {sig_b} differ, but two "
                        f"points lie between {tol:g} and {2.0 * tol:g} rad apart, so "
                        "they prove nothing")
    known = known_rank(config_a, tol), known_rank(config_b, tol)
    if None not in known and known[0] != known[1]:
        return Verdict(INEQUIVALENT, f"known product ranks differ: {known[0]} vs {known[1]}",
                       signatures)
    names = ("first", "second")
    for i, j, ent in ((0, 1, ent_b), (1, 0, ent_a)):
        if known[i] is None or known[j] is not None:
            continue
        bound = _rank_bound(ent if ent is not None else geometric_measure((a, b)[j]))
        if bound > known[i]:
            return Verdict(INEQUIVALENT,
                           f"rank bound of the {names[j]} state ({bound}) exceeds the "
                           f"known rank of the {names[i]} state ({known[i]})", signatures)
    return Verdict(UNDETERMINED, undetermined, signatures)


@dataclass(frozen=True)
class TableRow:
    name: str
    group: str
    signature: DegeneracySignature
    eg: float


@dataclass(frozen=True)
class PairVerdict:
    first: str
    second: str
    verdict: Verdict


def four_qubit_table():
    """Symmetry, signature, E_G, and pairwise verdicts for the four
    canonical four-qubit states."""
    from .catalog import gen_dicke, gen_ghz, gen_tetrahedral
    from .symmetry import detect_group

    states = [("T", gen_tetrahedral()), ("GHZ4", gen_ghz(4)),
              ("S(4,2)", gen_dicke(4, 2)), ("W4", gen_dicke(4, 1))]
    measured = [(name, state, geometric_measure(state)) for name, state in states]
    rows = [TableRow(name, detect_group(ent.config).label, degeneracy_signature(ent.config),
                     ent.eg) for name, _, ent in measured]
    verdicts = [PairVerdict(name_a, name_b,
                            slocc_distinguish(a, b, ent_a=ent_a, ent_b=ent_b))
                for (name_a, a, ent_a), (name_b, b, ent_b) in combinations(measured, 2)]
    return tuple(rows), tuple(verdicts)

"""SLOCC-inequivalence evidence: coincidence signatures and rank bounds.

Two symmetric states can only be SLOCC-equivalent if their configurations
have the same multiset of point-coincidence multiplicities, so differing
signatures are a proof of inequivalence.  A second route compares a known
product-state rank r (known only for product states and the GHZ family)
against the other state's lower bound ceil(2^E_G); the bound exceeding the
known rank is again a proof.  Everything else is reported Undetermined:
the tool never claims equivalence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entanglement import (
    EntanglementResult,
    OptimizerConfig,
    _coherent_direction,
    geometric_measure,
)
from .symstate import (
    MajoranaConfig,
    SymmetricState,
    cluster_directions,
    pairwise_angles,
    to_majorana,
)

INEQUIVALENT = "Inequivalent"
UNDETERMINED = "Undetermined"

GEOMETRIC_BOUND = "geometric_measure_bound"
KNOWN_VALUE = "known_value"

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
class SchmidtBound:
    r_lower: int
    source: str


@dataclass(frozen=True)
class Verdict:
    result: str
    reason: str | None = None

    @property
    def inequivalent(self) -> bool:
        return self.result == INEQUIVALENT


def degeneracy_signature(config: MajoranaConfig, tol: float = 1e-6) -> DegeneracySignature:
    """Sorted coincidence multiplicities; flags borderline separations.

    A pair separated by more than `tol` but less than twice it makes the
    clustering unstable under tolerance choice, so the signature carries
    an `ambiguous` warning flag in that case.
    """
    vecs = config.unit_vectors()
    clusters = cluster_directions(vecs, tol)
    sizes = tuple(sorted((len(c) for c in clusters), reverse=True))
    angles = pairwise_angles(vecs)
    upper = angles[np.triu_indices(config.n, k=1)]
    ambiguous = bool(np.any((upper > tol) & (upper < 2.0 * tol)))
    return DegeneracySignature(sizes, ambiguous)


def _is_great_circle_ring(config: MajoranaConfig, tol: float = 1e-6) -> bool:
    """All points distinct, on one great circle, evenly spaced."""
    n = config.n
    if n < 2:
        return False
    vecs = config.unit_vectors()
    if len(cluster_directions(vecs, tol)) != n:
        return False
    # Plane through the origin: the smallest singular value must vanish.
    _, singular, vt = np.linalg.svd(vecs, full_matrices=False)
    if singular[-1] > n * tol:
        return False
    normal = vt[-1]
    e1 = vecs[0] - float(vecs[0] @ normal) * normal
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(normal, e1)
    azimuth = np.sort(np.arctan2(vecs @ e2, vecs @ e1) % (2.0 * math.pi))
    gaps = np.diff(np.append(azimuth, azimuth[0] + 2.0 * math.pi))
    return bool(np.max(np.abs(gaps - 2.0 * math.pi / n)) <= max(10.0 * tol, 1e-8))


def known_rank(state: SymmetricState, tol: float = 1e-6) -> int | None:
    """Product-state rank when recognizable: 1 for product states, 2 for
    the GHZ ring family; otherwise None."""
    return _known_rank(state, None, tol)


def _known_rank(state: SymmetricState, config: MajoranaConfig | None,
                tol: float = 1e-6) -> int | None:
    """`known_rank` with the state's configuration, if already found."""
    # the coherent test works in amplitude space; clustering the computed
    # points would miss it because multiple roots smear under root finding
    if _coherent_direction(state.amps) is not None:
        return 1
    if _is_great_circle_ring(to_majorana(state) if config is None else config, tol):
        return 2
    return None


def schmidt_bound(state: SymmetricState, ent: EntanglementResult | None = None,
                  cfg: OptimizerConfig | None = None) -> SchmidtBound:
    return _schmidt_bound(state, None, ent, cfg)


def _schmidt_bound(state: SymmetricState, config: MajoranaConfig | None,
                   ent: EntanglementResult | None,
                   cfg: OptimizerConfig | None) -> SchmidtBound:
    known = _known_rank(state, config)
    if known is not None:
        return SchmidtBound(known, KNOWN_VALUE)
    if ent is None:
        ent = geometric_measure(state, cfg)
    r_lower = max(1, math.ceil(2.0 ** ent.eg - _BOUND_MARGIN))
    return SchmidtBound(r_lower, GEOMETRIC_BOUND)


def slocc_distinguish(a: SymmetricState, b: SymmetricState,
                      cfg: OptimizerConfig | None = None,
                      tol: float = 1e-6,
                      ent_a: EntanglementResult | None = None,
                      ent_b: EntanglementResult | None = None) -> Verdict:
    """Inequivalence proof if one exists, else Undetermined.

    Precomputed optimizer results may be passed to avoid repeated work in
    pairwise sweeps.
    """
    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} vs {b.n}")
    config_a, config_b = to_majorana(a), to_majorana(b)
    sig_a = degeneracy_signature(config_a, tol)
    sig_b = degeneracy_signature(config_b, tol)
    if sig_a.multiplicities != sig_b.multiplicities:
        return Verdict(INEQUIVALENT,
                       f"coincidence signatures differ: {sig_a} vs {sig_b}")
    for known_state, known_config, other, other_config, other_ent, names in (
            (a, config_a, b, config_b, ent_b, ("first", "second")),
            (b, config_b, a, config_a, ent_a, ("second", "first"))):
        known = _known_rank(known_state, known_config, tol)
        if known is None:
            continue
        bound = _schmidt_bound(other, other_config, other_ent, cfg)
        if bound.source == KNOWN_VALUE:
            other_r = bound.r_lower
            if other_r != known:
                return Verdict(INEQUIVALENT,
                               f"known product ranks differ: {known} vs {other_r}")
            continue
        if bound.r_lower > known:
            return Verdict(INEQUIVALENT,
                           f"rank bound of the {names[1]} state "
                           f"({bound.r_lower}) exceeds the known rank of the "
                           f"{names[0]} state ({known})")
    return Verdict(UNDETERMINED)


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


def four_qubit_table(cfg: OptimizerConfig | None = None):
    """Symmetry, signature, E_G, and pairwise verdicts for the four
    canonical four-qubit states."""
    from .catalog import gen_dicke, gen_ghz, gen_tetrahedral
    from .symmetry import detect_group

    states = [("T", gen_tetrahedral()), ("GHZ4", gen_ghz(4)),
              ("S(4,2)", gen_dicke(4, 2)), ("W4", gen_dicke(4, 1))]
    rows = []
    ents = {}
    for name, state in states:
        config = to_majorana(state)
        ent = geometric_measure(state, cfg)
        ents[name] = ent
        rows.append(TableRow(name, detect_group(config).label,
                             degeneracy_signature(config), ent.eg))
    verdicts = []
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            name_a, state_a = states[i]
            name_b, state_b = states[j]
            verdict = slocc_distinguish(state_a, state_b, cfg,
                                        ent_a=ents[name_a], ent_b=ents[name_b])
            verdicts.append(PairVerdict(name_a, name_b, verdict))
    return tuple(rows), tuple(verdicts)

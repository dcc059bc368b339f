"""Point-group detection for sphere configurations and the total-invariance
catalog test.

`detect_group` finds the largest subgroup of SO(3) whose rotations permute
the configuration's point multiset.  Coincident points are first merged
into weighted "sites".  Degenerate layouts (one site; all sites on one
axis) are dispatched to the continuous groups directly.  Otherwise the
finite group is assembled from candidate axes (site directions, pairwise
sums, pairwise cross products), each validated ring by ring for its
largest cyclic order.  The powers of the validated steps go into one
growing stack of rotations, which is then closed breadth first: each
rotation is multiplied by every step once, and a product is kept when no
stored rotation lies within `mat_tol` (L1) of it and it maps the sites.
The closure matters because some high-order axes (for example the
five-fold axes of a dodecahedral configuration) are not spanned by any
single site or pair.

`is_totally_invariant` pattern-matches the configuration against a
per-group catalog of points-on-axes layouts.  Cyclic groups never qualify
(rings can slide along the axis); axial groups qualify exactly when all
points sit at the two poles; a dihedral group D_m requires equal polar
stacks on its principal axis (any of the three two-fold axes for D2) and
exactly m further points, singly occupied, on the equator; the polyhedral
groups require every point on one of their rotation-axis orbits within
fixed occupancy caps (and, for O and Y, a bound on the point count).

These layouts are not all rigid.  The dihedral rule puts no cap on the
polar stacks, and a stack of p >= m points can split into a generic
2m-point D_m orbit, m points near each pole, without losing D_m.  Nor is
the verdict the hypothesis of the twirl certificate, which needs psi's
isotypic multiplicity under the group to be 1: `certify_equivalence`
computes that multiplicity itself and reports it beside its verdict.  The
paper's abstract does not settle which notion "totally invariant" should
name; the pattern verdict is kept because the catalog is built on it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .symstate import MajoranaConfig, Rotation, cluster_directions

TWO_PI = 2.0 * math.pi

# Labels for report.kind.
TRIVIAL = "trivial"
CYCLIC = "cyclic"
DIHEDRAL = "dihedral"
TETRAHEDRAL = "tetrahedral"
OCTAHEDRAL = "octahedral"
ICOSAHEDRAL = "icosahedral"
SO2 = "so2"
O2 = "o2"
SO3 = "so3"

_LABELS = {TRIVIAL: "Trivial", TETRAHEDRAL: "T", OCTAHEDRAL: "O",
           ICOSAHEDRAL: "Y", SO2: "SO(2)", O2: "O(2)", SO3: "SO(3)"}

# Matrix-distance threshold separating "same rotation found twice" from
# genuinely distinct group elements (the closest pair in any group handled
# here differs by an angle of 2*pi/60, i.e. a Frobenius distance ~0.15).
_MAT_TOL = 1e-3
_CLOSURE_CAP = 240
# Angles this close to pi count as half-turns (the census sorts angles
# rounded to 9 decimals).
_HALF_TURN_TOL = 1e-9
# Rows compared at once in `_first_on_each_line`, and queued rotations
# multiplied at once in `_generate_group`.
_AXIS_BLOCK = 128
_CLOSURE_BATCH = 8


@dataclass(frozen=True, eq=False)
class SymmetryReport:
    """Detected symmetry group of a configuration.

    `order` is m for cyclic/dihedral kinds and 0 otherwise.  `elements`
    lists every rotation of a finite group (identity included); it is
    empty for the continuous kinds.  `axis` is the principal axis where
    one exists (the shared axis for axial kinds, the point direction for
    the all-coincident case, the highest-order axis for polyhedral kinds).
    """

    kind: str
    order: int
    axis: np.ndarray | None
    generators: tuple[Rotation, ...]
    elements: tuple[Rotation, ...]
    totally_invariant: bool
    witness: str

    @property
    def label(self) -> str:
        if self.kind == CYCLIC:
            return f"C{self.order}"
        if self.kind == DIHEDRAL:
            return f"D{self.order}"
        return _LABELS[self.kind]

    @property
    def is_discrete(self) -> bool:
        return self.kind in (TRIVIAL, CYCLIC, DIHEDRAL, TETRAHEDRAL,
                             OCTAHEDRAL, ICOSAHEDRAL)


def _canonical_axis(v: np.ndarray) -> np.ndarray:
    """v, or each row of v, signed so that its largest-magnitude entry is positive."""
    big = np.take_along_axis(v, np.argmax(np.abs(v), axis=-1)[..., None], axis=-1)
    return np.where(big < 0, -v, v)


def _perpendicular(v: np.ndarray) -> np.ndarray:
    pick = np.zeros(3)
    pick[int(np.argmin(np.abs(v)))] = 1.0
    w = np.cross(v, pick)
    return w / np.linalg.norm(w)


def _site_decomposition(config: MajoranaConfig, tol: float):
    vecs = config.unit_vectors()
    clusters = cluster_directions(vecs, tol)
    sites = np.array([vecs[idx].sum(axis=0) for idx in clusters])
    sites /= np.linalg.norm(sites, axis=1)[:, None]
    mult = np.array([len(idx) for idx in clusters])
    return sites, mult


def _maps_sites(mat: np.ndarray, sites: np.ndarray, mult: np.ndarray,
                tol: float) -> bool:
    """Whether the rotation permutes sites (positions and multiplicities)."""
    dots = (sites @ mat.T) @ sites.T
    nearest = np.argmax(dots, axis=1)
    if np.any(dots[np.arange(len(sites)), nearest] < math.cos(tol)):
        return False
    if np.any(mult[nearest] != mult):
        return False
    return len(np.unique(nearest)) == len(sites)


def _candidate_axes(sites: np.ndarray, mult: np.ndarray, tol: float) -> np.ndarray:
    centroid = mult @ sites
    if np.linalg.norm(centroid) > 10.0 * tol * mult.sum():
        # A rotation preserving the multiset fixes the weighted centroid, so
        # with a nonzero centroid only one axis can carry any symmetry.
        return _canonical_axis(centroid / np.linalg.norm(centroid))[None, :]
    i, j = np.triu_indices(len(sites), 1)
    # Per pair (i < j, row-major): the sum, then the cross product.
    pairs = np.stack([sites[i] + sites[j], np.cross(sites[i], sites[j])], axis=1).reshape(-1, 3)
    norms = np.linalg.norm(pairs, axis=1)
    raw = _canonical_axis(np.vstack([sites, pairs[norms > 1e-8] / norms[norms > 1e-8, None]]))
    return raw[_first_on_each_line(raw, math.cos(min(10.0 * tol, 0.1)))]


def _first_on_each_line(units: np.ndarray, threshold: float) -> np.ndarray:
    """Mask of the rows a greedy pass keeps: row i unless |units[i] . units[j]|
    >= threshold for a kept j < i.  Blocks bound the Gram matrices; within
    one, rows with no close earlier row are kept, rows close to those are
    dropped, and only the rest need the loop."""
    keep = np.zeros(len(units), dtype=bool)
    for start in range(0, len(units), _AXIS_BLOCK):
        block = units[start:start + _AXIS_BLOCK]
        fresh = ~np.any(np.abs(block @ units[keep].T) >= threshold, axis=1)
        rows = start + np.flatnonzero(fresh)
        earlier = np.tril(np.abs(units[rows] @ units[rows].T) >= threshold, -1)
        kept = ~earlier.any(axis=1)
        for row in np.flatnonzero(~kept & ~(earlier & kept).any(axis=1)):
            kept[row] = not np.any(earlier[row] & kept)
        keep[rows] = kept
    return keep


def _ring_gcd(axis: np.ndarray, sites: np.ndarray, tol: float) -> int:
    """gcd of site counts over latitude rings; 0 when no off-axis site."""
    lat = sites @ axis
    values = np.sort(lat[np.abs(lat) < math.cos(tol)])
    ends = np.flatnonzero(np.diff(values) > 2.0 * tol) + 1
    return math.gcd(*np.diff(ends, prepend=0, append=len(values)).tolist())


def _max_cyclic_order(axis: np.ndarray, sites: np.ndarray, mult: np.ndarray,
                      tol: float, n: int) -> int:
    top = min(_ring_gcd(axis, sites, tol), n)
    for m in range(top, 1, -1):
        if top % m == 0 and _maps_sites(Rotation(axis, TWO_PI / m).matrix(), sites, mult, tol):
            return m
    return 1


def _generate_group(axes: np.ndarray, sites: np.ndarray, mult: np.ndarray,
                    tol: float, n: int, mat_tol: float) -> np.ndarray:
    """The rotations generated by the validated cyclic steps about `axes`,
    identity first, as a (count, 3, 3) stack."""
    found = np.empty((_CLOSURE_CAP + 1, 3, 3))
    found[0] = np.eye(3)
    count = 1

    def extend(mats):
        # Append, in order, each of `mats` at L1 distance >= mat_tol from all found
        # rotations that still maps the sites (products drift).  L1 < mat_tol bounds
        # the Euclidean distance, so |a|^2 + |b|^2 - 2 a.b < mat_tol^2 + 1e-12 screens.
        nonlocal count
        flat, known = mats.reshape(-1, 9), found[:count].reshape(-1, 9)
        sq_dist = ((flat ** 2).sum(axis=1)[:, None] + (known ** 2).sum(axis=1)
                   - 2.0 * flat @ known.T)
        rows, cols = np.nonzero(sq_dist < mat_tol ** 2 + 1e-12)
        novel = np.ones(len(flat), dtype=bool)
        novel[rows[np.abs(flat[rows] - known[cols]).sum(axis=1) < mat_tol]] = False
        start = count
        for mat in mats[novel]:
            appended = found[start:count].reshape(-1, 9)
            if (count <= _CLOSURE_CAP
                    and np.all(np.abs(appended - mat.ravel()).sum(axis=1) >= mat_tol)
                    and _maps_sites(mat, sites, mult, tol)):
                found[count] = mat
                count += 1

    steps = []
    for axis in axes:
        m = _max_cyclic_order(axis, sites, mult, tol, n)
        if m >= 2:
            steps.append(Rotation(axis, TWO_PI / m).matrix())
            powers = [np.eye(3)]
            for _ in range(m - 1):
                powers.append(steps[-1] @ powers[-1])
            extend(np.array(powers[1:]))
    # Breadth-first closure, the stack doubling as the queue: each rotation,
    # in the order found, is multiplied by every step once, a few rotations
    # at a time to keep the temporaries small.
    steps = np.reshape(steps, (-1, 3, 3))
    head = 0
    while head < count <= _CLOSURE_CAP:
        batch = found[head:min(count, head + _CLOSURE_BATCH)]
        head += len(batch)
        extend((batch[:, None] @ steps).reshape(-1, 3, 3))
    return found[:count]


def _axis_bins(rotations, axis_tol: float = _MAT_TOL):
    """Group nonidentity rotations by axis line; order = count + 1.  A
    rotation joins the first-opened bin within `axis_tol` of its axis."""
    if not rotations:
        return []
    axes = _canonical_axis(np.array([rot.axis for rot in rotations]))
    threshold = math.cos(axis_tol)
    heads = np.flatnonzero(_first_on_each_line(axes, threshold))
    first = np.argmax(np.abs(axes @ axes[heads].T) >= threshold, axis=1)
    counts = np.bincount(first, minlength=len(heads))
    bins = [{"axis": axes[h], "count": int(c), "order": int(c) + 1}
            for h, c in zip(heads, counts)]
    bins.sort(key=lambda e: (-e["order"], tuple(np.round(-e["axis"], 9))))
    return bins


def _fix_half_turn(rot: Rotation) -> Rotation:
    """A half-turn about either sign of its axis is one rotation, and
    `Rotation.from_matrix` takes that sign from a quaternion w of rounding
    size; pin it with `_canonical_axis` so equal groups list equal elements."""
    if math.pi - rot.angle > _HALF_TURN_TOL:
        return rot
    return Rotation(_canonical_axis(rot.axis), rot.angle)


def _classify(mats: np.ndarray, mat_tol: float = _MAT_TOL):
    """Census of the closed rotation stack (identity first, nothing else within
    `mat_tol` of it) -> (kind, order, principal, bins, elements)."""
    nonid = sorted((_fix_half_turn(Rotation.from_matrix(mat)) for mat in mats[1:]),
                   key=lambda r: (round(r.angle, 9), tuple(np.round(r.axis, 9))))
    elements = [Rotation.identity()] + nonid
    if not nonid:
        return TRIVIAL, 0, None, [], elements
    bins = _axis_bins(nonid, mat_tol)
    size = len(elements)
    principal = bins[0]["axis"]
    top = bins[0]["order"]
    if len(bins) == 1:
        return CYCLIC, size, principal, bins, elements
    others_are_perpendicular_flips = all(
        entry["order"] == 2 and abs(float(entry["axis"] @ principal)) < mat_tol
        for entry in bins[1:])
    if size == 2 * top and others_are_perpendicular_flips and len(bins) == top + 1:
        return DIHEDRAL, top, principal, bins, elements
    if size == 12 and top == 3:
        return TETRAHEDRAL, 0, principal, bins, elements
    if size == 24 and top == 4:
        return OCTAHEDRAL, 0, principal, bins, elements
    if size == 60 and top == 5:
        return ICOSAHEDRAL, 0, principal, bins, elements
    # Incomplete census (tolerance drift or the closure cap): degrade to the
    # best cyclic subgroup rather than guess.
    return CYCLIC, top, principal, bins, elements


def _pick_generators(kind: str, order: int, principal: np.ndarray,
                     bins, elements: tuple[Rotation, ...]) -> tuple[Rotation, ...]:
    if kind in (TRIVIAL,):
        return ()
    if kind == CYCLIC:
        return (Rotation(principal, TWO_PI / order),)
    if kind == DIHEDRAL:
        return (Rotation(principal, TWO_PI / order),
                Rotation(bins[1]["axis"], math.pi))
    top = bins[0]["order"]
    second = next(e for e in bins[1:] if abs(float(e["axis"] @ principal)) < 0.999)
    return (Rotation(principal, TWO_PI / top),
            Rotation(second["axis"], TWO_PI / second["order"]))


def detect_group(config: MajoranaConfig, tol: float = 1e-6) -> SymmetryReport:
    """Largest rotation group permuting the configuration's point multiset."""
    sites, mult = _site_decomposition(config, tol)
    bins = []
    if len(sites) == 1:
        report = SymmetryReport(SO3, 0, sites[0], (), (), False, "")
    elif len(sites) == 2 and float(sites[0] @ sites[1]) <= -math.cos(tol):
        axis = _canonical_axis(sites[0])
        north = mult[0] if float(sites[0] @ axis) > 0 else mult[1]
        south = mult.sum() - north
        if north == south:
            flip = Rotation(_perpendicular(axis), math.pi)
            report = SymmetryReport(O2, 0, axis, (flip,), (), False, "")
        else:
            report = SymmetryReport(SO2, 0, axis, (), (), False, "")
    else:
        # At loose site tolerances the collected matrices carry comparable
        # error, so the dedupe threshold has to widen with them.
        mat_tol = max(_MAT_TOL, 4.0 * tol)
        axes = _candidate_axes(sites, mult, tol)
        mats = _generate_group(axes, sites, mult, tol, config.n, mat_tol)
        kind, order, principal, bins, elements = _classify(mats, mat_tol)
        generators = _pick_generators(kind, order, principal, bins, tuple(elements))
        report = SymmetryReport(kind, order, principal, generators,
                                tuple(elements), False, "")
    invariant, witness = _invariance(config.n, report, sites, mult, bins, tol)
    return replace(report, totally_invariant=invariant, witness=witness)


def _ti_axial(n: int, axis: np.ndarray, sites: np.ndarray, mult: np.ndarray, tol: float):
    lat = sites @ axis
    if np.any(np.abs(lat) < math.cos(tol)):
        return False, "an off-axis point breaks the polar pattern"
    north = int(mult[lat > 0].sum())
    south = int(mult.sum()) - north
    return True, (f"all {n} points at the poles of the symmetry axis "
                  f"({north} north, {south} south)")


def _ti_dihedral(report: SymmetryReport, bins, sites: np.ndarray, mult: np.ndarray,
                 tol: float):
    m = report.order
    candidates = [report.axis]
    if m == 2:
        # All three two-fold axes of D2 are interchangeable; any of them may
        # carry the polar pattern.
        candidates = [b["axis"] for b in bins] or candidates
    for axis in candidates:
        lat = sites @ axis
        polar = np.abs(lat) >= math.cos(tol)
        ring = np.abs(lat) <= 2.0 * tol
        if np.any(~polar & ~ring):
            continue
        north = int(mult[polar & (lat > 0)].sum())
        south = int(mult[polar & (lat < 0)].sum())
        if north != south:
            continue
        if int(ring.sum()) != m or np.any(mult[ring] != 1):
            continue
        return True, (f"{north} points at each pole plus {m} singly occupied, "
                      f"evenly spaced equatorial points")
    return False, ("configuration does not match the dihedral pattern of "
                   "equal polar stacks plus one singly occupied equatorial ring")


def _polyhedral_orbits(kind: str, bins):
    """Catalog orbit directions (from the group's own axes) and caps."""
    by_order: dict[int, list[np.ndarray]] = {}
    for entry in bins:
        by_order.setdefault(entry["order"], []).append(entry["axis"])

    def dirs(order):
        axes = by_order.get(order, [])
        return np.array([sign * a for a in axes for sign in (1.0, -1.0)])

    if kind == TETRAHEDRAL:
        three = dirs(3)
        d0 = three[0]
        close = three @ d0
        first = three[(close > 0.9) | (np.abs(close + 1.0 / 3.0) < 0.1)]
        second = three[~((close > 0.9) | (np.abs(close + 1.0 / 3.0) < 0.1))]
        return [(first, 2, "tetrahedron vertex"),
                (second, 2, "mirror-tetrahedron vertex"),
                (dirs(2), 3, "octahedron vertex")], None
    if kind == OCTAHEDRAL:
        return [(dirs(3), 3, "cube vertex"), (dirs(4), 2, "octahedron vertex")], 34
    return [(dirs(3), 2, "dodecahedron vertex"), (dirs(5), 3, "icosahedron vertex")], 88


def _ti_polyhedral(n: int, kind: str, bins, sites: np.ndarray, mult: np.ndarray,
                   tol: float):
    orbits, bound = _polyhedral_orbits(kind, bins)
    if bound is not None and n > bound:
        return False, f"{n} points exceeds the stated bound of {bound}"
    usage = []
    for i, site in enumerate(sites):
        for directions, cap, name in orbits:
            if len(directions) and float(np.max(directions @ site)) >= math.cos(tol):
                if mult[i] > cap:
                    return False, (f"{mult[i]} points on a {name} "
                                   f"exceeds the cap of {cap}")
                usage.append(name)
                break
        else:
            return False, "a point lies off the rotation-axis orbits"
    names = sorted(set(usage))
    return True, "points occupy " + " and ".join(f"{name} positions ({usage.count(name)} sites)"
                                                for name in names)


def _invariance(n: int, report: SymmetryReport, sites: np.ndarray, mult: np.ndarray,
                bins, tol: float) -> tuple[bool, str]:
    """`is_totally_invariant` on the sites and axis bins already at hand."""
    kind = report.kind
    if kind == SO3:
        return False, ("all points coincident (a product state); the cluster "
                       "can move rigidly without losing any symmetry")
    if kind == TRIVIAL:
        return False, "no nontrivial rotational symmetry"
    if kind == CYCLIC:
        return False, (f"C{report.order} constrains only azimuths: latitude "
                       "rings can slide along the axis without breaking it")
    if kind in (SO2, O2):
        return _ti_axial(n, report.axis, sites, mult, tol)
    if kind == DIHEDRAL:
        return _ti_dihedral(report, bins, sites, mult, tol)
    return _ti_polyhedral(n, kind, bins, sites, mult, tol)


def is_totally_invariant(config: MajoranaConfig, report: SymmetryReport,
                         tol: float = 1e-6) -> tuple[bool, str]:
    """Catalog decision: (verdict, witness description).

    The verdict is computed from the configuration and the report's group
    data; the report's own `totally_invariant` field is ignored.
    """
    sites, mult = _site_decomposition(config, tol)
    return _invariance(config.n, report, sites, mult, _axis_bins(report.elements[1:]), tol)


def contains_dihedral(config: MajoranaConfig, m: int, tol: float = 1e-6) -> bool:
    """Whether some dihedral group D_m (order-m rotation plus perpendicular
    flip) preserves the configuration, regardless of the maximal group."""
    if m < 2:
        raise ValueError("dihedral order must be at least 2")
    report = detect_group(config, tol)
    if report.kind == O2:
        return True
    if not report.is_discrete or report.kind == CYCLIC:
        return False
    target = TWO_PI / m
    flips = [e for e in report.elements if abs(e.angle - math.pi) < 1e-6]
    for element in report.elements:
        if abs(element.angle - target) > 1e-6:
            continue
        for flip in flips:
            if abs(float(element.axis @ flip.axis)) < 1e-3:
                return True
    return False

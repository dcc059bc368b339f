"""Point-group detection for sphere configurations and the total-invariance
catalog verdict.

`detect_group` finds the largest subgroup of SO(3) whose rotations permute
the configuration's point multiset.  Coincident points are first merged
into weighted "sites", in one site decomposition per detection that reads
the configuration's memoized angle matrix.  Degenerate layouts (one site;
all sites on one axis) are dispatched to the continuous groups directly.
Otherwise the finite group is listed outright: a rotation is fixed by
where it sends two non-collinear sites, so a reference pair (s0, s1) is
matched against every pair of sites with the same multiplicities and the
same angle, and each rotation so built is kept when it maps every site
onto a site of equal multiplicity, one to one.  No axis is guessed and no
group is closed, so axes that no site or pair of sites spans (the
three-fold axes of a generic tetrahedral orbit, say) are found like any
other.  The listing is a (G, 3, 3) stack, and it stays one: the census is
array work with no loop over elements.  It reads the axes and angles of
the whole stack at once (`symstate._axis_angle`), sorts it into element
order, and bins the axes by line (the bin of the first rotation whose
axis lies within the census threshold), counted by `bincount` and
ordered by one `lexsort`; the group and bin orders name the kind, and D_m
also needs its turns to be powers of 2*pi/m.  The report's `elements` are
that sorted stack, read-only, and `contains_dihedral` reads the detected
label, so it cannot contradict it.

The report also carries the total-invariance verdict (`totally_invariant`,
with a `witness` string), read off each site's stabiliser order: how many
matrices of the report's stack fix the site.  Cyclic groups never qualify
(rings can slide along the axis); axial groups qualify exactly when all
points sit at the two poles.  D_m (m >= 3) qualifies when its order-2 sites are
exactly m singly occupied points and every other site is a polar stack of
order m; D2, whose three two-fold axes are alike, when all four sites have
order 2 and one antipodal pair is singly occupied.  In the polyhedral
groups each site's order names its rotation-axis orbit, which has a fixed
occupancy cap (0 for the two-fold axes of O and Y), and O and Y also bound
the point count.

These layouts are not all rigid.  A stack of m points whose stabiliser has
order k is pinned exactly when m < k.  The dihedral rule puts no cap on
the polar stacks, and a stack of p >= m points can split into a generic
2m-point D_m orbit, m points near each pole, without losing D_m.  Nor is
the verdict the hypothesis of the twirl certificate, which needs psi's
isotypic multiplicity under the group to be 1: `certify_equivalence`
never reads the verdict, but computes that multiplicity itself and lets
it and its four legs decide.  The paper's abstract does not settle which notion "totally invariant" should
name; the pattern verdict is kept because the catalog is built on it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .symstate import (COINCIDENCE_TOL, TWO_PI, MajoranaConfig, Rotation, _axis_angle,
                       _check_integer, _cross, _norms, _site_decomposition, pairwise_angles)

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

# Angular threshold of the census: rotation axes within it share a bin (the
# half-turn axes of D64, the closest distinct axes handled, are 2*pi/128
# apart).
_MAT_TOL = 1e-3
# Angles this close to pi count as half-turns (the census sorts angles
# rounded to 9 decimals).
_HALF_TURN_TOL = 1e-9
# Entries within this of an axis's largest magnitude tie for its sign.
_SIGN_TIE = 1e-9
# Candidate rotations tested at once in `_list_group` (whose temporaries
# hold block * sites^2 dot products).
_CANDIDATE_BLOCK = 32
# The element stack of the continuous kinds.
_NO_ELEMENTS = np.empty((0, 3, 3))
_NO_ELEMENTS.flags.writeable = False


@dataclass(frozen=True, eq=False)
class SymmetryReport:
    """Detected symmetry group of a configuration.

    `order` is m for cyclic/dihedral kinds and 0 otherwise.  `elements` is
    a finite group's read-only (G, 3, 3) stack of rotation matrices,
    identity first, then by angle and axis; it has no rows for the
    continuous kinds.  `generators` are `Rotation`s.  `axis` is the
    principal axis where one exists (the shared axis for axial kinds, the
    point direction for the all-coincident case, the highest-order axis
    for polyhedral kinds).
    """

    kind: str
    order: int
    axis: np.ndarray | None
    generators: tuple[Rotation, ...]
    elements: np.ndarray
    totally_invariant: bool
    witness: str

    @property
    def label(self) -> str:
        if self.kind == CYCLIC:
            return f"C{self.order}"
        if self.kind == DIHEDRAL:
            return f"D{self.order}"
        return _LABELS[self.kind]


def _canonical_axis(v: np.ndarray) -> np.ndarray:
    """v, or each row of v, signed so that the first entry within _SIGN_TIE of
    its largest magnitude is positive: an axis such as (1, -1, 0)/sqrt(2)
    keeps its sign when rounding noise reorders the two magnitudes."""
    mag = np.abs(v)
    first = np.argmax(mag >= mag.max(axis=-1, keepdims=True) - _SIGN_TIE, axis=-1)
    lead = np.take_along_axis(v, first[..., None], axis=-1)
    return np.where(lead < 0, -v, v)


def _perpendicular(v: np.ndarray) -> np.ndarray:
    pick = np.zeros(3)
    pick[int(np.argmin(np.abs(v)))] = 1.0
    w = _cross(v, pick)
    return w / np.linalg.norm(w)


def _frames(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Orthonormal frames with columns a, e and a x e, where e is the
    normalized part of b orthogonal to a (rows of a and b pair up)."""
    e = b - np.add.reduce(a * b, axis=-1, keepdims=True) * a
    e /= _norms(e)[..., None]
    return np.stack([a, e, _cross(a, e)], axis=-1)


def _list_group(sites: np.ndarray, mult: np.ndarray, tol: float) -> np.ndarray:
    """Every rotation that permutes the sites, identity first, as a
    (count, 3, 3) stack.

    A rotation is fixed by the images of two non-collinear sites.  s0 is a
    site of the rarest multiplicity (the smallest such) and s1 the site
    most orthogonal to it; each pair (t0, t1) of sites with the same
    multiplicities and the same angle, within 2 tol, gives the candidate
    F(t0, t1) F(s0, s1)^T, which is kept when it sends every site within
    chord distance tol of a site of equal multiplicity, one to one."""
    counts = np.bincount(mult)
    rarest = int(np.argmin(np.where(counts > 0, counts, len(mult) + 1)))
    i0 = int(np.argmax(mult == rarest))
    i1 = int(np.argmin(np.abs(sites @ sites[i0])))
    angles = pairwise_angles(sites, sites)
    match = ((np.abs(angles - angles[i0, i1]) <= 2.0 * tol)
             & (mult[:, None] == mult[i0]) & (mult[None, :] == mult[i1]))
    np.fill_diagonal(match, False)
    match[i0, i1] = False  # the identity, listed exactly
    t0, t1 = np.nonzero(match)
    reference = _frames(sites[i0], sites[i1]).T
    found = [np.eye(3)[None]]
    for start in range(0, len(t0), _CANDIDATE_BLOCK):
        block = slice(start, start + _CANDIDATE_BLOCK)
        mats = _frames(sites[t0[block]], sites[t1[block]]) @ reference
        images = sites @ mats.transpose(0, 2, 1)
        nearest = np.argmax(images @ sites.T, axis=2)
        close = _norms(images - sites[nearest]) <= tol
        one_to_one = np.all(np.diff(np.sort(nearest, axis=1), axis=1) > 0, axis=1)
        keep = np.all(close & (mult[nearest] == mult), axis=1) & one_to_one
        found.append(mats[keep])
    return np.concatenate(found)


def _axis_bins(axes: np.ndarray, axis_tol: float = _MAT_TOL):
    """Group the axes of nonidentity rotations by line: (bin_axes, orders),
    one row per bin, where a bin's order is its rotation count + 1.  A
    rotation joins the bin of the first rotation whose axis lies within
    `axis_tol` of its own, and that first axis, canonically signed, is the
    bin's.  Bins run by falling order, then by falling axis rounded to 9
    decimals, in one lexsort."""
    if not len(axes):
        return np.empty((0, 3)), np.empty(0, dtype=int)
    axes = _canonical_axis(axes)
    first = np.argmax(np.abs(axes @ axes.T) >= math.cos(axis_tol), axis=1)
    counts = np.bincount(first)
    heads = np.flatnonzero(counts)
    orders = counts[heads] + 1
    key = np.round(-axes[heads], 9)
    order = np.lexsort((key[:, 2], key[:, 1], key[:, 0], -orders))
    return axes[heads[order]], orders[order]


def _element_order(mats: np.ndarray):
    """(mats, axes, angles) of a stack whose first matrix is the identity,
    the rest sorted by angle, then axis, rounded to 9 decimals.  A half-turn
    about either sign of its axis is one rotation, and `_axis_angle` takes
    that sign from a quaternion w of rounding size; `_canonical_axis` pins
    it, so equal groups list equal elements."""
    axes, angles = _axis_angle(mats)
    half = math.pi - angles <= _HALF_TURN_TOL
    axes[half] = _canonical_axis(axes[half])
    key = np.round(np.column_stack([angles, axes])[1:], 9)
    order = np.concatenate([[0], 1 + np.lexsort(key[:, ::-1].T)])
    return mats[order], axes[order], angles[order]


# The polyhedral groups by (order, largest axis order) in the census.
_POLYHEDRAL_CENSUS = {(12, 3): TETRAHEDRAL, (24, 4): OCTAHEDRAL, (60, 5): ICOSAHEDRAL}


def _is_power(angles: np.ndarray, m: int, mat_tol: float) -> bool:
    """Whether every angle lies within `mat_tol` of a multiple of 2*pi/m."""
    step = TWO_PI / m
    return bool(np.all(np.abs(angles - step * np.round(angles / step)) <= mat_tol))


def _classify(mats: np.ndarray, site_count: int, mat_tol: float = _MAT_TOL):
    """Census of the closed rotation stack (identity first, nothing else within
    `mat_tol` of it): its group's kind, order, principal axis, generators and
    stack in element order."""
    mats, axes, angles = _element_order(mats)
    if len(mats) == 1:
        return TRIVIAL, 0, None, (), mats
    bin_axes, orders = _axis_bins(axes[1:], mat_tol)
    size = len(mats)
    principal, top = bin_axes[0], int(orders[0])
    turns = angles[1:][np.abs(axes[1:] @ principal) >= math.cos(mat_tol)]
    tilts = np.abs(bin_axes[1:] @ principal)
    others_are_perpendicular_flips = bool(np.all((orders[1:] == 2) & (tilts < mat_tol)))
    if (size == 2 * top and others_are_perpendicular_flips and len(orders) == top + 1
            and _is_power(turns, top, mat_tol)):
        generators = (Rotation(principal, TWO_PI / top), Rotation(bin_axes[1], math.pi))
        return DIHEDRAL, top, principal, generators, mats
    kind = _POLYHEDRAL_CENSUS.get((size, top))
    if kind is not None:
        second = 1 + int(np.argmax(tilts < 0.999))  # the first bin off the principal axis
        generators = (Rotation(principal, TWO_PI / top),
                      Rotation(bin_axes[second], TWO_PI / int(orders[second])))
        return kind, 0, principal, generators, mats
    # One axis, or an incomplete census (tolerance drift) degraded to the
    # best cyclic subgroup rather than a guess.  Sites closer than 2 tol let
    # near-rotations pass as symmetries, but a cyclic group never has more
    # elements than there are sites.  Turns that are not powers of 2*pi/order
    # betray missed rotations: take the largest order one listed turn has.
    order = min(top, site_count)
    if not _is_power(turns, order, mat_tol):
        order = max(next((m for m in range(2, site_count + 1)
                          if _is_power(turn, m, mat_tol)), 1) for turn in turns)
    if order == 1:
        return TRIVIAL, 0, None, (), mats[:1]
    powers = np.stack([Rotation(principal, TWO_PI * k / order).matrix() for k in range(order)])
    return (CYCLIC, order, principal, (Rotation(principal, TWO_PI / order),),
            _element_order(powers)[0])


def detect_group(config: MajoranaConfig, tol: float = COINCIDENCE_TOL) -> SymmetryReport:
    """Largest rotation group permuting the configuration's point multiset.
    Raises ValueError when `tol` merges points whose directions cancel."""
    sites, mult = _site_decomposition(config.unit_vectors(), config._angle_matrix(), tol)
    order, generators, elements = 0, (), _NO_ELEMENTS
    if len(sites) == 1:
        kind, axis = SO3, sites[0]
    elif len(sites) == 2 and float(sites[0] @ sites[1]) <= -math.cos(tol):
        axis = _canonical_axis(sites[0])
        north = mult[0] if float(sites[0] @ axis) > 0 else mult[1]
        if 2 * north == mult.sum():
            kind, generators = O2, (Rotation(_perpendicular(axis), math.pi),)
        else:
            kind = SO2
    else:
        # At loose site tolerances the listed matrices carry comparable
        # error, so the census threshold has to widen with them.
        mat_tol = max(_MAT_TOL, 4.0 * tol)
        kind, order, axis, generators, elements = _classify(_list_group(sites, mult, tol),
                                                            len(sites), mat_tol)
        elements.flags.writeable = False
    invariant, witness = _invariance(config.n, kind, order, axis, elements, sites, mult, tol)
    return SymmetryReport(kind, order, axis, generators, elements, invariant, witness)


def _ti_axial(n: int, axis: np.ndarray, sites: np.ndarray, mult: np.ndarray):
    # SO(2) and O(2) come only from two antipodal sites: both are poles.
    north = int(mult[sites @ axis > 0].sum())
    south = int(mult.sum()) - north
    return True, (f"all {n} points at the poles of the symmetry axis "
                  f"({north} north, {south} south)")


def _stabiliser_orders(sites: np.ndarray, mats: np.ndarray, tol: float) -> np.ndarray:
    """Each site's stabiliser order: how many listed rotations move it by at
    most tol, the chord test of `_list_group`."""
    images = sites @ mats.transpose(0, 2, 1)
    return np.count_nonzero(_norms(images - sites) <= tol, axis=0)


def _ti_dihedral(m: int, orders: np.ndarray, mult: np.ndarray):
    if m == 2:
        # All three two-fold axes of D2 are alike: the singly occupied pair
        # is the ring, and the other pair the polar stacks.
        matches = len(mult) == 4 and np.all(orders == 2) and mult.min() == 1
        north = int(mult.max())
    else:
        ring = orders == 2
        matches = (np.count_nonzero(ring) == m and np.all(mult[ring] == 1)
                   and np.all(orders[~ring] == m))
        north = int(mult[~ring].max(initial=0))
    if matches:
        return True, (f"{north} points at each pole plus {m} singly occupied, "
                      f"evenly spaced equatorial points")
    return False, ("configuration does not match the dihedral pattern of "
                   "equal polar stacks plus one singly occupied equatorial ring")


# The catalog orbits of each polyhedral group by stabiliser order: (cap,
# name), where cap is the occupancy a site may hold (0: left empty), and
# the bound on the point count.
_POLYHEDRAL = {
    TETRAHEDRAL: ({3: (2, "tetrahedron vertex"), 2: (3, "octahedron vertex")}, None),
    OCTAHEDRAL: ({3: (3, "cube vertex"), 4: (2, "octahedron vertex"),
                  2: (0, "two-fold axis")}, 34),
    ICOSAHEDRAL: ({3: (2, "dodecahedron vertex"), 5: (3, "icosahedron vertex"),
                   2: (0, "two-fold axis")}, 88),
}


def _ti_polyhedral(n: int, kind: str, principal: np.ndarray, sites: np.ndarray,
                   mats: np.ndarray, orders: np.ndarray, mult: np.ndarray, tol: float):
    table, bound = _POLYHEDRAL[kind]
    if bound is not None and n > bound:
        return False, f"{n} points exceeds the stated bound of {bound}"
    usage = []
    for i, order in enumerate(orders):
        if order not in table:
            return False, "a point lies off the rotation-axis orbits"
        cap, name = table[order]
        if cap == 0:
            return False, f"a point lies on a {name}, which the pattern leaves empty"
        if kind == TETRAHEDRAL and order == 3 and not np.any(
                _norms(mats @ sites[i] - principal) <= tol):
            # T's three-fold axes end in two tetrahedra; the one holding the
            # principal axis is the tetrahedron, the other its mirror image.
            name = "mirror-" + name
        if mult[i] > cap:
            return False, f"{mult[i]} points on a {name} exceeds the cap of {cap}"
        usage.append(name)
    names = sorted(set(usage))
    return True, "points occupy " + " and ".join(f"{name} positions ({usage.count(name)} sites)"
                                                for name in names)


def _invariance(n: int, kind: str, order: int, axis: np.ndarray | None, mats: np.ndarray,
                sites: np.ndarray, mult: np.ndarray, tol: float) -> tuple[bool, str]:
    """Total-invariance verdict and witness from the sites and, for the
    finite groups, the group's rotation stack."""
    if kind == SO3:
        return False, ("all points coincident (a product state); the cluster "
                       "can move rigidly without losing any symmetry")
    if kind == TRIVIAL:
        return False, "no nontrivial rotational symmetry"
    if kind == CYCLIC:
        return False, (f"C{order} constrains only azimuths: latitude "
                       "rings can slide along the axis without breaking it")
    if kind in (SO2, O2):
        return _ti_axial(n, axis, sites, mult)
    orders = _stabiliser_orders(sites, mats, tol)
    if kind == DIHEDRAL:
        return _ti_dihedral(order, orders, mult)
    return _ti_polyhedral(n, kind, axis, sites, mats, orders, mult, tol)


# The dihedral orders D_m that each polyhedral group contains.
_DIHEDRAL_SUBGROUPS = {TETRAHEDRAL: {2}, OCTAHEDRAL: {2, 3, 4}, ICOSAHEDRAL: {2, 3, 5}}


def contains_dihedral(config: MajoranaConfig, m: int, tol: float = COINCIDENCE_TOL) -> bool:
    """Whether some dihedral group D_m (order-m rotation plus perpendicular
    flip) preserves the configuration, regardless of the maximal group.
    Read off the group `detect_group` reports: O(2) holds every D_m, D_k
    holds D_m exactly when m divides k, and T, O and Y hold the orders in
    `_DIHEDRAL_SUBGROUPS`.  Raises ValueError unless m is an integer (not a
    bool) of at least 2."""
    _check_integer(m, "dihedral order", 2)
    report = detect_group(config, tol)
    if report.kind == DIHEDRAL:
        return report.order % m == 0
    return report.kind == O2 or m in _DIHEDRAL_SUBGROUPS.get(report.kind, ())

"""Group averaging in the symmetric subspace and the measure-equality
certificate.

Everything lives in the (n+1)-dimensional symmetric subspace: product
states along a direction are the coherent vectors, rotations act through
their Wigner matrices, one (G, n+1, n+1) stack per group built from the
axes and angles of its (G, 3, 3) element stack (`symstate._axis_angle`,
`symstate._wigner_stack`), and averaging a maximizing product state over
the detected symmetry group yields an invariant separable operator omega.
Operators are plain Dicke-basis arrays: `group_average` returns omega and
the Wigner stack, and `certify_equivalence` takes the trace, the least
eigenvalue and the expectation in psi of the residual directly; every
matrix they read is one the module built itself.  If the residual Delta = (omega - Lambda |psi><psi|) / (1 - Lambda)
is a density matrix with no component on psi, then omega has the split that
pins three entanglement measures of psi to the common value -log2(Lambda).

The residual of the full 2^n-dimensional construction can have components
outside the symmetric subspace; omega here is built entirely inside the
subspace, so checking the subspace block of Delta is exactly the
positivity content of the certificate.

The construction (Hayashi, Markham, Murao, Owari and Virmani, PRA 77,
012104, 2008) assumes that psi is, up to scale, the only symmetric state
that transforms under the group the way psi does: psi's isotypic
multiplicity is 1.  When a second such state phi exists, the average
keeps <psi|omega|phi> = <psi|u><u|phi>, which is generally nonzero, so
psi need not be an eigenvector of omega and Delta can fail positivity.
`certify_equivalence` reports the multiplicity beside the four legs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entanglement import EntanglementResult
from .symmetry import O2, SO2, TRIVIAL, SymmetryReport
from .symstate import (SymmetricState, _axis_angle, _frame, _wigner_stack, coherent_amplitudes,
                       wigner_rotation)

OVERLAP_TOL = 1e-6
PSD_TOL = 1e-9
RESIDUAL_COMPONENT_TOL = 1e-9
TRACE_TOL = 1e-9


@dataclass(frozen=True)
class TwirlCertificate:
    """The certificate's four legs, its verdict and its hypothesis.

    `valid` holds when all four legs hold.  `multiplicity` is psi's
    isotypic multiplicity under the group (1 is the construction's
    hypothesis).  `reason` names each failed leg and a multiplicity above
    1; it is None when there is nothing to report.
    """

    lambda_claimed: float
    overlap: float
    delta_min_eig: float
    delta_psi_component: float
    valid: bool
    multiplicity: int
    reason: str | None


def group_average(direction: tuple[float, float], group: SymmetryReport,
                  n: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Dicke-basis matrix of the average of the product state along
    `direction` over the group action, with the stacked Wigner matrices of a
    discrete group's elements (None for the axial kinds).

    Discrete groups average their element stack; the axial groups dephase
    in the excitation basis of the axis (the closed form of the continuous
    average), with an extra flip average for the variant that has one.  The
    result is an invariant convex mixture of product states, so it is
    separable by construction.
    """
    theta, phi = float(direction[0]), float(direction[1])
    if group.kind == TRIVIAL:
        raise ValueError("averaging over the trivial group certifies nothing")
    vec = coherent_amplitudes(n, theta, phi)
    if group.kind in (SO2, O2):
        align = _frame(n, group.axis)
        in_frame = align.conj().T @ vec
        omega = align @ np.diag(np.abs(in_frame) ** 2).astype(complex) @ align.conj().T
        if group.kind == O2:
            flip = wigner_rotation(n, group.generators[0])
            omega = 0.5 * (omega + flip @ omega @ flip.conj().T)
        return omega, None
    if not len(group.elements):
        raise ValueError(f"group kind {group.kind!r} carries no element stack")
    mats = _wigner_stack(n, *_axis_angle(group.elements))
    orbit = mats @ vec
    return orbit.T @ orbit.conj() / len(mats), mats


def _isotypic_multiplicity(amps: np.ndarray, mats: np.ndarray) -> int:
    """Dimension of the symmetric states that transform like psi.

    With chi_g = <psi|D(g)|psi>, the operator (1/|G|) sum conj(chi_g) D(g)
    projects onto that space, so its trace is the dimension.  The factor
    conj(chi_g) cancels the sign ambiguity of D(g) at odd n.
    """
    chars = (mats @ amps) @ amps.conj()
    traces = np.trace(mats, axis1=1, axis2=2)
    return int(round(float((chars.conj() @ traces).real) / len(mats)))


def certify_equivalence(state: SymmetricState, ent: EntanglementResult,
                        sym: SymmetryReport) -> TwirlCertificate:
    """Build omega from the maximizer and check the certificate algebra.

    The construction runs for every group detection reports; the pattern
    verdict `sym.totally_invariant` is not read.  The four legs decide
    `valid`, and a multiplicity above 1, the construction's hypothesis
    failing, leads the `reason`.  It raises ValueError only where no
    certificate can be built: the trivial group, a product state
    (1 - Lambda = 0) and an unconverged measure (no maximizer).
    The multiplicity is computed from the Wigner matrices the average
    already built; it is 1 for the axial kinds, where psi is an
    eigenvector of the axial Jz and Jz has no repeated eigenvalue.
    """
    if not ent.converged:
        raise ValueError("optimizer did not converge; certificate needs a maximizer")
    lam = ent.lam
    if lam >= 1.0 - 1e-12:
        raise ValueError("product state: 1 - Lambda vanishes and the "
                         "residual is undefined")
    omega, mats = group_average((ent.theta, ent.phi), sym, state.n)
    multiplicity = 1 if mats is None else _isotypic_multiplicity(state.amps, mats)
    psi = state.amps
    overlap = float(np.vdot(psi, omega @ psi).real)
    delta = (omega - lam * np.outer(psi, psi.conj())) / (1.0 - lam)
    min_eig = float(np.linalg.eigvalsh(delta)[0])
    psi_component = float(np.vdot(psi, delta @ psi).real)
    trace_gap = float(np.trace(delta).real) - 1.0
    legs = [
        (abs(overlap - lam) <= OVERLAP_TOL,
         f"overlap leg: <psi|omega|psi> - Lambda = {overlap - lam:+.3e}"),
        (min_eig >= -PSD_TOL,
         f"positivity leg: least eigenvalue of Delta is {min_eig:+.3e}"),
        (abs(psi_component) <= RESIDUAL_COMPONENT_TOL,
         f"psi-component leg: <psi|Delta|psi> = {psi_component:+.3e}"),
        (abs(trace_gap) <= TRACE_TOL,
         f"trace leg: tr Delta - 1 = {trace_gap:+.3e}"),
    ]
    failed = [message for holds, message in legs if not holds]
    hypothesis = []
    if multiplicity > 1:
        hypothesis.append(f"psi's isotypic multiplicity is {multiplicity}, not 1: "
                          "another symmetric state transforms like psi, so the "
                          "average need not keep psi as an eigenvector")
    return TwirlCertificate(lambda_claimed=lam, overlap=overlap,
                            delta_min_eig=min_eig,
                            delta_psi_component=psi_component,
                            valid=not failed, multiplicity=multiplicity,
                            reason="; ".join(hypothesis + failed) or None)

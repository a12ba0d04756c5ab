"""Correctness gate: every instance of a pass either passes every check or
counts as failed.  The checks read only the program's outputs, never its
kernels, so they add no calls to the traced layers."""

from __future__ import annotations

import numpy as np

#: ROADMAP rule for radii: a change may not move them by more than this.
RADII_REL_TOL = 1e-12
#: A certificate's bounds Y0, Z0 and Z2 may fall below their committed values
#: by no more than this share: a faster bound that is smaller is unsound
#: unless it was tightened on purpose and the reference regenerated.
BOUND_REL_TOL = 1e-9
CERT_BOUNDS = ("Y0", "Z0", "Z2")


def relative_distance(radii, reference) -> float:
    radii = np.asarray(radii, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if radii.shape != reference.shape:
        return float("inf")
    return float(np.max(np.abs(radii - reference) / np.abs(reference)))


def check_certified(radii, center, p_at_rho0, residual_norm, tol, reference=None) -> list[str]:
    """Reasons why a built-and-certified instance is wrong (empty when it is
    right).  Comparisons are written so that NaN fails them."""
    reasons = []
    radii = np.asarray(radii, dtype=np.float64)
    if center is None:
        reasons.append("no certificate")
    else:
        center = np.asarray(center, dtype=np.float64)
        if center.shape != radii.shape or center.tobytes() != radii.tobytes():
            reasons.append("certificate center is not bitwise equal to the radii")
    if not p_at_rho0 < 0.0:
        reasons.append(f"p(rho0) = {p_at_rho0!r} is not negative")
    if not residual_norm <= tol:
        reasons.append(f"residual {residual_norm!r} above tolerance {tol!r}")
    if reference is not None:
        rel = relative_distance(radii, reference)
        if not rel <= RADII_REL_TOL:
            reasons.append(f"radii {rel:.3e} relative from the reference")
    return reasons


def check_bounds(cert, reference, names=CERT_BOUNDS) -> list[str]:
    """Reasons why the bounds ``names`` of a certificate (a dict of its
    numbers) fall below those committed in ``reference``."""
    reasons = []
    for name in names:
        ref = reference.get(name, float("nan"))
        if not cert[name] >= ref * (1.0 - BOUND_REL_TOL):
            reasons.append(f"{name} = {cert[name]!r} below the reference {ref!r}")
    return reasons

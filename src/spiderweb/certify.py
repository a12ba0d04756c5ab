"""Rigorous certification of computed configurations.

Around a numerical zero r of the residual map f, with A the floating-point
inverse of the float Jacobian, interval arithmetic yields bounds

    Y0 >= ||A f(r)||_inf,
    Z0 >= ||Id - A Df(r)||_inf,
    Z2 >= sup over the rho*-ball of max_i sum_{l,j} |sum_m A_im d^2_{lj} f_m|,

and a root of p(rho) = Z2 rho^2 - (1 - Z0) rho + Y0 with p(rho0) < 0 (checked
again in interval arithmetic) proves that A is invertible and that a unique
true configuration lies within rho0 of the numerical one.

Z2 is bounded by the triangle inequality as max_i (|A| h)_i, where h_m is the
row mass sum_{l,j} |d^2_{lj} f_m| of the interval Hessian on the ball.

Two balls are tried: first the default ball, 1e-4 of the tightest gap, then,
if that fails, the ball of radius 4 Y0 / (1 - Z0).  The smaller root of p
never exceeds 2 Y0 / (1 - Z0), so the second ball holds rho0 whenever p has
a verified negative value on it, and Z2 grows with the ball.

The module also carries the computer-assisted positivity check of the
row-dominance kernel h_ell on [0, 1] (interval bisection of [0, 1] until
every box's enclosure lies above a positive bound).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core, intervals
from .core import FLOAT64, INTERVAL, Configuration, SpiderwebParams, require_cone
from .intervals import Interval

__all__ = [
    "Certificate",
    "CertificationFailed",
    "BallLeavesCone",
    "HCheckReport",
    "bound_Y0",
    "bound_Z0",
    "bound_Z2",
    "radii_poly_check",
    "certify",
    "h_ell_check",
    "verify_h_lower_bound",
    "default_rho_star",
]

Z0_TOO_LARGE = "Z0_TOO_LARGE"
NO_NEGATIVE_VALUE = "NO_NEGATIVE_VALUE"
BALL_LEAVES_CONE = "BALL_LEAVES_CONE"
SINGULAR_JACOBIAN = "SINGULAR_JACOBIAN"
NON_FINITE_BOUND = "NON_FINITE_BOUND"


class CertificationFailed(RuntimeError):
    def __init__(self, reason: str, message: str, **data):
        super().__init__(f"{reason}: {message}")
        self.reason = reason
        self.data = data


class BallLeavesCone(CertificationFailed):
    def __init__(self, message: str, **data):
        super().__init__(BALL_LEAVES_CONE, message, **data)


@dataclass
class Certificate:
    """Proof data: a unique true zero lies in the rho0-ball at the center."""

    center: np.ndarray
    rho_star: float
    Y0: float
    Z0: float
    Z2: float
    rho0: float
    p_at_rho0: float


@dataclass
class HCheckReport:
    """Outcome of the positivity proof for h_ell on [0, 1]."""

    ell: int
    lower_bound: float | None  # proved by bisection; None unless verified
    verified: bool
    negative_at: float | None = None
    negative_value: float | None = None


def _require_finite(bound: str, what: str, *arrays):
    """Fail closed: max() and every comparison would pass a NaN as small."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise CertificationFailed(NON_FINITE_BOUND, f"{bound}: the {what} is not finite")


def bound_Y0(a: np.ndarray, f: Interval) -> float:
    """Rigorous upper bound of ||A f||_inf for the interval residual f at
    the center."""
    _require_finite("Y0", "residual enclosure", f.lo, f.hi)
    y0 = intervals.vector_sup_norm(intervals.matmul(a, f))
    _require_finite("Y0", "bound", y0)
    return y0


def bound_Z0(a: np.ndarray, jac: Interval) -> float:
    """Rigorous upper bound of ||Id - A jac||_inf for the interval Jacobian
    jac at the center."""
    _require_finite("Z0", "Jacobian enclosure", jac.lo, jac.hi)
    eye = Interval.point(np.eye(jac.shape[0]))
    z0 = intervals.matrix_sup_norm(eye - intervals.matmul(a, jac))
    _require_finite("Z0", "bound", z0)
    return z0


def _ball_box(center, rho_star):
    return Interval(intervals.down(center - rho_star), intervals.up(center + rho_star))


def _require_rho_star(rho_star: float):
    """A ball radius that is NaN, infinite or not positive proves nothing."""
    if not (np.isfinite(rho_star) and rho_star > 0):
        raise ValueError(f"rho_star must be finite and positive, got {rho_star}")


def bound_Z2(a: np.ndarray, center, params: SpiderwebParams, rho_star: float) -> float:
    """Rigorous upper bound, uniform over the rho*-ball, of
    max_i sum_{l,j} |sum_m A_im d^2_{lj} f_m|: the triangle bound max_i (|A| h)_i
    with h_m = |diag_m| + sum_{j != m} (2 |t_mixed[m, j]| + |t_outer[m, j]|),
    the row mass of the Hessian's parts, every sum rounded upward."""
    center = require_cone(center)
    _require_rho_star(rho_star)
    a = np.asarray(a, dtype=np.float64)
    box = _ball_box(center, rho_star)
    try:
        diag, t_mixed, t_outer = core.hessian_parts(params, box, INTERVAL)
    except core.OrderingViolated as exc:
        raise BallLeavesCone(
            f"radius {rho_star:.3e} ball around the center can break the ordering: {exc}"
        ) from exc
    except (intervals.NegativeSqrt, intervals.DivisionByZeroInterval) as exc:
        raise BallLeavesCone(
            f"interval evaluation on the rho* ball hit a singularity: {exc}"
        ) from exc
    _require_finite(
        "Z2", "Hessian enclosure",
        diag.lo, diag.hi, t_mixed.lo, t_mixed.hi, t_outer.lo, t_outer.hi,
    )
    mass = intervals.up(2.0 * t_mixed.mag() + t_outer.mag())
    np.fill_diagonal(mass, diag.mag())
    h = intervals.pairwise_sum(mass, rounder=intervals.up)
    totals = intervals.matmul(np.abs(a), Interval.point(h)).hi
    _require_finite("Z2", "row totals", totals)
    return float(np.max(totals))


def radii_poly_check(Y0: float, Z0: float, Z2: float, rho_star: float):
    """Find rho0 <= rho* with p(rho0) < 0 verified in interval arithmetic.

    Returns (rho0, p_upper).  The candidate is the smaller quadratic root in
    its cancellation-free form, inflated until the interval check passes.
    """
    for name, v in (("Y0", Y0), ("Z0", Z0), ("Z2", Z2)):
        if not np.isfinite(v) or v < 0:
            raise ValueError(f"{name} must be finite and nonnegative, got {v}")
    _require_rho_star(rho_star)
    if Z0 >= 1.0:
        raise CertificationFailed(
            Z0_TOO_LARGE, f"Z0 = {Z0:.6g} >= 1, A is too far from the true inverse",
            Z0=Z0,
        )
    if Y0 == 0.0:
        cand = min(rho_star, 2.0**-100)
    else:
        disc = (1.0 - Z0) ** 2 - 4.0 * Z2 * Y0
        if disc <= 0.0:
            raise CertificationFailed(
                NO_NEGATIVE_VALUE,
                f"negative discriminant {disc:.6g}: p has no real root, "
                f"4 Y0 Z2 = {4.0 * Y0 * Z2:.6g} exceeds (1 - Z0)^2 = {(1.0 - Z0) ** 2:.6g}",
                Y0=Y0, Z0=Z0, Z2=Z2,
            )
        cand = 2.0 * Y0 / ((1.0 - Z0) + np.sqrt(disc))
    one_minus_z0 = 1.0 - Interval.point(Z0)
    rho0 = float(intervals.up(cand))
    for bump in range(20):
        if rho0 > rho_star:
            break
        riv = Interval.point(rho0)
        p = Interval.point(Z2) * intervals.square(riv) - one_minus_z0 * riv + Y0
        if float(p.hi) < 0.0:
            return rho0, float(p.hi)
        rho0 = float(rho0 * (1.0 + 2.0 ** (-50 + 2 * bump)))
    raise CertificationFailed(
        NO_NEGATIVE_VALUE,
        f"no rho0 <= rho* = {rho_star:.6g} with verified p(rho0) < 0",
        Y0=Y0, Z0=Z0, Z2=Z2, rho_star=rho_star,
    )


def default_rho_star(center) -> float:
    """Heuristic ball cap: 1e-4 of the tightest gap, r_1 being the gap from 0."""
    return 1e-4 * float(np.min(np.diff(center, prepend=0.0)))


def certify(config: Configuration) -> Certificate:
    """Assemble A, compute (Y0, Z0, Z2), and run the radii-polynomial check
    on the default ball, then, when the failure is ball-related, once more
    on the ball of radius 4 Y0 / (1 - Z0).

    Success proves existence and local uniqueness of a true configuration
    within rho0 of the numerical radii."""
    params = config.params
    center = require_cone(config.radii)
    jac = core.jacobian(params, center, FLOAT64)
    try:
        a = np.linalg.inv(jac)
    except np.linalg.LinAlgError as exc:
        raise CertificationFailed(
            SINGULAR_JACOBIAN, f"float Jacobian not invertible: {exc}"
        ) from exc
    # one interval pass over the pair kernels at the center feeds Y0 and Z0
    try:
        f, df = core.residual_and_jacobian(params, Interval.point(center), INTERVAL)
    except (intervals.NegativeSqrt, intervals.DivisionByZeroInterval) as exc:
        raise CertificationFailed(
            NON_FINITE_BOUND, f"interval evaluation at the center failed: {exc}"
        ) from exc
    y0 = bound_Y0(a, f)
    z0 = bound_Z0(a, df)
    if z0 >= 1.0:
        raise CertificationFailed(
            Z0_TOO_LARGE, f"Z0 = {z0:.6g} >= 1 at the given center", Z0=z0
        )
    # the default ball, then one just large enough to hold rho0
    retry = float(intervals.up(4.0 * y0 / (1.0 - z0)))
    balls = [default_rho_star(center)] + ([retry] if np.isfinite(retry) and retry > 0 else [])
    for tries, rho_star in enumerate(balls, 1):
        try:
            z2 = bound_Z2(a, center, params, rho_star)
            rho0, p_hi = radii_poly_check(y0, z0, z2, rho_star)
            return Certificate(
                center=center.copy(),
                rho_star=rho_star,
                Y0=y0,
                Z0=z0,
                Z2=z2,
                rho0=rho0,
                p_at_rho0=p_hi,
            )
        except CertificationFailed as exc:
            if tries == len(balls) or exc.reason not in (BALL_LEAVES_CONE, NO_NEGATIVE_VALUE):
                raise


# ---------------------------------------------------------------------------
# positivity of h_ell on [0, 1]
# ---------------------------------------------------------------------------

_PRESAMPLE = 2001
# box budget of verify_h_lower_bound's bisection
_MAX_BOXES = 400000


def h_ell_check(ell: int) -> HCheckReport:
    """Computer-assisted positivity proof of h_ell on [0, 1].

    A float presample proposes a lower bound m > 0, which interval bisection
    (:func:`verify_h_lower_bound`) then proves.  When the presample dips
    below zero the routine instead tries to certify a negative value
    (verified = False either way).
    """
    if ell < 2:
        raise ValueError(f"ell must be >= 2, got {ell}")
    xs = np.linspace(0.0, 1.0, _PRESAMPLE)
    vals = core.h_ell(xs, ell, FLOAT64)
    i_min = int(np.argmin(vals))
    m_est = float(vals[i_min])
    if m_est <= 0.0:
        witness = float(core.h_ell(Interval.point(xs[i_min]), ell, INTERVAL).hi)
        refuted = witness < 0.0
        return HCheckReport(
            ell=ell,
            lower_bound=None,
            verified=False,
            negative_at=float(xs[i_min]) if refuted else None,
            negative_value=witness if refuted else None,
        )
    m = 0.5 * m_est
    verified = verify_h_lower_bound(ell, m)
    return HCheckReport(ell=ell, lower_bound=m if verified else None, verified=verified)


def verify_h_lower_bound(ell: int, bound: float) -> bool:
    """Rigorously verify min h_ell > bound on [0, 1] by adaptive bisection.

    Returns False when a violation is certain or when the box budget runs out
    (never claims success without proof)."""
    lo = np.array([0.0])
    hi = np.array([1.0])
    used = 0
    while lo.size:
        used += lo.size
        if used > _MAX_BOXES:
            return False
        enclosure = core.h_ell(Interval(lo, hi), ell, INTERVAL)
        # a NaN compares False both ways, so only lo > bound decides a box
        if not (np.isfinite(enclosure.lo).all() and np.isfinite(enclosure.hi).all()):
            return False
        if np.any(enclosure.hi <= bound):
            return False
        undecided = ~(enclosure.lo > bound)
        if not np.any(undecided):
            return True
        lo, hi = lo[undecided], hi[undecided]
        if np.any(hi - lo < 1e-12):
            return False
        mid = 0.5 * (lo + hi)
        lo = np.concatenate([lo, mid])
        hi = np.concatenate([mid, hi])
    return True

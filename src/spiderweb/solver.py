"""Numerical construction of spiderweb central configurations.

The build follows an induction on the ring count: the single-ring system has
a closed-form radius, a new massless ring has a unique equilibrium radius in
every gap (found by safeguarded Newton on the strictly monotone probe lambda,
whose limits at the gap's ends make the gap itself the bracket), and the new
ring is then solved at its target mass by one damped Newton solve.  From the
third ring on, that solve starts from the secant prediction of
predictor-corrector continuation: the inserted radii moved by the relative
displacement the previous ring's mass caused.  The second ring, a prediction
outside the cone and a prediction whose solve fails are solved from the
zero-mass insertion instead; when that solve fails too, the build stops with
``ContinuationStalled``.  Newton stops at the float floor of the residual,
where no step can lower |f|, and reports the norm it reached.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .core import (
    FLOAT64,
    Configuration,
    OrderingViolated,
    SpiderwebParams,
    require_cone,
)

__all__ = [
    "ContinuationSettings",
    "SolverError",
    "NewtonDiverged",
    "SingularJacobian",
    "ContinuationStalled",
    "BracketError",
    "solve_single_ring",
    "insert_zero_mass_ring",
    "continue_mass",
    "build_configuration",
]

_ALPHA_MIN = 2.0**-10
_BRACKET_DOUBLINGS = 60
# ring insertion stops at this width relative to the outermost radius, and
# gives up after twice the bisections from a 2^60 r_n bracket down to it
_INSERT_REL_TOL = 1e-13
_INSERT_MAX_STEPS = 200
# float floor: a Newton step at most this size relative to the radii moves
# them near rounding level, so when it does not lower |f| no shorter one will
_STALL_STEP_REL = 2.0**-40


class SolverError(RuntimeError):
    pass


class NewtonDiverged(SolverError):
    pass


class SingularJacobian(SolverError):
    pass


class ContinuationStalled(SolverError):
    pass


class BracketError(SolverError):
    pass


@dataclass
class ContinuationSettings:
    """Tolerance and iteration cap of every damped Newton solve.  The mass
    continuation has no knob: each ring is added at its whole mass by one
    solve from the secant prediction or the zero-mass insertion, and by one
    more from the insertion when the first fails."""

    newton_tol: float = 1e-12
    newton_max_iter: int = 50

    def __post_init__(self):
        if not (np.isfinite(self.newton_tol) and self.newton_tol > 0):
            raise ValueError(f"newton_tol must be finite and positive, got {self.newton_tol}")
        cap = self.newton_max_iter
        is_int = isinstance(cap, (int, np.integer)) and not isinstance(cap, (bool, np.bool_))
        if not (is_int and cap >= 1):
            raise ValueError(f"newton_max_iter must be an integer >= 1, got {cap!r}")


def _in_cone(r) -> bool:
    return bool(r[0] > 0.0 and np.all(np.diff(r) > 0.0) and np.all(np.isfinite(r)))


def _norm_inf(v) -> float:
    return float(np.max(np.abs(v)))


def _newton_raw(r0, masses, m0, lam, ell, settings: ContinuationSettings):
    """Damped Newton iteration on the raw arrays.

    Returns (radii, residual_norm, iterations, norm_history).  Steps that
    leave the cone or fail to decrease the residual are rejected by halving
    the damping factor down to 2^-10.  When the residual is pinned at its
    float evaluation floor (the full Newton step is at most _STALL_STEP_REL
    of the radii and does not lower |f|), the iterate is returned at once,
    before any damped candidate is tried, with the norm it achieved, which
    may lie above ``newton_tol``.
    """
    r = np.asarray(r0, dtype=np.float64).copy()
    f = core._residual_raw(r, masses, m0, lam, ell, FLOAT64)
    norm = _norm_inf(f)
    history = [norm]

    def at_float_floor(step):
        return _norm_inf(step) <= _STALL_STEP_REL * _norm_inf(r)

    for it in range(settings.newton_max_iter):
        if norm <= settings.newton_tol:
            return r, norm, it, history
        jac = core._jacobian_raw(r, masses, m0, lam, ell, FLOAT64)
        try:
            step = np.linalg.solve(jac, f)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(f"linear solve failed at iterate {it}: {exc}") from exc
        alpha = 1.0
        while True:
            cand = r - alpha * step
            if _in_cone(cand):
                f_cand = core._residual_raw(cand, masses, m0, lam, ell, FLOAT64)
                n_cand = _norm_inf(f_cand)
                if n_cand < norm or n_cand <= settings.newton_tol:
                    break
            # no shorter step can lower |f| when the full one is at rounding scale
            if alpha == 1.0 and at_float_floor(step):
                return r, norm, it, history
            alpha *= 0.5
            if alpha < _ALPHA_MIN:
                raise NewtonDiverged(
                    f"no damping step accepted at iterate {it} (|f| = {norm:.3e})"
                )
        r, f, norm = cand, f_cand, n_cand
        history.append(norm)
    if norm <= settings.newton_tol:
        return r, norm, settings.newton_max_iter, history
    raise NewtonDiverged(
        f"residual {norm:.3e} > {settings.newton_tol:.1e} "
        f"after {settings.newton_max_iter} iterations"
    )


def solve_single_ring(params: SpiderwebParams) -> Configuration:
    """Closed-form solution of the one-ring system."""
    if params.n != 1:
        raise ValueError(f"solve_single_ring needs n = 1, got n = {params.n}")
    z = float(core.zeta(params.ell, FLOAT64))
    r1 = np.cbrt((params.masses[0] * z / (2.0 * np.sqrt(2.0)) + params.m0) / (-params.lam))
    if not (np.isfinite(r1) and r1 > 0.0):
        raise SolverError(f"closed-form radius {r1} is not finite and positive")
    radii = np.array([r1])
    norm = _norm_inf(core.residual(params, radii, FLOAT64))
    return Configuration(params, radii, norm)


def insert_zero_mass_ring(config: Configuration, gap: int) -> np.ndarray:
    """Radius vector extended by the unique massless-ring equilibrium in the
    chosen gap: gap i in 1..n-1 is (r_i, r_{i+1}), gap n is (r_n, infinity),
    and gap 0 is (0, r_1), which has a root only when a central mass pulls the
    probe lambda to -infinity at the origin."""
    params = config.params
    r = require_cone(config.radii)
    n = params.n
    if not 0 <= gap <= n:
        raise ValueError(f"gap must be in 0..{n}, got {gap}")
    norm = _norm_inf(core.residual(params, r, FLOAT64))
    if norm > 1e-8:
        raise SolverError(
            f"insertion requires a solved configuration, |f| = {norm:.3e}"
        )
    return _insert_ring(params, r, gap)


def _insert_ring(params: SpiderwebParams, r, gap: int) -> np.ndarray:
    """insert_zero_mass_ring on cone radii r, taken to solve the system."""
    lo, hi = _sign_bracket(params, r, gap)
    return np.insert(r, gap, _safeguarded_newton(params, r, lo, hi))


def _sign_bracket(params: SpiderwebParams, r, gap: int):
    """(lo, hi) with the probe lambda below lam just above lo and above it
    just below hi, so the gap's unique root lies strictly between.  An inner
    gap is its own bracket: the probe lambda runs from -infinity just outside
    r_i to +infinity just inside r_{i+1}, and from -infinity at the origin
    under a central mass.  Without one it tends to +(ell/2) sum_j m_j / r_j^3
    > 0 > lam there, so gap 0 has no root.  In the outer gap the probe is
    evaluated at 2 r_n, 4 r_n, ... until it exceeds lam; lo is the last
    doubling below lam, or r_n.  A NaN or zero value never becomes an end."""
    if 0 < gap < params.n:
        return r[gap - 1], r[gap]
    if gap == 0:
        if params.m0 > 0.0:
            return 0.0, r[0]
        raise BracketError("gap 0 has no equilibrium without a central mass")
    lo, hi = r[-1], 2.0 * r[-1]
    for _ in range(_BRACKET_DOUBLINGS):
        val = core.probe_ring_lambda(params, r, hi) - params.lam
        if val > 0.0:
            return lo, hi
        if val < 0.0:
            lo = hi
        hi *= 2.0
    raise BracketError("probe lambda never exceeded lambda in the outer gap")


def _safeguarded_newton(params: SpiderwebParams, r, lo, hi) -> float:
    """Root of the probe lambda minus lam in the sign bracket (lo, hi); the
    ends, which may be a ring or the origin, are never evaluated.

    Newton steps on the probe's own slope, each taken only when it lands
    strictly inside the bracket and at most half as long as the previous
    step; otherwise the bracket is bisected (Numerical Recipes, section 9.4,
    rtsafe).  Every evaluation narrows the bracket, so a wrong slope costs
    steps but never leaves it.  Stops when the Newton correction rounds
    away, or when a step moves the radius by at most half the tolerance: for
    a bisection that is a bracket of width _INSERT_REL_TOL * r_n."""
    tol = _INSERT_REL_TOL * r[-1]
    s = 0.5 * (lo + hi)
    step = hi - lo
    for _ in range(_INSERT_MAX_STEPS):
        lam, slope = core.probe_ring_lambda(params, r, s, slope=True)
        g = lam - params.lam
        if g < 0.0:
            lo = s
        else:
            hi = s
        newton = s - g / slope if slope else np.nan
        if newton == s:  # a root, or a Newton correction below rounding
            return s
        if lo < newton < hi and abs(newton - s) <= 0.5 * step:
            s_next = newton
        else:
            s_next = 0.5 * (lo + hi)
        step = abs(s_next - s)
        s = s_next
        if step <= 0.5 * tol:
            return s
    raise BracketError(
        f"insertion did not converge in {_INSERT_MAX_STEPS} steps "
        f"(bracket [{lo:.17g}, {hi:.17g}])"
    )


def continue_mass(
    params: SpiderwebParams,
    radii,
    target_mass: float,
    settings: ContinuationSettings | None = None,
) -> Configuration:
    """Continue the appended ring's mass from zero to target_mass > 0.

    ``params`` describes the n base rings; ``radii`` has n+1 entries and must
    solve the system at zero appended mass.  One damped Newton solve at the
    full mass from these radii (constant predictor); its failure raises
    ``ContinuationStalled``.
    """
    settings = settings or ContinuationSettings()
    r = require_cone(radii)
    if r.shape != (params.n + 1,):
        raise OrderingViolated(
            f"expected {params.n + 1} radii (base rings plus one), got {r.shape}"
        )
    norm0 = _norm_inf(core._residual_raw(
        r, np.append(params.masses, 0.0), params.m0, params.lam, params.ell, FLOAT64
    ))
    if norm0 > 1e-8:
        raise SolverError(
            f"input radii do not solve the zero-mass system, |f| = {norm0:.3e}"
        )
    return _continue_ring(params, r, target_mass, settings)


def _continue_ring(params: SpiderwebParams, r, target_mass, settings,
                   start=None) -> Configuration:
    """continue_mass on cone radii r that solve the zero-mass system.  A
    ``start`` in the cone is tried first, by one Newton solve at the full
    mass; without one, or when that solve fails, one solve at the full mass
    starts from r.  When that fails too, ``ContinuationStalled`` names the
    Newton failure and chains it."""
    # the validated constructor rejects a target mass that is not finite and > 0
    extended = SpiderwebParams(
        params.n + 1, params.ell, params.m0,
        np.append(params.masses, float(target_mass)), params.lam,
    )

    def solve(r0):
        r_new, norm, _, _ = _newton_raw(
            r0, extended.masses, params.m0, params.lam, params.ell, settings
        )
        return Configuration(extended, r_new, norm)

    if start is not None and _in_cone(start):
        try:
            return solve(start)
        except (NewtonDiverged, SingularJacobian):
            pass
    try:
        return solve(r)
    except (NewtonDiverged, SingularJacobian) as exc:
        raise ContinuationStalled(
            f"Newton solve at mass {extended.masses[-1]:.6g} from the zero-mass "
            f"insertion failed: {exc}"
        ) from exc


def _secant_prediction(r_ins, delta):
    """Start for a ring's full-mass Newton solve: the inserted radii r_ins
    moved by the relative displacement delta that the previous ring's mass
    caused, aligned from the outermost ring, with delta's innermost entry
    repeated for the rings it does not cover (secant predictor of
    predictor-corrector continuation; Allgower & Georg, ch. 2)."""
    return r_ins * (1.0 + np.pad(delta, (r_ins.size - delta.size, 0), mode="edge"))


def build_configuration(
    params: SpiderwebParams, settings: ContinuationSettings | None = None
) -> Configuration:
    """Construct the full configuration ring by ring: closed form for one
    ring, then repeated outermost-gap insertion of a massless ring and a
    Newton solve at the new ring's mass.

    From the third ring on, that solve starts from the secant prediction:
    the inserted radii moved by the relative displacement the previous
    ring's mass caused.  The second ring, and a ring whose prediction leaves
    the cone or whose predicted solve fails, is solved from the zero-mass
    insertion, as ``continue_mass`` does.  The last ring's solve is a solve
    of the full system, so its radii and residual norm are the result."""
    settings = settings or ContinuationSettings()
    base = SpiderwebParams(1, params.ell, params.m0, params.masses[:1], params.lam)
    config = solve_single_ring(base)
    delta = None
    for k in range(2, params.n + 1):
        # config is the solver's own output, solved down to its tolerance or
        # its float floor, and a massless ring inserted into it solves the
        # zero-mass system, so neither residual is checked again
        try:
            extended = _insert_ring(config.params, config.radii, k - 1)
            start = None if delta is None else _secant_prediction(extended, delta)
            config = _continue_ring(config.params, extended, params.masses[k - 1],
                                    settings, start)
        except SolverError as exc:
            exc.ring_index = k
            exc.args = (f"construction failed while adding ring {k}: {exc}",)
            raise
        delta = (config.radii - extended) / extended
    return Configuration(params, config.radii, config.residual_norm)

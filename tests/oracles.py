"""Test-only cross-checks of the spoke-sum formulas in ``spiderweb.core``:
the phi form of forces and Jacobian, built from phi_nu(x) = sum_k d_k(x)^-nu,
the dense Hessian tensor, the Jacobian row sums and their positive
decomposition through h_ell with the diagonal-dominance check built on it,
in both scalar kinds; the pairwise sum with its axis moved to the front and
a zero pad at odd levels, and the four-endpoint interval product, quotient
and square, that the lean forms of ``spiderweb.intervals`` must reproduce;
ring insertion by plain bisection of the probe lambda; the per-ring lambda
values; and a plain damped Newton solve from a given start."""

import numpy as np

from spiderweb import solver
from spiderweb.core import (
    FLOAT64,
    INTERVAL,
    CollisionError,
    Configuration,
    SpiderwebParams,
    _force_per_mass,
    _validate_radii,
    h_ell,
    hessian_parts,
    jacobian,
    probe_ring_lambda,
    require_cone,
    zeta,
)
from spiderweb.intervals import Interval, down, pairwise_sum, up


def powi_tree(x, p, *, mul, square):
    """x**p for integer p >= 1 via a fixed square-and-multiply tree."""
    if p < 1 or p != int(p):
        raise ValueError(f"integer power must be >= 1, got {p}")
    p = int(p)
    if p == 1:
        return x
    if p % 2 == 0:
        return powi_tree(square(x), p // 2, mul=mul, square=square)
    return mul(x, powi_tree(square(x), (p - 1) // 2, mul=mul, square=square))


def _guard_phi_argument(x, ell):
    x = np.asarray(x, dtype=np.float64)
    if np.any(x == 1.0):
        raise CollisionError("phi argument x = 1 is a collision singularity")
    if ell % 2 == 0 and np.any(x == -1.0):
        raise CollisionError("phi argument x = -1 collides for even ell")
    return x


def _spoke_distances_sq(x, ell, kind):
    """d_k(x)^2 = 1 + x^2 - 2 x cos(2 pi k / ell) along a trailing axis, in
    the cancellation-free arrangement (x - c)^2 + (1 - c)(1 + c)."""
    if not isinstance(x, Interval):
        _guard_phi_argument(x, ell)
    c = kind.cos_angles(ell)
    x = kind.lift(x)
    xe = x[..., None]
    d2 = kind.square(xe - c) + (1.0 - c) * (1.0 + c)
    return xe, c, d2


def phi(nu, x, ell: int, kind=FLOAT64):
    """Distance-power sum over one ring's spokes, phi_nu(x) = sum_k d_k(x)^-nu.

    Interval mode supports integer nu; float mode accepts any nu > 0.
    """
    if nu <= 0:
        raise ValueError(f"nu must be positive, got {nu}")
    if int(ell) != ell or ell < 2:
        raise ValueError(f"ell must be an integer >= 2, got {ell}")
    ell = int(ell)
    _, _, d2 = _spoke_distances_sq(x, ell, kind)
    if nu == int(nu):
        nu = int(nu)
        base, p = (d2, nu // 2) if nu % 2 == 0 else (kind.sqrt(d2), nu)
        dpow = powi_tree(base, p, mul=lambda a, b: a * b, square=kind.square)
    elif kind.is_interval:
        raise ValueError("interval mode supports only integer nu")
    else:
        dpow = d2 ** (nu / 2.0)
    return kind.sum(1.0 / dpow)


def phi_d1(x, ell: int, kind=FLOAT64):
    """Termwise first derivative of phi_1."""
    xe, c, d2 = _spoke_distances_sq(x, ell, kind)
    s = kind.sqrt(d2)
    p3 = s * kind.square(s)
    return -kind.sum((xe - c) / p3)


def phi_d2(x, ell: int, kind=FLOAT64):
    """Termwise second derivative of phi_1."""
    xe, c, d2 = _spoke_distances_sq(x, ell, kind)
    s = kind.sqrt(d2)
    p5 = s * kind.square(kind.square(s))
    return -kind.sum((d2 - 3.0 * kind.square(xe - c)) / p5)


def force_contribution(i: int, j: int, params: SpiderwebParams, radii, kind=FLOAT64):
    """F_ij / m_i: force per unit mass on a body of ring i (1-based) from ring
    j (1-based; j = 0 is the central mass), along the four-case split."""
    if not 1 <= i <= params.n:
        raise ValueError(f"ring index i must be in 1..{params.n}, got {i}")
    if not 0 <= j <= params.n:
        raise ValueError(f"source index j must be in 0..{params.n}, got {j}")
    radii = _validate_radii(radii)
    r = kind.lift(radii)
    ri = r[i - 1]
    ri2 = kind.square(ri)
    if j == 0:
        return -(params.m0 / ri2)
    mj = params.masses[j - 1]
    if j == i:
        sqrt8 = kind.sqrt(kind.lift(8.0))
        return -(mj * zeta(params.ell, kind)) / (sqrt8 * ri2)
    if j < i:
        y = r[j - 1] / ri
        return -(mj / ri2) * (phi(1, y, params.ell, kind) + y * phi_d1(y, params.ell, kind))
    x = ri / r[j - 1]
    return ((mj * kind.square(x)) / ri2) * phi_d1(x, params.ell, kind)


def jacobian_phi_form(params: SpiderwebParams, radii, kind=FLOAT64):
    """Jacobian D_r f assembled from phi_1 and its derivatives; equivalent to
    ``core.jacobian``."""
    radii = _validate_radii(radii)
    r = kind.lift(radii)
    n, ell, m = params.n, params.ell, params.masses
    sqrt2 = kind.sqrt(kind.lift(2.0))
    z = zeta(ell, kind)
    rows = []
    for i in range(n):
        ri = r[i]
        ri3 = ri * kind.square(ri)
        entries = [None] * n
        diag = params.lam - (m[i] * z) / (sqrt2 * ri3) - (2.0 * params.m0) / ri3
        for j in range(n):
            if j == i:
                continue
            if j < i:
                y = r[j] / ri
                p, d1, d2 = (
                    phi(1, y, ell, kind),
                    phi_d1(y, ell, kind),
                    phi_d2(y, ell, kind),
                )
                diag = diag - (m[j] / ri3) * (
                    2.0 * p + 4.0 * (y * d1) + kind.square(y) * d2
                )
                entries[j] = (m[j] / ri3) * (2.0 * d1 + y * d2)
            else:
                x = ri / r[j]
                d1, d2 = phi_d1(x, ell, kind), phi_d2(x, ell, kind)
                x3 = x * kind.square(x)
                diag = diag - ((m[j] * x3) / ri3) * d2
                entries[j] = ((m[j] * x3) / ri3) * (2.0 * d1 + x * d2)
        entries[i] = diag
        rows.append(entries)
    if kind.is_interval:
        lo = np.array([[e.lo for e in row] for row in rows])
        hi = np.array([[e.hi for e in row] for row in rows])
        return Interval._make(lo, hi)
    return np.array(rows, dtype=np.float64)


def hessian(params: SpiderwebParams, radii, kind=FLOAT64):
    """Second-derivative tensor H[i, l, j] = d^2 f_i / (dr_l dr_j), scattered
    from ``core.hessian_parts``: at most 3n^2 - 2n of its n^3 entries are
    nonzero."""
    diag, t_mixed, t_outer = hessian_parts(params, radii, kind)
    n = params.n
    i_ix, l_ix, j_ix = np.ogrid[0:n, 0:n, 0:n]
    on_diag = (i_ix == l_ix) & (l_ix == j_ix)
    l_is_i = (l_ix == i_ix) & (j_ix != i_ix)
    j_is_i = (j_ix == i_ix) & (l_ix != i_ix)
    l_eq_j = (l_ix == j_ix) & (j_ix != i_ix)

    zero = kind.lift(0.0)
    out = kind.where(l_eq_j, t_outer[:, None, :], zero)
    out = kind.where(j_is_i, t_mixed[:, :, None], out)
    out = kind.where(l_is_i, t_mixed[:, None, :], out)
    return kind.where(on_diag, diag[:, None, None], out)


def jacobian_row_sums(jac, kind=FLOAT64):
    """-d_i f_i - sum_{j != i} d_j f_i for every row of a Jacobian matrix."""
    return -kind.sum(jac)


def dominance_row_sums(params: SpiderwebParams, radii, kind=FLOAT64):
    """Jacobian row sums -d_i f_i - sum_{j != i} d_j f_i, written as the
    manifestly positive decomposition
    -lam + m_i zeta/(sqrt2 r_i^3) + 2 m0/r_i^3 + sum_j m_j x^3 h_ell(x)/r_i^3
    with x = r_i / r_j, evaluated independently of the Jacobian."""
    radii = _validate_radii(radii)
    r = kind.lift(radii)
    n = params.n
    m = kind.lift(params.masses)
    eye = np.eye(n, dtype=bool)
    x = kind.where(eye, 0.5, r[:, None] / r[None, :])
    x3 = x * kind.square(x)
    hvals = h_ell(x, params.ell, kind)
    zero = kind.lift(0.0)
    pair = kind.where(eye, zero, (x3 * hvals) * m[None, :])
    pair_row = kind.sum(pair)
    sqrt2 = kind.sqrt(kind.lift(2.0))
    r3 = r * kind.square(r)
    z = zeta(params.ell, kind)
    return (
        -params.lam
        + (m * z) / (sqrt2 * r3)
        + (2.0 * params.m0) / r3
        + pair_row / r3
    )


def dominance_check(params: SpiderwebParams, radii) -> bool:
    """Strict diagonal dominance |d_i f_i| > sum_{j != i} |d_j f_i| of the
    Jacobian, verified in interval arithmetic.

    Tries the direct endpoint comparison first; rows that fail it are retried
    through the positive-sum row decomposition (which has no cancellation)
    provided the entry signs are certain."""
    center = require_cone(radii)
    jac = jacobian(params, Interval.point(center), INTERVAL)
    n = params.n
    eye = np.eye(n, dtype=bool)
    idx = np.arange(n)
    diag = jac[idx, idx]
    off_mag = np.where(eye, 0.0, jac.mag())
    row = pairwise_sum(off_mag, rounder=up)
    direct = diag.mig() > row
    if np.all(direct):
        return True
    signs_ok = np.all(diag.hi < 0.0) and np.all(np.where(eye, 1.0, jac.lo) > 0.0)
    if not signs_ok:
        return False
    rows = dominance_row_sums(params, Interval.point(center), INTERVAL)
    return bool(np.all(rows.lo > 0.0))


def pairwise_sum_padded(a, axis, rounder=None):
    """The pairwise sum along any axis, moved to the front, with a zero
    appended at every odd level; ``intervals.pairwise_sum`` over the last
    axis must equal it."""
    a = np.moveaxis(np.asarray(a, dtype=np.float64), axis, 0)
    if a.shape[0] == 0:
        return np.zeros(a.shape[1:])
    while a.shape[0] > 1:
        k = a.shape[0]
        if k % 2:
            pad = np.zeros((1,) + a.shape[1:])
            a = np.concatenate([a, pad], axis=0)
            k += 1
        s = a[0:k:2] + a[1:k:2]
        a = s if rounder is None else rounder(s)
    return a[0]


def _four_endpoint_hull(p1, p2, p3, p4):
    lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
    hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
    return Interval._make(down(lo), up(hi))


def mul_four(x: Interval, y: Interval) -> Interval:
    """x * y from all four endpoint products, rounded by the same up/down."""
    return _four_endpoint_hull(x.lo * y.lo, x.lo * y.hi, x.hi * y.lo, x.hi * y.hi)


def div_four(x: Interval, y: Interval) -> Interval:
    """x / y, for y not containing zero, from all four endpoint quotients."""
    return _four_endpoint_hull(x.lo / y.lo, x.lo / y.hi, x.hi / y.lo, x.hi / y.hi)


def square_mig_mag(x: Interval) -> Interval:
    """x^2 as [mig(x)^2, mag(x)^2]."""
    lo, hi = x.mig(), x.mag()
    return Interval._make(down(lo * lo), up(hi * hi))


def insert_ring_by_bisection(params: SpiderwebParams, radii, gap: int,
                             rel_tol=1e-13) -> float:
    """Radius of the massless ring's equilibrium in ``gap`` (as in
    ``solver.insert_zero_mass_ring``) by bisection of the probe lambda down
    to a width of rel_tol * r_n; the midpoint of the last bracket is
    returned.  The bracket is the gap's ring radii, (0, r_1) for gap 0 under
    a central mass, and (r_n, 2^k r_n) in the outer gap, with k the first
    power at which the probe lambda exceeds lam."""
    r = np.asarray(radii, dtype=np.float64)
    lo = r[gap - 1] if gap > 0 else 0.0
    if gap < params.n:
        hi = r[gap]
    else:
        hi = 2.0 * lo
        while not probe_ring_lambda(params, r, hi) > params.lam:
            hi *= 2.0
    tol = rel_tol * r[-1]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if probe_ring_lambda(params, r, mid) < params.lam:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lambda_values(params: SpiderwebParams, radii, kind=FLOAT64):
    """Per-ring proportionality values lambda_i = F_i / (m_i r_i); the radii
    form a central configuration for value lam iff all lambda_i equal lam."""
    radii = _validate_radii(radii)
    r = kind.lift(radii)
    return _force_per_mass(radii, params.masses, params.m0, params.ell, kind) / r


def newton_solve(params: SpiderwebParams, initial_radii, settings=None) -> Configuration:
    """Damped Newton solve of the full system from a starting radii vector
    in the cone, with the solver's own iteration."""
    settings = settings or solver.ContinuationSettings()
    r0 = require_cone(initial_radii)
    if r0.shape != (params.n,):
        raise ValueError(f"expected {params.n} radii, got {r0.shape}")
    r, norm, _, _ = solver._newton_raw(
        r0, params.masses, params.m0, params.lam, params.ell, settings
    )
    return Configuration(params, r, norm)

"""Ring-system formulas evaluated over a generic scalar kind.

A spiderweb system is n concentric rings of ell equally spaced bodies (equal
mass per ring) plus an optional central mass.  This module evaluates the
reduced radial equations: per-ring forces, the residual map whose zeros are
central configurations, its Jacobian and Hessian, the lambda of a massless
probe ring, and the row-dominance kernel h_ell.

Every formula is written once against a small scalar-kind interface and can
run either in plain float64 (``FLOAT64``, used by the solver) or in
outward-rounded interval arithmetic (``INTERVAL``, used by the certifier), so
the certificate covers exactly the expressions the solver evaluated.  Both
kinds share the same operation tree (same pairwise summation, same power
chains), which guarantees that a float-mode result always lies inside the
matching interval-mode enclosure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import intervals
from .intervals import Interval, pairwise_sum

__all__ = [
    "SpiderwebParams",
    "Configuration",
    "OrderingViolated",
    "CollisionError",
    "FLOAT64",
    "INTERVAL",
    "zeta",
    "residual",
    "jacobian",
    "residual_and_jacobian",
    "hessian_parts",
    "probe_ring_lambda",
    "h_ell",
    "require_cone",
]

# elements per block of rows in a pair-kernel evaluation (see row_blocks)
_BLOCK_ELEMS = 1 << 16


class OrderingViolated(ValueError):
    """Radii are not strictly increasing positive values."""


class CollisionError(ValueError):
    """Two bodies coincide (zero mutual distance), a true singularity."""


@dataclass
class SpiderwebParams:
    """Problem instance: ring count, spokes per ring, masses and lambda."""

    n: int
    ell: int
    m0: float
    masses: np.ndarray
    lam: float

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"ring count n must be a positive integer, got {self.n}")
        if int(self.ell) != self.ell or self.ell < 2:
            raise ValueError(f"spoke count ell must be an integer >= 2, got {self.ell}")
        self.n = int(self.n)
        self.ell = int(self.ell)
        self.m0 = float(self.m0)
        if not np.isfinite(self.m0) or self.m0 < 0:
            raise ValueError(f"central mass m0 must be finite and >= 0, got {self.m0}")
        self.masses = np.asarray(self.masses, dtype=np.float64).copy()
        if self.masses.shape != (self.n,):
            raise ValueError(
                f"expected {self.n} ring masses, got shape {self.masses.shape}"
            )
        if not np.all(np.isfinite(self.masses)) or np.any(self.masses <= 0):
            raise ValueError("every ring mass must be finite and strictly positive")
        self.lam = float(self.lam)
        if not np.isfinite(self.lam) or self.lam >= 0:
            raise ValueError(f"lambda must be finite and strictly negative, got {self.lam}")


@dataclass
class Configuration:
    """Solver output: params plus strictly increasing radii."""

    params: SpiderwebParams
    radii: np.ndarray
    residual_norm: float

    def __post_init__(self):
        self.radii = np.asarray(self.radii, dtype=np.float64).copy()
        if self.radii.shape != (self.params.n,):
            raise ValueError(
                f"radii length {self.radii.shape} does not match n={self.params.n}"
            )
        self.residual_norm = float(self.residual_norm)


def require_cone(r):
    """Check membership in the open cone 0 < r_1 < ... < r_n."""
    r = np.asarray(r, dtype=np.float64)
    if r.ndim != 1 or r.size < 1:
        raise OrderingViolated(f"radii must be a nonempty vector, got shape {r.shape}")
    if not np.all(np.isfinite(r)):
        raise OrderingViolated("radii must be finite")
    if r[0] <= 0.0 or np.any(np.diff(r) <= 0.0):
        raise OrderingViolated(f"radii must satisfy 0 < r_1 < ... < r_n, got {r}")
    return r


def _validate_radii(radii):
    """Cone check for either a float vector or a vector of interval boxes."""
    if isinstance(radii, Interval):
        if radii.ndim != 1:
            raise OrderingViolated("interval radii must be a vector")
        if np.any(radii.lo <= 0.0):
            raise OrderingViolated("interval radii must be strictly positive")
        if np.any(radii.hi[:-1] >= radii.lo[1:]):
            raise OrderingViolated("interval radii boxes must be strictly ordered")
        return radii
    return require_cone(radii)


# ---------------------------------------------------------------------------
# scalar kinds
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _cos_table(ell: int, mult: int):
    """Endpoint/midpoint tables of cos(2*pi*mult*k/ell) for k = 0..ell-1."""
    lo = np.empty(ell)
    mid = np.empty(ell)
    hi = np.empty(ell)
    for k in range(ell):
        lo[k], mid[k], hi[k] = intervals._cos_two_pi_data(mult * k, ell)
    lo.setflags(write=False)
    mid.setflags(write=False)
    hi.setflags(write=False)
    return lo, mid, hi


class _Float64Kind:
    """Plain numpy float64 evaluation."""

    is_interval = False

    def lift(self, x):
        if isinstance(x, Interval):
            raise TypeError("cannot demote an interval value to float64")
        return np.asarray(x, dtype=np.float64)

    def sqrt(self, x):
        return np.sqrt(x)

    def square(self, x):
        return x * x

    def sum(self, x):
        return pairwise_sum(x)

    def where(self, cond, a, b):
        return np.where(cond, self.lift(a), self.lift(b))

    def concat(self, parts):
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def cos_angles(self, ell, mult=1):
        return _cos_table(ell, mult)[1]


class _IntervalKind:
    """Outward-rounded interval evaluation."""

    is_interval = True

    def lift(self, x):
        if isinstance(x, Interval):
            return x
        return Interval.point(x)

    def sqrt(self, x):
        return intervals.sqrt(self.lift(x))

    def square(self, x):
        return intervals.square(self.lift(x))

    def sum(self, x):
        return self.lift(x).sum()

    def where(self, cond, a, b):
        a = self.lift(a)
        b = self.lift(b)
        return Interval._make(np.where(cond, a.lo, b.lo), np.where(cond, a.hi, b.hi))

    def concat(self, parts):
        if len(parts) == 1:
            return parts[0]
        return Interval._make(np.concatenate([p.lo for p in parts]),
                              np.concatenate([p.hi for p in parts]))

    def cos_angles(self, ell, mult=1):
        lo, _, hi = _cos_table(ell, mult)
        return Interval._make(lo, hi)


FLOAT64 = _Float64Kind()
INTERVAL = _IntervalKind()


# ---------------------------------------------------------------------------
# scalar building blocks
# ---------------------------------------------------------------------------

def zeta(ell: int, kind=FLOAT64):
    """Self-ring interaction sum over the ell-1 other spokes of one ring."""
    if int(ell) != ell or ell < 2:
        raise ValueError(f"ell must be an integer >= 2, got {ell}")
    c = kind.cos_angles(int(ell))[1:]
    return kind.sum(1.0 / kind.sqrt(1.0 - c))


def h_ell(x, ell: int, kind=FLOAT64):
    """Row-dominance kernel h_ell(x); equals (1-x) phi_1'' - 2 phi_1' with the
    zero k = 0 term dropped, hence finite at x = 1 as well."""
    if int(ell) != ell or ell < 2:
        raise ValueError(f"ell must be an integer >= 2, got {ell}")
    c = kind.cos_angles(int(ell))[1:]
    xe = kind.lift(x)[..., None]
    # d_k(x)^2 = (x - c)^2 + (1 - c)(1 + c) over the spokes k >= 1
    s = kind.sqrt(kind.square(xe - c) + (1.0 - c) * (1.0 + c))
    p5 = s * kind.square(kind.square(s))
    num = (1.0 - c) * (2.0 * kind.square(xe) + xe * (3.0 - c) - 1.0 - 3.0 * c)
    return kind.sum(num / p5)


# ---------------------------------------------------------------------------
# pairwise interaction kernels
# ---------------------------------------------------------------------------

def row_blocks(n, row_elems):
    """Slices cutting n rows of row_elems elements into blocks of at most
    _BLOCK_ELEMS elements (one row at least): the one memory layout of the
    pair kernels, which compute each row alone."""
    step = max(1, _BLOCK_ELEMS // max(1, row_elems))
    return [slice(start, start + step) for start in range(0, n, step)]


def _spoke_sums(ri, rj, cos, kind, want, self_pairs=None):
    """Spoke sums of the pair kernels in ``want`` for target radii ri and
    source radii rj, broadcast against cos = (c1, c2, c3) whose trailing axis
    runs over spokes.  Pairs in the ``self_pairs`` mask get distance 1 so
    they stay finite; the caller discards them."""
    c1, c2, c3 = cos
    ri2 = kind.square(ri)
    rj2 = kind.square(rj)
    rirj = ri * rj

    # cancellation-free distance: (ri - rj c)^2 + rj^2 (1 - c)(1 + c)
    d = kind.square(ri - rj * c1) + rj2 * ((1.0 - c1) * (1.0 + c1))
    if self_pairs is not None:
        d = kind.where(self_pairs, 1.0, d)
    s = kind.sqrt(d)
    s2 = kind.square(s)
    s4 = kind.square(s2)

    out = {}

    def add(name, block):  # summed at once: one kernel's block is live at a time
        out[name] = kind.sum(block)

    if "force" in want:
        p3 = s * s2
        add("force", (ri - rj * c1) / p3)
    if "jac_diag" in want or "jac_off" in want:
        p5 = s * s4
        if "jac_diag" in want:
            num = 4.0 * ri2 + rj2 - 8.0 * (rirj * c1) + 3.0 * (rj2 * c2)
            add("jac_diag", num / p5)
        if "jac_off" in want:
            num = rirj * (7.0 + c2) - 4.0 * ((ri2 + rj2) * c1)
            add("jac_off", num / p5)
    if not want.isdisjoint({"hess_diag", "hess_mixed"}):
        p7 = s * s2 * s4
        if "hess_diag" in want:
            num = (ri - rj * c1) * (
                4.0 * ri2 - rj2 - 8.0 * (rirj * c1) + 5.0 * (rj2 * c2)
            )
            add("hess_diag", num / p7)
        if "hess_mixed" in want:
            num = (
                (ri * (8.0 * ri2 + 23.0 * rj2)) * c1
                - rj * (20.0 * ri2 + 2.0 * rj2)
                - (rj * (4.0 * ri2 + 6.0 * rj2)) * c2
                + (ri * rj2) * c3
            )
            add("hess_mixed", num / p7)
    return out


def _pair_sums(radii, ell, kind, want):
    """Spoke-summed pairwise kernels as (n, n) arrays with zero diagonal.

    want is a subset of {"force", "jac_diag", "jac_off", "hess_diag",
    "hess_mixed"}; see :func:`_spoke_sums`.  Blocks of target rows
    (:func:`row_blocks`) hold every source ring and spoke: each (i, j) entry is
    one pairwise sum over all ell spokes, so the block size changes no float
    bit (interval ones only within 2^-1020 of zero; see intervals.up).
    """
    r = kind.lift(radii)
    n = r.shape[0]
    eye = np.eye(n, dtype=bool)
    cos = [kind.cos_angles(ell, mult)[None, None, :] for mult in (1, 2, 3)]
    blocks = [
        _spoke_sums(r[rows, None, None], r[None, :, None], cos, kind, want,
                    self_pairs=eye[rows, :, None])
        for rows in row_blocks(n, n * ell)
    ]
    zero = kind.lift(0.0)
    return {name: kind.where(eye, zero, kind.concat([b[name] for b in blocks]))
            for name in blocks[0]}


def _force_per_mass(radii, masses, m0, ell, kind, sums=None):
    """F_i / m_i for every ring at checked distinct positive radii, any order.

    Zero entries in ``masses`` are legal and describe massless probe rings.
    ``sums`` may hold the "force" pair sums of these radii already.
    """
    r = kind.lift(radii)
    m = kind.lift(np.asarray(masses, dtype=np.float64))
    z = zeta(ell, kind)
    sqrt8 = kind.sqrt(kind.lift(8.0))
    r2 = kind.square(r)
    if sums is None:
        sums = _pair_sums(radii, ell, kind, {"force"})
    inter = kind.sum(sums["force"] * m[None, :])
    return -(((m * z) / sqrt8 + m0) / r2) - inter


def _residual_raw(radii, masses, m0, lam, ell, kind, *, sums=None):
    r = kind.lift(radii)
    return lam * r - _force_per_mass(radii, masses, m0, ell, kind, sums)


def _jacobian_raw(radii, masses, m0, lam, ell, kind, *, sums=None):
    """Jacobian of the residual; ``sums`` may hold the "jac_diag" and
    "jac_off" pair sums of these radii already."""
    r = kind.lift(radii)
    m = kind.lift(np.asarray(masses, dtype=np.float64))
    n = r.shape[0]
    z = zeta(ell, kind)
    sqrt2 = kind.sqrt(kind.lift(2.0))
    r3 = r * kind.square(r)
    if sums is None:
        sums = _pair_sums(radii, ell, kind, {"jac_diag", "jac_off"})
    diag = (
        lam
        - (m * z) / (sqrt2 * r3)
        - (2.0 * m0) / r3
        - 0.5 * kind.sum(sums["jac_diag"] * m[None, :])
    )
    off = -0.5 * (sums["jac_off"] * m[None, :])
    eye = np.eye(n, dtype=bool)
    return kind.where(eye, diag[:, None], off)


def _hessian_raw(radii, masses, m0, ell, kind):
    r = kind.lift(radii)
    m = kind.lift(np.asarray(masses, dtype=np.float64))
    z = zeta(ell, kind)
    sqrt2 = kind.sqrt(kind.lift(2.0))
    r4 = kind.square(kind.square(r))
    sums = _pair_sums(radii, ell, kind, {"hess_diag", "hess_mixed"})
    diag = (
        (3.0 * (m * z)) / (sqrt2 * r4)
        + (6.0 * m0) / r4
        + 1.5 * kind.sum(sums["hess_diag"] * m[None, :])
    )
    mixed = sums["hess_mixed"]
    t_mixed = -0.75 * (mixed * m[None, :])
    # the outer kernel at (i, j) is the mixed one with ri and rj swapped, and
    # d is symmetric, so mixed[j, i] encloses it over the box
    n = r.shape[0]
    i_ix, j_ix = np.ogrid[:n, :n]
    t_outer = -0.75 * (mixed[j_ix, i_ix] * m[None, :])
    return diag, t_mixed, t_outer


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def residual(params: SpiderwebParams, radii, kind=FLOAT64):
    """The map f whose zeros in the cone are central configurations."""
    radii = _validate_radii(radii)
    return _residual_raw(radii, params.masses, params.m0, params.lam, params.ell, kind)


def jacobian(params: SpiderwebParams, radii, kind=FLOAT64):
    """Jacobian D_r f in the spoke-summed trigonometric form."""
    radii = _validate_radii(radii)
    return _jacobian_raw(radii, params.masses, params.m0, params.lam, params.ell, kind)


def residual_and_jacobian(params: SpiderwebParams, radii, kind=FLOAT64):
    """(f, D_r f) at the same radii from one pass over the pair kernels,
    each equal to what :func:`residual` and :func:`jacobian` return."""
    radii = _validate_radii(radii)
    sums = _pair_sums(radii, params.ell, kind, {"force", "jac_diag", "jac_off"})
    args = (radii, params.masses, params.m0, params.lam, params.ell, kind)
    return _residual_raw(*args, sums=sums), _jacobian_raw(*args, sums=sums)


def hessian_parts(params: SpiderwebParams, radii, kind=FLOAT64):
    """The Hessian's nonzero parts (diag, t_mixed, t_outer), of shapes (n,),
    (n, n) and (n, n): H[i, i, i] = diag[i], H[i, i, j] = H[i, j, i] =
    t_mixed[i, j] and H[i, j, j] = t_outer[i, j] for j != i; every other
    entry is zero."""
    radii = _validate_radii(radii)
    return _hessian_raw(radii, params.masses, params.m0, params.ell, kind)


def probe_ring_lambda(params: SpiderwebParams, radii, s: float, *, slope=False):
    """lambda of a massless probe ring at radius s inserted into an existing
    system; s may sit anywhere strictly between, below or above the radii.

    Only the probe's row is evaluated, in O(n ell).  The massless self term
    leaves the central one, and the dropped self pair is an exact trailing
    zero of each pairwise sum, so this is bitwise the last row of the full
    kernel.  With ``slope=True`` it returns (lambda, d lambda / ds) from the
    same pass: dF/ds is the Jacobian diagonal's force part at zero self mass,
    and lambda itself is bitwise the value without the slope."""
    radii = require_cone(radii)
    s = float(s)
    if not np.isfinite(s) or s <= 0.0:
        raise OrderingViolated(f"probe radius must be finite and positive, got {s}")
    if np.any(radii == s):
        raise CollisionError(f"probe radius {s} coincides with an existing ring")
    m = params.masses
    cos = (FLOAT64.cos_angles(params.ell), FLOAT64.cos_angles(params.ell, 2), None)
    want = {"force", "jac_diag"} if slope else {"force"}
    sums = _spoke_sums(s, radii[:, None], cos, FLOAT64, want)
    force = -(params.m0 / FLOAT64.square(s)) - FLOAT64.sum(sums["force"] * m)
    lam = float(force / s)
    if not slope:
        return lam
    s3 = s * FLOAT64.square(s)
    dforce = (2.0 * params.m0) / s3 + 0.5 * FLOAT64.sum(sums["jac_diag"] * m)
    return lam, float((dforce - lam) / s)

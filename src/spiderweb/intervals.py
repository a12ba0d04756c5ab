"""Outward-rounded interval arithmetic on numpy arrays.

An :class:`Interval` holds two float64 arrays ``lo <= hi`` of equal shape and
broadcasts like numpy.  Every arithmetic operation returns an enclosure of the
exact real result: endpoints are computed with correctly rounded IEEE-754
double operations and then pushed outward by :func:`down` and :func:`up`, the
only outward rounding in the package.  :func:`matmul` is its one point-matrix
product.  Scalars are 0-d arrays.

Cosines of rational multiples of 2*pi are enclosed by high-precision
evaluation rounded outward to doubles (exact for angles whose reduced
denominator is 1, 2, 3, 4 or 6), so every enclosure is at most two units in
the last place wide.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath
import numpy as np


class IntervalError(ValueError):
    pass


class DivisionByZeroInterval(IntervalError):
    pass


class NegativeSqrt(IntervalError):
    pass


def down(x):
    """Outward step for lower endpoints: for finite x, a double below x."""
    return np.nextafter(x, -np.inf)


def up(x):
    """Outward step for upper endpoints: for finite x, a double above x."""
    return np.nextafter(x, np.inf)


def pairwise_sum(a, axis, rounder=None):
    """Pairwise (halving-tree) sum, optionally with a directed rounding step
    applied after every addition.  Both scalar kinds use this same tree so the
    float result always lies inside the interval enclosure."""
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


class Interval:
    """Closed interval [lo, hi] with outward-rounded arithmetic."""

    __slots__ = ("lo", "hi")

    # make numpy defer to our reflected operators
    __array_ufunc__ = None
    __array_priority__ = 1000

    def __init__(self, lo, hi=None):
        lo = np.asarray(lo, dtype=np.float64)
        hi = lo if hi is None else np.asarray(hi, dtype=np.float64)
        lo, hi = np.broadcast_arrays(lo, hi)
        if not np.all(lo <= hi):
            raise IntervalError("interval endpoints out of order (lo > hi)")
        self.lo = lo.copy() if lo.base is not None else lo
        self.hi = hi.copy() if hi.base is not None else hi

    @classmethod
    def _make(cls, lo, hi):
        iv = object.__new__(cls)
        iv.lo = lo
        iv.hi = hi
        return iv

    @classmethod
    def point(cls, x):
        x = np.asarray(x, dtype=np.float64)
        return cls._make(x, x)

    # -- introspection ----------------------------------------------------

    @property
    def shape(self):
        return self.lo.shape

    @property
    def ndim(self):
        return self.lo.ndim

    def __len__(self):
        return len(self.lo)

    def __repr__(self):
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __getitem__(self, idx):
        return Interval._make(self.lo[idx], self.hi[idx])

    @property
    def T(self):
        return Interval._make(self.lo.T, self.hi.T)

    def mag(self):
        """Exact upper bound of |x| over the interval."""
        return np.maximum(np.abs(self.lo), np.abs(self.hi))

    def mig(self):
        """Exact lower bound of |x| over the interval."""
        m = np.minimum(np.abs(self.lo), np.abs(self.hi))
        return np.where((self.lo <= 0.0) & (self.hi >= 0.0), 0.0, m)

    def contains_zero(self):
        return (self.lo <= 0.0) & (self.hi >= 0.0)

    # -- arithmetic -------------------------------------------------------

    def __neg__(self):
        return Interval._make(-self.hi, -self.lo)

    def __add__(self, other):
        o = _coerce(other)
        return Interval._make(down(self.lo + o.lo), up(self.hi + o.hi))

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        return Interval._make(down(self.lo - o.hi), up(self.hi - o.lo))

    def __rsub__(self, other):
        return _coerce(other).__sub__(self)

    def __mul__(self, other):
        o = _coerce(other)
        p1 = self.lo * o.lo
        p2 = self.lo * o.hi
        p3 = self.hi * o.lo
        p4 = self.hi * o.hi
        lo = down(np.minimum(np.minimum(p1, p2), np.minimum(p3, p4)))
        hi = up(np.maximum(np.maximum(p1, p2), np.maximum(p3, p4)))
        return Interval._make(lo, hi)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if np.any(o.contains_zero()):
            raise DivisionByZeroInterval("divisor interval contains zero")
        q1 = self.lo / o.lo
        q2 = self.lo / o.hi
        q3 = self.hi / o.lo
        q4 = self.hi / o.hi
        lo = down(np.minimum(np.minimum(q1, q2), np.minimum(q3, q4)))
        hi = up(np.maximum(np.maximum(q1, q2), np.maximum(q3, q4)))
        return Interval._make(lo, hi)

    def __rtruediv__(self, other):
        return _coerce(other).__truediv__(self)

    # -- reductions --------------------------------------------------------

    def sum(self, axis=-1):
        lo = pairwise_sum(self.lo, axis, rounder=down)
        hi = pairwise_sum(self.hi, axis, rounder=up)
        return Interval._make(np.asarray(lo), np.asarray(hi))


def _coerce(x):
    if isinstance(x, Interval):
        return x
    return Interval.point(x)


def sqrt(x):
    x = _coerce(x)
    if np.any(x.lo < 0.0):
        raise NegativeSqrt("sqrt of an interval with negative lower endpoint")
    lo = np.maximum(down(np.sqrt(x.lo)), 0.0)
    hi = up(np.sqrt(x.hi))
    return Interval._make(lo, hi)


def square(x):
    x = _coerce(x)
    lo_abs = x.mig()
    hi_abs = x.mag()
    return Interval._make(down(lo_abs * lo_abs), up(hi_abs * hi_abs))


def vector_sup_norm(v: Interval) -> float:
    """Rigorous upper bound of the sup norm of an interval vector."""
    return float(np.max(v.mag()))


def matrix_sup_norm(m: Interval) -> float:
    """Rigorous upper bound of the operator sup norm (max row sum) of an
    interval matrix."""
    row = pairwise_sum(m.mag(), axis=1, rounder=up)
    return float(np.max(row))


def matmul(a: np.ndarray, x: Interval) -> Interval:
    """Enclosure of A @ x for a float matrix A (treated as exact) and an
    interval vector or matrix x."""
    a = Interval.point(a)
    if x.ndim == 1:
        return (a * x[None, :]).sum(axis=1)
    return (a[:, :, None] * x[None, :, :]).sum(axis=1)


# -- enclosures of cos(2*pi*k/l) ----------------------------------------

#: cos(2*pi*num/den) is exact when the reduced fraction has one of these
#: denominators.
_EXACT_COS = {
    (0, 1): 1.0,
    (1, 2): -1.0,
    (1, 4): 0.0,
    (3, 4): 0.0,
    (1, 3): -0.5,
    (2, 3): -0.5,
    (1, 6): 0.5,
    (5, 6): 0.5,
}


@lru_cache(maxsize=None)
def _cos_two_pi_data(num: int, den: int):
    """(lo, nearest double, hi) for cos(2*pi*num/den)."""
    if den <= 0:
        raise ValueError("denominator must be positive")
    num %= den
    g = math.gcd(num, den)
    num //= g
    den //= g
    exact = _EXACT_COS.get((num, den))
    if exact is not None:
        return exact, exact, exact
    # 40 digits leave ~23 guard digits beyond double precision, so the
    # rounded double is within one representable step of the true cosine
    with mpmath.workdps(40):
        f = float(mpmath.cos(2 * mpmath.pi * mpmath.mpf(num) / den))
    lo, hi = float(down(f)), float(up(f))
    return max(lo, -1.0), f, min(hi, 1.0)

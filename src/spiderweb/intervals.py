"""Outward-rounded interval arithmetic on numpy arrays.

An :class:`Interval` holds two float64 arrays ``lo <= hi`` of equal shape and
broadcasts like numpy.  Every arithmetic operation returns an enclosure of the
exact real result: endpoints are computed with correctly rounded IEEE-754
double operations and then pushed outward by :func:`down` and :func:`up`, the
only outward rounding in the package.  :func:`matmul` is its one point-matrix
product.  Every sum runs over the last axis, by the one pairwise tree of
:func:`pairwise_sum`: an odd element of a level is carried into the next and
rounded with it.  Scalars are 0-d arrays.

A point is an interval whose ``lo is hi`` (:meth:`Interval.point`; indexing
keeps it).  Products and quotients take the fewest endpoint
operations that give the endpoints of the four-product form (Rump, "Fast and
parallel interval arithmetic", BIT 39, 1999): two products when a factor is a
point, ``[lo*lo, hi*hi]`` when both factors are nonnegative, two quotients
for a positive divisor, and no ``mig``/``mag`` in the square of a nonnegative
interval.  The sign test of two product factors is made only when one has at
least ``_LEAN_MIN_SIZE`` elements, where it pays for itself; the divisor's
replaces the zero test division needs anyway, and the square's costs less
than the ``mig``/``mag`` it skips.

Outward rounding is the successor bound of Rump, Zimmermann, Boldo &
Melquiond, "Computing predecessor and successor in rounding to nearest",
BIT 49 (2009): ``x + (|x| phi + eta)`` with phi = 2^-53 (1 + 2^-52) and
eta = 2^-1074, rounded to nearest, is at least the successor of every finite
double x (``x - (...)`` at most its predecessor).  It equals ``np.nextafter``
except for 2^-1022 <= |x| <= 2^-1020, where it may step further out (and in
the sign of a zero result).  Four cheap ufuncs
beat one ``np.nextafter`` on large arrays but lose on small ones, so arrays
below ``_LEAN_MIN_SIZE`` elements keep ``np.nextafter``.  An infinite endpoint
rounds to NaN on its inward side (``down(inf)``, ``up(-inf)``), where
``np.nextafter`` gives the largest double: such an enclosure is not finite
either way, and the certifier rejects it.

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


#: Arrays with fewer elements are rounded by ``np.nextafter`` and multiplied
#: without sign tests: below this size the extra ufunc dispatches of the
#: successor bound and of the tests cost more than they save.
_LEAN_MIN_SIZE = 256
# the successor bound's constants phi = 2^-53 (1 + 2^-52) and eta = 2^-1074
_PHI = 2.0**-53 * (1.0 + 2.0**-52)
_ETA = 2.0**-1074


def _ulp_bound(x, out=None):
    """|x| phi + eta, rounded to nearest: at least one unit in the last place
    of x, and at least the smallest subnormal."""
    e = np.abs(x, out=out)
    e *= _PHI
    e += _ETA
    return e


def down(x):
    """Outward step for lower endpoints: for finite x, a double below x
    (the predecessor unless 2^-1022 <= |x| <= 2^-1020).  Leaves x unchanged;
    see the module docstring for the bound, the size cutoff and infinities."""
    if np.size(x) < _LEAN_MIN_SIZE:
        return np.nextafter(x, -np.inf)
    e = _ulp_bound(x)
    return np.subtract(x, e, out=e)


def up(x):
    """Outward step for upper endpoints: for finite x, a double above x
    (the successor unless 2^-1022 <= |x| <= 2^-1020).  Leaves x unchanged;
    see the module docstring for the bound, the size cutoff and infinities."""
    if np.size(x) < _LEAN_MIN_SIZE:
        return np.nextafter(x, np.inf)
    e = _ulp_bound(x)
    return np.add(x, e, out=e)


def _outward(lo, hi, scratch=None):
    """The interval [down(lo), up(hi)] for endpoint arrays of one shape that
    the caller gives up.  Large ones are rounded in place, with ``scratch``
    (another array of that shape the caller gives up, or None) as work
    space."""
    if lo.size < _LEAN_MIN_SIZE:
        return Interval._make(down(lo), up(hi))
    e = _ulp_bound(lo, out=scratch)
    lo -= e
    hi += _ulp_bound(hi, out=e)
    return Interval._make(lo, hi)


def _hull(q1, q2, *more):
    """The interval [down(min), up(max)] over candidate endpoint arrays of
    one shape that the caller gives up, reusing their memory."""
    own = isinstance(q1, np.ndarray)  # 0-d operands give numpy scalars
    lo = np.minimum(q1, q2)
    hi = np.maximum(q1, q2, out=q1 if own else None)
    for q in more:
        lo = np.minimum(lo, q, out=lo if own else None)
        hi = np.maximum(hi, q, out=hi if own else None)
    return _outward(lo, hi, scratch=q2)


def _nonneg(a):
    """Every element >= 0 (a NaN is not)."""
    return bool((a >= 0.0).all())


def pairwise_sum(a, rounder=None):
    """Pairwise (halving-tree) sum over the last axis, with an optional
    directed rounding of every level; an odd last element is carried into
    the next level and rounded with it.  Both scalar kinds use this tree,
    so a float sum lies inside its interval enclosure."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape[-1] == 0:
        return np.zeros(a.shape[:-1])
    while a.shape[-1] > 1:
        k = a.shape[-1]
        s = np.empty(a.shape[:-1] + ((k + 1) // 2,))
        np.add(a[..., 0:k - 1:2], a[..., 1:k:2], out=s[..., :k // 2])
        if k % 2:
            s[..., -1] = a[..., -1]
        a = s if rounder is None else rounder(s)
    return a[..., 0]


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
        """The degenerate interval [x, x], held with ``lo is hi`` so that
        products with it take two endpoint products instead of four."""
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
        lo = self.lo[idx]
        return Interval._make(lo, lo if self.lo is self.hi else self.hi[idx])

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
        return _outward(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        return _outward(self.lo - o.hi, self.hi - o.lo)

    def __rsub__(self, other):
        return _coerce(other).__sub__(self)

    def __mul__(self, other):
        o = _coerce(other)
        if self.lo is self.hi or o.lo is o.hi:
            x, p = (o, self.lo) if self.lo is self.hi else (self, o.lo)
            return _hull(x.lo * p, x.hi * p)
        large = max(self.lo.size, o.lo.size) >= _LEAN_MIN_SIZE
        if large and _nonneg(self.lo) and _nonneg(o.lo):
            return _outward(self.lo * o.lo, self.hi * o.hi)
        return _hull(self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if (o.lo > 0.0).all():
            # the lower end divides self.lo by the divisor's far end when
            # self.lo >= 0 and by its near end otherwise; the upper end mirrors it
            lo = np.where(self.lo >= 0.0, o.hi, o.lo)
            hi = np.where(self.hi >= 0.0, o.lo, o.hi)
            return _outward(np.divide(self.lo, lo, out=lo), np.divide(self.hi, hi, out=hi))
        if np.any(o.contains_zero()):
            raise DivisionByZeroInterval("divisor interval contains zero")
        return _hull(self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi)

    def __rtruediv__(self, other):
        return _coerce(other).__truediv__(self)

    # -- reductions --------------------------------------------------------

    def sum(self):
        lo = pairwise_sum(self.lo, rounder=down)
        return Interval._make(lo, pairwise_sum(self.hi, rounder=up))


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
    if _nonneg(x.lo):
        return _outward(x.lo * x.lo, x.hi * x.hi)
    lo_abs = x.mig()
    hi_abs = x.mag()
    return _outward(lo_abs * lo_abs, hi_abs * hi_abs)


def vector_sup_norm(v: Interval) -> float:
    """Rigorous upper bound of the sup norm of an interval vector."""
    return float(np.max(v.mag()))


def matrix_sup_norm(m: Interval) -> float:
    """Rigorous upper bound of the operator sup norm (max row sum) of an
    interval matrix."""
    return float(np.max(pairwise_sum(m.mag(), rounder=up)))


def matmul(a: np.ndarray, x: Interval) -> Interval:
    """Enclosure of A @ x for a float matrix A (treated as exact) and an
    interval vector or matrix x."""
    a = Interval.point(a if x.ndim == 1 else a[:, None, :])
    # (A @ x)[i, j] sums a[i, k] x[k, j] along the last axis of x's transpose
    xt = x.lo.T
    return (a * Interval._make(xt, xt if x.lo is x.hi else x.hi.T)).sum()


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

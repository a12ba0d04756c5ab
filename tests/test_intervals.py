"""Enclosure properties of the interval substrate, checked against exact
rational arithmetic (Fraction) and high-precision oracles (mpmath)."""

import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from spiderweb import intervals
from spiderweb.intervals import (
    DivisionByZeroInterval,
    Interval,
    NegativeSqrt,
    matmul,
    matrix_sup_norm,
    pairwise_sum,
    vector_sup_norm,
)

finite = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)


def make_interval(a, b):
    return Interval(min(a, b), max(a, b))


@st.composite
def interval_pairs(draw):
    a, b = draw(finite), draw(finite)
    c, d = draw(finite), draw(finite)
    return make_interval(a, b), make_interval(c, d)


def assert_encloses(iv, exact):
    """exact: a Fraction the interval must contain (infinite endpoints are
    trivially enclosing)."""
    lo, hi = float(iv.lo), float(iv.hi)
    assert math.isinf(lo) or Fraction(lo) <= exact
    assert math.isinf(hi) or exact <= Fraction(hi)


@given(interval_pairs())
def test_add_encloses_exact(pair):
    x, y = pair
    z = x + y
    for a in (x.lo, x.hi):
        for b in (y.lo, y.hi):
            assert_encloses(z, Fraction(float(a)) + Fraction(float(b)))


@given(interval_pairs())
def test_sub_encloses_exact(pair):
    x, y = pair
    z = x - y
    for a in (x.lo, x.hi):
        for b in (y.lo, y.hi):
            assert_encloses(z, Fraction(float(a)) - Fraction(float(b)))


@given(interval_pairs())
def test_mul_encloses_exact(pair):
    x, y = pair
    z = x * y
    for a in (x.lo, x.hi):
        for b in (y.lo, y.hi):
            assert_encloses(z, Fraction(float(a)) * Fraction(float(b)))


@given(interval_pairs())
def test_div_encloses_exact(pair):
    x, y = pair
    if bool(y.contains_zero()):
        with pytest.raises(DivisionByZeroInterval):
            x / y
        return
    z = x / y
    for a in (x.lo, x.hi):
        for b in (y.lo, y.hi):
            assert_encloses(z, Fraction(float(a)) / Fraction(float(b)))


@given(st.floats(min_value=0, max_value=1e12, allow_nan=False),
       st.floats(min_value=0, max_value=1e12, allow_nan=False))
def test_sqrt_encloses_exact(a, b):
    iv = make_interval(a, b)
    z = intervals.sqrt(iv)
    with mpmath.workdps(50):
        assert mpmath.mpf(float(z.lo)) <= mpmath.sqrt(mpmath.mpf(float(iv.lo)))
        assert mpmath.sqrt(mpmath.mpf(float(iv.hi))) <= mpmath.mpf(float(z.hi))


def test_trivial_arithmetic_examples():
    z = Interval(1, 2) + Interval(3, 4)
    assert float(z.lo) <= 4.0 <= 6.0 <= float(z.hi)
    assert float(z.hi) - 6.0 < 1e-14 and 4.0 - float(z.lo) < 1e-14

    z = Interval(1, 2) * Interval(-1, 1)
    assert float(z.lo) <= -2.0 and float(z.hi) >= 2.0
    assert abs(float(z.lo) + 2.0) < 1e-14 and abs(float(z.hi) - 2.0) < 1e-14

    z = intervals.sqrt(Interval(4, 9))
    assert float(z.lo) <= 2.0 <= 3.0 <= float(z.hi)
    assert 2.0 - float(z.lo) < 1e-14 and float(z.hi) - 3.0 < 1e-14


def test_interval_validation_and_errors():
    with pytest.raises(intervals.IntervalError):
        Interval(2.0, 1.0)
    with pytest.raises(NegativeSqrt):
        intervals.sqrt(Interval(-1.0, 1.0))
    with pytest.raises(DivisionByZeroInterval):
        Interval(1.0) / Interval(-1.0, 1.0)


def test_mig_mag():
    iv = Interval(-2.0, 1.0)
    assert float(iv.mag()) == 2.0
    assert float(iv.mig()) == 0.0
    iv = Interval(0.5, 3.0)
    assert float(iv.mig()) == 0.5


@pytest.mark.parametrize("ell", [2, 3, 4, 6, 7, 12, 60, 131, 256])
def test_cos_enclosures_contain_true_value(ell):
    # the oracle itself has ~1e-58 error at 60 dps; allow it that slack
    with mpmath.workdps(60):
        slack = mpmath.mpf(10) ** -55
        for k in range(ell):
            lo, f, hi = intervals._cos_two_pi_data(k, ell)
            true = mpmath.cos(2 * mpmath.pi * k / ell)
            assert mpmath.mpf(lo) <= true + slack
            assert true - slack <= mpmath.mpf(hi)
            assert lo <= f <= hi


def test_cos_enclosure_width_below_1e15_up_to_ell_256():
    worst = 0.0
    for ell in range(2, 257):
        iv_lo, _, iv_hi = zip(
            *(intervals._cos_two_pi_data(k, ell) for k in range(ell))
        )
        worst = max(worst, float(np.max(np.array(iv_hi) - np.array(iv_lo))))
    assert worst < 1e-15


def test_cos_exact_special_angles():
    def nearest(num, den):
        return intervals._cos_two_pi_data(num, den)[1]

    lo, f, hi = intervals._cos_two_pi_data(1, 4)
    assert hi - lo == 0.0 and f == 0.0
    assert nearest(1, 2) == -1.0
    assert nearest(1, 3) == -0.5
    assert nearest(1, 6) == 0.5
    assert nearest(0, 17) == 1.0
    # multiples reduce: cos(2*pi*5/10) = cos(pi)
    assert nearest(5, 10) == -1.0


@given(st.lists(finite, min_size=1, max_size=40))
def test_directed_pairwise_sum_brackets_exact(xs):
    arr = np.array(xs)
    exact = sum(Fraction(float(v)) for v in xs)
    up = pairwise_sum(arr, rounder=intervals.up)
    down = pairwise_sum(arr, rounder=intervals.down)
    assert Fraction(float(down)) <= exact <= Fraction(float(up))
    # float-mode tree sits inside the directed bracket
    plain = pairwise_sum(arr)
    assert float(down) <= float(plain) <= float(up)


@given(st.data(), st.sampled_from([(), (3,), (2, 3), (4, 8)]), st.integers(0, 70),
       st.sampled_from([None, intervals.up, intervals.down]))
def test_pairwise_sum_equals_the_padded_tree(data, lead, k, rounder):
    # (4, 8) makes levels of 256 elements and more, which the successor bound
    # rounds instead of nextafter; with a rounder even the sign of a zero
    # matches, as rounding x + 0 and x gives the same bits
    a = data.draw(arrays(np.float64, lead + (k,), elements=st.floats(width=64)))
    with np.errstate(over="ignore", invalid="ignore"):
        want = oracles.pairwise_sum_padded(a, -1, rounder)
        got = pairwise_sum(a, rounder)
    assert got.shape == want.shape == lead
    assert np.array_equal(got, want, equal_nan=True)
    if rounder is not None:
        assert got.tobytes() == want.tobytes()


def test_interval_sum_matches_pairwise_tree():
    rng = np.random.default_rng(7)
    arr = rng.standard_normal((5, 13))
    iv = Interval.point(arr)
    s = iv.sum()
    plain = pairwise_sum(arr)
    assert np.all(s.lo <= plain) and np.all(plain <= s.hi)


def test_matvec_and_norms():
    a = np.array([[1.0, -2.0], [0.5, 3.0]])
    v = Interval(np.array([1.0, -1.0]), np.array([1.0, -1.0]))
    z = matmul(a, v)
    expect = a @ np.array([1.0, -1.0])
    assert np.all(z.lo <= expect) and np.all(expect <= z.hi)
    assert vector_sup_norm(z) >= float(np.max(np.abs(expect)))
    m = Interval.point(a)
    assert matrix_sup_norm(m) >= 3.5  # |0.5| + |3.0|

    # a matrix x: both endpoint matrices lie in x, so each exact product
    # A @ x.lo and A @ x.hi lies in the enclosure
    rng = np.random.default_rng(11)
    a = rng.standard_normal((3, 5)) / 3.0
    lo = rng.standard_normal((5, 4)) / 7.0
    x = Interval(lo, lo + rng.uniform(0.0, 0.1, size=lo.shape))
    z = matmul(a, x)
    assert z.shape == (3, 4)
    for pick in (x.lo, x.hi):
        for i in range(3):
            for j in range(4):
                exact = sum(Fraction(a[i, k]) * Fraction(pick[k, j]) for k in range(5))
                assert Fraction(z.lo[i, j]) <= exact <= Fraction(z.hi[i, j])
    # a vector is the one-column case of the same product
    col = matmul(a, x[:, 1])
    assert np.array_equal(col.lo, z.lo[:, 1]) and np.array_equal(col.hi, z.hi[:, 1])


def test_broadcasting_and_indexing():
    iv = Interval(np.zeros((2, 3)), np.ones((2, 3)))
    assert iv[0, 1].shape == ()
    assert iv[:, None, :].shape == (2, 1, 3)
    # a point stays one (lo is hi) through indexing
    pt = Interval.point(np.arange(6.0).reshape(2, 3))
    for view in (pt[0], pt[:, None, :], pt[[1, 0]], pt[0, 1]):
        assert view.lo is view.hi
    z = iv + 1.0
    assert z.shape == (2, 3)
    assert np.all(z.lo >= 0.99)


# -- outward rounding ------------------------------------------------------

MAX = sys.float_info.max
# the successor bound equals nextafter outside this band of |x|
_LOOSE_BAND = (2.0**-1022, 2.0**-1020)

doubles = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda sign, k: sign * 2.0**k, st.sampled_from([1.0, -1.0]),
              st.integers(-1074, 1023)),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, -(2.0**-1022),
                     2.0**-1020, MAX, -MAX]),
)


def _large(x):
    """x repeated to an array that takes the successor-bound path."""
    big = np.resize(x, max(x.size, intervals._LEAN_MIN_SIZE))
    assert big.size >= intervals._LEAN_MIN_SIZE
    return big


@given(st.lists(doubles, min_size=1, max_size=24))
def test_rounding_is_at_least_nextafter(xs):
    for x in (np.array(xs), _large(np.array(xs))):
        with np.errstate(over="ignore"):
            u, d = intervals.up(x), intervals.down(x)
            succ, pred = np.nextafter(x, np.inf), np.nextafter(x, -np.inf)
        assert np.all(u >= succ) and np.all(d <= pred)
        exact = np.abs(x) > _LOOSE_BAND[1]
        assert np.array_equal(u[exact], succ[exact])
        assert np.array_equal(d[exact], pred[exact])


@given(doubles)
def test_rounding_agrees_across_input_kinds_and_sizes(x):
    """A Python float, a 0-d array and arrays on both sides of the size
    cutoff round alike, except in the band where the bound is looser."""
    small = np.full(3, x)
    large = _large(small)
    with np.errstate(over="ignore"):
        for step in (intervals.up, intervals.down):
            ref = float(step(x))
            assert float(step(np.array(x))) == ref
            assert np.all(step(small) == ref)
            big = step(large)
            if _LOOSE_BAND[0] <= abs(x) <= _LOOSE_BAND[1]:
                assert np.all(big >= ref) if step is intervals.up else np.all(big <= ref)
            else:
                assert np.all(big == ref)


def test_rounding_of_infinities():
    big = intervals._LEAN_MIN_SIZE
    inf = np.full(big, np.inf)
    with np.errstate(invalid="ignore"):
        assert np.all(intervals.up(inf) == np.inf)
        assert np.all(intervals.down(-inf) == -np.inf)
        # the inward side of an infinite endpoint is NaN, never a finite bound
        assert np.all(np.isnan(intervals.down(inf)))
        assert np.all(np.isnan(intervals.up(-inf)))


def test_rounding_leaves_its_argument_unchanged():
    x = np.linspace(-3.0, 3.0, 2 * intervals._LEAN_MIN_SIZE)
    before = x.copy()
    intervals.up(x)
    intervals.down(x)
    assert np.array_equal(x, before)


# -- lean products against the four-endpoint forms --------------------------

# zeros of both signs, subnormals, mixed signs and products that overflow
endpoints = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1.0, -1.0]),
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.floats(min_value=-1e300, max_value=1e300),
)


@st.composite
def interval_arrays(draw, size, sign=None):
    """An interval array of ``size`` drawn endpoint pairs; sign "nonneg"
    takes their magnitudes, "positive" also lifts zeros to the smallest
    subnormal."""
    a = np.array(draw(st.lists(endpoints, min_size=size, max_size=size)))
    b = np.array(draw(st.lists(endpoints, min_size=size, max_size=size)))
    if sign is not None:
        a, b = np.abs(a), np.abs(b)
    if sign == "positive":
        a, b = np.maximum(a, 5e-324), np.maximum(b, 5e-324)
    return Interval(np.minimum(a, b), np.maximum(a, b))


def _tiled(x: Interval, point=False):
    """x as is and repeated past the size cutoff, optionally as a point."""
    out = []
    for iv in (x, Interval(_large(x.lo), _large(x.hi))):
        out.append(Interval.point(iv.lo) if point else iv)
    return out


def assert_same_interval(got, want):
    with np.errstate(invalid="ignore"):
        assert np.array_equal(got.lo, want.lo, equal_nan=True)
        assert np.array_equal(got.hi, want.hi, equal_nan=True)


@given(st.data(), st.integers(1, 8))
def test_lean_mul_matches_four_products(data, size):
    draw = data.draw
    pairs = [
        (draw(interval_arrays(size)), draw(interval_arrays(size)), True),
        (draw(interval_arrays(size)), draw(interval_arrays(size)), False),
        (draw(interval_arrays(size, "nonneg")), draw(interval_arrays(size, "nonneg")), False),
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        for x, y, y_point in pairs:
            for xs, ys in zip(_tiled(x), _tiled(y, point=y_point)):
                assert_same_interval(xs * ys, oracles.mul_four(xs, ys))
                assert_same_interval(ys * xs, oracles.mul_four(xs, ys))


@given(st.data(), st.integers(1, 8))
def test_lean_div_and_square_match_four_endpoint_forms(data, size):
    draw = data.draw
    x = draw(interval_arrays(size))
    for d in (draw(interval_arrays(size, "positive")), -draw(interval_arrays(size, "positive"))):
        for xs, ds in zip(_tiled(x), _tiled(d)):
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                assert_same_interval(xs / ds, oracles.div_four(xs, ds))
    for v in (x, draw(interval_arrays(size, "nonneg"))):
        for vs in _tiled(v):
            with np.errstate(over="ignore", invalid="ignore"):
                assert_same_interval(intervals.square(vs), oracles.square_mig_mag(vs))

"""Enclosure properties of the interval substrate, checked against exact
rational arithmetic (Fraction) and high-precision oracles (mpmath)."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

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
    up = pairwise_sum(arr, axis=0, rounder=intervals.up)
    down = pairwise_sum(arr, axis=0, rounder=intervals.down)
    assert Fraction(float(down)) <= exact <= Fraction(float(up))
    # float-mode tree sits inside the directed bracket
    plain = pairwise_sum(arr, axis=0)
    assert float(down) <= float(plain) <= float(up)


def test_interval_sum_matches_pairwise_tree():
    rng = np.random.default_rng(7)
    arr = rng.standard_normal((5, 13))
    iv = Interval.point(arr)
    s = iv.sum(axis=1)
    plain = pairwise_sum(arr, axis=1)
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
    assert iv.T.shape == (3, 2) and np.array_equal(iv.T.hi, iv.hi.T)
    z = iv + 1.0
    assert z.shape == (2, 3)
    assert np.all(z.lo >= 0.99)

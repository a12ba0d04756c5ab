"""Formula-level tests: frozen hand values, high-precision oracles, finite
difference cross-checks, sign structure, and float-in-interval soundness."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spiderweb
from spiderweb import analysis, certify, core, solver
from spiderweb.core import (
    CollisionError,
    FLOAT64,
    INTERVAL,
    OrderingViolated,
    SpiderwebParams,
)
from spiderweb.intervals import Interval

import oracles

RNG_SEED = 20240817


def random_instance(rng, n_max=6, ell_max=12, m0_chance=0.5):
    n = int(rng.integers(1, n_max + 1))
    ell = int(rng.integers(2, ell_max + 1))
    masses = rng.uniform(0.2, 3.0, size=n)
    m0 = float(rng.uniform(0.0, 2.0)) if rng.random() < m0_chance else 0.0
    lam = float(-rng.uniform(0.3, 3.0))
    radii = np.cumsum(rng.uniform(0.3, 1.2, size=n)) + rng.uniform(0.1, 0.5)
    return SpiderwebParams(n, ell, m0, masses, lam), radii


def zeta_oracle(ell, dps=40):
    with mpmath.workdps(dps):
        return sum(
            1 / mpmath.sqrt(1 - mpmath.cos(2 * mpmath.pi * k / ell))
            for k in range(1, ell)
        )


# ---------------------------------------------------------------------------
# zeta
# ---------------------------------------------------------------------------

def test_zeta_ell2_single_term():
    assert float(core.zeta(2)) == pytest.approx(1 / math.sqrt(2), rel=1e-15)


def test_zeta_ell3_two_term_oracle():
    expect = float(zeta_oracle(3))
    assert float(core.zeta(3)) == pytest.approx(expect, rel=1e-14)
    assert expect == pytest.approx(2 * math.sqrt(2.0 / 3.0), rel=1e-14)


def test_zeta_ell10_paper_lower_bound():
    z = core.zeta(10, INTERVAL)
    assert float(z.lo) >= 10.9


@pytest.mark.parametrize("ell", [2, 3, 5, 8, 13, 40, 200])
def test_zeta_interval_encloses_oracle(ell):
    z = core.zeta(ell, INTERVAL)
    with mpmath.workdps(40):
        t = zeta_oracle(ell)
        assert mpmath.mpf(float(z.lo)) <= t <= mpmath.mpf(float(z.hi))
    assert float(z.hi) - float(z.lo) < 1e-12 * max(1.0, float(z.hi))


def test_zeta_rejects_small_ell():
    with pytest.raises(ValueError):
        core.zeta(1)


# ---------------------------------------------------------------------------
# phi and derivatives
# ---------------------------------------------------------------------------

def test_phi_at_zero_is_ell():
    for ell in (2, 3, 7, 11):
        assert float(oracles.phi(1, 0.0, ell)) == pytest.approx(ell, rel=1e-15)


def test_phi_d1_at_zero_vanishes():
    for ell in (2, 3, 7, 11):
        assert abs(float(oracles.phi_d1(0.0, ell))) < 1e-14
        iv = oracles.phi_d1(Interval.point(0.0), ell, INTERVAL)
        assert float(iv.lo) <= 0.0 <= float(iv.hi)


def test_phi_half_ell2_hand_value():
    # d_0 = 1/2, d_1 = 3/2
    assert float(oracles.phi(1, 0.5, 2)) == pytest.approx(8.0 / 3.0, rel=1e-15)


def test_phi_collision_rejected():
    with pytest.raises(CollisionError):
        oracles.phi(1, 1.0, 5)
    with pytest.raises(CollisionError):
        oracles.phi_d1(1.0, 4)


def test_phi_general_nu_against_oracle():
    x, ell = 0.37, 9
    for nu in (1, 2, 3, 0.5, 2.5):
        with mpmath.workdps(40):
            expect = float(
                sum(
                    (1 + mpmath.mpf(x) ** 2 - 2 * x * mpmath.cos(2 * mpmath.pi * k / ell))
                    ** (-mpmath.mpf(nu) / 2)
                    for k in range(ell)
                )
            )
        assert float(oracles.phi(nu, x, ell)) == pytest.approx(expect, rel=1e-13)


def test_phi_interval_rejects_fractional_nu():
    with pytest.raises(ValueError):
        oracles.phi(1.5, Interval.point(0.3), 5, INTERVAL)


def test_phi_derivatives_positive_on_unit_interval():
    # all derivatives positive on (0, 1): check phi, phi', phi''
    xs = np.linspace(0.05, 0.95, 19)
    for ell in (2, 5, 9):
        assert np.all(oracles.phi(1, xs, ell) > 0)
        assert np.all(oracles.phi_d1(xs, ell) > 0)
        assert np.all(oracles.phi_d2(xs, ell) > 0)


def test_phi_d1_d2_match_finite_differences():
    h = 1e-6
    for ell in (3, 8):
        for x in (0.2, 0.55, 0.9, 1.3, 2.4):
            fd1 = (oracles.phi(1, x + h, ell) - oracles.phi(1, x - h, ell)) / (2 * h)
            fd2 = (oracles.phi_d1(x + h, ell) - oracles.phi_d1(x - h, ell)) / (2 * h)
            assert float(oracles.phi_d1(x, ell)) == pytest.approx(float(fd1), rel=1e-8)
            assert float(oracles.phi_d2(x, ell)) == pytest.approx(float(fd2), rel=1e-8)


# ---------------------------------------------------------------------------
# force contributions: sign dichotomy
# ---------------------------------------------------------------------------

def test_force_center_term_vanishes_without_central_mass():
    p = SpiderwebParams(2, 4, 0.0, np.array([1.0, 2.0]), -1.0)
    assert float(oracles.force_contribution(1, 0, p, np.array([1.0, 2.0]))) == 0.0


def test_force_hand_value_ell2():
    p = SpiderwebParams(2, 2, 0.0, np.array([1.0, 1.0]), -1.0)
    r = np.array([1.0, 2.0])
    # x = 1/2, F_12/m_1 = x^2 phi_1'(1/2) = (1/4)(32/9) = 8/9
    got = float(oracles.force_contribution(1, 2, p, r))
    assert got == pytest.approx(8.0 / 9.0, rel=1e-14)
    # independent oracle: plain two-term spoke sum
    oracle = -sum(
        (r[0] - r[1] * c) / (r[0] ** 2 + r[1] ** 2 - 2 * r[0] * r[1] * c) ** 1.5
        for c in (1.0, -1.0)
    )
    assert got == pytest.approx(oracle, rel=1e-14)


def test_force_sign_dichotomy():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(25):
        params, radii = random_instance(rng)
        n = params.n
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                f = float(oracles.force_contribution(i, j, params, radii))
                if i < j:
                    assert f > 0
                else:
                    assert f < 0


def test_force_index_validation():
    p = SpiderwebParams(2, 3, 0.0, np.array([1.0, 1.0]), -1.0)
    r = np.array([1.0, 2.0])
    with pytest.raises(ValueError):
        oracles.force_contribution(0, 1, p, r)
    with pytest.raises(ValueError):
        oracles.force_contribution(1, 3, p, r)
    with pytest.raises(OrderingViolated):
        oracles.force_contribution(1, 1, p, np.array([2.0, 1.0]))


# ---------------------------------------------------------------------------
# residual
# ---------------------------------------------------------------------------

def test_residual_single_ring_closed_form_zero():
    z = float(core.zeta(2))
    r1 = ((1.0 * z / 2**1.5 + 0.0) / 1.0) ** (1.0 / 3.0)
    p = SpiderwebParams(1, 2, 0.0, np.array([1.0]), -1.0)
    assert abs(float(core.residual(p, np.array([r1]))[0])) < 1e-14


def test_residual_matches_force_contribution_assembly():
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(10):
        params, radii = random_instance(rng, n_max=5)
        f = core.residual(params, radii)
        for i in range(1, params.n + 1):
            total = sum(
                float(oracles.force_contribution(i, j, params, radii))
                for j in range(0, params.n + 1)
            )
            expect = params.lam * radii[i - 1] - total
            assert float(f[i - 1]) == pytest.approx(expect, rel=1e-11, abs=1e-12)


def test_zero_mass_outer_ring_reduces_to_smaller_system():
    # a massless extra ring must contribute exactly nothing
    r = np.array([0.7, 1.9])
    f2 = core._residual_raw(r, np.array([1.3, 0.0]), 0.4, -1.0, 5, FLOAT64)
    p1 = SpiderwebParams(1, 5, 0.4, np.array([1.3]), -1.0)
    f1 = core.residual(p1, r[:1])
    assert float(f2[0]) == float(f1[0])


def test_residual_dilation_covariance():
    # scaling masses (m0 included) by c^3 and radii by c scales f by c,
    # at any radii vector, not just at solutions
    rng = np.random.default_rng(RNG_SEED + 20)
    for _ in range(10):
        params, radii = random_instance(rng, n_max=5)
        f = core.residual(params, radii)
        for c in (0.5, 2.0, 5.3):
            scaled = SpiderwebParams(
                params.n, params.ell, c**3 * params.m0, c**3 * params.masses, params.lam
            )
            fc = core.residual(scaled, c * radii)
            assert np.allclose(fc, c * f, rtol=1e-12, atol=1e-14)


def test_residual_rejects_bad_radii():
    p = SpiderwebParams(2, 3, 0.0, np.array([1.0, 1.0]), -1.0)
    with pytest.raises(OrderingViolated):
        core.residual(p, np.array([2.0, 1.0]))
    with pytest.raises(OrderingViolated):
        core.residual(p, np.array([-1.0, 1.0]))


# ---------------------------------------------------------------------------
# jacobian: two forms, finite differences, sign structure
# ---------------------------------------------------------------------------

def test_jacobian_single_ring_value_and_sign():
    p = SpiderwebParams(1, 6, 0.8, np.array([1.4]), -2.0)
    r = np.array([1.1])
    z = float(core.zeta(6))
    expect = -2.0 - 1.4 * z / (math.sqrt(2) * 1.1**3) - 2 * 0.8 / 1.1**3
    j = core.jacobian(p, r)
    assert float(j[0, 0]) == pytest.approx(expect, rel=1e-14)
    assert float(j[0, 0]) < 0


def test_jacobian_forms_agree():
    rng = np.random.default_rng(RNG_SEED + 2)
    for _ in range(15):
        params, radii = random_instance(rng)
        a = core.jacobian(params, radii)
        b = oracles.jacobian_phi_form(params, radii)
        assert np.allclose(a, b, rtol=1e-12, atol=1e-13)


def test_jacobian_sign_structure():
    rng = np.random.default_rng(RNG_SEED + 3)
    for _ in range(20):
        params, radii = random_instance(rng)
        jac = core.jacobian(params, radii)
        n = params.n
        assert np.all(np.diag(jac) < 0)
        off = jac[~np.eye(n, dtype=bool)]
        assert np.all(off > 0)


def _fd_jacobian(params, radii, h=1e-6):
    n = params.n
    out = np.zeros((n, n))
    for j in range(n):
        rp = radii.copy()
        rm = radii.copy()
        rp[j] += h
        rm[j] -= h
        out[:, j] = (core.residual(params, rp) - core.residual(params, rm)) / (2 * h)
    return out


def test_jacobian_matches_finite_differences():
    p = SpiderwebParams(3, 6, 0.0, np.ones(3), -1.0)
    r = np.array([1.0, 1.7, 2.6])
    jac = core.jacobian(p, r)
    fd = _fd_jacobian(p, r)
    assert np.allclose(jac, fd, rtol=1e-6)


# ---------------------------------------------------------------------------
# hessian
# ---------------------------------------------------------------------------

def test_hessian_sparsity_and_symmetry():
    rng = np.random.default_rng(RNG_SEED + 4)
    for _ in range(10):
        params, radii = random_instance(rng, n_max=5)
        n = params.n
        hess = oracles.hessian(params, radii)
        assert hess.shape == (n, n, n)
        for i in range(n):
            assert np.allclose(hess[i], hess[i].T, rtol=1e-12, atol=1e-14)
            for l in range(n):
                for j in range(n):
                    if len({i, j, l}) == 3:
                        assert hess[i, l, j] == 0.0


def test_hessian_matches_finite_differences():
    p = SpiderwebParams(2, 3, 0.0, np.ones(2), -1.0)
    r = np.array([1.0, 2.0])
    hess = oracles.hessian(p, r)
    h = 1e-5
    rp, rm = r.copy(), r.copy()
    rp[0] += h
    rm[0] -= h
    fd = (core.residual(p, rp)[0] - 2 * core.residual(p, r)[0] + core.residual(p, rm)[0]) / h**2
    assert float(hess[0, 0, 0]) == pytest.approx(float(fd), rel=1e-5)


def test_hessian_all_entries_match_jacobian_differences():
    rng = np.random.default_rng(RNG_SEED + 5)
    h = 1e-6
    for _ in range(5):
        params, radii = random_instance(rng, n_max=4)
        n = params.n
        hess = oracles.hessian(params, radii)
        for l in range(n):
            rp, rm = radii.copy(), radii.copy()
            rp[l] += h
            rm[l] -= h
            fd = (core.jacobian(params, rp) - core.jacobian(params, rm)) / (2 * h)
            assert np.allclose(hess[:, l, :], fd, rtol=2e-5, atol=1e-7)


def _mp_residual(params, r, i):
    """f_i at mpmath radii r, summed spoke by spoke from the pair forces."""
    ell = params.ell
    cos = [mpmath.cos(2 * mpmath.pi * k / ell) for k in range(ell)]
    z = sum(1 / mpmath.sqrt(1 - c) for c in cos[1:])
    m = [mpmath.mpf(float(x)) for x in params.masses]
    f = params.lam * r[i] + (m[i] * z / mpmath.sqrt(8) + params.m0) / r[i] ** 2
    for j in range(params.n):
        if j != i:
            f += m[j] * sum((r[i] - r[j] * c) / (r[i] ** 2 - 2 * r[i] * r[j] * c + r[j] ** 2) ** 1.5
                            for c in cos)
    return f


@pytest.mark.parametrize("m0", [0.0, 0.7])
def test_interval_hessian_parts_enclose_mpmath_hessian(m0):
    # t_outer is the transposed mixed kernel; this checks all three parts
    # against second derivatives of f taken at 50 digits
    params = SpiderwebParams(3, 5, m0, np.array([1.0, 0.4, 2.5]), -1.3)
    radii = np.array([0.8, 1.3, 2.1])
    diag, t_mixed, t_outer = core.hessian_parts(params, Interval.point(radii), INTERVAL)
    with mpmath.workdps(50):
        r = [mpmath.mpf(x) for x in radii]

        def second(i, l, j):
            orders = [0, 0, 0]
            orders[l] += 1
            orders[j] += 1
            return mpmath.diff(lambda *x: _mp_residual(params, x, i), r, orders)

        for i in range(3):
            cases = [(diag[i], second(i, i, i))]
            for j in set(range(3)) - {i}:
                cases += [(t_mixed[i, j], second(i, i, j)), (t_outer[i, j], second(i, j, j))]
            for iv, true in cases:
                assert mpmath.mpf(float(iv.lo)) <= true <= mpmath.mpf(float(iv.hi))
                assert float(iv.hi) - float(iv.lo) <= 1e-12 * abs(float(true))


# ---------------------------------------------------------------------------
# lambda values and pairwise monotonicity
# ---------------------------------------------------------------------------

def test_lambda_homogeneity_under_dilation():
    rng = np.random.default_rng(RNG_SEED + 6)
    params, radii = random_instance(rng, n_max=4)
    lam1 = oracles.lambda_values(params, radii)
    for c in (0.5, 2.0, 3.7):
        lam2 = oracles.lambda_values(params, c * radii)
        assert np.allclose(lam2, lam1 / c**3, rtol=1e-12)


def _lambda_pair(params, radii, i, k):
    """lambda_ik = F_ik / (m_i r_i) for 1-based ring indices."""
    f = float(oracles.force_contribution(i, k, params, radii))
    return f / (params.masses[i - 1] * radii[i - 1])


def test_pairwise_lambda_monotonicity_properties():
    """The five monotonicity/sign properties of the pairwise lambda split."""
    rng = np.random.default_rng(RNG_SEED + 8)
    h = 1e-7
    for _ in range(10):
        params, radii = random_instance(rng, n_max=3)
        n = params.n
        if n < 3:
            continue
        lam_of = lambda r: oracles.lambda_values(params, r)
        # (1) sign dichotomy of lambda_ij
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                lij = _lambda_pair(params, radii, i, j)
                assert (lij > 0) if i < j else (lij < 0)
        for i in range(n):
            for j in range(n):
                rp, rm = radii.copy(), radii.copy()
                rp[j] += h
                rm[j] -= h
                d = (lam_of(rp)[i] - lam_of(rm)[i]) / (2 * h)
                if i == j:
                    assert d > 0  # (3)
                else:
                    assert d < 0  # (2)
        # (4): 0 > d lambda_ik/d r_k > d lambda_jk/d r_k for i < j < k
        i, j, k = 1, 2, 3
        rp, rm = radii.copy(), radii.copy()
        rp[k - 1] += h
        rm[k - 1] -= h
        dik = (_lambda_pair(params, rp, i, k) - _lambda_pair(params, rm, i, k)) / (2 * h)
        djk = (_lambda_pair(params, rp, j, k) - _lambda_pair(params, rm, j, k)) / (2 * h)
        assert 0 > dik > djk
        # (5): d lambda_jk/d r_k < d lambda_ik/d r_k < 0 for k < j < i
        k2, j2, i2 = 1, 2, 3
        rp, rm = radii.copy(), radii.copy()
        rp[k2 - 1] += h
        rm[k2 - 1] -= h
        di2 = (_lambda_pair(params, rp, i2, k2) - _lambda_pair(params, rm, i2, k2)) / (2 * h)
        dj2 = (_lambda_pair(params, rp, j2, k2) - _lambda_pair(params, rm, j2, k2)) / (2 * h)
        assert dj2 < di2 < 0


def test_gap_value_derivative_signs():
    """Sign pattern of d(lambda_i - lambda_{i+1})/dr_j: positive for j = i or
    j > i+1, negative for j = i+1 or j < i."""
    rng = np.random.default_rng(RNG_SEED + 11)
    h = 1e-7

    def gaps(r):
        return -np.diff(oracles.lambda_values(params, r))

    for _ in range(10):
        n = 4
        ell = int(rng.integers(2, 13))
        masses = rng.uniform(0.2, 3.0, size=n)
        m0 = float(rng.uniform(0.0, 2.0))
        params = SpiderwebParams(n, ell, m0, masses, -1.0)
        radii = np.cumsum(rng.uniform(0.3, 1.2, size=n)) + 0.2
        for g in range(n - 1):
            for j in range(n):
                rp, rm = radii.copy(), radii.copy()
                rp[j] += h
                rm[j] -= h
                d = (gaps(rp)[g] - gaps(rm)[g]) / (2 * h)
                if j == g or j > g + 1:
                    assert d > 0, (g, j)
                else:
                    assert d < 0, (g, j)


# ---------------------------------------------------------------------------
# row identity and h_ell
# ---------------------------------------------------------------------------

def test_row_identity_between_jacobian_and_h_decomposition():
    rng = np.random.default_rng(RNG_SEED + 9)
    for _ in range(20):
        params, radii = random_instance(rng)
        lhs = oracles.jacobian_row_sums(core.jacobian(params, radii))
        rhs = oracles.dominance_row_sums(params, radii)
        assert np.allclose(lhs, rhs, rtol=1e-10)


def test_h2_closed_form():
    xs = np.linspace(0.0, 1.0, 100)
    expect = 4.0 / (1.0 + xs) ** 3
    assert np.allclose(core.h_ell(xs, 2), expect, rtol=1e-12)
    assert float(core.h_ell(np.array([0.0]), 2)[0]) == pytest.approx(4.0, rel=1e-15)


def test_h3_closed_form():
    xs = np.linspace(0.0, 1.0, 100)
    expect = 3 * (0.5 + 3.5 * xs + 2 * xs**2) / (1 + xs + xs**2) ** 2.5
    assert np.allclose(core.h_ell(xs, 3), expect, rtol=1e-12)


# ---------------------------------------------------------------------------
# probe ring
# ---------------------------------------------------------------------------

def test_probe_lambda_matches_vanishing_mass_limit():
    p = SpiderwebParams(2, 5, 0.3, np.array([1.0, 2.0]), -1.0)
    r = np.array([1.0, 2.2])
    s = 1.5
    probe = core.probe_ring_lambda(p, r, s)
    tiny = 1e-300
    p3 = SpiderwebParams(3, 5, 0.3, np.array([1.0, tiny, 2.0]), -1.0)
    lam3 = oracles.lambda_values(p3, np.array([1.0, 1.5, 2.2]))
    assert probe == pytest.approx(float(lam3[1]), rel=1e-12)


def test_probe_lambda_rejects_collisions():
    p = SpiderwebParams(2, 5, 0.0, np.array([1.0, 2.0]), -1.0)
    r = np.array([1.0, 2.2])
    with pytest.raises(CollisionError):
        core.probe_ring_lambda(p, r, 2.2)


def _probe_oracle(p, r, s):
    """The probe's lambda read off the last row of the full (n+1)-ring kernel."""
    r_ext, m_ext = np.append(r, s), np.append(p.masses, 0.0)
    return float(core._force_per_mass(r_ext, m_ext, p.m0, p.ell, FLOAT64)[-1] / s)


def test_probe_lambda_is_bitwise_the_full_kernel_row():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(150):
        n = int(rng.integers(1, 41))
        ell = int(rng.integers(2, 81))
        r = np.cumsum(rng.uniform(0.05, 1.0, size=n)) + rng.uniform(0.1, 2.0)
        m = rng.uniform(0.1, 3.0, size=n)
        m0 = float(rng.uniform(0.0, 2.0)) if rng.random() < 0.5 else 0.0
        p = SpiderwebParams(n, ell, m0, m, -1.0)
        probes = [r[0] * rng.uniform(0.05, 0.95), r[-1] * rng.uniform(1.05, 4.0)]
        probes += [rng.uniform(a, b) for a, b in zip(r[:-1], r[1:])][:3]
        for s in probes:
            assert core.probe_ring_lambda(p, r, s) == _probe_oracle(p, r, s)


def _probe_cases(rng, count):
    """(params, radii, probe radii) with a probe below, between and above
    the rings."""
    for _ in range(count):
        n = int(rng.integers(1, 13))
        ell = int(rng.integers(2, 41))
        r = np.cumsum(rng.uniform(0.05, 1.0, size=n)) + rng.uniform(0.1, 2.0)
        m0 = float(rng.uniform(0.0, 2.0)) if rng.random() < 0.5 else 0.0
        p = SpiderwebParams(n, ell, m0, rng.uniform(0.1, 3.0, size=n), -1.0)
        probes = [r[0] * rng.uniform(0.05, 0.95), r[-1] * rng.uniform(1.05, 4.0)]
        probes += [rng.uniform(a + 0.1 * (b - a), b - 0.1 * (b - a))
                   for a, b in zip(r[:-1], r[1:])][:3]
        yield p, r, probes


def test_probe_slope_leaves_lambda_bitwise_unchanged():
    for p, r, probes in _probe_cases(np.random.default_rng(RNG_SEED + 40), 60):
        for s in probes:
            lam, _ = core.probe_ring_lambda(p, r, s, slope=True)
            assert lam == core.probe_ring_lambda(p, r, s)


def test_probe_slope_is_the_jacobian_diagonal_at_zero_self_mass():
    """d lambda/ds = (lam - J[k, k] - lambda)/s, with J the full Jacobian of
    the system extended by the probe as a massless ring k."""
    for p, r, probes in _probe_cases(np.random.default_rng(RNG_SEED + 41), 60):
        k = p.n
        for s in probes:
            lam, slope = core.probe_ring_lambda(p, r, s, slope=True)
            jac = core._jacobian_raw(np.append(r, s), np.append(p.masses, 0.0),
                                     p.m0, p.lam, p.ell, FLOAT64)
            expected = (p.lam - jac[k, k] - lam) / s
            scale = (abs(p.lam) + abs(jac[k, k]) + abs(lam)) / s
            assert slope == pytest.approx(expected, rel=1e-11, abs=1e-13 * scale)


def test_probe_slope_matches_central_difference():
    for p, r, probes in _probe_cases(np.random.default_rng(RNG_SEED + 42), 40):
        for s in probes:
            _, slope = core.probe_ring_lambda(p, r, s, slope=True)
            h = 1e-6 * min([s] + [abs(s - x) for x in r])
            fd = (core.probe_ring_lambda(p, r, s + h) - core.probe_ring_lambda(p, r, s - h)) / (2 * h)
            assert slope == pytest.approx(fd, rel=1e-6)


def test_probe_lambda_matches_multi_chunk_kernel():
    n, ell = 150, 200
    assert len(core.row_blocks(n + 1, (n + 1) * ell)) > 1  # the oracle runs in blocks
    r = np.linspace(1.0, 4.0, n)
    p = SpiderwebParams(n, ell, 0.5, np.linspace(2.0, 0.5, n), -1.0)
    for s in (0.5, 2.0 + 1e-3, 6.0):
        assert core.probe_ring_lambda(p, r, s) == _probe_oracle(p, r, s)


# ---------------------------------------------------------------------------
# row blocks: the layout of the pair kernels bounds memory, not results
# ---------------------------------------------------------------------------

PAIR_KERNELS = ("force", "jac_diag", "jac_off", "hess_diag", "hess_mixed")


def _kernels(params, radii, kind):
    sums = core._pair_sums(radii, params.ell, kind, set(PAIR_KERNELS))
    return [sums[name] for name in PAIR_KERNELS] + [
        core.residual(params, radii, kind),
        core.jacobian(params, radii, kind),
        *core.hessian_parts(params, radii, kind),
    ]


def _endpoints(x):
    return (x.lo, x.hi) if isinstance(x, Interval) else (x,)


def test_block_size_changes_no_bit_of_the_kernels(monkeypatch):
    rng = np.random.default_rng(RNG_SEED + 30)
    for n, ell in ((1, 3), (2, 2), (5, 7), (12, 9)):
        radii = np.cumsum(rng.uniform(0.3, 1.2, size=n)) + 0.2
        params = SpiderwebParams(n, ell, 0.7, rng.uniform(0.2, 3.0, size=n), -1.3)
        for radii_k, kind in ((radii, FLOAT64), (Interval.point(radii), INTERVAL),
                              (Interval(radii - 1e-7, radii + 1e-7), INTERVAL)):
            whole = _kernels(params, radii_k, kind)
            # one row, two rows and every row per block
            for rows in (1, 2, n):
                monkeypatch.setattr(core, "_BLOCK_ELEMS", rows * n * ell)
                assert len(core.row_blocks(n, n * ell)) == -(-n // rows)
                for blocked, one in zip(_kernels(params, radii_k, kind), whole, strict=True):
                    for a, b in zip(_endpoints(blocked), _endpoints(one), strict=True):
                        assert a.shape == b.shape and a.tobytes() == b.tobytes()
            monkeypatch.undo()


def test_probe_lambda_rejects_non_finite_radius():
    p = SpiderwebParams(2, 5, 0.0, np.array([1.0, 2.0]), -1.0)
    for s in (np.inf, np.nan, 0.0):
        with pytest.raises(OrderingViolated):
            core.probe_ring_lambda(p, np.array([1.0, 2.2]), s)


# ---------------------------------------------------------------------------
# interval soundness: float results sit inside interval enclosures
# ---------------------------------------------------------------------------

def _assert_inside(float_val, iv, slack=0.0):
    f = np.asarray(float_val)
    assert np.all(iv.lo - slack <= f) and np.all(f <= iv.hi + slack)


def test_float_results_inside_interval_enclosures():
    rng = np.random.default_rng(RNG_SEED + 10)
    for _ in range(15):
        params, radii = random_instance(rng, n_max=5)
        box = Interval.point(radii)
        _assert_inside(core.residual(params, radii), core.residual(params, box, INTERVAL))
        _assert_inside(core.jacobian(params, radii), core.jacobian(params, box, INTERVAL))
        _assert_inside(oracles.hessian(params, radii), oracles.hessian(params, box, INTERVAL))
        _assert_inside(
            oracles.lambda_values(params, radii), oracles.lambda_values(params, box, INTERVAL)
        )
        _assert_inside(
            oracles.dominance_row_sums(params, radii),
            oracles.dominance_row_sums(params, box, INTERVAL),
        )
    # a size at which the pair kernels run in several row blocks
    n, ell = 40, 120
    params = SpiderwebParams(n, ell, 0.4, rng.uniform(0.2, 3.0, size=n), -1.0)
    radii = np.cumsum(rng.uniform(0.3, 1.2, size=n)) + 0.2
    assert len(core.row_blocks(n, n * ell)) > 2
    box = Interval.point(radii)
    _assert_inside(core.residual(params, radii), core.residual(params, box, INTERVAL))
    _assert_inside(core.jacobian(params, radii), core.jacobian(params, box, INTERVAL))
    for f, iv in zip(core.hessian_parts(params, radii),
                     core.hessian_parts(params, box, INTERVAL), strict=True):
        _assert_inside(f, iv)
    for ell in (2, 7, 31):
        _assert_inside(core.zeta(ell), core.zeta(ell, INTERVAL))
        xs = np.linspace(0.05, 0.9, 7)
        _assert_inside(oracles.phi(1, xs, ell), oracles.phi(1, Interval.point(xs), ell, INTERVAL))
        _assert_inside(oracles.phi_d1(xs, ell), oracles.phi_d1(Interval.point(xs), ell, INTERVAL))
        _assert_inside(oracles.phi_d2(xs, ell), oracles.phi_d2(Interval.point(xs), ell, INTERVAL))
        _assert_inside(core.h_ell(xs, ell), core.h_ell(Interval.point(xs), ell, INTERVAL))


@given(st.integers(min_value=2, max_value=64), st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=60, deadline=None)
def test_phi_interval_soundness_property(ell, x):
    f = float(oracles.phi(1, x, ell))
    iv = oracles.phi(1, Interval.point(x), ell, INTERVAL)
    assert float(iv.lo) <= f <= float(iv.hi)


# ---------------------------------------------------------------------------
# params validation
# ---------------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        SpiderwebParams(0, 2, 0.0, np.array([]), -1.0)
    with pytest.raises(ValueError):
        SpiderwebParams(1, 1, 0.0, np.array([1.0]), -1.0)
    with pytest.raises(ValueError):
        SpiderwebParams(1, 2, -0.1, np.array([1.0]), -1.0)
    with pytest.raises(ValueError):
        SpiderwebParams(2, 2, 0.0, np.array([1.0, 0.0]), -1.0)
    with pytest.raises(ValueError):
        SpiderwebParams(1, 2, 0.0, np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        SpiderwebParams(1, 2, 0.0, np.array([1.0, 2.0]), -1.0)


def test_every_export_resolves():
    for module in (spiderweb, core, solver, certify, analysis):
        assert [name for name in module.__all__ if not hasattr(module, name)] == []

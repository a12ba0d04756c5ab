"""Certification tests: bound computations against sampling oracles, the
radii-polynomial root logic, end-to-end certificates, h_ell proofs, and the
diagonal-dominance check."""

import numpy as np
import pytest

from spiderweb import certify as cz
from spiderweb import core, intervals, solver
from spiderweb.core import Configuration, SpiderwebParams
from spiderweb.intervals import Interval, pairwise_sum

import oracles


def solved(n, ell, m0=0.0, masses=None, lam=-1.0, **kw):
    masses = np.ones(n) if masses is None else np.asarray(masses, dtype=float)
    p = SpiderwebParams(n, ell, m0, masses, lam)
    return solver.build_configuration(p, solver.ContinuationSettings(**kw))


def residual_at(params, center):
    """The interval residual at the point center, which bound_Y0 bounds."""
    return core.residual(params, Interval.point(center), core.INTERVAL)


def jacobian_at(params, center):
    """The interval Jacobian at the point center, which bound_Z0 bounds."""
    return core.jacobian(params, Interval.point(center), core.INTERVAL)


# ---------------------------------------------------------------------------
# Y0
# ---------------------------------------------------------------------------

def test_Y0_small_near_closed_form_solution():
    c = solved(1, 2)
    center = c.radii * (1.0 + 1e-12)
    a = np.linalg.inv(core.jacobian(c.params, center))
    y0 = cz.bound_Y0(a, residual_at(c.params, center))
    assert 0.0 < y0 < 1e-10


def test_Y0_monotone_in_center_error():
    c = solved(1, 2)
    a = np.linalg.inv(core.jacobian(c.params, c.radii))
    y_small = cz.bound_Y0(a, residual_at(c.params, c.radii * (1 + 1e-12)))
    y_big = cz.bound_Y0(a, residual_at(c.params, c.radii * (1 + 1e-6)))
    assert y_big > y_small


def test_Y0_bounds_float_sample():
    c = solved(3, 7, m0=0.3, masses=[1.0, 0.5, 2.0])
    a = np.linalg.inv(core.jacobian(c.params, c.radii))
    y0 = cz.bound_Y0(a, residual_at(c.params, c.radii))
    float_val = float(np.max(np.abs(a @ core.residual(c.params, c.radii))))
    assert y0 >= float_val


# ---------------------------------------------------------------------------
# Z0
# ---------------------------------------------------------------------------

def test_Z0_with_zero_operator_is_norm_of_identity():
    c = solved(2, 3)
    z0 = cz.bound_Z0(np.zeros((2, 2)), jacobian_at(c.params, c.radii))
    assert z0 == pytest.approx(1.0, abs=1e-12)
    assert z0 >= 1.0  # outward rounding never undershoots the exact value


def test_Z0_scalar_cases():
    c = solved(1, 4)
    jac = core.jacobian(c.params, c.radii)
    a = np.linalg.inv(jac)
    assert cz.bound_Z0(a, jacobian_at(c.params, c.radii)) < 1e-12
    assert cz.bound_Z0(2.0 * a, jacobian_at(c.params, c.radii)) == pytest.approx(1.0, abs=1e-11)


def test_Z0_small_at_true_inverse():
    c = solved(4, 9, m0=0.2)
    a = np.linalg.inv(core.jacobian(c.params, c.radii))
    z0 = cz.bound_Z0(a, jacobian_at(c.params, c.radii))
    assert z0 < 1e-11
    # soundness: the rigorous bound dominates the plain float evaluation
    float_val = float(np.max(np.sum(np.abs(np.eye(4) - a @ core.jacobian(c.params, c.radii)), axis=1)))
    assert z0 >= float_val


# ---------------------------------------------------------------------------
# Z2
# ---------------------------------------------------------------------------

def test_Z2_zero_operator_folds_to_zero():
    # exact zero up to outward-rounded denormals from the 0 * interval products
    c = solved(2, 5)
    assert cz.bound_Z2(np.zeros((2, 2)), c.radii, c.params, 1e-6) < 1e-315


def test_Z2_single_ring_against_dense_sampling():
    c = solved(1, 2)
    p = c.params
    a = np.linalg.inv(core.jacobian(p, c.radii))
    rho = 1e-3
    z2 = cz.bound_Z2(a, c.radii, p, rho)
    r0 = c.radii[0]
    samples = np.linspace(r0 - rho, r0 + rho, 10_000)
    worst = 0.0
    for s in samples:
        h = oracles.hessian(p, np.array([s]))
        worst = max(worst, abs(a[0, 0] * h[0, 0, 0]))
    assert z2 >= worst
    assert z2 <= worst * (1 + 1e-3)  # and not absurdly loose on a 1-d problem


def test_Z2_weakly_decreasing_in_rho_star():
    c = solved(3, 6)
    a = np.linalg.inv(core.jacobian(c.params, c.radii))
    z_big = cz.bound_Z2(a, c.radii, c.params, 1e-3)
    z_small = cz.bound_Z2(a, c.radii, c.params, 1e-5)
    assert z_small <= z_big


# The exact row fold is at most the exact triangle bound Z2; where the two are
# equal (the A_im H_mlj of a row share their signs), the upward-rounded fold
# may still exceed Z2 by rounding (at most 0.93 ulp relative in these cases).
_FOLD_ROUNDING = 1e-15


def _dense_Z2_oracle(a, center, params, rho_star):
    """The row fold over the dense (n, n, n) interval Hessian, O(n^4)."""
    hess = oracles.hessian(params, cz._ball_box(np.asarray(center), rho_star), core.INTERVAL)
    # H[m, l, j] as [l, j, m], so that the sum over m runs along the last axis
    hess = Interval._make(np.moveaxis(hess.lo, 0, -1), np.moveaxis(hess.hi, 0, -1))
    totals = []
    for i in range(a.shape[0]):
        row = (Interval.point(a[i]) * hess).sum()
        totals.append(pairwise_sum(
            row.mag().reshape(-1), rounder=lambda x: np.nextafter(x, np.inf)
        ))
    return float(np.max(totals))


def _dense_triangle_oracle(a, center, params, rho_star):
    """max_i sum_m |A_im| sum_{l,j} |H_mlj| over the dense interval Hessian."""
    hess = oracles.hessian(params, cz._ball_box(np.asarray(center), rho_star), core.INTERVAL)
    row_mass = hess.mag().reshape(a.shape[0], -1).sum(axis=1)
    return float(np.max(np.abs(a) @ row_mass))


def _random_Z2_case(rng, n):
    m0 = float(rng.choice([0.0, rng.uniform(0.1, 2.0)]))
    masses = rng.choice([0.5, 1.0, 3.0], size=n) * rng.uniform(0.5, 2.0, size=n)
    params = SpiderwebParams(n, int(rng.integers(2, 10)), m0, masses, -1.0)
    radii = np.cumsum(rng.uniform(0.3, 1.5, size=n))
    if rng.random() < 0.5:
        a = np.linalg.inv(core.jacobian(params, radii))
    else:
        a = rng.normal(size=(n, n))
    return a, radii, params


def test_Z2_matches_dense_fold_oracle():
    # Z2 is the triangle bound of the dense Hessian, and not below its fold
    rng = np.random.default_rng(2024)
    for n in range(1, 7):
        for _ in range(6):
            a, radii, params = _random_Z2_case(rng, n)
            for rho_star in (1e-9, 1e-6, 1e-3):
                z2 = cz.bound_Z2(a, radii, params, rho_star)
                oracle = _dense_triangle_oracle(a, radii, params, rho_star)
                assert z2 == pytest.approx(oracle, rel=1e-12, abs=0.0)
                assert _dense_Z2_oracle(a, radii, params, rho_star) <= z2 * (1.0 + _FOLD_ROUNDING)


def test_Z2_blocked_fold_matches_one_pass(monkeypatch):
    rng = np.random.default_rng(7)
    a, radii, params = _random_Z2_case(rng, 5)
    one_pass = cz.bound_Z2(a, radii, params, 1e-6)
    fold = _dense_Z2_oracle(a, radii, params, 1e-6)
    # Hessian parts in blocks of 2, 1 and 1 (the floor) rows of the 5
    for elems in (2 * 5 * params.ell + 7, 5 * params.ell, 3):
        monkeypatch.setattr(core, "_BLOCK_ELEMS", elems)
        blocked = cz.bound_Z2(a, radii, params, 1e-6)
        assert blocked == pytest.approx(one_pass, rel=1e-12, abs=0.0)
        assert blocked == pytest.approx(
            _dense_triangle_oracle(a, radii, params, 1e-6), rel=1e-12, abs=0.0
        )
        assert fold <= blocked * (1.0 + _FOLD_ROUNDING)


def test_certify_never_builds_the_dense_hessian():
    # the dense n^3 scatter lives only in the test oracles
    assert not hasattr(core, "hessian")
    c = solved(4, 8, m0=0.5, masses=[1.0, 0.5, 2.0, 1.5])
    cert = cz.certify(c)
    assert cert.p_at_rho0 < 0.0


@pytest.mark.parametrize("rho_star", [float("nan"), float("inf"), -float("inf"), 0.0, -1e-6])
def test_non_finite_or_nonpositive_rho_star_is_rejected(rho_star):
    with pytest.raises(ValueError, match="finite and positive"):
        cz.radii_poly_check(1e-12, 0.1, 1.0, rho_star)
    c = solved(2, 5)
    a = np.linalg.inv(core.jacobian(c.params, c.radii))
    with pytest.raises(ValueError, match="finite and positive"):
        cz.bound_Z2(a, c.radii, c.params, rho_star)


def test_certify_skips_a_computed_ball_that_is_not_finite(monkeypatch):
    # 4 Y0 / (1 - Z0) overflows to inf: only the default ball is tried
    c = solved(2, 5)
    monkeypatch.setattr(cz, "bound_Y0", lambda *args, **kw: 1e308)
    real, balls = cz.bound_Z2, []

    def counting(a, center, params, rho_star):
        balls.append(rho_star)
        return real(a, center, params, rho_star)

    monkeypatch.setattr(cz, "bound_Z2", counting)
    with pytest.raises(cz.CertificationFailed) as excinfo:
        cz.certify(c)
    assert excinfo.value.reason == cz.NO_NEGATIVE_VALUE
    assert balls == [cz.default_rho_star(c.radii)]


def test_Z2_ball_must_stay_in_cone():
    c = solved(2, 4)
    a = np.linalg.inv(core.jacobian(c.params, c.radii))
    gap = c.radii[1] - c.radii[0]
    with pytest.raises(cz.BallLeavesCone):
        cz.bound_Z2(a, c.radii, c.params, 0.6 * gap)


def test_Z2_soundness_on_ball_jacobian_variation():
    # || A [Df(c) - Df(center)] || <= Z2 * rho for sampled c in the ball
    c = solved(3, 5, masses=[1.0, 2.0, 0.5])
    p = c.params
    a = np.linalg.inv(core.jacobian(p, c.radii))
    rho = 1e-4
    z2 = cz.bound_Z2(a, c.radii, p, rho)
    jac0 = core.jacobian(p, c.radii)
    rng = np.random.default_rng(5)
    for _ in range(1000):
        offset = rng.uniform(-rho, rho, size=3)
        dj = core.jacobian(p, c.radii + offset) - jac0
        lhs = float(np.max(np.sum(np.abs(a @ dj), axis=1)))
        assert lhs <= z2 * rho * (1 + 1e-9)


# ---------------------------------------------------------------------------
# radii polynomial
# ---------------------------------------------------------------------------

def test_radii_poly_all_zero_bounds():
    rho0, p_hi = cz.radii_poly_check(0.0, 0.0, 0.0, 1.0)
    assert 0.0 < rho0 <= 1.0
    assert p_hi < 0.0
    assert p_hi == pytest.approx(-rho0, rel=1e-9)


def test_radii_poly_linear_case():
    rho0, p_hi = cz.radii_poly_check(0.1, 0.5, 0.0, 1.0)
    assert rho0 == pytest.approx(0.2, rel=1e-9)
    assert rho0 > 0.2  # strictly past the root
    assert p_hi < 0.0
    # hand value p(0.25) = -0.025
    assert 0.0 * 0.25**2 - (1 - 0.5) * 0.25 + 0.1 == pytest.approx(-0.025, abs=1e-15)


def test_radii_poly_negative_discriminant():
    with pytest.raises(cz.CertificationFailed) as excinfo:
        cz.radii_poly_check(0.1, 0.5, 1.0, 0.1)
    assert excinfo.value.reason == cz.NO_NEGATIVE_VALUE
    assert "4 Y0 Z2 = 0.4 exceeds (1 - Z0)^2 = 0.25" in str(excinfo.value)


def test_radii_poly_z0_too_large():
    with pytest.raises(cz.CertificationFailed) as excinfo:
        cz.radii_poly_check(0.0, 1.0, 0.0, 1.0)
    assert excinfo.value.reason == cz.Z0_TOO_LARGE


def test_radii_poly_root_beyond_rho_star():
    with pytest.raises(cz.CertificationFailed) as excinfo:
        cz.radii_poly_check(0.1, 0.5, 0.0, 0.15)
    assert excinfo.value.reason == cz.NO_NEGATIVE_VALUE
    assert "no rho0 <= rho* = 0.15 with verified p(rho0) < 0" in str(excinfo.value)


def test_radii_poly_verifies_in_interval_arithmetic():
    rho0, p_hi = cz.radii_poly_check(1e-13, 1e-10, 8.0, 1e-4)
    z2, z0, y0 = 8.0, 1e-10, 1e-13
    riv = Interval.point(rho0)
    p_iv = Interval.point(z2) * riv * riv - (1.0 - Interval.point(z0)) * riv + y0
    assert float(p_iv.hi) < 0.0
    assert p_hi < 0.0 and rho0 <= 1e-4


# ---------------------------------------------------------------------------
# end-to-end certify
# ---------------------------------------------------------------------------

def test_certify_single_ring_tiny_ball():
    c = solved(1, 2)
    cert = cz.certify(c)
    assert cert.rho0 < 1e-9
    assert cert.rho0 <= cert.rho_star
    assert cert.Z0 < 1.0
    assert cert.p_at_rho0 < 0.0


def test_certify_mixed_instance():
    c = solved(4, 11, m0=0.7, masses=[2.0, 1.0, 0.4, 1.5], lam=-0.8)
    cert = cz.certify(c)
    assert cert.rho0 < 1e-8
    # ball of radius rho0 stays strictly inside the cone
    lo = c.radii - cert.rho0
    hi = c.radii + cert.rho0
    assert lo[0] > 0 and np.all(hi[:-1] < lo[1:])


def test_certify_corrupted_center_fails_with_dominant_Y0():
    c = solved(2, 6)
    bad = Configuration(c.params, c.radii + 0.1, 1.0)
    with pytest.raises(cz.CertificationFailed) as excinfo:
        cz.certify(bad)
    y0 = excinfo.value.data.get("Y0")
    assert y0 is not None and y0 > 1e-3


def test_certify_unique_zero_attracts_newton_from_ball():
    c = solved(3, 8)
    cert = cz.certify(c)
    rng = np.random.default_rng(23)
    for _ in range(10):
        start = c.radii + rng.uniform(-1, 1, size=3) * cert.rho0
        out = oracles.newton_solve(c.params, start,
                                   solver.ContinuationSettings(newton_tol=1e-14))
        assert np.max(np.abs(out.radii - c.radii)) <= 1.01 * cert.rho0


def test_more_polish_never_grows_rho0():
    p = SpiderwebParams(3, 6, 0.0, np.ones(3), -1.0)
    crude = solver.build_configuration(p, solver.ContinuationSettings(newton_tol=1e-9))
    fine = oracles.newton_solve(p, crude.radii, solver.ContinuationSettings(newton_tol=1e-13))
    rho_star = 1e-5
    def rho0_of(center):
        a = np.linalg.inv(core.jacobian(p, center))
        y0 = cz.bound_Y0(a, residual_at(p, center))
        z0 = cz.bound_Z0(a, jacobian_at(p, center))
        z2 = cz.bound_Z2(a, center, p, rho_star)
        return cz.radii_poly_check(y0, z0, z2, rho_star)[0]
    assert rho0_of(fine.radii) <= rho0_of(crude.radii)


def test_certify_rejects_unordered_center():
    p = SpiderwebParams(2, 4, 0.0, np.ones(2), -1.0)
    bogus = Configuration(p, np.array([1.0, 2.0]), 0.0)
    bogus.radii = np.array([2.0, 1.0])
    with pytest.raises(core.OrderingViolated):
        cz.certify(bogus)


def test_certify_retries_on_the_computed_ball(monkeypatch):
    # rho0 cannot fit in a default ball of 1e-30, so the retry at
    # 4 Y0 / (1 - Z0) proves the certificate
    c = solved(2, 5)
    monkeypatch.setattr(cz, "default_rho_star", lambda center: 1e-30)
    cert = cz.certify(c)
    assert cert.rho_star == float(intervals.up(4.0 * cert.Y0 / (1.0 - cert.Z0)))
    assert cert.rho0 <= cert.rho_star and cert.p_at_rho0 < 0.0


def _geometric(n, ell, reverse=False):
    """Set B's geometric profile: masses 1 -> 1e-9 (or reversed) under m0 = 1e6."""
    masses = np.geomspace(1.0, 1e-9, n)
    return solved(n, ell, m0=1e6, masses=masses[::-1] if reverse else masses)


@pytest.mark.parametrize("n, ell, reverse", [
    (12, 40, False), (12, 40, True), (15, 12, False), (20, 30, True),
], ids=["12-40-1-to-1e-9", "12-40-1e-9-to-1", "15-12-1-to-1e-9", "20-30-1e-9-to-1"])
def test_certify_geometric_profile_on_the_computed_ball(n, ell, reverse):
    # the default ball's Z2 leaves p without a negative value; the computed
    # ball, 4 Y0 / (1 - Z0), is far smaller and its Z2 small enough
    c = _geometric(n, ell, reverse)
    cert = cz.certify(c)
    assert cert.rho_star < cz.default_rho_star(c.radii)
    assert cert.p_at_rho0 < 0.0 and cert.rho0 <= cert.rho_star


def _poison(real, index, part=None):
    """Wrap an interval kernel so that one entry of its enclosure (of its
    ``part``-th output, for a kernel that returns a tuple) is NaN."""
    calls = []

    def wrapped(params, radii, kind=core.FLOAT64):
        out = real(params, radii, kind)
        if kind.is_interval:
            calls.append(kind)
            iv = out if part is None else out[part]
            iv.lo[index] = np.nan
            iv.hi[index] = np.nan
        return out

    return wrapped, calls


# one entry of each Hessian part: diag, t_mixed (a diagonal entry, which Z2
# never reads, must fail closed too) and t_outer
_HESSIAN_POISON = [(0, (1,)), (1, (0, 2)), (1, (1, 1)), (2, (2, 1))]


def test_Z2_fails_closed_on_nan_hessian_enclosure(monkeypatch):
    c = solved(3, 6)
    a = np.linalg.inv(core.jacobian(c.params, c.radii))
    real = core.hessian_parts
    for part, index in _HESSIAN_POISON:
        # row totals would be NaN then, and max(0.0, nan) would fold them to Z2 = 0
        parts, calls = _poison(real, index, part)
        monkeypatch.setattr(core, "hessian_parts", parts)
        with pytest.raises(cz.CertificationFailed) as excinfo:
            cz.bound_Z2(a, c.radii, c.params, 1e-6)
        assert excinfo.value.reason == cz.NON_FINITE_BOUND
        calls.clear()
        with pytest.raises(cz.CertificationFailed) as excinfo:
            cz.certify(c)
        assert excinfo.value.reason == cz.NON_FINITE_BOUND
        assert len(calls) == 1  # no rho* retry


def test_Z0_and_Y0_fail_closed_on_nan_enclosures(monkeypatch):
    c = solved(3, 6)
    a = np.linalg.inv(core.jacobian(c.params, c.radii))
    jac = jacobian_at(c.params, c.radii)
    jac.lo[2, 0] = jac.hi[2, 0] = np.nan
    with pytest.raises(cz.CertificationFailed) as excinfo:
        cz.bound_Z0(a, jac)
    assert excinfo.value.reason == cz.NON_FINITE_BOUND
    f = residual_at(c.params, c.radii)
    f.lo[0] = f.hi[0] = np.nan
    with pytest.raises(cz.CertificationFailed) as excinfo:
        cz.bound_Y0(a, f)
    assert excinfo.value.reason == cz.NON_FINITE_BOUND
    # certify takes both enclosures from one shared pass at the center
    for part, index in ((1, (2, 0)), (0, (0,))):
        shared, calls = _poison(core.residual_and_jacobian, index, part)
        monkeypatch.setattr(core, "residual_and_jacobian", shared)
        with pytest.raises(cz.CertificationFailed) as excinfo:
            cz.certify(c)
        assert excinfo.value.reason == cz.NON_FINITE_BOUND
        assert len(calls) == 1
        monkeypatch.undo()


def test_certify_makes_one_interval_pass_at_the_center_and_one_per_rho_star(monkeypatch):
    c = solved(4, 8, masses=[1.0, 0.5, 2.0, 1.5])
    hard = _geometric(25, 12)
    real = core._pair_sums
    wants = []

    def counting(radii, ell, kind, want):
        if kind.is_interval:
            wants.append(frozenset(want))
        return real(radii, ell, kind, want)

    monkeypatch.setattr(core, "_pair_sums", counting)
    center = {"force", "jac_diag", "jac_off"}
    hessian = {"hess_diag", "hess_mixed"}
    cert = cz.certify(c)
    assert cert.rho_star == cz.default_rho_star(c.radii)  # one rho* tried
    assert wants == [center, hessian]
    # set B's (25, 12) geometric profile fails on both balls, and the
    # failure costs those two Hessian passes, no more
    wants.clear()
    with pytest.raises(cz.CertificationFailed) as excinfo:
        cz.certify(hard)
    assert excinfo.value.reason == cz.NO_NEGATIVE_VALUE
    assert wants == [center, hessian, hessian]


def test_shared_pass_equals_separate_enclosures_bitwise():
    c = solved(5, 12, m0=0.4, masses=[1.0, 0.3, 2.0, 1.5, 0.8])
    point = Interval.point(c.radii)
    box = Interval(c.radii * (1 - 1e-9), c.radii * (1 + 1e-9))
    for radii, kind in ((c.radii, core.FLOAT64), (point, core.INTERVAL),
                        (box, core.INTERVAL)):
        f, df = core.residual_and_jacobian(c.params, radii, kind)
        f_alone = core.residual(c.params, radii, kind)
        df_alone = core.jacobian(c.params, radii, kind)
        if kind.is_interval:
            pairs = [(f.lo, f_alone.lo), (f.hi, f_alone.hi),
                     (df.lo, df_alone.lo), (df.hi, df_alone.hi)]
        else:
            pairs = [(f, f_alone), (df, df_alone)]
        for got, want in pairs:
            assert got.tobytes() == want.tobytes()


def test_Z0_fails_closed_on_overflow():
    c = solved(2, 4)
    with np.errstate(over="ignore"), pytest.raises(cz.CertificationFailed) as excinfo:
        cz.bound_Z0(np.full((2, 2), 1e308), jacobian_at(c.params, c.radii))
    assert excinfo.value.reason == cz.NON_FINITE_BOUND


# ---------------------------------------------------------------------------
# h_ell positivity proofs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ell", range(2, 10))
def test_h_check_verifies_small_ell(ell):
    rep = cz.h_ell_check(ell)
    assert rep.verified
    assert rep.lower_bound > 0


@pytest.mark.parametrize("ell", range(10, 19))
def test_h_check_refutes_large_ell(ell):
    rep = cz.h_ell_check(ell)
    assert not rep.verified
    assert rep.lower_bound is None
    assert rep.negative_value is not None and rep.negative_value < 0
    assert 0.0 < rep.negative_at < 1.0


def test_h_lower_bound_verifier_is_sound():
    assert cz.verify_h_lower_bound(10, -0.48)
    # a bound above the true minimum must be rejected
    assert not cz.verify_h_lower_bound(10, -0.40)


@pytest.mark.parametrize("lo,hi", [(np.nan, np.nan), (np.nan, 2e6), (2e6, np.inf)],
                         ids=["nan", "nan-lo", "inf-hi"])
def test_h_lower_bound_verifier_fails_closed_on_non_finite_enclosure(monkeypatch, lo, hi):
    # NaN compares False against any bound, so it must never decide a box
    def broken_h(x, ell, kind=core.FLOAT64):
        shape = np.shape(x.lo)
        return Interval._make(np.full(shape, lo), np.full(shape, hi))

    monkeypatch.setattr(core, "h_ell", broken_h)
    assert cz.verify_h_lower_bound(7, 1e6) is False


# ---------------------------------------------------------------------------
# dominance
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ell,n", [(2, 3), (5, 2), (9, 4)])
def test_dominance_small_ell_at_solution(ell, n):
    c = solved(n, ell)
    assert oracles.dominance_check(c.params, c.radii) is True


def test_dominance_ell10_seventeen_rings_decreasing_masses():
    masses = 1.0 / np.arange(1, 18)
    c = solved(17, 10, masses=masses)
    assert oracles.dominance_check(c.params, c.radii) is True


def test_dominance_ell18_three_rings():
    c = solved(3, 18)
    assert oracles.dominance_check(c.params, c.radii) is True

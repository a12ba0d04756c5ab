"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers.  Tolerances are pinned here, not configurable."""

import time

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from spiderweb import analysis, core, solver
from spiderweb import certify as cz
from spiderweb.core import INTERVAL, SpiderwebParams
from spiderweb.solver import ContinuationSettings

import oracles


def report(num, text):
    print(f"\nPASS criterion {num}: {text}")


@pytest.fixture(scope="module")
def derivative_instances():
    """50 random instances with n <= 6, ell <= 12 shared by criteria 3 and 4."""
    rng = np.random.default_rng(424242)
    out = []
    for _ in range(50):
        n = int(rng.integers(1, 7))
        ell = int(rng.integers(2, 13))
        masses = rng.uniform(0.2, 3.0, size=n)
        m0 = float(rng.uniform(0.0, 2.0)) if rng.random() < 0.5 else 0.0
        lam = float(-rng.uniform(0.3, 3.0))
        radii = np.cumsum(rng.uniform(0.3, 1.2, size=n)) + rng.uniform(0.1, 0.5)
        out.append((SpiderwebParams(n, ell, m0, masses, lam), radii))
    return out


def test_criterion_1_closed_form_oracle():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        ell = int(rng.integers(2, 41))
        m0 = float(rng.uniform(0.0, 3.0))
        m1 = float(rng.uniform(0.1, 5.0))
        lam = float(-rng.uniform(0.2, 4.0))
        c = solver.solve_single_ring(SpiderwebParams(1, ell, m0, np.array([m1]), lam))
        with mpmath.workdps(40):
            z = sum(
                1 / mpmath.sqrt(1 - mpmath.cos(2 * mpmath.pi * k / ell))
                for k in range(1, ell)
            )
            expect = float(
                mpmath.cbrt((m1 * z / (2 * mpmath.sqrt(2)) + m0) / (-lam))
            )
        worst = max(worst, abs(c.radii[0] - expect) / expect)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-13
    assert elapsed < 1.0
    report(1, f"50 closed-form radii, worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_desk_scale_grid_and_spot_check():
    t0 = time.perf_counter()
    failures = []
    rho_worst = 0.0
    for n in range(1, 21):
        for ell in range(2, 41, 2):
            try:
                p = SpiderwebParams(n, ell, 0.0, np.ones(n), -1.0)
                config = solver.build_configuration(p)
                cert = cz.certify(config)
                assert cert.p_at_rho0 < 0.0
                rho_worst = max(rho_worst, cert.rho0)
            except Exception as exc:  # count, do not abort the sweep
                failures.append((n, ell, f"{type(exc).__name__}: {exc}"))
    grid_elapsed = time.perf_counter() - t0
    assert failures == []
    assert grid_elapsed < 600.0

    # paper-scale spot check; the float residual floor at this size is ~1e-11,
    # so the tolerance sits above it (certificate rigor is unaffected)
    t1 = time.perf_counter()
    p = SpiderwebParams(100, 200, 0.0, np.ones(100), -1.0)
    config = solver.build_configuration(p, ContinuationSettings(newton_tol=3e-10))
    cert = cz.certify(config)
    assert cert.p_at_rho0 < 0.0
    spot_elapsed = time.perf_counter() - t1
    report(
        2,
        f"400/400 builds certified in {grid_elapsed:.0f}s (worst rho0 {rho_worst:.1e}); "
        f"n=100 ell=200 certified in {spot_elapsed:.0f}s (rho0 {cert.rho0:.1e})",
    )


def test_criterion_3_derivative_oracles(derivative_instances):
    h = 1e-6
    worst_jac = 0.0
    worst_hess = 0.0
    for params, radii in derivative_instances:
        n = params.n
        jac = core.jacobian(params, radii)
        hess = oracles.hessian(params, radii)
        scale_j = np.max(np.abs(jac))
        scale_h = np.max(np.abs(hess))
        for l in range(n):
            rp, rm = radii.copy(), radii.copy()
            rp[l] += h
            rm[l] -= h
            fd_col = (core.residual(params, rp) - core.residual(params, rm)) / (2 * h)
            err = np.abs(jac[:, l] - fd_col) / np.maximum(np.abs(fd_col), 1e-9 * scale_j)
            worst_jac = max(worst_jac, float(np.max(err)))
            fd_slab = (core.jacobian(params, rp) - core.jacobian(params, rm)) / (2 * h)
            herr = np.abs(hess[:, l, :] - fd_slab) / np.maximum(
                np.abs(fd_slab), 1e-7 * scale_h
            )
            worst_hess = max(worst_hess, float(np.max(herr)))
    assert worst_jac < 1e-6
    assert worst_hess < 1e-5
    report(3, f"50 instances: jacobian rel err {worst_jac:.1e} (<1e-6), "
              f"hessian rel err {worst_hess:.1e} (<1e-5)")


def test_criterion_4_row_identity(derivative_instances):
    worst = 0.0
    for params, radii in derivative_instances:
        lhs = oracles.jacobian_row_sums(core.jacobian(params, radii))
        rhs = oracles.dominance_row_sums(params, radii)
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.abs(rhs))))
    assert worst < 1e-10
    report(4, f"row sums vs positive decomposition agree to {worst:.1e} (<1e-10)")


ZETA_TABLE = {10: 10.9, 11: 12.45, 12: 14.0, 13: 15.74, 14: 17.0,
              15: 19.13, 16: 20.8, 17: 22.0, 18: 24.0}
H_MIN_TABLE = {10: -0.48, 11: -1.1, 12: -1.82, 13: -2.61, 14: -4.0,
               15: -4.5, 16: -5.6, 17: -7.0, 18: -8.2}


def test_criterion_5_h_certification_split():
    for ell in range(2, 10):
        rep = cz.h_ell_check(ell)
        assert rep.verified, f"h_{ell} positivity must verify"
    # closed forms for ell = 2, 3, 4 agree with the spoke sum
    xs = np.linspace(0.0, 1.0, 101)
    assert np.allclose(core.h_ell(xs, 2), 4 / (1 + xs) ** 3, rtol=1e-12)
    assert np.allclose(
        core.h_ell(xs, 3), 3 * (0.5 + 3.5 * xs + 2 * xs**2) / (1 + xs + xs**2) ** 2.5,
        rtol=1e-12,
    )
    h4 = 4 / (1 + xs) ** 3 + 2 * (2 * xs**2 + 3 * xs - 1) / (1 + xs**2) ** 2.5
    assert np.allclose(core.h_ell(xs, 4), h4, rtol=1e-12)
    for ell in range(10, 19):
        rep = cz.h_ell_check(ell)
        assert not rep.verified
        assert rep.negative_value is not None and rep.negative_value < 0.0
        assert cz.verify_h_lower_bound(ell, H_MIN_TABLE[ell])
    for ell, bound in ZETA_TABLE.items():
        z = core.zeta(ell, INTERVAL)
        if ell == 15:
            # zeta_15 = 19.129972...; a 19.13 bound overstates it, so
            # verify the rigorous refutation and the corrected bound
            assert float(z.hi) < 19.13
            assert float(z.lo) >= 19.1299
        else:
            assert float(z.lo) >= bound
    report(5, "h_ell verified for ell 2..9, refuted with negative witnesses for "
              "10..18; zeta/h tables confirmed (zeta_15 entry rigorously "
              "corrected to >= 19.1299)")


def _polish(params, radii):
    settings = ContinuationSettings(newton_tol=1e-15, newton_max_iter=60)
    try:
        return solver._newton_raw(
            radii, params.masses, params.m0, params.lam, params.ell, settings
        )[0]
    except solver.NewtonDiverged:
        return None


def test_criterion_6_uniqueness_multistart():
    rng = np.random.default_rng(6)
    checked = 0
    for ell in range(2, 10):
        for n in (2, 3, 4):
            masses = rng.uniform(0.3, 2.5, size=n)
            p = SpiderwebParams(n, ell, 0.0, masses, -1.0)
            config = solver.build_configuration(p)
            cert = cz.certify(config)
            results = []
            while len(results) < 20:
                start = np.sort(config.radii * rng.uniform(0.6, 1.6, size=n))
                if np.any(np.diff(start) < 1e-3):
                    continue
                polished = _polish(p, start)
                if polished is None:
                    continue
                results.append(polished)
            results = np.array(results)
            spread = np.max(results, axis=0) - np.min(results, axis=0)
            assert float(np.max(spread)) <= 2.0 * cert.rho0, (ell, n)
            checked += 1
    report(6, f"{checked} instances x 20 multistarts each land pairwise within "
              f"2*rho0 of the certified center")


def test_criterion_7_mass_radius_scaling():
    cases = [
        (1, 2, 0.0), (3, 6, 0.0), (4, 9, 0.8), (2, 40, 0.0),
    ]
    worst = 0.0
    for n, ell, m0 in cases:
        masses = np.linspace(1.4, 0.6, n)
        base = solver.build_configuration(SpiderwebParams(n, ell, m0, masses, -1.0))
        scaled = solver.build_configuration(
            SpiderwebParams(n, ell, 8.0 * m0, 8.0 * masses, -1.0)
        )
        worst = max(worst, float(np.max(np.abs(scaled.radii / base.radii - 2.0) / 2.0)))
    assert worst < 1e-9
    report(7, f"masses x8 gives radii x2, worst rel err {worst:.1e} (<1e-9)")


def test_criterion_8_restricted_insertion():
    p = SpiderwebParams(3, 7, 0.5, np.array([1.0, 0.7, 1.8]), -1.0)
    config = solver.build_configuration(p)
    cz.certify(config)
    r = config.radii
    g = lambda s: core.probe_ring_lambda(p, r, s) - p.lam
    edges = [
        (1e-6 * r[0], r[0]),          # gap 0 exists here because m0 > 0
        (r[0], r[1]),
        (r[1], r[2]),
        (r[2], 64.0 * r[2]),
    ]
    worst = 0.0
    for gap, (lo, hi) in enumerate(edges):
        pad = 1e-3 * (hi - lo)
        samples = np.linspace(lo + pad, hi - pad, 100)
        vals = np.array([core.probe_ring_lambda(p, r, s) for s in samples])
        assert np.all(np.diff(vals) > 0), f"probe lambda not monotone in gap {gap}"
        ext = solver.insert_zero_mass_ring(config, gap=gap)
        ours = ext[gap]
        bracket_lo = lo * (1 + 1e-9) if gap > 0 else lo
        oracle = brentq(g, bracket_lo, hi * (1 - 1e-9) if gap < 3 else hi, xtol=1e-14)
        worst = max(worst, abs(ours - oracle) / oracle)
    assert worst < 1e-10
    report(8, f"probe lambda monotone on all 4 gaps; safeguarded Newton vs brentq "
              f"agree to {worst:.1e} (<1e-10)")


def test_criterion_9_profile_shapes():
    n = 20
    widths = {}
    profiles = {}
    for ell in (2, 6, 12, 24, 40):
        config = solver.build_configuration(SpiderwebParams(n, ell, 0.0, np.ones(n), -1.0))
        prof = analysis.spacing_profile(config, convexity_tol=1e-9)
        widths[ell] = prof.b
        profiles[ell] = prof
    assert np.all(np.diff(profiles[2].a) > 0), "spacings must increase at ell=2"
    assert profiles[40].i_star == 1
    for ell in (2, 6, 40):
        assert profiles[ell].convex, f"second differences below -1e-9 at ell={ell}"
    bs = [widths[ell] for ell in (2, 6, 12, 24, 40)]
    assert np.all(np.diff(bs) < 0), "relative width must decrease with ell"
    report(9, "n=20 equal masses: a_i increasing at ell=2, i*=1 at ell=40, "
              f"convex at ell in {{2,6,40}}, width decreasing {np.round(bs, 3)}")


def test_criterion_10_certificate_soundness_drill():
    p = SpiderwebParams(3, 6, 0.0, np.ones(3), -1.0)
    config = solver.build_configuration(p)
    corrupted = config.radii.copy()
    corrupted[0] += 1e-3
    truth = _polish(p, config.radii)
    assert truth is not None
    bad = core.Configuration(p, corrupted, float(np.max(np.abs(core.residual(p, corrupted)))))
    try:
        cert = cz.certify(bad)
    except cz.CertificationFailed as exc:
        report(10, f"corrupted center rejected ({exc.reason})")
        return
    # if certification succeeds, its ball must still contain the true zero
    dist = float(np.max(np.abs(corrupted - truth)))
    assert cert.rho0 >= dist, "certificate ball excludes the true solution"
    assert cert.rho0 >= 1e-3
    report(10, f"corrupted center certified only with rho0 {cert.rho0:.2e} >= "
               f"corruption distance {dist:.2e}")

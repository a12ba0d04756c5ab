"""Solver tests: closed forms, insertion, continuation, full builds, and the
independent root-finder / multistart oracles."""

import numpy as np
import pytest
from scipy.optimize import brentq

from spiderweb import core, solver
from spiderweb.core import FLOAT64, OrderingViolated, SpiderwebParams
from spiderweb.solver import (
    BracketError,
    ContinuationSettings,
    ContinuationStalled,
    NewtonDiverged,
    SolverError,
    build_configuration,
    continue_mass,
    insert_zero_mass_ring,
    solve_single_ring,
)

import oracles


def single_ring_radius(ell, m0, m1, lam):
    z = float(core.zeta(ell))
    return ((m1 * z / 2**1.5 + m0) / (-lam)) ** (1.0 / 3.0)


def params1(ell=2, m0=0.0, m1=1.0, lam=-1.0):
    return SpiderwebParams(1, ell, m0, np.array([m1]), lam)


# ---------------------------------------------------------------------------
# single ring
# ---------------------------------------------------------------------------

def test_single_ring_ell2():
    c = solve_single_ring(params1())
    assert c.radii[0] == pytest.approx(4.0 ** (-1.0 / 3.0), rel=1e-15)
    assert c.residual_norm < 1e-14


def test_single_ring_mass_scaling():
    base = solve_single_ring(params1(m1=1.0))
    scaled = solve_single_ring(params1(m1=8.0))
    assert scaled.radii[0] == pytest.approx(2.0 * base.radii[0], rel=1e-15)


def test_single_ring_with_central_mass():
    c = solve_single_ring(params1(ell=4, m0=1.0))
    z4 = 2.0 + 1.0 / np.sqrt(2.0)
    assert float(core.zeta(4)) == pytest.approx(z4, rel=1e-14)
    assert c.radii[0] == pytest.approx((z4 / 2**1.5 + 1.0) ** (1.0 / 3.0), rel=1e-14)


def test_single_ring_needs_n1():
    p = SpiderwebParams(2, 2, 0.0, np.array([1.0, 1.0]), -1.0)
    with pytest.raises(ValueError):
        solve_single_ring(p)


@pytest.mark.parametrize("mass, lam", [(1e10, -1e-300), (1e-300, -1e300)])
def test_single_ring_radius_out_of_range_is_a_solver_error(mass, lam):
    # m1 / |lambda| overflows the closed-form r1 to inf, or underflows it to 0
    with np.errstate(over="ignore", under="ignore"):
        with pytest.raises(SolverError, match="closed-form radius"):
            solve_single_ring(params1(m1=mass, lam=lam))
        with pytest.raises(SolverError, match="closed-form radius"):
            build_configuration(SpiderwebParams(3, 6, 0.0, np.full(3, mass), lam))


def test_settings_validation():
    # nan would pass every comparison
    for bad in (0.0, -1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="newton_tol must be finite and positive"):
            ContinuationSettings(newton_tol=bad)
    # a fractional cap would reach range() inside the build, and a bool is
    # not a count
    for bad in (2.5, 1.0, True, np.True_, 0, -3):
        with pytest.raises(ValueError, match="newton_max_iter must be an integer >= 1"):
            ContinuationSettings(newton_max_iter=bad)
    assert ContinuationSettings(newton_max_iter=np.int64(7)).newton_max_iter == 7


# ---------------------------------------------------------------------------
# newton
# ---------------------------------------------------------------------------

def test_newton_fixed_point_returns_unchanged():
    p = params1()
    exact = solve_single_ring(p)
    c = oracles.newton_solve(p, exact.radii)
    assert c.radii[0] == exact.radii[0]
    assert c.residual_norm <= 1e-12


def test_newton_single_ring_from_crude_start():
    c = oracles.newton_solve(params1(), np.array([1.0]))
    assert c.radii[0] == pytest.approx(4.0 ** (-1.0 / 3.0), rel=1e-12)


def test_newton_quadratic_tail():
    p = SpiderwebParams(3, 6, 0.0, np.ones(3), -1.0)
    target = build_configuration(p)
    start = target.radii * np.array([1.05, 0.97, 1.04])
    _, _, _, history = solver._newton_raw(
        start, p.masses, p.m0, p.lam, p.ell, ContinuationSettings()
    )
    tail = [h for h in history if 1e-14 < h < 1e-2]
    assert len(tail) >= 2
    for a, b in zip(tail, tail[1:]):
        assert b <= 50.0 * a * a  # quadratic contraction with modest constant


def test_newton_diverged_is_reported():
    p = params1()
    with pytest.raises(NewtonDiverged):
        oracles.newton_solve(p, np.array([1e6]), ContinuationSettings(newton_max_iter=2))


def test_newton_at_its_float_floor_stops_after_the_full_step(monkeypatch):
    config = build_configuration(SpiderwebParams(6, 12, 0.0, np.ones(6), -1.0))
    p, floor = config.params, config.residual_norm
    residual, jacobian, calls = core._residual_raw, core._jacobian_raw, []

    def counting(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(core, "_residual_raw", counting("f", residual))
    monkeypatch.setattr(core, "_jacobian_raw", counting("J", jacobian))
    # a tolerance far below the floor is never met: the solve returns at the
    # floor and reports the norm it reached
    tol = 1e-30
    _, norm, _, _ = solver._newton_raw(config.radii, p.masses, p.m0, p.lam, p.ell,
                                       ContinuationSettings(newton_tol=tol))
    assert tol < norm <= floor
    # the last iteration tried the full step and no damped candidate
    assert "".join(calls).rsplit("J", 1)[1] == "f"


def test_newton_validates_start():
    p = SpiderwebParams(2, 4, 0.0, np.ones(2), -1.0)
    with pytest.raises(OrderingViolated):
        oracles.newton_solve(p, np.array([2.0, 1.0]))


# ---------------------------------------------------------------------------
# restricted insertion
# ---------------------------------------------------------------------------

def test_outer_insertion_matches_independent_root_finder():
    p = params1()
    c = solve_single_ring(p)
    ext = insert_zero_mass_ring(c, gap=1)
    assert ext.shape == (2,)
    g = lambda s: core.probe_ring_lambda(p, c.radii, s) - p.lam
    r1 = c.radii[0]
    oracle = brentq(g, r1 * 1.0001, r1 * 64.0, xtol=1e-14)
    assert ext[1] == pytest.approx(oracle, rel=1e-10, abs=1e-12)


def test_probe_lambda_monotone_in_each_gap():
    p = SpiderwebParams(3, 5, 0.2, np.array([1.0, 0.8, 1.3]), -1.0)
    c = build_configuration(p)
    r = c.radii
    gaps = [(r[0], r[1]), (r[1], r[2]), (r[2], 4.0 * r[2])]
    for lo, hi in gaps:
        ss = np.linspace(lo + 1e-4 * (hi - lo), hi - 1e-4 * (hi - lo), 10)
        vals = [core.probe_ring_lambda(p, r, s) for s in ss]
        assert np.all(np.diff(vals) > 0)


def test_insertion_leaves_existing_lambdas_unchanged():
    p = SpiderwebParams(2, 6, 0.0, np.array([1.0, 2.0]), -1.0)
    c = build_configuration(p)
    lam_before = oracles.lambda_values(p, c.radii)
    ext = insert_zero_mass_ring(c, gap=2)
    lam_after = core._force_per_mass(
        ext, np.append(p.masses, 0.0), p.m0, p.ell, FLOAT64
    ) / ext
    assert np.max(np.abs(lam_after[:2] - lam_before)) < 1e-14


def test_inner_gap_insertion():
    p = SpiderwebParams(2, 4, 0.0, np.array([1.0, 1.0]), -1.0)
    c = build_configuration(p)
    ext = insert_zero_mass_ring(c, gap=1)
    assert c.radii[0] < ext[1] < c.radii[1]
    lam_probe = core.probe_ring_lambda(p, c.radii, ext[1])
    assert lam_probe == pytest.approx(p.lam, abs=1e-9)


def test_gap0_requires_central_mass():
    p0 = SpiderwebParams(1, 3, 0.0, np.array([1.0]), -1.0)
    c0 = solve_single_ring(p0)
    with pytest.raises(BracketError):
        insert_zero_mass_ring(c0, gap=0)
    p1 = SpiderwebParams(1, 3, 2.0, np.array([1.0]), -1.0)
    c1 = solve_single_ring(p1)
    ext = insert_zero_mass_ring(c1, gap=0)
    assert 0.0 < ext[0] < c1.radii[0]


def test_insertion_rejects_non_central_input():
    p = SpiderwebParams(2, 4, 0.0, np.array([1.0, 1.0]), -1.0)
    bogus = core.Configuration(p, np.array([1.0, 2.0]), 0.0)
    with pytest.raises(SolverError):
        insert_zero_mass_ring(bogus, gap=2)


def test_public_insertion_still_checks_a_solved_input():
    c = build_configuration(SpiderwebParams(3, 6, 0.0, np.ones(3), -1.0))
    # a claimed residual norm is not trusted: the radii are evaluated again
    lying = core.Configuration(c.params, c.radii * 1.01, 0.0)
    with pytest.raises(SolverError, match="solved configuration"):
        insert_zero_mass_ring(lying, gap=3)
    assert insert_zero_mass_ring(c, gap=3).shape == (4,)


def _assert_insertion_matches_bisection(config):
    p, r = config.params, config.radii
    tol = solver._INSERT_REL_TOL * r[-1]
    for gap in range(0 if p.m0 > 0 else 1, p.n + 1):
        ours = insert_zero_mass_ring(config, gap)[gap]
        assert abs(ours - oracles.insert_ring_by_bisection(p, r, gap)) <= tol


def test_insertion_matches_bisection_in_every_gap():
    p = SpiderwebParams(3, 7, 0.5, np.array([1.0, 0.7, 1.8]), -1.0)
    _assert_insertion_matches_bisection(build_configuration(p))


def test_insertion_matches_bisection_on_random_instances():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        m0 = float(rng.uniform(0.1, 2.0)) if rng.random() < 0.5 else 0.0
        p = SpiderwebParams(n, int(rng.integers(2, 31)), m0, rng.uniform(0.3, 3.0, size=n),
                            float(-rng.uniform(0.5, 2.0)))
        _assert_insertion_matches_bisection(build_configuration(p))


def test_sign_bracket_ends_have_strict_signs_in_every_gap(monkeypatch):
    config = build_configuration(SpiderwebParams(3, 7, 0.5, np.array([1.0, 0.7, 1.8]), -1.0))
    p, r = config.params, config.radii
    probe, calls = core.probe_ring_lambda, []

    def counting_probe(*args, **kwargs):
        calls.append(args[2])
        return probe(*args, **kwargs)

    monkeypatch.setattr(core, "probe_ring_lambda", counting_probe)
    edges = (0.0, *r)
    for gap in range(p.n):
        assert solver._sign_bracket(p, r, gap) == (edges[gap], r[gap])
    assert calls == []
    lo, hi = solver._sign_bracket(p, r, p.n)
    assert calls[-1] == hi and probe(p, r, hi) > p.lam
    assert lo == r[-1] or (lo in calls and probe(p, r, lo) < p.lam)
    # no central mass: the probe lambda stays above lam in gap 0
    c0 = build_configuration(SpiderwebParams(3, 7, 0.0, np.array([1.0, 0.7, 1.8]), -1.0))
    calls.clear()
    with pytest.raises(BracketError, match="central mass"):
        solver._sign_bracket(c0.params, c0.radii, 0)
    assert calls == []


def test_outer_gap_doubling_keeps_the_last_negative_point_and_skips_nan_and_zero(
        monkeypatch):
    config = build_configuration(SpiderwebParams(3, 7, 0.0, np.ones(3), -1.0))
    p, r = config.params, config.radii

    def probe_values(values):
        # the doubling evaluates 2 r_n, 4 r_n, 8 r_n, ...: exact multiples
        monkeypatch.setattr(core, "probe_ring_lambda",
                            lambda params, radii, s: p.lam + values[s / r[-1]])

    probe_values({2.0: -1.0, 4.0: np.nan, 8.0: 0.0, 16.0: 1.0})
    assert solver._sign_bracket(p, r, p.n) == (2.0 * r[-1], 16.0 * r[-1])
    # nothing negative evaluated: the bracket starts at r_n itself
    probe_values({2.0: np.nan, 4.0: 0.0, 8.0: 1.0})
    assert solver._sign_bracket(p, r, p.n) == (r[-1], 8.0 * r[-1])
    probe_values(dict.fromkeys(2.0 ** np.arange(1, solver._BRACKET_DOUBLINGS + 1), -1.0))
    with pytest.raises(BracketError, match="outer gap"):
        solver._sign_bracket(p, r, p.n)


@pytest.mark.parametrize("n, ell, masses, bound", [
    (10, 20, np.ones, 12),
    (40, 80, np.ones, 12),
    (40, 80, lambda n: 1.0 / np.arange(1, n + 1), 13),
], ids=["10-20", "40-80", "40-80-inv"])
def test_build_makes_few_probe_evaluations_per_ring(monkeypatch, n, ell, masses, bound):
    probe, insert = core.probe_ring_lambda, solver._insert_ring
    calls, per_ring = [], []

    def counting_probe(*args, **kwargs):
        calls.append(1)
        return probe(*args, **kwargs)

    def counting_insert(*args):
        before = len(calls)
        out = insert(*args)
        per_ring.append(len(calls) - before)
        return out

    monkeypatch.setattr(core, "probe_ring_lambda", counting_probe)
    monkeypatch.setattr(solver, "_insert_ring", counting_insert)
    build_configuration(SpiderwebParams(n, ell, 0.0, masses(n), -1.0))
    assert len(per_ring) == n - 1
    assert max(per_ring) <= bound


@pytest.mark.parametrize("garbage", [lambda d: np.nan, lambda d: -d, lambda d: 0.0],
                         ids=["nan", "wrong sign", "zero"])
def test_insertion_with_a_garbage_slope_bisects_inside_the_bracket(monkeypatch, garbage):
    config = build_configuration(SpiderwebParams(3, 7, 0.5, np.array([1.0, 0.7, 1.8]), -1.0))
    p, r = config.params, config.radii
    probe = core.probe_ring_lambda
    for gap in range(p.n + 1):
        bracket = list(solver._sign_bracket(p, r, gap))

        def garbled(params, radii, s, *, slope=False):
            assert slope and bracket[0] < s < bracket[1]
            lam, d = probe(params, radii, s, slope=True)
            bracket[0 if lam < p.lam else 1] = s
            return lam, garbage(d)

        monkeypatch.setattr(core, "probe_ring_lambda", garbled)
        s = solver._safeguarded_newton(p, r, *bracket)
        monkeypatch.undo()
        oracle = oracles.insert_ring_by_bisection(p, r, gap)
        assert abs(s - oracle) <= solver._INSERT_REL_TOL * r[-1]


def test_insertion_gives_up_after_its_step_cap(monkeypatch):
    c = build_configuration(SpiderwebParams(3, 7, 0.0, np.ones(3), -1.0))
    monkeypatch.setattr(solver, "_INSERT_MAX_STEPS", 2)
    with pytest.raises(BracketError, match="did not converge in 2 steps"):
        insert_zero_mass_ring(c, gap=3)


# ---------------------------------------------------------------------------
# continuation
# ---------------------------------------------------------------------------

def test_continue_mass_matches_direct_newton():
    p = params1(ell=2)
    c = solve_single_ring(p)
    ext = insert_zero_mass_ring(c, gap=1)
    cont = continue_mass(p, ext, 1.0)
    assert cont.residual_norm <= 1e-12
    p2 = SpiderwebParams(2, 2, 0.0, np.array([1.0, 1.0]), -1.0)
    direct = oracles.newton_solve(p2, np.array([0.55, 1.7]))
    assert np.allclose(cont.radii, direct.radii, rtol=1e-10)


def test_continue_mass_validates_input():
    p = params1()
    with pytest.raises(OrderingViolated):
        continue_mass(p, np.array([2.0, 1.0]), 1.0)
    with pytest.raises(SolverError):
        # radii that do not solve the zero-mass system
        continue_mass(p, np.array([1.0, 2.0]), 1.0)
    ext = insert_zero_mass_ring(solve_single_ring(p), gap=1)
    for target in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            continue_mass(p, ext, target)


def test_continuation_stalls_with_unreachable_tolerance():
    p = params1()
    c = solve_single_ring(p)
    ext = insert_zero_mass_ring(c, gap=1)
    hard = ContinuationSettings(newton_tol=1e-30, newton_max_iter=3)
    with pytest.raises(SolverError):
        # the zero-mass precheck itself may trip, or the continuation stalls;
        # either way the failure must be a SolverError with context
        continue_mass(p, ext, 1.0, hard)


def test_continuation_stalls_when_one_newton_iteration_cannot_add_a_ring():
    # the second ring is solved from its insertion only, at the full mass; one
    # iteration does not reach the tolerance, and no smaller mass is tried
    p = SpiderwebParams(3, 6, 0.0, np.ones(3), -1.0)
    with pytest.raises(ContinuationStalled, match="ring 2: .*after 1 iterations") as excinfo:
        build_configuration(p, ContinuationSettings(newton_max_iter=1))
    assert excinfo.value.ring_index == 2
    assert isinstance(excinfo.value.__cause__, NewtonDiverged)
    # the public continue_mass stalls the same way when 4 iterations from a
    # polished insertion cannot reach a tolerance below the float floor
    p1 = params1()
    ext = insert_zero_mass_ring(solve_single_ring(p1), gap=1)
    polished, _, _, _ = solver._newton_raw(
        ext, np.append(p1.masses, 0.0), p1.m0, p1.lam, p1.ell,
        ContinuationSettings(newton_tol=1e-15, newton_max_iter=50),
    )
    with pytest.raises(ContinuationStalled, match="after 4 iterations") as excinfo:
        continue_mass(p1, polished, 1.0, ContinuationSettings(newton_tol=1e-18, newton_max_iter=4))
    assert isinstance(excinfo.value.__cause__, NewtonDiverged)


# ---------------------------------------------------------------------------
# full builds
# ---------------------------------------------------------------------------

def _build_by_public_steps(params, settings, secant=True):
    """The build replayed through the public steps: each ring is inserted
    with insert_zero_mass_ring and then solved by oracles.newton_solve from the
    secant prediction (from the third ring on, when ``secant``) or by
    continue_mass from the insertion (the constant predictor).  Returns the
    radii and the residual norm of the last ring's solve."""
    config = solve_single_ring(
        SpiderwebParams(1, params.ell, params.m0, params.masses[:1], params.lam))
    delta = None
    for k in range(2, params.n + 1):
        extended = insert_zero_mass_ring(config, gap=k - 1)
        if secant and delta is not None:
            first_k = SpiderwebParams(k, params.ell, params.m0, params.masses[:k], params.lam)
            config = oracles.newton_solve(
                first_k, solver._secant_prediction(extended, delta), settings)
        else:
            config = continue_mass(config.params, extended, params.masses[k - 1], settings)
        delta = (config.radii - extended) / extended
    return config.radii, config.residual_norm


def _assert_close_to_constant_predictor(built, settings=None):
    r, _ = _build_by_public_steps(built.params, settings or ContinuationSettings(),
                                  secant=False)
    assert np.max(np.abs(built.radii - r) / r) <= 1e-12


def test_build_skips_residual_rechecks_and_keeps_radii(monkeypatch):
    """The build skips the residual checks that the public insertion and
    continuation steps make on input from outside, and solves each ring from
    the same secant prediction; the radii are those of the public steps bit
    for bit."""
    params = SpiderwebParams(10, 20, 0.3, np.linspace(1.0, 2.0, 10), -1.0)
    settings = ContinuationSettings()
    real = core._residual_raw
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(core, "_residual_raw", counting)
    built = build_configuration(params, settings)
    n_build = len(calls)

    calls.clear()
    r, norm = _build_by_public_steps(params, settings)
    # one insertion check per added ring, and the zero-mass check of the one
    # continue_mass call (the second ring, which has no prediction)
    assert n_build == len(calls) - (params.n - 1) - 1
    assert built.radii.tobytes() == r.tobytes()
    assert built.residual_norm == norm


def test_secant_prediction_aligns_from_the_outermost_ring():
    r_ins = np.array([1.0, 2.0, 4.0])
    pred = solver._secant_prediction(r_ins, np.array([0.1, 0.2]))
    assert np.array_equal(pred, r_ins * (1.0 + np.array([0.1, 0.1, 0.2])))
    # a displacement that reorders the rings leaves the cone
    assert not solver._in_cone(solver._secant_prediction(r_ins, np.array([0.5, -0.6])))


def _record_ring_solves(monkeypatch, fail=None):
    """Each Newton solve of the build as (ring count, start, newest ring's
    mass), the start named "insertion" or "prediction" when it is that very
    array, else "other"; the solve (size, start) == ``fail`` raises
    NewtonDiverged instead of running."""
    insert, predict, newton = solver._insert_ring, solver._secant_prediction, solver._newton_raw
    latest, solves = {}, []

    def inserting(*args):
        latest["insertion"] = insert(*args)
        return latest["insertion"]

    def predicting(*args):
        latest["prediction"] = predict(*args)
        return latest["prediction"]

    def solving(r0, masses, *args):
        start = next((name for name, r in latest.items() if r is r0), "other")
        solves.append((r0.size, start, masses[-1]))
        if (r0.size, start) == fail:
            raise NewtonDiverged("forced failure of the predicted start")
        return newton(r0, masses, *args)

    monkeypatch.setattr(solver, "_insert_ring", inserting)
    monkeypatch.setattr(solver, "_secant_prediction", predicting)
    monkeypatch.setattr(solver, "_newton_raw", solving)
    return solves


def _one_solve_per_ring(params, starts):
    """The solves of a build with no failed solve: ring k from starts[k],
    default the prediction."""
    return [(k, starts.get(k, "prediction"), params.masses[k - 1])
            for k in range(2, params.n + 1)]


@pytest.mark.parametrize("params", [
    SpiderwebParams(10, 20, 0.3, np.linspace(1.0, 2.0, 10), -1.0),
    SpiderwebParams(20, 40, 0.0, 1.0 / np.arange(1, 21), -1.0),
    SpiderwebParams(6, 2, 0.0, np.ones(6), -1.0),
], ids=["10-20-m0", "20-40-inv", "6-2"])
def test_predicted_build_agrees_with_constant_predictor(monkeypatch, params):
    solves = _record_ring_solves(monkeypatch)
    built = build_configuration(params)
    monkeypatch.undo()
    assert solves == _one_solve_per_ring(params, {2: "insertion"})
    _assert_close_to_constant_predictor(built)


def test_failed_prediction_falls_back_to_continuation(monkeypatch):
    params = SpiderwebParams(10, 20, 0.0, np.ones(10), -1.0)
    solves = _record_ring_solves(monkeypatch, fail=(5, "prediction"))
    built = build_configuration(params)
    monkeypatch.undo()
    # ring 5 is solved from its insertion, at the full mass
    expected = _one_solve_per_ring(params, {2: "insertion", 5: "insertion"})
    expected.insert(3, (5, "prediction", 1.0))
    assert solves == expected
    _assert_close_to_constant_predictor(built)


def test_prediction_outside_the_cone_falls_back_to_continuation(monkeypatch):
    params = SpiderwebParams(8, 12, 0.0, np.ones(8), -1.0)
    predict = solver._secant_prediction

    def reversed_at_ring_4(r_ins, delta):
        pred = predict(r_ins, delta)
        return pred[::-1] if r_ins.size == 4 else pred

    monkeypatch.setattr(solver, "_secant_prediction", reversed_at_ring_4)
    solves = _record_ring_solves(monkeypatch)
    built = build_configuration(params)
    monkeypatch.undo()
    # no solve from the reversed start; ring 4 is solved from its insertion
    # at the full mass
    assert solves == _one_solve_per_ring(params, {2: "insertion", 4: "insertion"})
    _assert_close_to_constant_predictor(built)


def test_build_makes_few_jacobian_evaluations(monkeypatch):
    real, calls = core._jacobian_raw, []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(core, "_jacobian_raw", counting)
    build_configuration(SpiderwebParams(40, 80, 0.0, np.ones(40), -1.0))
    assert len(calls) <= 130


def test_build_n1_equals_single_ring():
    p = params1(ell=7, m0=0.4, m1=2.0, lam=-0.7)
    assert np.array_equal(build_configuration(p).radii, solve_single_ring(p).radii)


def test_build_n2_multistart_oracle():
    p = SpiderwebParams(2, 5, 0.0, np.array([1.0, 0.6]), -1.0)
    built = build_configuration(p)
    rng = np.random.default_rng(11)
    for _ in range(20):
        start = np.sort(rng.uniform(0.3, 4.0, size=2))
        if start[1] - start[0] < 0.05:
            continue
        try:
            c = oracles.newton_solve(p, start)
        except NewtonDiverged:
            continue
        assert np.allclose(c.radii, built.radii, rtol=1e-9)


def test_build_outputs_are_ordered_and_solved():
    for n, ell, m0 in ((3, 2, 0.0), (4, 9, 1.3), (6, 12, 0.0)):
        p = SpiderwebParams(n, ell, m0, np.linspace(1.5, 0.5, n), -1.0)
        c = build_configuration(p)
        assert c.residual_norm <= 1e-12
        assert c.radii[0] > 0 and np.all(np.diff(c.radii) > 0)
        lam = oracles.lambda_values(p, c.radii)
        assert np.max(np.abs(lam - p.lam)) <= 10 * 1e-12 / np.min(c.radii)


def test_continuation_endpoint_agrees_with_direct_solve():
    # the grown outer ring may move inward or outward depending on (n, ell);
    # what must hold is agreement with an independent direct solve
    for n_base, ell in ((2, 4), (1, 20), (4, 8)):
        base = build_configuration(SpiderwebParams(n_base, ell, 0.0, np.ones(n_base), -1.0))
        ext = insert_zero_mass_ring(base, gap=n_base)
        grown = continue_mass(base.params, ext, 1.0)
        full = SpiderwebParams(n_base + 1, ell, 0.0, np.ones(n_base + 1), -1.0)
        start = np.linspace(0.8, 0.8 * (n_base + 1) + 0.3, n_base + 1)
        direct = oracles.newton_solve(full, start)
        assert np.allclose(grown.radii, direct.radii, rtol=1e-9)


def test_failed_solve_from_the_insertion_stalls_with_the_newton_error(monkeypatch):
    base = build_configuration(SpiderwebParams(4, 8, 0.0, np.ones(4), -1.0))
    ext = insert_zero_mass_ring(base, gap=4)
    tried = []

    def full_mass_fails(r0, masses, *args):
        tried.append(masses[-1])
        raise NewtonDiverged("forced failure of the full-mass solve")

    monkeypatch.setattr(solver, "_newton_raw", full_mass_fails)
    with pytest.raises(ContinuationStalled, match="forced failure") as excinfo:
        continue_mass(base.params, ext, 1.0)
    # one solve at the full mass, and no smaller mass tried after it
    assert tried == [1.0]
    assert isinstance(excinfo.value.__cause__, NewtonDiverged)


@pytest.mark.parametrize("n, ell, mass, lam", [
    (6, 12, 1e12, -1.0),
    (5, 12, 1e24, -1.0),
    (6, 12, 1.0, -1e12),
], ids=["masses-1e12", "masses-1e24", "lambda-1e12"])
def test_build_accepts_the_float_floor_and_certifies(n, ell, mass, lam):
    # the residual's float floor lies above the default tolerance in all
    # three, and in the last two above the absolute 1e-8 that the public
    # insertion checks
    from spiderweb import certify as cz

    config = build_configuration(SpiderwebParams(n, ell, 0.0, np.full(n, mass), lam))
    assert config.radii[0] > 0 and np.all(np.diff(config.radii) > 0)
    cert = cz.certify(config)
    assert cert.rho0 / config.radii[0] <= 1e-12


def test_build_matches_high_precision_oracle():
    """Independent 40-digit Newton solve of the same system (separate
    formula transcription, separate arithmetic) pins the float radii."""
    import mpmath as mp

    n, ell, m0, lam = 3, 5, 0.4, -1.0
    masses = [1.0, 0.6, 1.7]
    p = SpiderwebParams(n, ell, m0, np.array(masses), lam)
    built = build_configuration(p)

    with mp.workdps(40):
        mm = [mp.mpf(m) for m in masses]
        mm0 = mp.mpf(m0)
        lamm = mp.mpf(lam)
        zeta = sum(1 / mp.sqrt(1 - mp.cos(2 * mp.pi * k / ell)) for k in range(1, ell))

        def f(r):
            out = []
            for i in range(n):
                s = lamm * r[i] + mm[i] * zeta / (2 * mp.sqrt(2) * r[i] ** 2) + mm0 / r[i] ** 2
                for j in range(n):
                    if j == i:
                        continue
                    for k in range(ell):
                        c = mp.cos(2 * mp.pi * k / ell)
                        d = r[i] ** 2 + r[j] ** 2 - 2 * r[i] * r[j] * c
                        s += mm[j] * (r[i] - r[j] * c) / d ** mp.mpf("1.5")
                out.append(s)
            return out

        r = [mp.mpf(x) for x in built.radii]
        for _ in range(30):
            fr = f(r)
            if max(abs(v) for v in fr) < mp.mpf("1e-35"):
                break
            jac = mp.matrix(n, n)
            h = mp.mpf("1e-20")
            for j in range(n):
                rp = list(r)
                rm = list(r)
                rp[j] += h
                rm[j] -= h
                fp, fm = f(rp), f(rm)
                for i in range(n):
                    jac[i, j] = (fp[i] - fm[i]) / (2 * h)
            delta = mp.lu_solve(jac, mp.matrix(fr))
            r = [r[i] - delta[i] for i in range(n)]
        oracle = np.array([float(v) for v in r])

    assert np.allclose(built.radii, oracle, rtol=1e-13)
    # the rigorous certificate ball around the float center contains the
    # high-precision zero
    from spiderweb import certify as cz

    cert = cz.certify(built)
    assert float(np.max(np.abs(built.radii - oracle))) <= cert.rho0


def test_build_failure_reports_ring_index():
    p = SpiderwebParams(3, 2, 0.0, np.ones(3), -1.0)
    with pytest.raises(SolverError) as excinfo:
        build_configuration(p, ContinuationSettings(newton_tol=1e-30, newton_max_iter=2))
    assert getattr(excinfo.value, "ring_index", None) == 2
    assert "ring 2" in str(excinfo.value)

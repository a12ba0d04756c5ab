"""Profiles, mass presets and the scan harness."""

import io
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spiderweb import analysis, solver
from spiderweb.analysis import (
    kappa,
    mass_profile,
    resolve_masses,
    scan,
    spacing_profile,
    write_scan_csv,
)
from spiderweb.certify import CertificationFailed
from spiderweb.core import Configuration, SpiderwebParams


def solved(n, ell, masses=None, m0=0.0):
    masses = np.ones(n) if masses is None else np.asarray(masses, dtype=float)
    return solver.build_configuration(SpiderwebParams(n, ell, m0, masses, -1.0))


# ---------------------------------------------------------------------------
# spacing profile
# ---------------------------------------------------------------------------

def test_single_ring_profile_is_empty():
    prof = spacing_profile(solved(1, 4))
    assert prof.a.size == 0 and prof.b == 0.0 and prof.i_star == 0 and prof.convex


def test_two_ring_profile():
    c = solved(2, 6)
    prof = spacing_profile(c)
    assert prof.a.shape == (1,)
    assert prof.b == pytest.approx(prof.a[0], rel=1e-15)
    assert prof.i_star == 1
    assert prof.convex


def test_width_is_sum_of_spacings():
    c = solved(7, 8)
    prof = spacing_profile(c)
    assert prof.b == pytest.approx(float(np.sum(prof.a)), rel=1e-12)


def test_spacings_increase_at_ell2():
    prof = spacing_profile(solved(8, 2))
    assert np.all(np.diff(prof.a) > 0)
    assert prof.i_star == prof.a.size


def test_istar_first_when_ell_large():
    prof = spacing_profile(solved(6, 24))
    assert prof.i_star == 1


# ---------------------------------------------------------------------------
# mass profile
# ---------------------------------------------------------------------------

def test_mass_profile_steps_and_total():
    c = solved(3, 5, masses=[0.3, 1.1, 0.6])
    r = c.radii
    eta = np.array([0.5 * r[0], r[0], 0.5 * (r[0] + r[1]), r[2], 2 * r[2]])
    mp = mass_profile(c, eta)
    assert mp.M[0] == 0.0
    assert mp.M[1] == pytest.approx(5 * 0.3, abs=0)
    assert mp.M[2] == pytest.approx(5 * 0.3, abs=0)
    assert np.all(np.diff(mp.M) >= 0)
    # exact rational bookkeeping of the total
    total = Fraction(0)
    for m in c.params.masses:
        total += Fraction(m)
    assert mp.M[-1] == float(5 * total)
    assert list(mp.chi) == [0, 1, 1, 3, 3]


def test_mass_profile_unit_masses_total_is_n():
    n, ell = 6, 10
    c = solved(n, ell, masses=np.full(n, 1.0 / ell))
    mp = mass_profile(c, np.array([c.radii[-1] * 1.01]))
    assert mp.M[0] == pytest.approx(n, rel=1e-15)


@given(
    st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=1, max_size=8),
    st.lists(st.floats(min_value=0.0, max_value=12.0), min_size=1, max_size=20, unique=True),
)
def test_mass_profile_properties(mass_list, eta_list):
    masses = np.array(mass_list)
    n = masses.size
    radii = np.cumsum(np.full(n, 0.7))
    config = Configuration(SpiderwebParams(n, 4, 0.0, masses, -1.0), radii, 0.0)
    eta = np.array(sorted(eta_list))
    mp = mass_profile(config, eta)
    assert np.all(np.diff(mp.M) >= 0)
    for e, m_val, c in zip(mp.eta_grid, mp.M, mp.chi):
        count = int(np.sum(radii <= e))
        assert c == count
        total = Fraction(0)
        for mm in masses[:count]:
            total += Fraction(mm)
        assert m_val == float(4 * total)


def test_mass_profile_rejects_unsorted_grid():
    c = solved(2, 4)
    with pytest.raises(ValueError):
        mass_profile(c, np.array([2.0, 1.0]))


def test_wild_spacings_still_give_regular_mass_steps():
    # oscillating kappa masses: spacings jump around, M(eta) stays a clean
    # monotone staircase with jumps ell * m_i
    n, ell = 24, 6
    masses = resolve_masses("kappa", n)
    c = solved(n, ell, masses=masses)
    prof = spacing_profile(c)
    assert np.std(prof.a[1:] / prof.a[:-1]) > 0.1  # genuinely irregular
    eps = 1e-9
    eta = np.sort(np.concatenate([c.radii - eps, c.radii + eps]))
    mp = mass_profile(c, eta)
    assert np.all(np.diff(mp.M) >= 0)
    jumps = mp.M[1::2] - mp.M[0::2]
    assert np.allclose(jumps, ell * masses, rtol=1e-12)


# ---------------------------------------------------------------------------
# mass presets
# ---------------------------------------------------------------------------

def test_resolve_masses_variants():
    assert np.array_equal(resolve_masses("equal:2.5", 3), np.array([2.5, 2.5, 2.5]))
    assert np.allclose(resolve_masses("inv", 4), [1, 0.5, 1 / 3, 0.25])
    assert np.allclose(resolve_masses("1.0, 2.0, 3.0", 3), [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        resolve_masses("1.0,2.0", 3)


def test_kappa_values():
    assert kappa(25) == 0.0  # the 0/0 limit meets cos(pi) = -1 exactly
    assert kappa(50) == pytest.approx(1.0, abs=1e-15)
    assert kappa(24) == pytest.approx(abs(np.cos(24 * np.pi / 25)), rel=1e-14)
    assert kappa(23) == pytest.approx(abs(-1 + np.cos(23 * np.pi / 25)), rel=1e-14)
    # the zero mass at i = 25 makes kappa at n >= 25 invalid params
    with pytest.raises(ValueError):
        SpiderwebParams(25, 4, 0.0, resolve_masses("kappa", 25), -1.0)


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def test_scan_grid_and_csv_determinism():
    rows = scan(3, [2, 4], "equal:1")
    assert len(rows) == 6
    assert all(row.status == "ok" for row in rows)
    assert all(row.certificate is not None for row in rows)
    buf1, buf2 = io.StringIO(), io.StringIO()
    write_scan_csv(rows, buf1)
    write_scan_csv(scan(3, [2, 4], "equal:1"), buf2)
    assert buf1.getvalue() == buf2.getvalue()
    header = buf1.getvalue().splitlines()[0].split(",")
    assert header[:5] == ["n", "ell", "lambda", "m0", "mass_spec"]
    assert "r_3" in header and "rho0" in header and "status" in header


def test_scan_records_failures_as_rows():
    # kappa at n=25 has a zero mass: validation failure becomes row status
    rows = scan(25, [2], "kappa")
    bad = [row for row in rows if row.status != "ok"]
    assert len(bad) == 1 and bad[0].n == 25
    assert "positive" in bad[0].status


def test_scan_records_certification_failures_as_rows(monkeypatch):
    def refuse(config):
        raise CertificationFailed("Z0_TOO_LARGE", "injected")

    monkeypatch.setattr(analysis, "_certify", refuse)
    rows = scan(1, [2], "equal:1")
    assert rows[0].status == "CertificationFailed: Z0_TOO_LARGE: injected"


def test_scan_propagates_programming_errors(monkeypatch):
    def broken(params, settings):
        raise TypeError("injected programming error")

    monkeypatch.setattr(solver, "build_configuration", broken)
    with pytest.raises(TypeError, match="injected"):
        scan(1, [2], "equal:1")


def test_scan_parallel_matches_serial():
    serial = scan(2, [3, 5], "equal:1")
    parallel = scan(2, [3, 5], "equal:1", jobs=2)
    for a, b in zip(serial, parallel):
        assert a.status == b.status == "ok"
        assert np.array_equal(a.radii, b.radii)


@pytest.mark.parametrize("jobs", [0, -2])
def test_scan_rejects_jobs_below_one_before_building(monkeypatch, jobs):
    monkeypatch.setattr(solver, "build_configuration", lambda *args: pytest.fail("built"))
    with pytest.raises(ValueError, match="jobs must be >= 1, got"):
        scan(1, [3], "equal:1", jobs=jobs)


def test_duplicate_scan_rows_reproduce_radii():
    a = scan(2, [6], "equal:1")[-1]
    b = scan(2, [6], "equal:1")[-1]
    assert np.allclose(a.radii, b.radii, rtol=1e-9)

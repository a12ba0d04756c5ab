"""Derived observables of solved configurations and parameter scans.

Relative ring spacings a_i = (r_{i+1} - r_i)/r_1, relative width
b = (r_n - r_1)/r_1, and the cumulative mass step function M(eta) of a
configuration; plus a scan harness that builds, certifies and profiles a
grid of (n, ell) instances and streams the rows to CSV.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import solver
from .certify import Certificate, CertificationFailed, certify as _certify
from .core import Configuration, SpiderwebParams
from .solver import ContinuationSettings

__all__ = [
    "SpacingProfile",
    "MassProfile",
    "ScanRow",
    "spacing_profile",
    "mass_profile",
    "scan",
    "write_scan_csv",
    "resolve_masses",
    "kappa",
]


@dataclass
class SpacingProfile:
    """Dimensionless spacing data; i_star is the 1-based index of max a_i."""

    a: np.ndarray
    b: float
    i_star: int
    convex: bool


@dataclass
class MassProfile:
    eta_grid: np.ndarray
    M: np.ndarray
    chi: np.ndarray


def spacing_profile(config: Configuration, convexity_tol: float = 1e-9) -> SpacingProfile:
    """Relative spacings, relative width, argmax spacing and a second
    difference convexity flag (tolerance absorbs solver noise only)."""
    if not (np.isfinite(convexity_tol) and convexity_tol >= 0):
        raise ValueError(f"convexity tolerance must be finite and >= 0, got {convexity_tol}")
    r = config.radii
    if r.size < 2:
        return SpacingProfile(a=np.empty(0), b=0.0, i_star=0, convex=True)
    a = np.diff(r) / r[0]
    b = float((r[-1] - r[0]) / r[0])
    second = a[2:] - 2.0 * a[1:-1] + a[:-2]
    convex = bool(np.all(second >= -convexity_tol)) if second.size else True
    return SpacingProfile(a=a, b=b, i_star=int(np.argmax(a)) + 1, convex=convex)


def mass_profile(config: Configuration, eta_grid) -> MassProfile:
    """Cumulative mass within radius eta, with exact rational bookkeeping of
    the mass sums (jumps of exactly ell * m_i at eta = r_i)."""
    eta = np.asarray(eta_grid, dtype=np.float64)
    if eta.ndim != 1 or (eta.size > 1 and np.any(np.diff(eta) <= 0)):
        raise ValueError("eta_grid must be strictly increasing")
    params = config.params
    partial = [Fraction(0)]
    for m in params.masses:
        partial.append(partial[-1] + Fraction(m))
    chi = np.searchsorted(config.radii, eta, side="right")
    total = np.array([float(params.ell * partial[c]) for c in chi])
    return MassProfile(eta_grid=eta, M=total, chi=chi.astype(int))


def kappa(i: int) -> float:
    """Oscillating mass profile |sin(21 pi u)/(42 sin(pi u/2)) + cos(pi i/25)|
    at integer i, u = i - 25; the 0/0 points at even u take the limit value
    (-1)^(u/2), and odd u makes the quotient vanish exactly."""
    u = i - 25
    if u % 2 == 0:
        osc = 1.0 if (u // 2) % 2 == 0 else -1.0
    else:
        osc = 0.0
    return abs(osc + math.cos(math.pi * i / 25))


def _spec_values(spec: str) -> np.ndarray:
    """The value of an 'equal:v' spec, or the values of a comma list; each
    must be a finite positive decimal, whatever n is."""
    toks = [spec[6:]] if spec.startswith("equal:") else spec.split(",")
    try:
        values = np.array([float(tok) for tok in toks if tok.strip()])
    except ValueError:
        values = np.empty(0)
    if values.size == 0 or not np.all(np.isfinite(values) & (values > 0)):
        raise ValueError(f"mass spec {spec!r} is not 'equal:v', 'inv', 'kappa' or a "
                         "comma list of finite positive decimals")
    return values


def resolve_masses(mass_spec: str, n: int) -> np.ndarray:
    """Mass vector from a spec string: 'equal:v', 'inv', 'kappa', or an
    explicit comma-separated list of n values."""
    spec = mass_spec.strip()
    if spec == "inv":
        return 1.0 / np.arange(1, n + 1, dtype=np.float64)
    if spec == "kappa":
        return np.array([kappa(i) for i in range(1, n + 1)])
    values = _spec_values(spec)
    if spec.startswith("equal:"):
        return np.full(n, values[0])
    if values.size != n:
        raise ValueError(f"mass list has {values.size} entries but n = {n}")
    return values


@dataclass
class ScanRow:
    n: int
    ell: int
    lam: float
    m0: float
    mass_spec: str
    radii: np.ndarray | None
    residual_norm: float | None
    certificate: Certificate | None
    profile: SpacingProfile | None
    status: str


def _scan_one(args) -> ScanRow:
    n, ell, mass_spec, m0, lam, settings = args
    try:
        params = SpiderwebParams(n, ell, m0, resolve_masses(mass_spec, n), lam)
        config = solver.build_configuration(params, settings)
        cert = _certify(config)
        prof = spacing_profile(config)
        return ScanRow(
            n, ell, lam, m0, mass_spec,
            config.radii, config.residual_norm, cert, prof, "ok",
        )
    # classified failures are data; anything else is a bug and propagates
    except (solver.SolverError, CertificationFailed, ValueError) as exc:
        return ScanRow(
            n, ell, lam, m0, mass_spec, None, None, None, None,
            f"{type(exc).__name__}: {exc}",
        )


def scan(
    n_max: int,
    ell_list,
    mass_spec: str,
    settings: ContinuationSettings | None = None,
    m0: float = 0.0,
    lam: float = -1.0,
    jobs: int = 1,
) -> list[ScanRow]:
    """Build, certify and profile every (n, ell) pair with n <= n_max.

    Rows come back in deterministic order (n ascending, ells as given) with
    failures in the row status; an m0, lam or mass spec that no n can take
    raises ValueError before any build.  jobs > 1 uses worker processes."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    SpiderwebParams(1, 2, m0, [1.0], lam)  # checks m0 and lam as every row would
    if mass_spec.strip() not in ("inv", "kappa"):
        _spec_values(mass_spec.strip())
    tasks = [
        (n, int(ell), mass_spec, m0, lam, settings)
        for n in range(1, n_max + 1)
        for ell in ell_list
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_scan_one, tasks))
    else:
        rows = [_scan_one(t) for t in tasks]
    return rows


def _fmt(x) -> str:
    return format(float(x), ".16e")


def write_scan_csv(rows, fileobj) -> None:
    """CSV emission; radii columns are padded to the widest row so the header
    is rectangular, and all reals carry 17 significant digits."""
    n_max = max((row.n for row in rows), default=0)
    header = ["n", "ell", "lambda", "m0", "mass_spec"]
    header += [f"r_{i}" for i in range(1, n_max + 1)]
    header += ["rho0", "Y0", "Z0", "Z2", "b", "i_star", "convex", "status"]
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        radii = list(row.radii) if row.radii is not None else []
        cells = [row.n, row.ell, _fmt(row.lam), _fmt(row.m0), row.mass_spec]
        cells += [_fmt(r) for r in radii] + [""] * (n_max - len(radii))
        if row.certificate is not None:
            cert = row.certificate
            cells += [_fmt(cert.rho0), _fmt(cert.Y0), _fmt(cert.Z0), _fmt(cert.Z2)]
        else:
            cells += ["", "", "", ""]
        if row.profile is not None:
            cells += [_fmt(row.profile.b), row.profile.i_star, int(row.profile.convex)]
        else:
            cells += ["", "", ""]
        cells.append(row.status)
        writer.writerow(cells)

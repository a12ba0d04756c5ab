"""The benchmark's workloads: inputs from a seed, one timed pass, and the
correctness gate applied to every instance of the pass.

A pass calls ``step()`` after each of its parts (an instance, or one scan of
``grid``); the benchmark may run untimed work there.

Why these three:

- ``ladder`` runs the ``spiderweb solve`` then ``spiderweb certify`` path
  in-process through ``cli.main`` on the north-star instances (10, 20),
  (20, 40) and (40, 80).  The build is ~94% of it and its arrays are large
  (n^2 ell = 128k pair elements at n = 40), so numpy throughput dominates:
  this is where the probe, continuation and dihedral-fold work shows.
- ``grid`` runs ``analysis.scan`` plus ``write_scan_csv`` over n <= 10,
  ell in {2, 6, ..., 38} for the ``equal:v``, ``inv`` and ``kappa`` presets
  (300 instances).  Arrays are small, so fixed cost per call dominates, and
  the irregular ``inv``/``kappa`` spacings drive continuation differently
  from equal masses.
- ``certify_paper`` runs only ``certify.certify`` on a committed paper-scale
  solution (n = 100, ell = 200).  No build runs, so the interval kernels, the
  Z2 fold and memory show here.
"""

from __future__ import annotations

import importlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gate

DATA = Path(__file__).resolve().parent / "data"
REFERENCE_FILE = DATA / "reference.json"
PAPER_DOC = DATA / "paper_n100_ell200.json"
DEFAULT_SEED = 0
MODULES = ("spiderweb", "spiderweb.intervals", "spiderweb.core", "spiderweb.solver",
           "spiderweb.certify", "spiderweb.analysis", "spiderweb.cli")


class Program:
    """The spiderweb modules of one fresh import from ``src``."""

    def __init__(self, src: Path):
        for name in [m for m in sys.modules if m == "spiderweb" or m.startswith("spiderweb.")]:
            del sys.modules[name]
        if str(src) not in sys.path:
            sys.path.insert(0, str(src))
        mods = [importlib.import_module(name) for name in MODULES]
        where = Path(mods[0].__file__).resolve()
        if src.resolve() not in where.parents:
            raise ImportError(f"spiderweb imported from {where}, not from {src}")
        (_, self.intervals, self.core, self.solver,
         self.certify, self.analysis, self.cli) = mods


@dataclass
class Instance:
    key: str
    radii: np.ndarray | None = None
    failures: list[str] = field(default_factory=list)
    cert: dict | None = None  # the certificate's numbers, kept by certify_paper


CERT_FIELDS = ("Y0", "Z0", "Z2", "rho_star", "rho0")


def _warm_up(sw: Program, ells) -> None:
    """First calls that fill caches, such as the cos tables of each ell."""
    for ell in sorted(set(ells)):
        params = sw.core.SpiderwebParams(2, ell, 0.0, np.ones(2), -1.0)
        sw.certify.certify(sw.solver.build_configuration(params))


def _failure(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class Ladder:
    name = "ladder"
    builds = True
    sizes = ((10, 20), (20, 40), (40, 80))
    tol = 1e-12

    def __init__(self, seed: int, work: Path, sizes=None):
        self.seed = seed
        self.work = work
        self.sizes = sizes or self.sizes

    def make_inputs(self, sw: Program):
        """Equal masses, each perturbed by at most 1e-3 relative."""
        rng = np.random.default_rng([self.seed, 1])
        inputs = []
        for n, ell in self.sizes:
            masses = 1.0 + 1e-3 * rng.uniform(-1.0, 1.0, size=n)
            inputs.append((n, ell, ",".join(repr(float(m)) for m in masses)))
        _warm_up(sw, [ell for _, ell in self.sizes])
        return inputs

    def run_pass(self, sw: Program, inputs, reference, step) -> list[Instance]:
        out = []
        for n, ell, masses in inputs:
            inst = Instance(f"{n}x{ell}")
            path = self.work / f"ladder_{n}_{ell}.json"
            try:
                code = sw.cli.main(["solve", "--n", str(n), "--ell", str(ell),
                                    "--masses", masses, "--out", str(path)])
                if code == 0:
                    code = sw.cli.main(["certify", "--input", str(path)])
                if code != 0:
                    inst.failures.append(f"exit code {code}")
                else:
                    self._check(inst, path.read_text(encoding="utf-8"), reference)
            except (Exception, SystemExit) as exc:
                inst.failures.append(_failure(exc))
            out.append(inst)
            step()
        return out

    def _check(self, inst: Instance, text: str, reference) -> None:
        doc = json.loads(text)
        inst.radii = np.array([float(r) for r in doc["radii"]])
        cert = doc["certificate"] or {}
        center = np.array([float(c) for c in cert["center"]]) if cert else None
        inst.failures += gate.check_certified(
            inst.radii, center, float(cert.get("p_at_rho0", "nan")),
            float(doc["residual_norm"]), self.tol, _ref(reference, inst.key))


class Grid:
    name = "grid"
    builds = True
    n_max = 10
    ells = tuple(range(2, 39, 4))
    tol = 1e-12

    def __init__(self, seed: int, work: Path, n_max=None, ells=None):
        self.seed = seed
        self.work = work
        self.n_max = n_max or self.n_max
        self.ells = ells or self.ells

    def make_inputs(self, sw: Program):
        """The equal mass v and lambda, each moved by at most 1e-3 relative
        from 1 and -1 by the seed; the ``inv`` and ``kappa`` presets fix the
        mass ratios.  Small moves keep the solver's work nearly seed-free."""
        rng = np.random.default_rng([self.seed, 2])
        v = 1.0 + 1e-3 * float(rng.uniform(-1.0, 1.0))
        lam = -1.0 - 1e-3 * float(rng.uniform(-1.0, 1.0))
        _warm_up(sw, self.ells)
        return [f"equal:{v!r}", "inv", "kappa"], lam

    def run_pass(self, sw: Program, inputs, reference, step) -> list[Instance]:
        specs, lam = inputs
        rows = []
        for spec in specs:
            rows += sw.analysis.scan(self.n_max, list(self.ells), spec, lam=lam, jobs=1)
            step()
        path = self.work / "grid.csv"
        with open(path, "w", newline="", encoding="utf-8") as f:
            sw.analysis.write_scan_csv(rows, f)
        with open(path, encoding="utf-8") as f:
            csv_lines = sum(1 for _ in f)
        out = []
        for row in rows:
            inst = Instance(f"{row.mass_spec.split(':')[0]}/{row.n}/{row.ell}")
            if row.status != "ok":
                inst.failures.append(f"scan status {row.status}")
            else:
                inst.radii = row.radii
                cert = row.certificate
                inst.failures += gate.check_certified(
                    row.radii, cert.center, cert.p_at_rho0, row.residual_norm,
                    self.tol, _ref(reference, inst.key))
            out.append(inst)
        if csv_lines != len(rows) + 1:
            out[-1].failures.append(f"scan CSV has {csv_lines} lines for {len(rows)} rows")
        return out


class CertifyPaper:
    name = "certify_paper"
    builds = False

    def __init__(self, seed: int, work: Path, doc: Path = PAPER_DOC):
        self.seed = seed
        self.work = work
        self.doc = doc

    def make_inputs(self, sw: Program):
        """The committed solution with every radius moved by at most 1e-14
        relative, which keeps its float residual (taken here, outside the
        timed pass) below the document's tolerance; 1e-13 does not."""
        params, radii, _, _, settings = sw.cli.parse_document(self.doc.read_text(encoding="utf-8"))
        rng = np.random.default_rng([self.seed, 3])
        radii = radii * (1.0 + 1e-14 * rng.uniform(-1.0, 1.0, size=radii.size))
        residual = float(np.max(np.abs(sw.core.residual(params, radii))))
        _warm_up(sw, [params.ell])
        return params, radii, residual, settings.newton_tol

    def gated_bounds(self):
        """Y0 and Z0 follow the rounding-level residual, so the seed moves
        them by up to ~1% and only the default seed is held to them.  Z2 is a
        bound over the rho*-ball; seeds 0-2 moved it by 3e-11 relative, so
        every seed is held to the committed Z2."""
        return gate.CERT_BOUNDS if self.seed == DEFAULT_SEED else ("Z2",)

    def run_pass(self, sw: Program, inputs, reference, step) -> list[Instance]:
        params, radii, residual, tol = inputs
        inst = Instance(f"{params.n}x{params.ell}", radii)
        try:
            cert = sw.certify.certify(sw.core.Configuration(params, radii, residual))
            inst.cert = {k: float(getattr(cert, k)) for k in CERT_FIELDS}
            inst.failures += gate.check_certified(
                radii, cert.center, cert.p_at_rho0, residual, tol)
            if reference is not None:
                inst.failures += gate.check_bounds(
                    inst.cert, reference.get(inst.key, {}), self.gated_bounds())
        except Exception as exc:
            inst.failures.append(_failure(exc))
        step()
        return [inst]


WORKLOADS = {w.name: w for w in (Ladder, Grid, CertifyPaper)}


def _ref(reference, key):
    """Reference radii of one instance; a missing key gives an empty vector,
    which the gate rejects."""
    return None if reference is None else np.array(reference.get(key, []), dtype=np.float64)


def load_reference(workload: str, seed: int):
    """Committed outputs of the default seed, keyed by instance: the radii of
    ``ladder`` and ``grid`` (None for any other seed) and the certificate
    numbers of ``certify_paper``, whose radii are inputs."""
    if seed != DEFAULT_SEED and workload != CertifyPaper.name:
        return None
    table = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    return table[workload]

"""Command-line front end: solve / certify / scan / analyze / hcheck.

Solutions travel as JSON documents whose real numbers are decimal strings
with 17 significant digits, so parse-emit round trips are byte identical.
Exit codes classify the outcome: 0 success, 2 invalid input, 3 solver
failure, 4 certification failure.  Errors are mirrored as JSON on stderr.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import sys

import numpy as np

from . import __version__, analysis, core, solver
from .analysis import _fmt
from .certify import Certificate, CertificationFailed, certify as run_certify, h_ell_check
from .core import Configuration, SpiderwebParams
from .solver import ContinuationSettings, SolverError

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_CERTIFICATION = 4

# glibc mallopt parameters, and values well above the largest pair-kernel
# block array (core._BLOCK_ELEMS * 8 B = 512 KiB): after the first such array
# is freed, glibc's dynamic thresholds settle near 512 KiB and 1 MiB, so each
# block's temporaries would go back to the OS and fault in afresh.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 4 << 20
_TRIM_THRESHOLD = 8 << 20


def _fmt_opt(x):
    return None if x is None else _fmt(x)


def _parse_real(s, name):
    """A real written as a JSON string; a JSON number or boolean is refused."""
    if type(s) is str:
        try:
            return float(s)
        except ValueError:
            pass
    raise ValueError(f"field {name!r} is not a decimal string: {s!r}")


def _parse_reals(v, name):
    """A JSON array of decimal strings; a string is refused, which Python
    would otherwise read one character at a time."""
    if type(v) is not list:
        raise ValueError(f"field {name!r} is not an array: {v!r}")
    return np.array([_parse_real(x, name) for x in v])


def _parse_int(v, name):
    """A JSON integer: not a float such as 2.7 and not a boolean, which
    Python would take as 0 or 1."""
    if type(v) is not int:
        raise ValueError(f"field {name!r} is not an integer: {v!r}")
    return v


def settings_to_json(settings: ContinuationSettings) -> dict:
    return {
        "newton_tol": _fmt(settings.newton_tol),
        "newton_max_iter": settings.newton_max_iter,
    }


def certificate_to_json(cert: Certificate) -> dict:
    return {
        "center": [_fmt(x) for x in cert.center],
        "rho_star": _fmt(cert.rho_star),
        "Y0": _fmt(cert.Y0),
        "Z0": _fmt(cert.Z0),
        "Z2": _fmt(cert.Z2),
        "rho0": _fmt(cert.rho0),
        "p_at_rho0": _fmt(cert.p_at_rho0),
    }


def document_from_config(
    config: Configuration,
    settings: ContinuationSettings,
    certificate: Certificate | None = None,
) -> dict:
    p = config.params
    return {
        "schema_version": SCHEMA_VERSION,
        "params": {
            "n": p.n,
            "ell": p.ell,
            "m0": _fmt(p.m0),
            "masses": [_fmt(m) for m in p.masses],
            "lambda": _fmt(p.lam),
        },
        "radii": [_fmt(r) for r in config.radii],
        "residual_norm": _fmt(config.residual_norm),
        "certificate": certificate_to_json(certificate) if certificate else None,
        "provenance": {
            "tool": "spiderweb",
            "version": __version__,
            "settings": settings_to_json(settings),
        },
    }


def emit_document(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def parse_document(text: str):
    """Parse and validate a solution document.

    Returns (params, radii, residual_norm, certificate_or_None, settings)."""
    doc = json.loads(text)
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError("unsupported or missing schema_version")
    praw = doc.get("params")
    if not isinstance(praw, dict):
        raise ValueError("document lacks a params object")
    params = SpiderwebParams(
        n=_parse_int(praw.get("n"), "n"),
        ell=_parse_int(praw.get("ell"), "ell"),
        m0=_parse_real(praw.get("m0"), "m0"),
        masses=_parse_reals(praw.get("masses"), "masses"),
        lam=_parse_real(praw.get("lambda"), "lambda"),
    )
    radii = _parse_reals(doc.get("radii"), "radii")
    core.require_cone(radii)
    if radii.size != params.n:
        raise ValueError(f"document has {radii.size} radii but n = {params.n}")
    residual_norm = _parse_real(doc.get("residual_norm"), "residual_norm")
    if not (math.isfinite(residual_norm) and residual_norm >= 0.0):
        raise ValueError(f"residual_norm must be finite and >= 0, got {residual_norm}")
    cert = None
    craw = doc.get("certificate")
    if craw is not None:
        cert = Certificate(
            center=_parse_reals(craw["center"], "center"),
            rho_star=_parse_real(craw["rho_star"], "rho_star"),
            Y0=_parse_real(craw["Y0"], "Y0"),
            Z0=_parse_real(craw["Z0"], "Z0"),
            Z2=_parse_real(craw["Z2"], "Z2"),
            rho0=_parse_real(craw["rho0"], "rho0"),
            p_at_rho0=_parse_real(craw["p_at_rho0"], "p_at_rho0"),
        )
        # radii are in the cone (no zeros, no NaN), so == is bitwise equality
        if not np.array_equal(cert.center, radii):
            raise ValueError("certificate center is not bitwise equal to the radii")
    provenance = doc.get("provenance", {})
    if not isinstance(provenance, dict):
        raise ValueError("document provenance must be an object")
    raw_settings = provenance.get("settings", {})
    if not isinstance(raw_settings, dict):
        raise ValueError("document provenance.settings must be an object")
    return params, radii, residual_norm, cert, _settings_from_json(raw_settings)


def _settings_from_json(raw: dict) -> ContinuationSettings:
    """Settings of a document; other keys, such as the removed first mass
    step, step factors and bisection tolerance that older versions wrote,
    are ignored."""
    return ContinuationSettings(
        newton_tol=_parse_real(raw.get("newton_tol", "1e-12"), "newton_tol"),
        newton_max_iter=_parse_int(raw.get("newton_max_iter", 50), "newton_max_iter"),
    )


def render_svg(params: SpiderwebParams, radii) -> str:
    """Body positions as circles scaled by mass^(1/3), plain SVG 1.1."""
    radii = np.asarray(radii, dtype=np.float64)
    size = 600.0
    half = size / 2.0
    scale = (half - 20.0) / radii[-1]
    masses = list(params.masses) + ([params.m0] if params.m0 > 0 else [])
    m_max = max(masses)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size:.0f}" height="{size:.0f}" '
        f'viewBox="0 0 {size:.0f} {size:.0f}">',
        f'<rect width="{size:.0f}" height="{size:.0f}" fill="white"/>',
    ]
    for r in radii:
        lines.append(
            f'<circle cx="{half:.2f}" cy="{half:.2f}" r="{scale * r:.2f}" '
            'fill="none" stroke="#cccccc" stroke-width="0.5"/>'
        )
    def body(x, y, mass):
        rad = max(0.8, 7.0 * (mass / m_max) ** (1.0 / 3.0))
        lines.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{rad:.2f}" fill="#202020"/>')
    if params.m0 > 0:
        body(half, half, params.m0)
    for i, r in enumerate(radii):
        for k in range(params.ell):
            ang = 2.0 * math.pi * k / params.ell
            body(half + scale * r * math.cos(ang),
                 half - scale * r * math.sin(ang),
                 params.masses[i])
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    masses = analysis.resolve_masses(args.masses, args.n)
    params = SpiderwebParams(args.n, args.ell, args.m0, masses, getattr(args, "lambda"))
    settings = ContinuationSettings(newton_tol=args.tol)
    config = solver.build_configuration(params, settings)
    doc = document_from_config(config, settings)
    _write_text(args.out, emit_document(doc))
    return EXIT_OK if config.residual_norm <= args.tol else EXIT_SOLVER


def cmd_certify(args) -> int:
    params, radii, residual_norm, _, settings = parse_document(_read_text(args.input))
    config = Configuration(params, radii, residual_norm)
    cert = run_certify(config)
    doc = document_from_config(config, settings, cert)
    _write_text(args.out or args.input, emit_document(doc))
    return EXIT_OK


def cmd_scan(args) -> int:
    ells = [int(tok) for tok in args.ells.split(",") if tok.strip()]
    if not ells or min(ells) < 2 or args.n_max < 1:
        raise ValueError(f"scan needs --n-max >= 1 and --ells >= 2, got "
                         f"{args.n_max} and {args.ells!r}")
    if args.jobs < 1:
        raise ValueError(f"scan needs --jobs >= 1, got {args.jobs}")
    settings = ContinuationSettings(newton_tol=args.tol)
    rows = analysis.scan(
        args.n_max, ells, args.masses,
        settings=settings, m0=args.m0, lam=getattr(args, "lambda"), jobs=args.jobs,
    )
    with open(args.out, "w", newline="") as f:
        analysis.write_scan_csv(rows, f)
    bad = sum(1 for row in rows if row.status != "ok")
    print(f"scan: {len(rows) - bad}/{len(rows)} rows ok -> {args.out}")
    return EXIT_OK if bad == 0 else EXIT_SOLVER


def cmd_analyze(args) -> int:
    params, radii, residual_norm, _, _ = parse_document(_read_text(args.input))
    config = Configuration(params, radii, residual_norm)
    prof = analysis.spacing_profile(config, args.convexity_tol)
    out = []
    header = ["n", "ell", "b", "i_star", "convex"]
    header += [f"a_{i}" for i in range(1, params.n)]
    out.append(",".join(header))
    cells = [str(params.n), str(params.ell), _fmt(prof.b), str(prof.i_star),
             str(int(prof.convex))]
    cells += [_fmt(a) for a in prof.a]
    out.append(",".join(cells))
    _write_text(args.out, "\n".join(out) + "\n")
    if args.svg:
        _write_text(args.svg, render_svg(params, radii))
    if args.mass_out:
        eta = np.linspace(0.0, 1.05 * radii[-1], args.eta_points)
        mp = analysis.mass_profile(config, eta)
        rows = ["eta,M,chi"]
        rows += [f"{_fmt(e)},{_fmt(m)},{c}" for e, m, c in zip(mp.eta_grid, mp.M, mp.chi)]
        _write_text(args.mass_out, "\n".join(rows) + "\n")
    return EXIT_OK


def cmd_hcheck(args) -> int:
    report = h_ell_check(args.ell)
    payload = {
        "ell": report.ell,
        "lower_bound": _fmt_opt(report.lower_bound),
        "verified": report.verified,
        "negative_at": _fmt_opt(report.negative_at),
        "negative_value": _fmt_opt(report.negative_value),
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK if report.verified else EXIT_CERTIFICATION


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spiderweb",
        description="Solve and rigorously certify spiderweb central configurations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="construct a configuration and write a JSON document")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--m0", type=float, default=0.0)
    p.add_argument("--masses", required=True,
                   help="v1,v2,... | equal:v | inv | kappa")
    p.add_argument("--lambda", type=float, default=-1.0)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("certify", help="append a rigorous certificate to a document")
    p.add_argument("--input", required=True)
    p.add_argument("--out", default=None, help="defaults to rewriting --input")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("scan", help="build+certify+profile an (n, ell) grid into CSV")
    p.add_argument("--n-max", type=int, required=True, dest="n_max")
    p.add_argument("--ells", required=True, help="comma-separated ell values")
    p.add_argument("--masses", default="equal:1")
    p.add_argument("--m0", type=float, default=0.0)
    p.add_argument("--lambda", type=float, default=-1.0)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("analyze", help="spacing/width profile, optional SVG and M(eta)")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None)
    p.add_argument("--mass-out", default=None, dest="mass_out")
    p.add_argument("--eta-points", type=int, default=201, dest="eta_points")
    p.add_argument("--convexity-tol", type=float, default=1e-9, dest="convexity_tol")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("hcheck", help="bisection positivity proof of h_ell on [0,1]")
    p.add_argument("--ell", type=int, required=True)
    p.set_defaults(func=cmd_hcheck)

    return parser


def _fail(code: int, exc: BaseException) -> int:
    payload = {
        "error": type(exc).__name__,
        "message": str(exc),
        "exit_code": code,
    }
    print(json.dumps(payload), file=sys.stderr)
    return code


def _keep_block_temporaries_in_heap() -> None:
    """Pin glibc's mmap and trim thresholds so freed kernel temporaries stay
    in the heap.  A program-wide allocator policy, so only programs set it
    (importing the library does not).  A no-op off glibc; never raises, and
    a second call changes nothing."""
    try:
        libc = ctypes.CDLL(None)
        libc.gnu_get_libc_version  # glibc only: the parameter numbers are its own
        mallopt = libc.mallopt
    except (OSError, TypeError, AttributeError):  # no C library, glibc or mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def main(argv=None) -> int:
    _keep_block_temporaries_in_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CertificationFailed as exc:
        return _fail(EXIT_CERTIFICATION, exc)
    except SolverError as exc:
        return _fail(EXIT_SOLVER, exc)
    except (ValueError, TypeError, OSError, KeyError, json.JSONDecodeError) as exc:
        return _fail(EXIT_VALIDATION, exc)


if __name__ == "__main__":
    sys.exit(main())

"""Which program functions the benchmark wraps, and the per-layer metrics it
derives from the recorded spans.

Layers are named after the modules: ``solver`` (bracketing, bisection,
continuation, damped Newton and its linear solves), ``core.float`` and
``core.interval`` (the kernels of ``core`` in each mode), ``certify``
(Y0, Z0, Z2, the radii polynomial and the rho* ladder), ``analysis`` and
``cli``.  ``bench`` is the benchmark's own work inside a pass, the gate and
reading the outputs back: it counts in the total that shares are taken of,
but has no metric of its own.
"""

from __future__ import annotations

from spans import Recorder

BUILD = "solver.build"
CERTIFY = "certify.certify"
LAYERS = ("solver", "core.float", "core.interval", "certify", "analysis", "cli", "bench")
FLOAT_KERNELS = ("core.residual_f", "core.jacobian_f", "core.probe")


def _kind_suffix(args, kwargs) -> str:
    kind = kwargs["kind"] if "kind" in kwargs else args[-1]
    return "_iv" if kind.is_interval else "_f"


def _by_kind(base):
    return lambda args, kwargs: base + _kind_suffix(args, kwargs)


def install_phases(rec: Recorder, sw) -> None:
    """Spans around the two end-to-end phases, build and certify, at every
    name a caller looks them up by."""
    rec.patch(sw.solver, "build_configuration", BUILD)
    rec.patch(sw.certify, "certify", CERTIFY)
    rec.patch(sw.analysis, "_certify", CERTIFY)
    rec.patch(sw.cli, "run_certify", CERTIFY)


def install_layers(rec: Recorder, sw) -> None:
    """Spans and counters at every layer boundary, on top of the phases."""
    install_phases(rec, sw)
    solver, core, cert = sw.solver, sw.core, sw.certify

    rec.patch(solver, "insert_zero_mass_ring", "solver.insert")
    rec.patch(solver, "continue_mass", "solver.continue")

    def newton_done(r, result, args, kwargs):
        r.count("solver.newton.iters", result[2])

    def newton_failed(r, exc, args, kwargs):
        if isinstance(exc, solver.SolverError):
            r.count("solver.newton.rejected")

    rec.patch(solver, "_newton_raw", "solver.newton", newton_done, newton_failed)
    rec.patch(solver.np.linalg, "solve", "linalg.solve")

    rec.patch(core, "probe_ring_lambda", "core.probe")
    rec.patch(core, "_residual_raw", _by_kind("core.residual"))
    rec.patch(core, "_jacobian_raw", _by_kind("core.jacobian"))
    rec.patch(core, "_hessian_raw", _by_kind("core.hessian"))

    def pair_elems(r, result, args, kwargs):
        radii, ell, kind = args[:3]
        elems = radii.shape[0] ** 2 * ell
        r.count("core.pair_elems" + ("_iv" if kind.is_interval else "_f"), elems)
        r.count(f"{r.current()}.pair_elems", elems)

    rec.patch(core, "_pair_sums", None, on_return=pair_elems)

    def rho_failed(r, exc, args, kwargs):
        if isinstance(exc, cert.CertificationFailed):
            r.count("certify.rho_fails")

    rec.patch(cert, "bound_Y0", "certify.Y0")
    rec.patch(cert, "bound_Z0", "certify.Z0")
    rec.patch(cert, "bound_Z2", "certify.Z2", on_raise=rho_failed)
    rec.patch(cert, "radii_poly_check", "certify.poly", on_raise=rho_failed)

    rec.patch(sw.analysis, "scan", "analysis.scan")
    rec.patch(sw.analysis, "spacing_profile", "analysis.profile")
    rec.patch(sw.analysis, "write_scan_csv", "analysis.csv")

    rec.patch(sw.cli, "main", "cli.main")
    for attr in ("document_from_config", "emit_document", "parse_document"):
        rec.patch(sw.cli, attr, "cli.doc")


def layer_of(span: str) -> str:
    if span.startswith("core."):
        return "core.interval" if span.endswith("_iv") else "core.float"
    if span == "linalg.solve":
        return "solver"
    return span.split(".")[0]


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer metrics of one traced pass.  Counts are exact; times are
    self times in seconds unless the name says otherwise."""
    own = rec.self_times()
    counts = rec.counts

    def calls(name):
        return own.get(name, (0, 0.0))[0]

    def self_s(name):
        return own.get(name, (0, 0.0))[1]

    m: dict[str, float] = {}
    solves = calls("solver.newton")
    rejected = counts.get("solver.newton.rejected", 0)
    m["solver.probe.evals"] = calls("core.probe")
    m["solver.insert.calls"] = calls("solver.insert")
    m["solver.insert.self_s"] = self_s("solver.insert")
    m["solver.continue.calls"] = calls("solver.continue")
    m["solver.continue.self_s"] = self_s("solver.continue")
    m["solver.newton.solves"] = solves
    m["solver.newton.iters"] = counts.get("solver.newton.iters", 0)
    m["solver.newton.rejected"] = rejected
    m["solver.newton.accept_ratio"] = (solves - rejected) / solves if solves else 0.0
    m["linalg.solve.self_s"] = self_s("linalg.solve")
    m["core.probe.self_s"] = self_s("core.probe")
    for name in ("core.residual_f", "core.jacobian_f"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    for name in ("core.residual_iv", "core.jacobian_iv", "core.hessian_iv"):
        m[f"{name}.self_s"] = self_s(name)
    m["core.pair_elems_f"] = counts.get("core.pair_elems_f", 0)
    m["core.pair_elems_iv"] = counts.get("core.pair_elems_iv", 0)
    for name in FLOAT_KERNELS:
        n_calls, elems = calls(name), counts.get(f"{name}.pair_elems", 0)
        m[f"{name}.us_per_call"] = 1e6 * self_s(name) / n_calls if n_calls else 0.0
        m[f"{name}.ns_per_elem"] = 1e9 * self_s(name) / elems if elems else 0.0
    for bound in ("Y0", "Z0", "Z2"):
        m[f"certify.{bound}.self_s"] = self_s(f"certify.{bound}")
    m["certify.rho_tries"] = calls("certify.Z2")
    m["certify.rho_fails"] = counts.get("certify.rho_fails", 0)
    m["analysis.profile.self_s"] = self_s("analysis.profile")
    m["analysis.csv.self_s"] = self_s("analysis.csv")
    m["cli.doc.self_s"] = self_s("cli.doc")

    per_layer = dict.fromkeys(LAYERS, 0.0)
    for name, (_, t) in own.items():
        per_layer[layer_of(name)] += t
    total = sum(per_layer.values())
    for layer, t in per_layer.items():
        if layer != "bench":
            m[f"layer.{layer}.self_s"] = t
            m[f"layer.{layer}.share"] = t / total if total else 0.0
    return m

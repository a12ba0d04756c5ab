"""Self-tests of the benchmark: the gate fails closed, every workload runs on
tiny inputs, and the traced counts repeat exactly.

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import time

import numpy as np
import pytest

import gate
import layers
import run
import workloads


def tiny(name, work, small_doc=None):
    seed = workloads.DEFAULT_SEED
    if name == "ladder":
        return workloads.Ladder(seed, work, sizes=((3, 6), (4, 8)))
    if name == "grid":
        return workloads.Grid(seed, work, n_max=3, ells=(2, 6))
    return workloads.CertifyPaper(seed, work, doc=small_doc)


@pytest.fixture(scope="module")
def small_doc(tmp_path_factory):
    """A solution document like the committed paper one, at n = 6, ell = 12."""
    path = tmp_path_factory.mktemp("doc") / "small.json"
    sw = workloads.Program(run.SRC)
    assert sw.cli.main(["solve", "--n", "6", "--ell", "12", "--masses", "equal:1",
                        "--tol", "3e-10", "--out", str(path)]) == 0
    return path


def one_pass(workload, reference=None, traced=False, tamper=None):
    _, sw, inputs = run.setup(workload)
    if tamper is not None:
        tamper(sw)
    _, instances, rec = run.run_pass(workload, sw, inputs, reference, traced)
    return instances, rec


@pytest.mark.parametrize("name", ["ladder", "grid", "certify_paper"])
def test_smoke_each_workload(name, tmp_path, small_doc):
    workload = tiny(name, tmp_path, small_doc)
    instances, rec = one_pass(workload)
    assert instances and run.fail_frac(instances) == 0.0
    assert rec.durations(layers.CERTIFY)


@pytest.mark.parametrize("name", ["ladder", "grid", "certify_paper"])
def test_traced_counts_repeat_exactly(name, tmp_path, small_doc):
    workload = tiny(name, tmp_path, small_doc)
    counts = []
    for _ in range(2):
        instances, rec = one_pass(workload, traced=True)
        assert run.fail_frac(instances) == 0.0
        m = layers.layer_metrics(rec)
        counts.append({k: v for k, v in m.items() if run._layer_unit(k) == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["certify.rho_tries"] >= 1
    if name != "certify_paper":
        assert counts[0]["solver.probe.evals"] > 0
        assert counts[0]["core.pair_elems_f"] > 0
    else:
        assert counts[0]["solver.newton.solves"] == 0


def test_work_between_steps_is_not_timed(tmp_path):
    workload = tiny("ladder", tmp_path)
    _, sw, inputs = run.setup(workload)
    steps = []

    def between():
        steps.append(1)
        time.sleep(0.5)

    wall, instances, _ = run.run_pass(workload, sw, inputs, None, False, between)
    assert len(steps) == len(instances) == 2
    assert run.fail_frac(instances) == 0.0 and 0.0 < wall < 0.5


def test_reference_accepts_the_same_radii(tmp_path):
    workload = tiny("ladder", tmp_path)
    first, _ = one_pass(workload)
    reference = {i.key: i.radii.tolist() for i in first}
    again, _ = one_pass(workload, reference)
    assert run.fail_frac(again) == 0.0


def test_gate_rejects_moved_radius(tmp_path):
    workload = tiny("ladder", tmp_path)
    first, _ = one_pass(workload)
    reference = {i.key: (i.radii * (1.0 + 4e-12)).tolist() for i in first}
    moved, _ = one_pass(workload, reference)
    assert run.fail_frac(moved) == 1.0
    assert "relative from the reference" in moved[0].failures[0]


def detach_center(sw):
    certify = sw.certify.certify

    def detached(*args, **kwargs):
        cert = certify(*args, **kwargs)
        return dataclasses.replace(cert, center=np.nextafter(cert.center, np.inf))

    sw.cli.run_certify = sw.analysis._certify = sw.certify.certify = detached


@pytest.mark.parametrize("name", ["ladder", "grid", "certify_paper"])
def test_gate_rejects_detached_center(name, tmp_path, small_doc):
    instances, _ = one_pass(tiny(name, tmp_path, small_doc), tamper=detach_center)
    assert run.fail_frac(instances) == 1.0
    assert "center" in instances[0].failures[0]


@pytest.mark.parametrize("seed,bound", [(0, "Z2"), (0, "Z0"), (1, "Z2")])
def test_gate_rejects_shrunk_certificate_bound(seed, bound, tmp_path, small_doc):
    workload = workloads.CertifyPaper(seed, tmp_path, doc=small_doc)
    first, _ = one_pass(workload)
    reference = {i.key: i.cert for i in first}
    again, _ = one_pass(workload, reference)
    assert run.fail_frac(again) == 0.0

    def shrink(sw):
        original = getattr(sw.certify, f"bound_{bound}")
        setattr(sw.certify, f"bound_{bound}", lambda *a, **kw: 0.5 * original(*a, **kw))

    shrunk, _ = one_pass(workload, reference, tamper=shrink)
    assert run.fail_frac(shrunk) == 1.0
    assert shrunk[0].failures[0].startswith(f"{bound} = ")
    unreferenced, _ = one_pass(workload, {})
    assert run.fail_frac(unreferenced) == 1.0


def test_gate_rejects_nonzero_exit_code(tmp_path):
    def solver_fails(sw):
        sw.cli.main = lambda argv: sw.cli.EXIT_SOLVER

    instances, _ = one_pass(tiny("ladder", tmp_path), tamper=solver_fails)
    assert run.fail_frac(instances) == 1.0
    assert instances[0].failures == ["exit code 3"]


def test_gate_rejects_failed_scan_row(tmp_path):
    def build_fails(sw):
        def broken(params, settings=None):
            raise sw.solver.ContinuationStalled("injected")
        sw.solver.build_configuration = broken

    instances, _ = one_pass(tiny("grid", tmp_path), tamper=build_fails)
    assert run.fail_frac(instances) == 1.0


def test_check_certified_fails_closed_on_nan():
    r = np.array([1.0, 2.0])
    assert gate.check_certified(r, r.copy(), -1.0, 0.0, 1e-12) == []
    assert gate.check_certified(r, r.copy(), float("nan"), 0.0, 1e-12)
    assert gate.check_certified(r, r.copy(), -1.0, float("nan"), 1e-12)
    assert gate.check_certified(r, None, -1.0, 0.0, 1e-12)
    assert gate.check_certified(r, r.copy(), -1.0, 0.0, 1e-12, reference=np.array([1.0]))


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = tiny("ladder", tmp_path)
    e2e, units, _, _ = run.measure(workload, 0.0, None)
    assert [(k, units[k]) for k in e2e] == [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    _, sw, inputs = run.setup(workload)
    per_layer, units, _, _ = run.trace(workload, None, sw, inputs)
    assert [(k, units[k]) for k in per_layer] == [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert all(v > 0 for v in e2e.values())

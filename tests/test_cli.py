"""End-to-end CLI tests: exit codes, document round trips, SVG and CSV."""

import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from spiderweb import cli, core, intervals, solver
from spiderweb.cli import (
    EXIT_CERTIFICATION,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_VALIDATION,
    emit_document,
    main,
    parse_document,
)
from spiderweb.solver import ContinuationSettings


def run(args):
    return main([str(a) for a in args])


def test_solve_single_ring_document(tmp_path):
    out = tmp_path / "sol.json"
    code = run(["solve", "--n", 1, "--ell", 2, "--masses", "equal:1",
                "--lambda", -1.0, "--out", out])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1
    assert doc["params"]["n"] == 1 and doc["params"]["ell"] == 2
    assert float(doc["radii"][0]) == pytest.approx(4.0 ** (-1 / 3), rel=1e-13)
    assert doc["certificate"] is None
    assert doc["provenance"]["tool"] == "spiderweb"


def test_solve_rejects_nonpositive_mass(tmp_path, capsys):
    code = run(["solve", "--n", 3, "--ell", 4, "--masses", "1,0,2",
                "--out", tmp_path / "x.json"])
    assert code == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == EXIT_VALIDATION


def test_solve_validation_of_flags(tmp_path):
    assert run(["solve", "--n", 2, "--ell", 1, "--masses", "equal:1",
                "--out", tmp_path / "x.json"]) == EXIT_VALIDATION
    assert run(["solve", "--n", 2, "--ell", 4, "--masses", "equal:1",
                "--lambda", 1.0, "--out", tmp_path / "x.json"]) == EXIT_VALIDATION
    for tol in ("inf", "nan"):
        assert run(["solve", "--n", 2, "--ell", 4, "--masses", "equal:1",
                    "--tol", tol, "--out", tmp_path / "x.json"]) == EXIT_VALIDATION
    assert not (tmp_path / "x.json").exists()


def test_certify_appends_certificate(tmp_path):
    out = tmp_path / "sol.json"
    assert run(["solve", "--n", 1, "--ell", 2, "--masses", "equal:1",
                "--out", out]) == EXIT_OK
    assert run(["certify", "--input", out]) == EXIT_OK
    doc = json.loads(out.read_text())
    cert = doc["certificate"]
    assert cert is not None
    assert float(cert["rho0"]) < 1e-9
    assert float(cert["p_at_rho0"]) < 0.0


def test_certify_rejects_malformed_document(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": 1, "params": {"ell": 2}, "radii": []}')
    assert run(["certify", "--input", bad]) == EXIT_VALIDATION
    bad.write_text("not json at all")
    assert run(["certify", "--input", bad]) == EXIT_VALIDATION
    assert run(["certify", "--input", tmp_path / "missing.json"]) == EXIT_VALIDATION


def test_certify_rejects_reversed_radii(tmp_path):
    out = tmp_path / "sol.json"
    run(["solve", "--n", 2, "--ell", 4, "--masses", "equal:1", "--out", out])
    doc = json.loads(out.read_text())
    doc["radii"] = doc["radii"][::-1]
    out.write_text(json.dumps(doc))
    assert run(["certify", "--input", out]) == EXIT_VALIDATION


def test_certify_tiny_rho_star_fails_with_advice(tmp_path, capsys):
    # the balls are computed, so --rho-star is a usage error and the usage
    # line is the advice
    out = tmp_path / "sol.json"
    assert run(["solve", "--n", 1, "--ell", 2, "--masses", "equal:1", "--out", out]) == EXIT_OK
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        run(["certify", "--input", out, "--rho-star", "1e-30"])
    assert excinfo.value.code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "usage:" in err and "--rho-star" in err
    assert json.loads(out.read_text())["certificate"] is None


def test_document_roundtrip_is_byte_identical(tmp_path):
    out = tmp_path / "sol.json"
    run(["solve", "--n", 3, "--ell", 5, "--masses", "0.7,1.0,2.2",
         "--m0", 0.4, "--out", out])
    run(["certify", "--input", out])
    text = out.read_text()
    params, radii, norm, cert, settings = parse_document(text)
    doc2 = cli.document_from_config(
        cli.Configuration(params, radii, norm), settings, cert
    )
    assert emit_document(doc2) == text


def test_analyze_profile_and_svg(tmp_path):
    sol = tmp_path / "sol.json"
    csv_out = tmp_path / "profile.csv"
    svg_out = tmp_path / "bodies.svg"
    mass_out = tmp_path / "mass.csv"
    run(["solve", "--n", 2, "--ell", 3, "--masses", "equal:1", "--out", sol])
    code = run(["analyze", "--input", sol, "--out", csv_out,
                "--svg", svg_out, "--mass-out", mass_out])
    assert code == EXIT_OK
    header, row = csv_out.read_text().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert float(cols["b"]) == float(cols["a_1"])
    assert cols["n"] == "2"
    # SVG parses and has one body circle per mass plus the ring guides
    tree = ET.fromstring(svg_out.read_text())
    circles = [e for e in tree.iter() if e.tag.endswith("circle")]
    assert len(circles) == 2 * 3 + 2  # n*ell bodies + n guide rings (m0 = 0)
    mass_lines = mass_out.read_text().splitlines()
    assert mass_lines[0] == "eta,M,chi"
    assert len(mass_lines) == 202


def test_analyze_includes_central_mass_body(tmp_path):
    sol = tmp_path / "sol.json"
    svg_out = tmp_path / "bodies.svg"
    run(["solve", "--n", 1, "--ell", 5, "--masses", "equal:1", "--m0", 2.0,
         "--out", sol])
    run(["analyze", "--input", sol, "--out", tmp_path / "p.csv", "--svg", svg_out])
    tree = ET.fromstring(svg_out.read_text())
    circles = [e for e in tree.iter() if e.tag.endswith("circle")]
    assert len(circles) == 5 + 1 + 1  # bodies + center + one guide ring


def test_hcheck_verified_and_refuted(capsys):
    keys = {"ell", "lower_bound", "verified", "negative_at", "negative_value"}
    assert run(["hcheck", "--ell", 7]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == keys
    assert payload["verified"] is True
    assert run(["hcheck", "--ell", 12]) == EXIT_CERTIFICATION
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == keys
    assert payload["verified"] is False
    assert payload["lower_bound"] is None
    assert float(payload["negative_value"]) < 0


def test_scan_cli_writes_deterministic_csv(tmp_path, capsys):
    out1, out2 = tmp_path / "scan1.csv", tmp_path / "scan2.csv"
    assert run(["scan", "--n-max", 2, "--ells", "2,4", "--masses", "equal:1",
                "--out", out1]) == EXIT_OK
    assert run(["scan", "--n-max", 2, "--ells", "2,4", "--masses", "equal:1",
                "--out", out2]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    rows = out1.read_text().splitlines()
    assert len(rows) == 5  # header + 4 rows
    assert all(line.endswith(",ok") for line in rows[1:])


def test_module_entry_point(tmp_path):
    out = tmp_path / "sol.json"
    proc = subprocess.run(
        [sys.executable, "-m", "spiderweb.cli", "solve", "--n", "1", "--ell", "4",
         "--masses", "equal:1", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_solver_failure_exit_code(tmp_path, capsys):
    # an impossibly tight tolerance turns into a solver failure (exit 3)
    code = run(["solve", "--n", 2, "--ell", 4, "--masses", "equal:1",
                "--tol", 1e-30, "--out", tmp_path / "x.json"])
    assert code == EXIT_SOLVER
    # m1 / |lambda| = 1e310 overflows the closed-form r1: a solver failure
    # too, not invalid input
    capsys.readouterr()
    with np.errstate(over="ignore"):
        code = run(["solve", "--n", 3, "--ell", 6, "--masses", "equal:1e10",
                    "--lambda=-1e-300", "--out", tmp_path / "y.json"])
    assert code == EXIT_SOLVER
    assert json.loads(capsys.readouterr().err)["error"] == "SolverError"
    assert not (tmp_path / "y.json").exists()


def test_detached_certificate_center_is_rejected(tmp_path, capsys):
    out = tmp_path / "sol.json"
    assert run(["solve", "--n", 3, "--ell", 5, "--masses", "equal:1",
                "--out", out]) == EXIT_OK
    assert run(["certify", "--input", out]) == EXIT_OK
    doc = json.loads(out.read_text())
    center = [float(x) for x in doc["certificate"]["center"]]
    center[1] = float(np.nextafter(center[1], np.inf))  # one ulp off the radius
    doc["certificate"]["center"] = [cli._fmt(x) for x in center]
    text = emit_document(doc)
    with pytest.raises(ValueError, match="bitwise"):
        parse_document(text)
    out.write_text(text)
    capsys.readouterr()
    assert run(["analyze", "--input", out, "--out", tmp_path / "a.csv"]) == EXIT_VALIDATION
    assert json.loads(capsys.readouterr().err)["exit_code"] == EXIT_VALIDATION


def test_non_finite_bound_exit_code(tmp_path, capsys, monkeypatch):
    out = tmp_path / "sol.json"
    assert run(["solve", "--n", 2, "--ell", 4, "--masses", "equal:1",
                "--out", out]) == EXIT_OK
    real = core.hessian_parts
    for part, index in ((0, (0,)), (1, (0, 1)), (2, (1, 0))):

        def nan_hessian(params, radii, kind, part=part, index=index):
            parts = real(params, radii, kind)
            parts[part].hi[index] = np.nan
            return parts

        monkeypatch.setattr(core, "hessian_parts", nan_hessian)
        capsys.readouterr()
        assert run(["certify", "--input", out]) == EXIT_CERTIFICATION
        assert "NON_FINITE_BOUND" in json.loads(capsys.readouterr().err)["message"]
    monkeypatch.undo()
    # masses of 1e-300 put the radii near 1e-100, where the interval pass at
    # the center divides by an interval that contains zero
    tiny = tmp_path / "tiny.json"
    with np.errstate(divide="ignore", invalid="ignore"):
        assert run(["solve", "--n", 3, "--ell", 6, "--masses", "1e-300,1e-300,1e-300",
                    "--out", tiny]) == EXIT_OK
        capsys.readouterr()
        assert run(["certify", "--input", tiny]) == EXIT_CERTIFICATION
    assert "NON_FINITE_BOUND" in json.loads(capsys.readouterr().err)["message"]


def test_overflowing_interval_product_exits_non_finite(tmp_path, capsys, monkeypatch):
    # A scaled by 1e308 makes the (n, n, n) products of A Df in Z0 overflow;
    # at n = 7 they are rounded by the successor bound, under which an
    # infinite endpoint's inward side is NaN.  That must exit 4, not prove.
    n = 7
    assert n**3 >= intervals._LEAN_MIN_SIZE
    out = tmp_path / "sol.json"
    assert run(["solve", "--n", n, "--ell", 2 * n, "--masses", "equal:1",
                "--out", out]) == EXIT_OK
    real_inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda m: real_inv(m) * 1e308)
    capsys.readouterr()
    with np.errstate(over="ignore", invalid="ignore"):
        assert run(["certify", "--input", out]) == EXIT_CERTIFICATION
    err = json.loads(capsys.readouterr().err)
    assert "NON_FINITE_BOUND" in err["message"] and "Z0" in err["message"]
    assert json.loads(out.read_text())["certificate"] is None


@pytest.mark.parametrize("path,value", [
    (("provenance", "settings", "newton_max_iter"), 2.7),
    (("provenance", "settings", "newton_max_iter"), True),
    (("schema_version",), True),
    (("params", "n"), True),
], ids=["max-iter-float", "max-iter-bool", "schema-bool", "n-bool"])
def test_document_integers_must_be_json_integers(tmp_path, capsys, path, value):
    # Python reads true as 1 and int(2.7) as 2; a document means neither
    out = tmp_path / "sol.json"
    assert run(["solve", "--n", 1, "--ell", 2, "--masses", "equal:1",
                "--out", out]) == EXIT_OK
    doc = json.loads(out.read_text())
    *parents, key = path
    node = doc
    for name in parents:
        node = node[name]
    node[key] = value
    text = emit_document(doc)
    with pytest.raises(ValueError, match=key):
        parse_document(text)
    out.write_text(text)
    capsys.readouterr()
    assert run(["certify", "--input", out]) == EXIT_VALIDATION
    assert json.loads(capsys.readouterr().err)["exit_code"] == EXIT_VALIDATION


@pytest.mark.parametrize("path,value", [
    (("params", "masses", 0), True),
    (("params", "m0"), True),
    (("params", "m0"), 0.5),
    (("provenance", "settings", "newton_tol"), True),
    (("residual_norm",), True),
    (("radii",), "123"),
], ids=["mass-bool", "m0-bool", "m0-number", "tol-bool", "residual-bool", "radii-string"])
def test_document_reals_must_be_json_strings(tmp_path, capsys, path, value):
    # Python reads true as 1.0 and "123" as three radii; every document
    # writes its reals as strings in arrays
    out = tmp_path / "sol.json"
    assert run(["solve", "--n", 3, "--ell", 6, "--masses", "equal:1",
                "--out", out]) == EXIT_OK
    doc = json.loads(out.read_text())
    *parents, key = path
    node = doc
    for name in parents:
        node = node[name]
    node[key] = value
    text = emit_document(doc)
    with pytest.raises(ValueError, match="not a decimal string|not an array"):
        parse_document(text)
    out.write_text(text)
    capsys.readouterr()
    assert run(["certify", "--input", out]) == EXIT_VALIDATION
    assert json.loads(capsys.readouterr().err)["exit_code"] == EXIT_VALIDATION


@pytest.mark.parametrize("n_max,ells,jobs,extra,named", [
    (0, "2,4", 1, [], "--n-max"), (-1, "4", 1, [], "--n-max"), (2, "1", 1, [], "--n-max"),
    (2, "4,1", 1, [], "--n-max"), (2, ",", 1, [], "--n-max"), (2, "4", 0, [], "--jobs"),
    # what solve rejects with exit 2 whatever n is, scan rejects before any row
    (2, "4", 1, ["--lambda", "1"], "lambda"), (2, "4", 1, ["--lambda", "nan"], "lambda"),
    (2, "4", 1, ["--m0", "nan"], "m0"), (2, "4", 1, ["--masses", "bogus"], "mass spec"),
    (2, "4", 1, ["--masses", "equal:-1"], "mass spec"),
], ids=["0-2,4", "-1-4", "2-1", "2-4,1", "2-,", "jobs-0", "lambda-1", "lambda-nan",
        "m0-nan", "masses-bogus", "masses-equal:-1"])
def test_scan_rejects_invalid_arguments_before_any_work(tmp_path, capsys, monkeypatch,
                                                        n_max, ells, jobs, extra, named):
    monkeypatch.setattr(solver, "build_configuration", lambda *args: pytest.fail("built"))
    out = tmp_path / "scan.csv"
    assert run(["scan", "--n-max", n_max, "--ells", ells, "--jobs", jobs,
                "--out", out, *extra]) == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == EXIT_VALIDATION
    assert named in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_analyze_rejects_a_convexity_tolerance_not_finite_and_nonnegative(tmp_path, capsys, tol):
    # a NaN tolerance read every profile with n >= 4 as non-convex
    sol, out = tmp_path / "sol.json", tmp_path / "a.csv"
    assert run(["solve", "--n", 4, "--ell", 4, "--masses", "equal:1", "--out", sol]) == EXIT_OK
    assert run(["analyze", "--input", sol, "--out", out,
                "--convexity-tol", tol]) == EXIT_VALIDATION
    assert "convexity tolerance" in json.loads(capsys.readouterr().err)["message"]
    assert not out.exists()


@pytest.mark.parametrize("rho_star", ["nan", "inf", "0"])
def test_certify_rejects_bad_rho_star(tmp_path, rho_star):
    # no value of --rho-star is accepted: the flag is gone
    out = tmp_path / "sol.json"
    assert run(["solve", "--n", 2, "--ell", 4, "--masses", "equal:1",
                "--out", out]) == EXIT_OK
    with pytest.raises(SystemExit) as excinfo:
        run(["certify", "--input", out, "--rho-star", rho_star])
    assert excinfo.value.code == EXIT_VALIDATION
    assert json.loads(out.read_text())["certificate"] is None


def test_document_with_nan_newton_tol_is_rejected(tmp_path):
    out = tmp_path / "sol.json"
    assert run(["solve", "--n", 2, "--ell", 4, "--masses", "equal:1",
                "--out", out]) == EXIT_OK
    doc = json.loads(out.read_text())
    doc["provenance"]["settings"]["newton_tol"] = "nan"
    text = emit_document(doc)
    with pytest.raises(ValueError, match="newton_tol"):
        parse_document(text)
    out.write_text(text)
    assert run(["certify", "--input", out]) == EXIT_VALIDATION


def test_document_with_removed_settings_keys_still_works(tmp_path):
    # documents written before mass_step_init, step_shrink, step_grow and
    # bisect_tol left the settings carry those keys; they are read past and
    # not re-emitted
    out = tmp_path / "sol.json"
    assert run(["solve", "--n", 3, "--ell", 6, "--masses", "equal:1",
                "--out", out]) == EXIT_OK
    fresh = json.loads(out.read_text())
    for step in (None, "0.5"):
        doc = json.loads(json.dumps(fresh))
        old_keys = {"mass_step_init": step, "step_shrink": "0.25", "step_grow": "3",
                    "bisect_tol": "1e-10"}
        doc["provenance"]["settings"].update(old_keys)
        out.write_text(emit_document(doc))
        assert run(["certify", "--input", out]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["certificate"] is not None
        assert set(doc["provenance"]["settings"]) == {"newton_tol", "newton_max_iter"}


@pytest.mark.parametrize("provenance", [None, [], "x", {"settings": [1]}],
                         ids=["null", "list", "string", "settings-list"])
def test_malformed_provenance_is_rejected(tmp_path, capsys, provenance):
    out = tmp_path / "sol.json"
    assert run(["solve", "--n", 2, "--ell", 4, "--masses", "equal:1",
                "--out", out]) == EXIT_OK
    doc = json.loads(out.read_text())
    doc["provenance"] = provenance
    out.write_text(emit_document(doc))
    for argv in (["certify", "--input", out],
                 ["analyze", "--input", out, "--out", tmp_path / "a.csv"]):
        capsys.readouterr()
        assert run(argv) == EXIT_VALIDATION
        err = json.loads(capsys.readouterr().err)
        assert err["exit_code"] == EXIT_VALIDATION and "provenance" in err["message"]


def test_missing_provenance_means_default_settings(tmp_path):
    out = tmp_path / "sol.json"
    assert run(["solve", "--n", 2, "--ell", 4, "--masses", "equal:1",
                "--out", out]) == EXIT_OK
    doc = json.loads(out.read_text())
    del doc["provenance"]["settings"]
    assert parse_document(emit_document(doc))[4] == ContinuationSettings()
    del doc["provenance"]
    assert parse_document(emit_document(doc))[4] == ContinuationSettings()


@pytest.mark.parametrize("value", ["nan", "-1", "inf", "-inf", "-0.5e-300"])
def test_document_residual_norm_must_be_finite_and_nonnegative(tmp_path, capsys, value):
    out = tmp_path / "sol.json"
    assert run(["solve", "--n", 3, "--ell", 6, "--masses", "equal:1",
                "--out", out]) == EXIT_OK
    doc = json.loads(out.read_text())
    doc["residual_norm"] = value
    text = emit_document(doc)
    with pytest.raises(ValueError, match="residual_norm must be finite"):
        parse_document(text)
    out.write_text(text)
    capsys.readouterr()
    assert run(["certify", "--input", out]) == EXIT_VALIDATION
    assert json.loads(capsys.readouterr().err)["exit_code"] == EXIT_VALIDATION
    assert out.read_text() == text  # nothing written back


class _Libc:
    """Stand-in for the C library: glibc's version symbol and a recording
    mallopt, either of which can be missing."""

    def __init__(self, glibc=True, has_mallopt=True):
        self.calls = []
        if glibc:
            self.gnu_get_libc_version = lambda: b"2.36"
        if has_mallopt:
            def mallopt(param, value):
                self.calls.append((param, value))
                return 1
            self.mallopt = mallopt


def test_heap_policy_pins_both_glibc_thresholds_and_repeats_harmlessly(monkeypatch):
    libc = _Libc()
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
    cli._keep_block_temporaries_in_heap()
    pinned = [(cli._M_MMAP_THRESHOLD, cli._MMAP_THRESHOLD),
              (cli._M_TRIM_THRESHOLD, cli._TRIM_THRESHOLD)]
    assert libc.calls == pinned
    cli._keep_block_temporaries_in_heap()
    assert libc.calls == 2 * pinned
    # both sit well above the largest pair-kernel block array
    assert cli._MMAP_THRESHOLD >= 4 * core._BLOCK_ELEMS * 8
    assert cli._TRIM_THRESHOLD >= cli._MMAP_THRESHOLD


@pytest.mark.parametrize("libc", [None, _Libc(has_mallopt=False), _Libc(glibc=False)],
                         ids=["no-libc", "no-mallopt", "not-glibc"])
def test_heap_policy_does_nothing_without_glibc_mallopt(tmp_path, monkeypatch, libc):
    def cdll(name):
        if libc is None:
            raise OSError("no C library")
        return libc

    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    cli._keep_block_temporaries_in_heap()
    assert libc is None or libc.calls == []
    out = tmp_path / "sol.json"
    assert run(["solve", "--n", 2, "--ell", 4, "--masses", "equal:1", "--out", out]) == EXIT_OK
    assert run(["solve", "--n", 2, "--ell", 4, "--masses", "1,0", "--out", out]) == EXIT_VALIDATION


def test_main_applies_the_heap_policy_before_parsing(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "_keep_block_temporaries_in_heap", lambda: calls.append(1))
    with pytest.raises(SystemExit):
        main(["no-such-command"])
    assert calls == [1]


def test_real_heap_policy_twice_then_solve_and_certify(tmp_path):
    cli._keep_block_temporaries_in_heap()
    cli._keep_block_temporaries_in_heap()
    out = tmp_path / "sol.json"
    assert run(["solve", "--n", 3, "--ell", 6, "--masses", "equal:1", "--out", out]) == EXIT_OK
    assert run(["certify", "--input", out]) == EXIT_OK


_SOLVE_CERTIFY = """
import sys
from spiderweb import cli
if sys.argv[1] == "off":
    cli._keep_block_temporaries_in_heap = lambda: None
for n, ell, masses in ((3, 6, "equal:1"), (10, 20, "inv")):
    path = f"{sys.argv[2]}/sol_{n}_{ell}.json"
    code = cli.main(["solve", "--n", str(n), "--ell", str(ell), "--masses", masses,
                     "--out", path])
    assert code == 0 and cli.main(["certify", "--input", path]) == 0
"""


def test_documents_are_byte_identical_with_heap_policy_on_and_off(tmp_path):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    docs = {}
    for mode in ("on", "off"):
        (tmp_path / mode).mkdir()
        proc = subprocess.run([sys.executable, "-c", _SOLVE_CERTIFY, mode, str(tmp_path / mode)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        docs[mode] = {p.name: p.read_bytes() for p in (tmp_path / mode).iterdir()}
    assert sorted(docs["on"]) == ["sol_10_20.json", "sol_3_6.json"]
    assert docs["on"] == docs["off"]

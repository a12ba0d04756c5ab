#!/usr/bin/env python3
"""Solve->certify benchmark of spiderweb.

    python3 perfbench/run.py --workload ladder --seed 0 --seconds 40 --trace 0

Runs from the root of a source tree and imports ``spiderweb`` from its
``src/``.  With ``--trace 0`` it repeats passes of the workload until the
next one would end after ``--seconds`` (at least one pass) and reports the
end-to-end metrics with tracing off.  With ``--trace 1`` it runs one untraced
pass and then one traced pass, and reports the per-layer metrics of the
traced pass plus the tracing overhead.  Human-readable lines come first; the
last line of standard output is the JSON result.  The exit code is 0 only
when every instance passed the correctness gate.
"""

from __future__ import annotations

import os

# fixed before numpy loads: one BLAS thread, at most nproc and steadier
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
SETUP_ROUND = 2  # set-ups before the first pass and after every step of a pass
SETUP_MIN = 8  # set-ups of a run at least

END_TO_END_UNITS = {
    "wall_s": "s",
    "certify_s": "s",
    "instances_per_s": "1/s",
    "instance_p95_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def setup(workload):
    """Fresh import of the program, inputs from the seed and first-call
    warm-up; returns the time it took, the program and the inputs."""
    gc.collect()
    t0 = time.perf_counter()
    sw = workloads.Program(SRC)
    inputs = workload.make_inputs(sw)
    return time.perf_counter() - t0, sw, inputs


def setup_round(workload, times: list[float], count: int = SETUP_ROUND):
    """``count`` set-ups (none if it is below 1), their times appended to
    ``times``; returns the program and inputs of the last."""
    last = None
    for _ in range(count):
        t, *last = setup(workload)
        times.append(t)
    return last


def run_pass(workload, sw, inputs, reference, traced: bool, between=None):
    """One pass under a fresh recorder; returns (wall, instances, recorder).
    ``between()``, if given, runs after every step of the pass, and its time
    is left out of the wall time."""
    rec = Recorder()
    paused = 0.0

    def step():
        nonlocal paused
        if between is not None:
            t = time.perf_counter()
            between()
            paused += time.perf_counter() - t

    try:
        (layers.install_layers if traced else layers.install_phases)(rec, sw)
        t0 = time.perf_counter()
        with rec.span("bench.pass"):
            try:
                instances = workload.run_pass(sw, inputs, reference, step)
            except Exception as exc:
                instances = [workloads.Instance("pass", failures=[workloads._failure(exc)])]
        wall = time.perf_counter() - t0 - paused
    finally:
        rec.unpatch()
    return wall, instances, rec


def instance_times(rec: Recorder, builds: bool) -> list[float]:
    """Build+certify time of each instance, from the phase spans in call
    order: a build opens an instance and the certify after it joins it.
    Without builds every certify is an instance."""
    out: list[float] = []
    for name, start, end in zip(rec.names, rec.starts, rec.ends):
        if name == layers.BUILD or (name == layers.CERTIFY and not builds):
            out.append(end - start)
        elif name == layers.CERTIFY:
            out[-1] += end - start
    return out


def fail_frac(instances) -> float:
    return sum(1 for i in instances if i.failures) / len(instances)


def phase_time(rec: Recorder, name: str) -> float:
    return sum(rec.durations(name))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit() -> str:
    """Commit of the tree, or "unknown" when it is not the top of a git
    work tree (an exported copy inside another repository included)."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def provenance() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
        "src_lines": src_lines,
    }


def quantile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), 100.0 * q))


def measure(workload, seconds: float, reference):
    """Untraced passes until the next one would take the passes past
    ``seconds``.  Rounds of set-ups come before the first pass and, untimed,
    after every step of a pass.  The host's speed jumps by up to ~40% within
    seconds and one set-up (0.1-0.3 s) sees a single moment of it, so the
    set-ups are spread over the whole run, as the passes are: taken only
    between passes, their median spread by 0.30 across seeds on ``grid``,
    whose one pass takes most of a run."""
    walls, builds, certs, inst_times, instances, setups = [], [], [], [], [], []
    sw, inputs = setup_round(workload, setups)
    while True:
        wall, done, rec = run_pass(workload, sw, inputs, reference, traced=False,
                                   between=lambda: setup_round(workload, setups))
        walls.append(wall)
        builds.append(phase_time(rec, layers.BUILD))
        certs.append(phase_time(rec, layers.CERTIFY))
        inst_times += instance_times(rec, workload.builds)
        instances += done
        if sum(walls) + max(walls) > seconds:
            break
    setup_round(workload, setups, SETUP_MIN - len(setups))
    metrics = {
        "wall_s": statistics.median(walls),
        "certify_s": statistics.median(certs),
        "instances_per_s": len(instances) / sum(walls),
        "instance_p95_s": quantile(inst_times, 0.95),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {"passes": len(walls), "instance_samples": len(inst_times), "setups": len(setups),
             "build_s": statistics.median(builds),
             "instance_p50_s": quantile(inst_times, 0.50)}
    return metrics, {k: END_TO_END_UNITS[k] for k in metrics}, instances, notes


def trace(workload, reference, sw, inputs):
    """One untraced pass, then one traced pass of the same inputs."""
    wall0, done0, rec0 = run_pass(workload, sw, inputs, reference, traced=False)
    wall1, done1, rec1 = run_pass(workload, sw, inputs, reference, traced=True)
    instances = done0 + done1
    metrics = layers.layer_metrics(rec1)
    metrics["phase.build_s"] = phase_time(rec0, layers.BUILD)
    metrics["phase.certify_s"] = phase_time(rec0, layers.CERTIFY)
    metrics["phase.instance_p50_s"] = quantile(instance_times(rec0, workload.builds), 0.50)
    metrics["trace.overhead_s"] = wall1 - wall0
    metrics["trace.overhead_frac"] = (wall1 - wall0) / wall0
    metrics["fail_frac"] = fail_frac(instances)
    units = {k: _layer_unit(k) for k in metrics}
    return metrics, units, instances, {"passes": 2}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".us_per_call"):
        return "us"
    if name.endswith(".ns_per_elem"):
        return "ns"
    if name.endswith(("share", "ratio", "frac")):
        return "fraction"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "spiderweb" / "__init__.py").is_file():
        print(f"error: no spiderweb package under {SRC}", file=sys.stderr)
        return 2
    work = Path(tempfile.mkdtemp(prefix="_work-", dir=HERE))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        reference = workloads.load_reference(args.workload, args.seed)
        if args.trace:
            _, sw, inputs = setup(workload)
            metrics, units, instances, notes = trace(workload, reference, sw, inputs)
        else:
            metrics, units, instances, notes = measure(workload, args.seconds, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [i for i in instances if i.failures]
    for inst in failed[:20]:
        print(f"FAILED {inst.key}: {'; '.join(inst.failures)}")
    print("provenance " + json.dumps(provenance(), sort_keys=True))
    print("notes " + json.dumps(notes, sort_keys=True))
    for name, value in metrics.items():
        print(f"{args.workload:14s} {name:36s} {value:14.6g} {units[name]}")
    result = {
        "correct": not failed,
        "attempted": len(instances),
        "failed": len(failed),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())

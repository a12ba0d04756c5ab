#!/usr/bin/env python3
"""Regenerate the benchmark's committed reference data from the tree at hand.

    python3 perfbench/make_reference.py           # default-seed radii
    python3 perfbench/make_reference.py --paper   # and the paper document

The radii of ``ladder`` and ``grid``, and the certificate numbers (Y0, Z0,
Z2, rho* and rho0) of ``certify_paper``, come from one untraced pass of each
with the default seed; every instance must pass the rest of the gate.  A
change that tightens a certificate bound on purpose regenerates them and says
so.  ``--paper``
also rebuilds the n = 100, ell = 200 equal-mass solution document that
``certify_paper`` certifies, with ``spiderweb solve --tol 3e-10`` as in
acceptance criterion 2 (about four minutes; never part of a timed run).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import run
import workloads


def build_paper_document() -> None:
    sw = workloads.Program(run.SRC)
    code = sw.cli.main(["solve", "--n", "100", "--ell", "200", "--masses", "equal:1",
                        "--tol", "3e-10", "--out", str(workloads.PAPER_DOC)])
    if code != 0:
        raise SystemExit(f"paper build exited with code {code}")


def reference_outputs(name: str, work) -> dict:
    workload = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, work)
    _, sw, inputs = run.setup(workload)
    _, instances, _ = run.run_pass(workload, sw, inputs, None, traced=False)
    bad = [f"{i.key}: {'; '.join(i.failures)}" for i in instances if i.failures]
    if bad:
        raise SystemExit(f"{name} failed the gate:\n" + "\n".join(bad))
    if name == "certify_paper":
        return {i.key: i.cert for i in instances}
    return {i.key: i.radii.tolist() for i in instances}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--paper", action="store_true",
                    help="also rebuild the paper-scale solution document")
    args = ap.parse_args()
    if args.paper:
        build_paper_document()
    table = {"seed": workloads.DEFAULT_SEED}
    with tempfile.TemporaryDirectory(prefix="_work-", dir=run.HERE) as work:
        for name in workloads.WORKLOADS:
            table[name] = reference_outputs(name, Path(work))
    workloads.REFERENCE_FILE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {workloads.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Paper-scale spot check: build and rigorously certify the n = 100,
ell = 200 equal-mass configuration.  Three runs on a 2-core Intel Xeon with
OPENBLAS_NUM_THREADS=1: build 7.8-9.1 s, certify 1.6-1.8 s (|f| = 7.90e-11,
Y0 = 4.90e-12, Z0 = 3.68e-09, Z2 = 6.69e+04, rho0 = 4.90e-12).  Starting
every ring's Newton solve from the zero-mass insertion instead of the
secant prediction, the build took 11.9-12.0 s there (397 Jacobians against
277).

The Newton tolerance sits above the float evaluation floor of |f|_inf at
this size (~1e-11); the certificate is rigorous regardless and simply
reports the achieved Y0."""

import argparse
import time

import numpy as np

from spiderweb import certify, cli, core, solver


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=100)
    ap.add_argument("--ell", type=int, default=200)
    ap.add_argument("--tol", type=float, default=3e-10)
    args = ap.parse_args()
    cli._keep_block_temporaries_in_heap()  # the CLI's heap policy, see README

    params = core.SpiderwebParams(args.n, args.ell, 0.0, np.ones(args.n), -1.0)
    settings = solver.ContinuationSettings(newton_tol=args.tol)
    t0 = time.perf_counter()
    config = solver.build_configuration(params, settings)
    t1 = time.perf_counter()
    print(f"build:   {t1 - t0:7.1f}s  |f| = {config.residual_norm:.2e}  "
          f"r_1 = {config.radii[0]:.4f}  r_n = {config.radii[-1]:.4f}")
    cert = certify.certify(config)
    t2 = time.perf_counter()
    print(f"certify: {t2 - t1:7.1f}s  Y0 = {cert.Y0:.2e}  Z0 = {cert.Z0:.2e}  "
          f"Z2 = {cert.Z2:.2e}")
    print(f"unique true configuration within rho0 = {cert.rho0:.2e} "
          f"(p(rho0) = {cert.p_at_rho0:.2e} < 0)")


if __name__ == "__main__":
    main()

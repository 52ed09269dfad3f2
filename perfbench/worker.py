"""One repetition of a library workload, in a fresh process.

    python3 perfbench/worker.py --workload tv64 --seed 0 --out rep.json \
        [--trace spans.json] [--tiny]

Run from the repository root. Runs set-up (phantom, simulation with the
system-matrix build, initialization), the solve and the reconstruction
metrics, checks the outputs, and writes one JSON result. ``setup_end`` and
``done`` are read on the system-wide CLOCK_MONOTONIC, so the parent can time
set-up and the whole workload from the moment it started this process,
imports included. With ``--trace`` the layer tracer wraps every public dualct
function and its spans go to that file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import numpy as np  # noqa: E402

import dualct  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", default=None)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    wl = workloads.get(args.workload, args.tiny)

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    truth, geo, mask, measured, init = workloads.library_setup(wl, args.seed)
    setup_end = clock()
    spec, params = workloads.library_problem(wl, args.seed, geo, mask, measured)
    t0 = time.perf_counter()
    state, log = dualct.solver.run(spec, init, params)
    t1 = time.perf_counter()
    report = dualct.metrics.report(state.x, truth)
    done = clock()
    if tracer:
        tracer.uninstall()
        tracer.dump(args.trace)
    fbp = dualct.fbp_reconstruct(dualct.tomo.zero_fill_views(measured), geo)
    fbp_psnr = dualct.psnr(fbp, truth)
    x_bytes = np.ascontiguousarray(state.x.values, dtype="<f8").tobytes()
    result = {
        "setup_end": setup_end,
        "solve_s": t1 - t0,
        "done": done,
        "iters": len(log),
        "recon_psnr_db": report.psnr_db,
        "recon_ssim": report.ssim,
        "fbp_psnr_db": fbp_psnr,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "recon_sha256": hashlib.sha256(x_bytes).hexdigest(),
        "branches": [r.branch for r in log.records],
        "backtracks": sum(r.backtracks for r in log.records),
        "eps_reductions": log.n_eps_reductions(),
        "failed_checks": workloads.output_checks(
            [(r.phi_before, r.phi_after) for r in log.records],
            [state.x.values, state.z.values], report.psnr_db, fbp_psnr),
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Workload definitions of the benchmark.

Each workload is one fixed problem whose random parts (measurement noise,
extractor weights) come from the workload seed given on the command line;
dualct only ever sees the generated inputs. ``tiny`` variants on a 16x16
grid keep the same code paths and serve the benchmark's self-test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str           # "library": one Python process; "cli": one process per stage
    regularizer: str    # "tv" (both domains) or "cnn" (random conv extractors)
    n: int              # grid is n x n with pixel size 2/n
    n_views: int
    n_dets: int
    n_keep: int
    max_iters: int = 1000
    phases: int = 0     # > 0 selects the solver's fixed-phase mode (cli only)


WORKLOADS = {
    # Time to the solver's stopping tolerance (eps_tol=1e-4; seed 0 stops
    # after 1284 iterations). Per-iteration work dominates: A/A^T mat-vecs,
    # TV value/gradient and objective/solver bookkeeping. The only workload
    # whose solver takes both the EDC and the BCD branch.
    "tv64": Workload(
        "tv64",
        "library API, TV, solve to eps_tol (~1284 iterations): "
        "per-iteration A/AT mat-vecs, TV and solver bookkeeping "
        "dominate; the only workload taking both solver branches",
        "library", "tv", n=64, n_views=90, n_dets=95, n_keep=30, max_iters=5000),
    # Random 3-layer, 8-channel extractors: regularizer Lipschitz power
    # iterations (in the back-tracking budget check, for the first step sizes
    # and again after every eps reduction) and conv layers take >90% of the
    # time, while A/A^T are cheap (nnz ~122k). Projector work should not move
    # it; Lipschitz reuse and conv batching should. One iteration keeps a
    # repetition near 15 s and already pays three estimates per domain. So
    # ms_per_iter here is solve_s itself: the iteration's own conv work is
    # under 3% of the solve, and only its share of solve_s can show a change
    # to it. More iterations do not help: eps falls every few iterations and
    # each fall re-estimates the Lipschitz constants.
    "cnn32": Workload(
        "cnn32",
        "library API, random 3-layer 8-channel conv extractors: "
        "regularizer Lipschitz power iterations and conv layers "
        "dominate; projector work is negligible",
        "library", "cnn", n=32, n_views=90, n_dets=47, n_keep=30, max_iters=1),
    # The documented CLI, one process per stage, as users run it. Pays the
    # ray-traced system-matrix build twice (simulate and reconstruct) and
    # exercises the view upsampler, FBP, io and cli; the memory-heavy one.
    "pipeline128": Workload(
        "pipeline128",
        "documented CLI, one process per stage at 128x128: "
        "system-matrix build paid in two processes, view upsampler, "
        "FBP, io; the memory-heavy workload",
        "cli", "tv", n=128, n_views=180, n_dets=185, n_keep=60, phases=40),
}

TINY = {
    "tv64": dict(n=16, n_views=30, n_dets=25, n_keep=10),
    "cnn32": dict(n=16, n_views=30, n_dets=25, n_keep=10, max_iters=1),
    "pipeline128": dict(n=16, n_views=40, n_dets=25, n_keep=10, phases=5),
}


def get(name: str, tiny: bool = False) -> Workload:
    wl = WORKLOADS[name]
    return replace(wl, **TINY[name]) if tiny else wl


def cli_config(wl: Workload, seed: int, out_dir: str) -> dict:
    """Run config of a ``cli`` workload (Poisson noise seeded by ``seed``)."""
    return {
        "geometry": {"grid": {"nx": wl.n, "ny": wl.n, "pixel_size": 2.0 / wl.n},
                     "kind": "parallel", "n_views": wl.n_views, "n_dets": wl.n_dets},
        "mask": {"n_keep": wl.n_keep},
        "phantom": {"kind": "shepp-logan-modified"},
        "noise": {"model": "poisson-transmission", "photons": 1e5, "seed": seed},
        "lambda": 10.0,
        "regularizers": {"image": {"source": "tv"}, "sinogram": {"source": "tv"}},
        "mode": {"type": "phases", "phases": wl.phases},
        "output": out_dir,
    }


def library_setup(wl: Workload, seed: int):
    """Phantom, noisy sparse measurement and initial state, via the library API.

    Returns (truth, geometry, mask, measured, initial state).
    """
    import dualct

    grid = dualct.GridSpec(wl.n, wl.n, 2.0 / wl.n)
    geo = dualct.parallel_geometry(wl.n_views, wl.n_dets, grid)
    mask = dualct.uniform_mask(wl.n_views, wl.n_keep)
    truth = dualct.make_phantom(dualct.PhantomSpec("shepp-logan-modified", grid))
    noise = dualct.NoiseSpec("gaussian", sigma=0.01, seed=seed)
    measured, _ = dualct.simulate_measurement(truth, geo, mask, noise)
    return truth, geo, mask, measured, dualct.initialize(measured, geo, mask)


def library_problem(wl: Workload, seed: int, geo, mask, measured):
    """(ProblemSpec, SolverParams) of a ``library`` workload."""
    import dualct

    if wl.regularizer == "tv":
        w = dualct.make_tv_weights(scale=0.002)
        image_w = sino_w = w
    else:
        image_w = dualct.make_random_weights(seed, n_layers=3, n_channels=8,
                                             kernel=(3, 3))
        sino_w = dualct.make_random_weights(seed + 1, n_layers=3, n_channels=8,
                                            kernel=(3, 15))
    spec = dualct.ProblemSpec(geo, mask, measured, lam=10.0,
                              image_weights=image_w, sino_weights=sino_w)
    return spec, dualct.SolverParams(max_iters=wl.max_iters)


FBP_MARGIN_DB = 3.0


def output_checks(phi_pairs, arrays, psnr_db: float, fbp_psnr_db: float) -> list[str]:
    """Failed output checks of one reconstruction (empty when all pass).

    ``phi_pairs`` are the logged (phi_before, phi_after) of every iteration;
    ``arrays`` are the output fields; the reconstruction must beat the
    zero-filled FBP of the same measurement by FBP_MARGIN_DB.
    """
    import numpy as np

    failed = []
    if any(not after <= before for before, after in phi_pairs):
        failed.append("objective increased on a logged iteration")
    if not (all(np.all(np.isfinite(a)) for a in arrays) and math.isfinite(psnr_db)):
        failed.append("non-finite output")
    if not psnr_db >= fbp_psnr_db + FBP_MARGIN_DB:
        failed.append(f"recon PSNR {psnr_db:.3f} dB is not {FBP_MARGIN_DB} dB above "
                      f"zero-filled FBP ({fbp_psnr_db:.3f} dB)")
    return failed

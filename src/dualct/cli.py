"""Command-line pipeline: phantom -> simulate -> init -> reconstruct -> metrics.

Every command reads the YAML run config, writes its declared artifacts
into the output directory, and prints a one-line summary. Exit codes:
0 success, 2 config error, 3 I/O error or bad input data, 4 numerical error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__, io, metrics as metrics_mod
from .errors import ConfigError, FormatError, InputError, NumericalError, SolverError
from .lanes import usable_cpus
from .objective import DualState, ProblemSpec
from .simdata import initialize, make_phantom, simulate_measurement
from .solver import run as solver_run
from .tomo import (Sinogram, fbp_reconstruct, seed_system_matrix, system_matrix,
                   zero_fill_views)

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


class _Setup:
    """Everything derivable from one run config; every section is read and
    checked on construction, so a bad key fails every command alike."""

    def __init__(self, config_path):
        self.config_path = Path(config_path)
        cfg = io.load_config(self.config_path)
        self.geometry = io.geometry_from_config(cfg.get("geometry"))
        n_views = self.geometry.n_views_full
        self.mask = io.mask_from_config(cfg.get("mask", {"n_keep": n_views}), n_views)
        self.phantom = io.phantom_from_config(cfg.get("phantom"), self.geometry.grid)
        self.noise = io.noise_from_config(cfg.get("noise"))
        regs = io.read_section(cfg.get("regularizers"), "regularizers",
                               dict.fromkeys(("image", "sinogram")))
        self.image_weights = io.weights_from_config(regs.get("image"), "image")
        self.sino_weights = io.weights_from_config(regs.get("sinogram"), "sinogram")
        self.lam = cfg.get("lambda", ProblemSpec.lam)
        self.params = io.solver_params_from_config(cfg.get("solver"), cfg.get("mode"))
        self.out_dir = Path(cfg.get("output", "."))

    def out(self, name) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return self.out_dir / name

    def write_manifest(self, command, **extra):
        manifest = {
            "command": command,
            "config": str(self.config_path),
            "config_sha256": io.config_hash(self.config_path),
            "noise_seed": self.noise.seed,
            **_numeric_environment(),
            **extra,
        }
        with open(self.out(f"manifest_{command}.json"), "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _numeric_environment() -> dict:
    """What the floating-point results depend on beyond the inputs: library
    versions, the BLAS build and the thread settings it reads (the conv
    layers sum over channels inside BLAS, in an order that can change with
    the thread count), and the cores this process may use. scipy is
    imported here, not at module level, so that commands building no
    matrix never load it."""
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "versions": {"dualct": __version__, "numpy": np.__version__, "scipy": scipy.__version__,
                     "python": platform.python_version()},
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": usable_cpus(),
    }


def _load_sparse(setup: _Setup) -> Sinogram:
    path = setup.out("measured.f64")
    sparse = io.load_sinogram(path, setup.geometry)
    if not np.array_equal(sparse.view_indices, setup.mask.indices()):
        raise InputError(f"{path}: view_indices do not match the config's mask")
    return sparse


def _load_system_matrix(setup: _Setup) -> str | None:
    """Seeds the projector cache with the A that ``simulate`` saved; the
    file it came from, or None when A is to be traced. A file that is
    refused is named in one line on stderr."""
    path = setup.out(io.SYSTEM_MATRIX_FILE)
    if not path.exists():
        return None
    try:
        arrays = io.load_system_matrix(path, setup.geometry)
    except (FormatError, OSError) as exc:
        print(f"system matrix traced again: {exc}", file=sys.stderr)
        return None
    return str(path) if seed_system_matrix(setup.geometry, *arrays) else None


def cmd_phantom(setup: _Setup) -> str:
    img = make_phantom(setup.phantom)
    io.save_image(setup.out("phantom.f64"), img)
    io.export_pgm(setup.out("phantom.pgm"), img.values)
    return f"phantom {img.grid.nx}x{img.grid.ny} -> {setup.out('phantom.f64')}"


def cmd_simulate(setup: _Setup) -> str:
    img = io.load_image(setup.out("phantom.f64"), setup.geometry.grid)
    s, z_true = simulate_measurement(img, setup.geometry, setup.mask, setup.noise)
    io.save_sinogram(setup.out("measured.f64"), s)
    io.save_sinogram(setup.out("sino_full.f64"), z_true)
    io.save_system_matrix(setup.out(io.SYSTEM_MATRIX_FILE), setup.geometry,
                          system_matrix(setup.geometry))
    return (f"simulated {s.n_views}/{setup.geometry.n_views_full} views "
            f"x {setup.geometry.n_dets} dets (noise: {setup.noise.model})")


def cmd_init(setup: _Setup) -> str:
    state = initialize(_load_sparse(setup), setup.geometry, setup.mask)
    io.save_image(setup.out("x0.f64"), state.x)
    io.save_sinogram(setup.out("z0.f64"), state.z)
    return f"initialized x0/z0 -> {setup.out_dir}"


def cmd_fbp(setup: _Setup, window="ram-lak") -> str:
    sparse = _load_sparse(setup)
    img = fbp_reconstruct(zero_fill_views(sparse), setup.geometry, window=window)
    io.save_image(setup.out("fbp.f64"), img)
    io.export_pgm(setup.out("fbp.pgm"), img.values)
    return f"FBP ({window}, zero-filled sparse views) -> {setup.out('fbp.f64')}"


def cmd_reconstruct(setup: _Setup) -> str:
    measured = _load_sparse(setup)
    loaded_from = _load_system_matrix(setup)
    x0_path = setup.out("x0.f64")
    if x0_path.exists():
        state0 = DualState(io.load_image(x0_path, setup.geometry.grid),
                           io.load_sinogram(setup.out("z0.f64"), setup.geometry))
    else:
        state0 = initialize(measured, setup.geometry, setup.mask)
    spec = ProblemSpec(setup.geometry, setup.mask, measured,
                       lam=setup.lam, image_weights=setup.image_weights,
                       sino_weights=setup.sino_weights)
    try:
        final, log = solver_run(spec, state0, setup.params)
    except SolverError as exc:
        if exc.log is not None:
            exc.log.write_csv(setup.out("iterations.csv"))
            exc.log.write_json(setup.out("iterations.json"))
        raise
    io.save_image(setup.out("recon.f64"), final.x)
    io.export_pgm(setup.out("recon.pgm"), final.x.values)
    io.save_sinogram(setup.out("recon_sino.f64"), final.z)
    log.write_csv(setup.out("iterations.csv"))
    log.write_json(setup.out("iterations.json"))
    setup.write_manifest("reconstruct", system_matrix={
        "source": "loaded" if loaded_from else "built", "file": loaded_from,
        "threads": system_matrix(setup.geometry).threads})
    last = log.records[-1] if log.records else None
    tail = (f"{len(log)} iters, final grad {last.grad_norm:.3e}, eps {last.eps:.3e}"
            if last else "0 iters")
    return f"reconstruction done ({tail}) -> {setup.out('recon.f64')}"


def cmd_metrics(test_path, ref_path, data_range=None, out_path=None) -> str:
    if data_range is not None and not 0 < data_range < float("inf"):
        raise ConfigError(f"--data-range must be a positive finite number, got {data_range}")
    test, _ = io.load_array(test_path)
    ref, _ = io.load_array(ref_path)
    try:
        rep = metrics_mod.report(test, ref, data_range=data_range)
    except InputError as exc:
        raise InputError(f"{test_path} vs {ref_path}: {exc}") from None
    if out_path:
        rep.write_json(out_path)
    psnr_txt = "inf" if rep.psnr_db == float("inf") else f"{rep.psnr_db:.4f}"
    return f"psnr {psnr_txt} dB, ssim {rep.ssim:.6f} (range {rep.data_range:g})"


def cmd_weights(kind, out_path, domain="image", seed=0) -> str:
    if kind not in ("tv", "random"):
        raise ConfigError(f"unknown weight kind {kind!r}")
    cfg = {"source": kind, "seed": seed} if kind == "random" else {"source": kind}
    stack = io.weights_from_config(cfg, domain)
    io.save_weights(stack, out_path)
    return f"{kind} weights ({stack.n_layers} layers, {stack.out_channels} ch) -> {out_path}"


def _seed_arg(text: str) -> int:
    """Value of ``--seed``: numpy's generators take no negative seed."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dualct",
                                     description="Dual-domain sparse-view CT reconstruction")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("phantom", "simulate", "init", "reconstruct"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)

    p = sub.add_parser("fbp")
    p.add_argument("--config", required=True)
    p.add_argument("--window", default="ram-lak", choices=["ram-lak", "hann"])

    p = sub.add_parser("metrics")
    p.add_argument("--test", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--data-range", type=float, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("weights")
    p.add_argument("--kind", required=True, choices=["tv", "random"])
    p.add_argument("--out", required=True)
    p.add_argument("--domain", default="image", choices=["image", "sinogram"])
    p.add_argument("--seed", type=_seed_arg, default=0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "metrics":
            summary = cmd_metrics(args.test, args.ref, args.data_range, args.out)
        elif args.command == "weights":
            summary = cmd_weights(args.kind, args.out, args.domain, args.seed)
        else:
            setup = _Setup(args.config)
            if args.command == "fbp":
                summary = cmd_fbp(setup, window=args.window)
            else:
                summary = {"phantom": cmd_phantom, "simulate": cmd_simulate,
                           "init": cmd_init, "reconstruct": cmd_reconstruct}[args.command](setup)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FormatError, InputError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (SolverError, NumericalError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())

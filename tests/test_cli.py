import copy
import json
import math
import os
import re
import string
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.sparse
import yaml
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dualct import io, tomo
from dualct.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL, _Setup, cmd_weights, main
from dualct.errors import ConfigError
from dualct.metrics import psnr
from dualct.regularizer import make_random_weights, make_tv_weights
from dualct.solver import SolverParams


ABSENT = object()  # an override value that drops the section


def run_fresh(script):
    """Run ``script`` in a fresh interpreter that imports this package."""
    src = str(Path(io.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def base_config(tmp_path):
    return {
        "geometry": {
            "grid": {"nx": 16, "ny": 16, "pixel_size": 0.125},
            "kind": "parallel",
            "n_views": 24,
            "n_dets": 23,
        },
        "mask": {"n_keep": 8},
        "phantom": {"kind": "disk"},
        "lambda": 10.0,
        "regularizers": {
            "image": {"source": "tv"},
            "sinogram": {"source": "tv"},
        },
        "solver": {"max_iters": 20},
        "output": str(tmp_path / "out"),
    }


def write_config(tmp_path, **overrides):
    cfg = {**base_config(tmp_path), **overrides}
    cfg = {key: val for key, val in cfg.items() if val is not ABSENT}
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


class TestPipeline:
    def test_full_pipeline(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        for cmd in ("phantom", "simulate", "init", "fbp", "reconstruct"):
            assert main([cmd, "--config", str(cfg)]) == 0, cmd
        for name in ("phantom.f64", "phantom.pgm", "measured.f64",
                     "sino_full.f64", "x0.f64", "z0.f64", "fbp.f64",
                     "recon.f64", "recon.pgm", "recon_sino.f64",
                     "iterations.csv", "iterations.json",
                     "manifest_reconstruct.json"):
            assert (out / name).exists(), name

        assert main(["metrics", "--test", str(out / "recon.f64"),
                     "--ref", str(out / "phantom.f64"),
                     "--out", str(out / "metrics.json")]) == 0
        with open(out / "metrics.json") as fh:
            rep = json.load(fh)
        assert rep["psnr_db"] == "inf" or rep["psnr_db"] > 0

    def test_scipy_loaded_only_to_build_a_matrix(self, tmp_path):
        cfg = write_config(tmp_path)
        for cmd in ("phantom", "simulate"):
            assert main([cmd, "--config", str(cfg)]) == 0, cmd
        out = tmp_path / "out"
        # a fresh interpreter, as this one has scipy loaded already
        script = f"""
import sys
from dualct.cli import main
cfg = {str(cfg)!r}
metrics = ["metrics", "--test", {str(out / "fbp.f64")!r}, "--ref", {str(out / "phantom.f64")!r}]
for argv in (["phantom", "--config", cfg], ["init", "--config", cfg],
             ["fbp", "--config", cfg], metrics):
    assert main(argv) == 0, argv
    assert not [m for m in sys.modules if m.split(".")[0] == "scipy"], argv
assert main(["simulate", "--config", cfg]) == 0
assert "scipy.sparse" in sys.modules
"""
        run_fresh(script)

    def test_import_loads_neither_io_nor_yaml(self):
        script = """
import sys
import dualct
assert "dualct.io" not in sys.modules and "yaml" not in sys.modules, sorted(sys.modules)
"""
        run_fresh(script)

    def test_import_loads_neither_scipy_nor_a_thread_pool(self):
        script = """
import sys
import dualct
loaded = [m for m in sys.modules if m.split(".")[0] in ("scipy", "concurrent")]
assert not loaded, loaded
"""
        run_fresh(script)

    def test_solve_starts_no_thread(self):
        # cnn32's problem (its 8 -> 8, 3x15 sinogram layer on 90x47 takes
        # 12.4M multiply-adds) and a 128^2 matrix of 3.84M nonzeros. scipy.sparse
        # imports concurrent.futures itself, but not its thread pool module.
        script = """
import sys
import threading
import numpy as np
import dualct
from dualct.tomo import system_matrix

grid = dualct.GridSpec(32, 32, 2.0 / 32)
geo = dualct.parallel_geometry(90, 47, grid)
mask = dualct.uniform_mask(90, 30)
truth = dualct.make_phantom(dualct.PhantomSpec("shepp-logan-modified", grid))
measured, _ = dualct.simulate_measurement(truth, geo, mask,
                                          dualct.NoiseSpec("gaussian", sigma=0.01, seed=0))
spec = dualct.ProblemSpec(
    geo, mask, measured, lam=10.0,
    image_weights=dualct.make_random_weights(0, n_layers=3, n_channels=8, kernel=(3, 3)),
    sino_weights=dualct.make_random_weights(1, n_layers=3, n_channels=8, kernel=(3, 15)))
dualct.run(spec, dualct.initialize(measured, geo, mask), dualct.SolverParams(max_iters=1))
mat = system_matrix(dualct.parallel_geometry(180, 185, dualct.GridSpec(128, 128, 2.0 / 128)))
assert mat.nnz >= 1_000_000, mat.nnz
mat.T @ (mat @ np.ones(mat.shape[1]))
assert threading.active_count() == 1, threading.enumerate()
assert "concurrent.futures.thread" not in sys.modules
"""
        run_fresh(script)

    def test_manifest_without_cpu_affinity(self, tmp_path, monkeypatch):
        # platforms such as macOS have no os.sched_getaffinity
        monkeypatch.delattr(os, "sched_getaffinity")
        cfg = write_config(tmp_path)
        for cmd in ("phantom", "simulate", "reconstruct"):
            assert main([cmd, "--config", str(cfg)]) == 0, cmd
        with open(tmp_path / "out" / "manifest_reconstruct.json") as fh:
            assert json.load(fh)["nproc"] == os.cpu_count()

    def test_manifest_contents(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        cfg = write_config(tmp_path)
        for cmd in ("phantom", "simulate", "reconstruct"):
            assert main([cmd, "--config", str(cfg)]) == 0
        with open(tmp_path / "out" / "manifest_reconstruct.json") as fh:
            manifest = json.load(fh)
        assert manifest["command"] == "reconstruct"
        assert manifest["config_sha256"] == io.config_hash(cfg)
        assert set(manifest["versions"]) == {"dualct", "numpy", "scipy", "python"}
        assert manifest["versions"]["scipy"] == scipy.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert manifest["blas"] == {"name": blas["name"], "version": blas["version"]}
        assert manifest["threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
                                       "MKL_NUM_THREADS": None}
        assert manifest["nproc"] == len(os.sched_getaffinity(0)) >= 1

    def test_reconstruction_deterministic(self, tmp_path):
        cfg = write_config(tmp_path)
        for cmd in ("phantom", "simulate", "init"):
            assert main([cmd, "--config", str(cfg)]) == 0
        assert main(["reconstruct", "--config", str(cfg)]) == 0
        first = (tmp_path / "out" / "recon.f64").read_bytes()
        assert main(["reconstruct", "--config", str(cfg)]) == 0
        second = (tmp_path / "out" / "recon.f64").read_bytes()
        assert first == second

    def test_iteration_log_well_formed(self, tmp_path):
        cfg = write_config(tmp_path)
        for cmd in ("phantom", "simulate", "reconstruct"):
            assert main([cmd, "--config", str(cfg)]) == 0
        with open(tmp_path / "out" / "iterations.json") as fh:
            log = json.load(fh)
        assert len(log["iterations"]) >= 1
        for rec in log["iterations"]:
            assert rec["phi_after"] <= rec["phi_before"] + 1e-12
            assert rec["branch"] in ("EDC", "BCD")

    def test_fbp_hann_window(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["phantom", "--config", str(cfg)]) == 0
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert main(["fbp", "--config", str(cfg), "--window", "hann"]) == 0


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-8])


def _other_det_spacing(path):
    sidecar = json.loads(Path(f"{path}.json").read_text())
    sidecar["geometry"]["det_spacing"] *= 1.5
    Path(f"{path}.json").write_text(json.dumps(sidecar))


def _index_off_grid(path):
    sidecar = json.loads(Path(f"{path}.json").read_text())
    assert sidecar["dtypes"]["indptr"] == sidecar["dtypes"]["indices"] == "<i4"
    n_rows, n_pix = sidecar["shape"]
    raw = bytearray(path.read_bytes())
    first = (n_rows + 1) * 4  # the first column index, after indptr
    raw[first:first + 4] = np.int32(n_pix).tobytes()
    path.write_bytes(bytes(raw))


class TestSystemMatrixFile:
    """``simulate`` saves A; ``reconstruct`` loads it, or traces A again
    when the file is missing or refused, with the same outputs."""

    OUTPUTS = ("recon.f64", "iterations.csv", "iterations.json")

    @pytest.fixture
    def simulated(self, tmp_path):
        cfg = write_config(tmp_path)
        for cmd in ("phantom", "simulate", "init"):
            assert main([cmd, "--config", str(cfg)]) == 0
        return cfg, tmp_path / "out" / io.SYSTEM_MATRIX_FILE

    def _reconstruct(self, cfg, capsys):
        """Outputs, the manifest's ``system_matrix`` and stderr of a
        reconstruct run with an empty matrix cache, as in a new process."""
        tomo._cached_system_matrix.cache_clear()
        capsys.readouterr()
        assert main(["reconstruct", "--config", str(cfg)]) == 0
        out = cfg.parent / "out"
        manifest = json.loads((out / "manifest_reconstruct.json").read_text())
        return ({name: (out / name).read_bytes() for name in self.OUTPUTS},
                manifest["system_matrix"], capsys.readouterr().err)

    def test_same_outputs_with_and_without_the_file(self, simulated, capsys):
        cfg, path = simulated
        loaded, how, err = self._reconstruct(cfg, capsys)
        assert how == {"source": "loaded", "file": str(path), "quarter_turns": 2}
        assert err == ""
        path.unlink()
        Path(f"{path}.json").unlink()
        built, how, err = self._reconstruct(cfg, capsys)
        assert how == {"source": "built", "file": None, "quarter_turns": 2}
        assert err == ""
        assert built == loaded

    @pytest.mark.parametrize("damage", [_truncate, _other_det_spacing, _index_off_grid])
    def test_refused_file_is_traced_again(self, simulated, capsys, damage):
        cfg, path = simulated
        want, _, _ = self._reconstruct(cfg, capsys)
        damage(path)
        got, how, err = self._reconstruct(cfg, capsys)
        assert got == want
        assert how == {"source": "built", "file": None, "quarter_turns": 2}
        assert len(err.splitlines()) == 1 and str(path) in err

    def test_format_1_file_is_traced_again(self, simulated, capsys):
        # format 1 held every row of A and no quarter_turns; the file and
        # its sidecar are laid out here as format 1 wrote them
        cfg, path = simulated
        want, _, _ = self._reconstruct(cfg, capsys)
        geo = _Setup(cfg).geometry
        full = scipy.sparse.csr_matrix(tomo.system_matrix(geo).toarray())
        arrays = (full.indptr, full.indices, full.data)
        with open(path, "wb") as fh:
            for a in arrays:
                a.tofile(fh)
        Path(f"{path}.json").write_text(json.dumps({
            "format": 1, "shape": list(full.shape), "nnz": int(full.nnz),
            "dtypes": {name: a.dtype.str for name, a in zip(("indptr", "indices", "data"), arrays)},
            "geometry": io._geometry_record(geo)}))
        got, how, err = self._reconstruct(cfg, capsys)
        assert got == want
        assert how == {"source": "built", "file": None, "quarter_turns": 2}
        assert len(err.splitlines()) == 1 and str(path) in err and "format" in err


class TestWeightsCommand:
    def test_tv_and_random(self, tmp_path):
        tv_path = tmp_path / "tv.f64"
        assert main(["weights", "--kind", "tv", "--out", str(tv_path)]) == 0
        assert tv_path.exists()
        rnd_path = tmp_path / "rnd.f64"
        assert main(["weights", "--kind", "random", "--out", str(rnd_path),
                     "--domain", "sinogram", "--seed", "5"]) == 0
        stack = io.load_weights(rnd_path)
        assert stack.layers[0].shape[2:] == (3, 15)

    @pytest.mark.parametrize("kind, domain, expected", [
        ("tv", "image", lambda: make_tv_weights()),
        ("tv", "sinogram", lambda: make_tv_weights()),
        ("random", "image", lambda: make_random_weights(5, kernel=(3, 3))),
        ("random", "sinogram", lambda: make_random_weights(5, kernel=(3, 15))),
    ])
    def test_bytes_match_direct_construction(self, tmp_path, kind, domain, expected):
        out, ref = tmp_path / "cli.f64", tmp_path / "ref.f64"
        assert main(["weights", "--kind", kind, "--out", str(out),
                     "--domain", domain, "--seed", "5"]) == 0
        io.save_weights(expected(), ref)
        assert out.read_bytes() == ref.read_bytes()
        assert Path(f"{out}.json").read_text() == Path(f"{ref}.json").read_text()

    @pytest.mark.parametrize("kind", ["none", "file", "bogus"])
    def test_unknown_kind(self, tmp_path, kind):
        with pytest.raises(ConfigError):
            cmd_weights(kind, tmp_path / "w.f64")


class TestExitCodes:
    def test_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("geometry:\n  grid: {nx: 8, ny: 8}\n  n_views: 4\n")
        assert main(["phantom", "--config", str(path)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_io_error_missing_file(self, tmp_path, capsys):
        assert main(["metrics", "--test", str(tmp_path / "no.f64"),
                     "--ref", str(tmp_path / "no.f64")]) == EXIT_IO
        assert "i/o error" in capsys.readouterr().err

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin.yaml"
        path.write_bytes(b"geometry: \xff\xfe\n")
        assert main(["phantom", "--config", str(path)]) == EXIT_IO
        err = capsys.readouterr().err
        assert "malformed config" in err and "latin.yaml" in err

    def test_utf16_config_with_bom_loads(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(base_config(tmp_path)), encoding="utf-16")
        assert main(["phantom", "--config", str(path)]) == 0
        assert (tmp_path / "out" / "phantom.f64").exists()

    def test_io_error_missing_config(self, tmp_path):
        assert main(["phantom", "--config", str(tmp_path / "no.yaml")]) == EXIT_IO

    def test_simulate_without_phantom(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg)]) == EXIT_IO

    def test_image_from_another_grid_refused(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        for cmd in ("phantom", "simulate", "init"):
            assert main([cmd, "--config", str(cfg)]) == 0, cmd
        grid = {"nx": 16, "ny": 16, "pixel_size": 1.0}
        cfg = write_config(tmp_path, geometry={**base_config(tmp_path)["geometry"], "grid": grid})
        capsys.readouterr()
        # reconstruct would refuse the old measured.f64 before x0.f64, so a
        # measurement of the new grid is made once the old phantom is refused
        for cmds, name in ((["simulate"], "phantom.f64"),
                           (["phantom", "simulate", "reconstruct"], "x0.f64")):
            for cmd in cmds[:-1]:
                assert main([cmd, "--config", str(cfg)]) == 0, cmd
            assert main([cmds[-1], "--config", str(cfg)]) == EXIT_IO, cmds[-1]
            err = capsys.readouterr().err
            assert err.startswith("i/o error: ") and name in err and "pixel_size 0.125" in err
        assert not (tmp_path / "out" / "recon.f64").exists()

    def test_measurement_from_another_grid_refused(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        for cmd in ("phantom", "simulate", "init"):
            assert main([cmd, "--config", str(cfg)]) == 0, cmd
        x0 = (tmp_path / "out" / "x0.f64").read_bytes()
        grid = {"nx": 16, "ny": 16, "pixel_size": 1.0}
        cfg = write_config(tmp_path, geometry={**base_config(tmp_path)["geometry"], "grid": grid})
        capsys.readouterr()
        assert main(["init", "--config", str(cfg)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and "measured.f64 is a sinogram" in err
        assert (tmp_path / "out" / "x0.f64").read_bytes() == x0

    @pytest.mark.parametrize("edit, message", [
        ({"grid": {"nx": 8, "ny": 16, "pixel_size": 0.125}}, "nx 16, the geometry has 8"),
        ({"kind": "fan"}, "kind parallel, the geometry has fan"),
    ], ids=["nx", "fan"])
    def test_measurement_from_another_scan_refused(self, tmp_path, capsys, edit, message):
        # an explicit det_spacing, so that only the edited field differs
        geometry = {**base_config(tmp_path)["geometry"], "det_spacing": 0.1}
        cfg = write_config(tmp_path, geometry=geometry)
        for cmd in ("phantom", "simulate", "init"):
            assert main([cmd, "--config", str(cfg)]) == 0, cmd
        x0 = (tmp_path / "out" / "x0.f64").read_bytes()
        cfg = write_config(tmp_path, geometry={**geometry, **edit})
        capsys.readouterr()
        for cmd in ("init", "reconstruct"):
            assert main([cmd, "--config", str(cfg)]) == EXIT_IO, cmd
            err = capsys.readouterr().err
            assert err.startswith("i/o error: ")
            assert f"measured.f64 is a sinogram with {message}" in err
        assert (tmp_path / "out" / "x0.f64").read_bytes() == x0
        assert not (tmp_path / "out" / "recon.f64").exists()

    def test_sparse_z0_refused(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        for cmd in ("phantom", "simulate", "init"):
            assert main([cmd, "--config", str(cfg)]) == 0, cmd
        out = tmp_path / "out"
        for suffix in ("", ".json"):
            (out / f"z0.f64{suffix}").write_bytes((out / f"measured.f64{suffix}").read_bytes())
        capsys.readouterr()
        assert main(["reconstruct", "--config", str(cfg)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and "z0.f64 holds 8 of the 24 views" in err
        assert not (out / "recon.f64").exists()

    def test_unknown_solver_knob(self, tmp_path):
        cfg = write_config(tmp_path, solver={"bogus": 1})
        assert main(["phantom", "--config", str(cfg)]) == EXIT_CONFIG

    @pytest.mark.parametrize("solver", [{"max_iters": 5.5}, {"max_iters": True},
                                        {"eps_tol": "tiny"}])
    def test_mistyped_solver_knob(self, tmp_path, capsys, solver):
        cfg = write_config(tmp_path, solver=solver)
        assert main(["reconstruct", "--config", str(cfg)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("key, overrides", [
        ("lambda", {"lambda": "abc"}),
        ("noise.sigma", {"noise": {"model": "gaussian", "sigma": "abc"}}),
        ("grid.nx", {"geometry": {"grid": {"nx": "abc", "ny": 16}, "n_views": 24, "n_dets": 23}}),
        ("grid.nx", {"geometry": {"grid": {"nx": 16.7, "ny": 16}, "n_views": 24, "n_dets": 23}}),
        ("regularizers.image.channels",
         {"regularizers": {"image": {"source": "random", "channels": "abc"}}}),
        ("geometry", {"geometry": ABSENT}),
        ("geometry.grid", {"geometry": {"grid": 5, "n_views": 24, "n_dets": 23}}),
        ("mask.selected", {"mask": {"selected": 3}}),
        ("noise", {"noise": 5}),
        ("phantom", {"phantom": 7}),
        ("regularizers", {"regularizers": ["tv"]}),
        ("regularizers.image", {"regularizers": {"image": "tv"}}),
        ("phantom.ellipses", {"phantom": {"kind": "custom-ellipses", "ellipses": [5]}}),
        ("phantom.ellipses", {"phantom": {"kind": "custom-ellipses", "ellipses": 5}}),
        ("solver", {"solver": [1]}),
        ("mode", {"mode": "phases"}),
        ("output", {"output": 5}),
        ("lamda", {"lamda": 0.5}),
        ("noise.sigm", {"noise": {"sigm": 0.5}}),
        ("noise.sigma", {"noise": {"model": "poisson-transmission", "sigma": 0.5}}),
        ("geometry.det_spacng", {"geometry": {"grid": {"nx": 16, "ny": 16}, "n_views": 24,
                                              "n_dets": 23, "det_spacng": 0.5}}),
        ("geometry.source_radius", {"geometry": {"grid": {"nx": 16, "ny": 16}, "n_views": 24,
                                                 "n_dets": 23, "source_radius": 3.0}}),
        ("regularizers.image.layers",
         {"regularizers": {"image": {"source": "tv", "layers": 2}}}),
        ("mode.phases", {"mode": {"type": "converge", "phases": 3}}),
        ("phantom.ellipses", {"phantom": {"ellipses": [[1.0, 0.5, 0.5, 0.0, 0.0, 0.0]]}}),
        ("mask", {"mask": {"n_keep": 8, "selected": [0, 3]}}),
        ("unknown key geometry.source_to_detector",
         {"geometry": {"grid": {"nx": 16, "ny": 16}, "kind": "fan", "n_views": 24,
                       "n_dets": 23, "source_to_detector": 8}}),
        ("unknown geometry.kind 'fan-beam-equiangular'",
         {"geometry": {"grid": {"nx": 16, "ny": 16}, "kind": "fan-beam-equiangular",
                       "n_views": 24, "n_dets": 23}}),
    ])
    def test_mistyped_config_value(self, tmp_path, capsys, key, overrides):
        cfg = write_config(tmp_path, **overrides)
        assert main(["phantom", "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and key in err

    def test_non_finite_safeguard_step(self, tmp_path, capsys):
        cfg = write_config(tmp_path, solver={
            "max_iters": 5, "eta": 1e10, "bar_alpha0": 1e300,
            "bar_beta0": 1e300, "max_backtracks": 2000})
        for cmd in ("phantom", "simulate"):
            assert main([cmd, "--config", str(cfg)]) == 0
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["reconstruct", "--config", str(cfg)]) == EXIT_NUMERICAL
        assert "non-finite" in capsys.readouterr().err
        assert (tmp_path / "out" / "iterations.csv").exists()

    @pytest.mark.parametrize("overrides, solver, scale, message", [
        ({"lambda": 1e200}, {}, 0.002, "increase max_backtracks"),
        ({"lambda": 1e155}, {}, 0.002, "increase max_backtracks"),
        ({"lambda": 1e30}, {"bar_alpha0": 1e300}, 0.002, "increase max_backtracks"),
        ({}, {}, 1e160, "overflowed"),
        ({}, {}, 1e100, "increase max_backtracks"),
    ], ids=["lambda-1e200", "lambda-1e155", "bar-step-1e300", "tv-1e160", "tv-1e100"])
    def test_extreme_finite_reals(self, tmp_path, capsys, overrides, solver, scale, message):
        # finite values whose Lipschitz estimate or backtrack count is out
        # of float range: the guard must refuse them before iteration 0,
        # with no traceback and without taking an overflowed estimate for 0
        cfg = write_config(tmp_path, **overrides, solver={"max_iters": 5, **solver},
                           regularizers={"image": {"source": "tv", "scale": scale}})
        for cmd in ("phantom", "simulate"):
            assert main([cmd, "--config", str(cfg)]) == 0
        assert main(["reconstruct", "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err

    @staticmethod
    def _nan_payload(path):
        values, _ = io.load_array(path)
        values[0, 0] = np.nan
        path.write_bytes(values.astype("<f8").tobytes())

    @pytest.mark.parametrize("damage, message", [
        (_nan_payload, "non-finite"),
        (lambda p: Path(f"{p}.json").write_text("{not json"), "bad sidecar"),
        (lambda p: Path(f"{p}.json").write_text('{"dtype": "<f8"}'), "shape must be a list"),
    ])
    def test_bad_array_file(self, tmp_path, capsys, damage, message):
        cfg = write_config(tmp_path)
        for cmd in ("phantom", "simulate"):
            assert main([cmd, "--config", str(cfg)]) == 0
        damage(tmp_path / "out" / "measured.f64")
        assert main(["init", "--config", str(cfg)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and message in err and "measured.f64" in err

    @staticmethod
    def _set_view_indices(path, value):
        sidecar = Path(f"{path}.json")
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()),
                                       "view_indices": value}))

    @pytest.mark.parametrize("value", ["abc", [[1, 2]], 1.5, [True]])
    def test_mistyped_view_indices(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path)
        for cmd in ("phantom", "simulate"):
            assert main([cmd, "--config", str(cfg)]) == 0
        self._set_view_indices(tmp_path / "out" / "measured.f64", value)
        assert main(["init", "--config", str(cfg)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("i/o error: bad sidecar ") and "measured.f64.json" in err
        assert "view_indices" in err

    def test_negative_view_index(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        for cmd in ("phantom", "simulate"):
            assert main([cmd, "--config", str(cfg)]) == 0
        # the mask keeps views 0, 3, ..., 21; -1 would alias view 23
        self._set_view_indices(tmp_path / "out" / "measured.f64", [-1, *range(3, 24, 3)])
        assert main(["fbp", "--config", str(cfg)]) == EXIT_IO
        assert "view index out of range" in capsys.readouterr().err
        assert not (tmp_path / "out" / "fbp.f64").exists()

    @pytest.mark.parametrize("cmd", ["fbp", "init", "reconstruct"])
    def test_measurement_off_the_mask(self, tmp_path, capsys, cmd):
        cfg = write_config(tmp_path)
        for step in ("phantom", "simulate"):
            assert main([step, "--config", str(cfg)]) == 0
        # the mask keeps views 0, 3, ..., 21
        self._set_view_indices(tmp_path / "out" / "measured.f64", list(range(1, 24, 3)))
        assert main([cmd, "--config", str(cfg)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and "measured.f64" in err and "mask" in err
        assert not any((tmp_path / "out" / name).exists()
                       for name in ("fbp.f64", "x0.f64", "recon.f64"))

    @staticmethod
    def _unchecked(layer_shapes, delta=0.01):
        # a weight file whose sidecar declares what ConvStack would reject
        def write(path):
            io.save_weights(make_tv_weights(), path)
            sidecar = Path(f"{path}.json")
            sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()),
                                           "layer_shapes": layer_shapes,
                                           "activation_delta": delta}))
        return write

    @pytest.mark.parametrize("write, message", [
        # 65536**4 elements wrap to 0 in int64 arithmetic
        (_unchecked([[65536] * 4]), f"need {65536**4} values"),
        (_unchecked([[2, 1, 3, 3]], math.nan), "activation_delta"),
        (_unchecked([[0, 1, 3, 3], [2, 0, 3, 3]]), "at least 1"),
    ], ids=["overflow", "nan-delta", "zero-extent"])
    def test_bad_weight_file(self, tmp_path, capsys, write, message):
        path = tmp_path / "w.f64"
        write(path)
        cfg = write_config(tmp_path, regularizers={"image": {"source": "file", "path": str(path)}})
        assert main(["phantom", "--config", str(cfg)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and message in err and str(path) in err

    @pytest.mark.parametrize("key, overrides", [
        ("noise.seed", {"noise": {"model": "gaussian", "sigma": 0.1, "seed": -1}}),
        ("noise.seed", {"noise": {"model": "poisson-transmission", "photons": 1e4, "seed": -1}}),
        ("regularizers.image.seed", {"regularizers": {"image": {"source": "random", "seed": -1}}}),
        ("regularizers.sinogram.seed",
         {"regularizers": {"sinogram": {"source": "random", "seed": -5}}}),
    ])
    @pytest.mark.parametrize("cmd", ["phantom", "simulate"])
    def test_negative_config_seed(self, tmp_path, capsys, key, overrides, cmd):
        cfg = write_config(tmp_path, **overrides)
        assert main([cmd, "--config", str(cfg)]) == EXIT_CONFIG
        assert f"config error: {key} must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", "abc"])
    def test_bad_seed_flag(self, tmp_path, capsys, seed):
        with pytest.raises(SystemExit) as exc:
            main(["weights", "--kind", "random", "--out", str(tmp_path / "w.f64"),
                  "--seed", seed])
        assert exc.value.code == EXIT_CONFIG
        assert "argument --seed: must be an integer >= 0" in capsys.readouterr().err
        assert not (tmp_path / "w.f64").exists()

    @pytest.mark.parametrize("random", [{"channels": 0}, {"channels": -1}, {"kernel": [-1, 3]}])
    def test_empty_random_weights(self, tmp_path, capsys, random):
        cfg = write_config(tmp_path, regularizers={"image": {"source": "random", **random}})
        assert main(["phantom", "--config", str(cfg)]) == EXIT_CONFIG
        assert "config error: random channels and kernel must be >= 1" in capsys.readouterr().err

    def test_single_view_mask_cannot_init(self, tmp_path, capsys):
        cfg = write_config(tmp_path, mask={"n_keep": 1})
        for cmd in ("phantom", "simulate"):
            assert main([cmd, "--config", str(cfg)]) == 0
        assert main(["init", "--config", str(cfg)]) == EXIT_IO
        assert capsys.readouterr().err.startswith("i/o error: need at least 2 views")

    @pytest.mark.parametrize("test_shape, ref_shape, message", [
        ((16, 16), (16, 12), "must share a shape"),
        ((8, 8), (8, 8), "at least 11x11"),
    ])
    def test_metrics_bad_arrays(self, tmp_path, capsys, rng, test_shape, ref_shape, message):
        io.save_array(tmp_path / "t.f64", rng.random(test_shape))
        io.save_array(tmp_path / "r.f64", rng.random(ref_shape))
        assert main(["metrics", "--test", str(tmp_path / "t.f64"),
                     "--ref", str(tmp_path / "r.f64")]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and message in err and "r.f64" in err

    @pytest.mark.parametrize("shape", [(), (11, 11, 11)])
    def test_metrics_not_2d(self, tmp_path, capsys, rng, shape):
        for name in ("t.f64", "r.f64"):
            io.save_array(tmp_path / name, rng.random(shape))
        assert main(["metrics", "--test", str(tmp_path / "t.f64"),
                     "--ref", str(tmp_path / "r.f64")]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and f"needs 2-D images, got shape {shape}" in err
        assert "r.f64" in err and "Traceback" not in err

    def test_metrics_of_weight_file(self, tmp_path, capsys):
        w = str(tmp_path / "w.f64")
        assert main(["weights", "--kind", "random", "--out", w]) == 0
        capsys.readouterr()
        assert main(["metrics", "--test", w, "--ref", w]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith(f"i/o error: {w} vs {w}: ssim needs 2-D images")
        assert "Traceback" not in err


# Every key name the run-config schema knows, in any section or variant.
KNOWN_KEYS = {
    "geometry", "mask", "phantom", "noise", "lambda", "regularizers", "solver", "mode",
    "output", "grid", "kind", "n_views", "n_dets", "det_spacing", "source_radius",
    "nx", "ny", "pixel_size", "origin", "n_keep", "selected",
    "ellipses", "model", "sigma", "photons", "seed", "image", "sinogram", "source",
    "layers", "channels", "kernel", "scale", "path", "type", "phases",
} | {f.name for f in fields(SolverParams)}

# Every section of the run config: root overrides that select a variant of
# it with numeric keys, its dotted path, and those keys.
SECTIONS = [
    ({}, "", ["lambda"]),
    ({}, "geometry", ["n_views", "n_dets", "det_spacing"]),
    ({"geometry": {"grid": {"nx": 16, "ny": 16}, "kind": "fan", "n_views": 24, "n_dets": 23}},
     "geometry", ["source_radius"]),
    ({}, "geometry.grid", ["nx", "ny", "pixel_size", "origin"]),
    ({}, "mask", ["n_keep", "selected"]),
    ({}, "phantom", ["ellipses"]),
    ({"noise": {"model": "gaussian"}}, "noise", ["sigma", "seed"]),
    ({"noise": {"model": "poisson-transmission"}}, "noise", ["photons", "seed"]),
    ({}, "regularizers", []),
    ({}, "regularizers.image", ["scale"]),
    ({"regularizers": {"image": {"source": "random"}}}, "regularizers.image",
     ["seed", "layers", "channels", "kernel", "scale"]),
    ({"regularizers": {"sinogram": {"source": "random"}}}, "regularizers.sinogram",
     ["seed", "layers", "channels", "kernel", "scale"]),
    ({}, "solver", [f.name for f in fields(SolverParams)]),
    ({"mode": {"type": "phases"}}, "mode", ["phases"]),
]


def _not_a_number(text):
    try:
        return not math.isfinite(float(text))
    except ValueError:
        return True


NON_NUMERIC = st.one_of(
    st.text(string.printable, max_size=6).filter(_not_a_number), st.booleans(), st.none(),
    st.sampled_from([math.nan, math.inf, "nan", "-inf"]),
    st.lists(st.text(string.ascii_letters, max_size=3), min_size=1, max_size=2))


def dotted(section, key):
    return f"{section}.{key}" if section else key


def write_with(tmp_path, overrides, section, key, value):
    """write_config with ``overrides`` and then ``key: value`` put into the
    section at dotted path ``section``."""
    cfg = {**base_config(tmp_path), **copy.deepcopy(overrides)}
    node = cfg
    for part in filter(None, section.split(".")):
        node = node.setdefault(part, {})
    node[key] = value
    return write_config(tmp_path, **cfg)


def readme_run_config(tmp_path):
    """The README's example run config, writing to ``tmp_path/out``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```yaml\n(# run\.yaml\n.*?)```", readme, re.S).group(1)
    path = tmp_path / "run.yaml"
    path.write_text(block.replace("output: out/", f"output: {tmp_path / 'out'}"))
    return path


class TestConfigSchema:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(SECTIONS), st.from_regex(r"[a-z][a-z_]{0,11}", fullmatch=True))
    def test_unknown_key_named(self, tmp_path, capsys, section, name):
        assume(name not in KNOWN_KEYS)
        overrides, path, _ = section
        cfg = write_with(tmp_path, overrides, path, name, 1)
        assert main(["phantom", "--config", str(cfg)]) == EXIT_CONFIG
        assert f"unknown key {dotted(path, name)} " in capsys.readouterr().err

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from([s for s in SECTIONS if s[2]]).flatmap(
        lambda s: st.tuples(st.just(s), st.sampled_from(s[2]))), NON_NUMERIC)
    def test_non_numeric_value_named(self, tmp_path, capsys, section_key, value):
        (overrides, path, _), key = section_key
        cfg = write_with(tmp_path, overrides, path, key, value)
        assert main(["phantom", "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and dotted(path, key) in err

    def test_readme_run_config(self, tmp_path):
        setup = _Setup(readme_run_config(tmp_path))
        assert setup.geometry.n_views_full == 90 and setup.mask.n_selected == 30
        assert setup.params.max_iters == 500

    def test_readme_example_beats_fbp(self, tmp_path):
        cfg = readme_run_config(tmp_path)
        for cmd in ("phantom", "simulate", "init", "fbp", "reconstruct"):
            assert main([cmd, "--config", str(cfg)]) == 0, cmd
        with open(tmp_path / "out" / "iterations.json") as fh:
            assert len(json.load(fh)["iterations"]) < 500  # converged, not capped
        phantom, recon, fbp = (io.load_array(tmp_path / "out" / f"{name}.f64")[0]
                               for name in ("phantom", "recon", "fbp"))
        assert psnr(recon, phantom) >= psnr(fbp, phantom) + 3.0

    @pytest.mark.parametrize("source", ["tv", "random", "file", "none"])
    @pytest.mark.parametrize("noise", [
        {"model": "none"},
        {"model": "gaussian", "sigma": 0.01, "seed": 1},
        {"model": "poisson-transmission", "photons": 1e5, "seed": 2},
    ], ids=lambda n: n["model"])
    def test_pipeline_matrix(self, tmp_path, noise, source):
        """Every noise model with every weight source, phantom through
        reconstruct, 16x16 parallel beam."""
        weights = {"tv": {"source": "tv"}, "none": {"source": "none"},
                   "random": {"source": "random", "layers": 2, "channels": 2},
                   "file": {"source": "file", "path": str(tmp_path / "w.f64")}}[source]
        if source == "file":
            assert main(["weights", "--kind", "tv", "--out", str(tmp_path / "w.f64")]) == 0
        cfg = write_config(tmp_path, noise=noise, solver={"max_iters": 3},
                           regularizers={"image": weights, "sinogram": weights})
        for cmd in ("phantom", "simulate", "init", "reconstruct"):
            assert main([cmd, "--config", str(cfg)]) == 0, cmd
        recon, _ = io.load_array(tmp_path / "out" / "recon.f64")
        assert recon.shape == (16, 16)
        with open(tmp_path / "out" / "iterations.json") as fh:
            log = json.load(fh)["iterations"]
        assert len(log) == 3
        assert all(rec["phi_after"] <= rec["phi_before"] for rec in log)


class TestMetricsOutput:
    @pytest.mark.parametrize("data_range", ["-1", "0", "nan", "inf"])
    def test_bad_data_range_is_usage_error(self, tmp_path, capsys, rng, data_range):
        for name in ("a.f64", "b.f64"):
            io.save_array(tmp_path / name, rng.random((16, 16)))
        assert main(["metrics", "--test", str(tmp_path / "a.f64"), "--ref",
                     str(tmp_path / "b.f64"), "--data-range", data_range]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "--data-range" in err

    def test_identical_arrays_report_inf(self, tmp_path, capsys, rng):
        vals = rng.random((16, 16))
        a = tmp_path / "a.f64"
        b = tmp_path / "b.f64"
        io.save_array(a, vals)
        io.save_array(b, vals)
        assert main(["metrics", "--test", str(a), "--ref", str(b)]) == 0
        assert "psnr inf dB" in capsys.readouterr().out

import json

import numpy as np
import pytest

from dualct import io
from dualct.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL, cmd_weights, main
from dualct.errors import ConfigError
from dualct.regularizer import make_random_weights, make_tv_weights, save_weights


ABSENT = object()  # an override value that drops the section


def write_config(tmp_path, **overrides):
    cfg = {
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
    cfg.update(overrides)
    cfg = {key: val for key, val in cfg.items() if val is not ABSENT}
    path = tmp_path / "run.yaml"
    import yaml
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

    def test_manifest_contents(self, tmp_path):
        cfg = write_config(tmp_path)
        for cmd in ("phantom", "simulate", "reconstruct"):
            assert main([cmd, "--config", str(cfg)]) == 0
        with open(tmp_path / "out" / "manifest_reconstruct.json") as fh:
            manifest = json.load(fh)
        assert manifest["command"] == "reconstruct"
        assert manifest["config_sha256"] == io.config_hash(cfg)
        assert "dualct" in manifest["versions"]

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


class TestWeightsCommand:
    def test_tv_and_random(self, tmp_path):
        tv_path = tmp_path / "tv.bin"
        assert main(["weights", "--kind", "tv", "--out", str(tv_path)]) == 0
        assert tv_path.exists()
        rnd_path = tmp_path / "rnd.bin"
        assert main(["weights", "--kind", "random", "--out", str(rnd_path),
                     "--domain", "sinogram", "--seed", "5"]) == 0
        from dualct.regularizer import load_weights
        stack = load_weights(rnd_path)
        assert stack.layers[0].shape[2:] == (3, 15)

    @pytest.mark.parametrize("kind, domain, expected", [
        ("tv", "image", lambda: make_tv_weights("image")),
        ("tv", "sinogram", lambda: make_tv_weights("sinogram")),
        ("random", "image", lambda: make_random_weights(5, kernel=(3, 3))),
        ("random", "sinogram", lambda: make_random_weights(5, kernel=(3, 15))),
    ])
    def test_bytes_match_direct_construction(self, tmp_path, kind, domain, expected):
        out, ref = tmp_path / "cli.bin", tmp_path / "ref.bin"
        assert main(["weights", "--kind", kind, "--out", str(out),
                     "--domain", domain, "--seed", "5"]) == 0
        save_weights(expected(), ref)
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("kind", ["none", "file", "bogus"])
    def test_unknown_kind(self, tmp_path, kind):
        with pytest.raises(ConfigError):
            cmd_weights(kind, tmp_path / "w.bin")


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

    def test_io_error_missing_config(self, tmp_path):
        assert main(["phantom", "--config", str(tmp_path / "no.yaml")]) == EXIT_IO

    def test_simulate_without_phantom(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg)]) == EXIT_IO

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


class TestMetricsOutput:
    def test_identical_arrays_report_inf(self, tmp_path, capsys, rng):
        vals = rng.random((16, 16))
        a = tmp_path / "a.f64"
        b = tmp_path / "b.f64"
        io.save_array(a, vals)
        io.save_array(b, vals)
        assert main(["metrics", "--test", str(a), "--ref", str(b)]) == 0
        assert "psnr inf dB" in capsys.readouterr().out

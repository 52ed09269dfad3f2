import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dualct import io
from dualct.errors import ConfigError, FormatError, InputError
from dualct.regularizer import make_random_weights, make_tv_weights
from dualct.solver import SolverParams
from dualct.tomo import (FAN, PARALLEL, GridSpec, Image, Sinogram,
                         parallel_geometry, uniform_mask)


class TestRawArrays:
    def test_roundtrip_bitwise(self, tmp_path, rng):
        vals = rng.standard_normal((5, 7))
        path = tmp_path / "a.f64"
        io.save_array(path, vals, {"note": "test"})
        loaded, sidecar = io.load_array(path)
        np.testing.assert_array_equal(loaded, vals)
        assert loaded.dtype == np.float64
        assert sidecar["shape"] == [5, 7]
        assert sidecar["note"] == "test"

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "a.f64"
        path.write_bytes(b"\x00" * 16)
        with pytest.raises(FormatError):
            io.load_array(path)

    def test_size_mismatch(self, tmp_path, rng):
        path = tmp_path / "a.f64"
        io.save_array(path, rng.random((3, 3)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            io.load_array(path)

    @pytest.mark.parametrize("sidecar", [
        b"{not json", b"\xff\xfe", b"[]", b'{"dtype": "<f8"}', b'{"shape": "33"}',
        b'{"shape": [3, 3.0]}', b'{"shape": [3, true]}', b'{"shape": [-3, -3]}',
    ])
    def test_bad_sidecar(self, tmp_path, sidecar):
        path = tmp_path / "a.f64"
        path.write_bytes(b"\x00" * 72)
        (tmp_path / "a.f64.json").write_bytes(sidecar)
        with pytest.raises(FormatError, match="sidecar|shape"):
            io.load_array(path)

    def test_non_finite_payload(self, tmp_path):
        path = tmp_path / "a.f64"
        io.save_array(path, np.array([[1.0, np.inf]]))
        with pytest.raises(FormatError, match="a.f64 holds non-finite values"):
            io.load_array(path)

    def test_image_roundtrip(self, tmp_path, rng):
        grid = GridSpec(6, 4, 0.5)
        img = Image(grid, rng.random((4, 6)))
        path = tmp_path / "img.f64"
        io.save_image(path, img)
        loaded = io.load_image(path, grid)
        np.testing.assert_array_equal(loaded.values, img.values)

    def test_image_grid_mismatch(self, tmp_path, rng):
        grid = GridSpec(6, 4, 0.5)
        path = tmp_path / "img.f64"
        io.save_image(path, Image(grid, rng.random((4, 6))))
        with pytest.raises(FormatError):
            io.load_image(path, GridSpec(5, 5, 0.5))

    @pytest.mark.parametrize("key, other", [("pixel_size", GridSpec(6, 4, 1.0)),
                                            ("origin", GridSpec(6, 4, 0.5, (0.0, 0.25)))],
                             ids=["pixel_size", "origin"])
    def test_image_from_another_grid(self, tmp_path, rng, key, other):
        path = tmp_path / "img.f64"
        io.save_image(path, Image(GridSpec(6, 4, 0.5), rng.random((4, 6))))
        with pytest.raises(FormatError, match=f"img.f64 is an image with {key}"):
            io.load_image(path, other)

    @pytest.mark.parametrize("meta", [{"pixel_size": "wide"}, {"pixel_size": None},
                                      {"pixel_size": True}, {"origin": [0.0]},
                                      {"origin": [0.0, "a"]}])
    def test_image_grid_keys_malformed(self, tmp_path, rng, meta):
        path = tmp_path / "img.f64"
        io.save_array(path, rng.random((4, 6)), {"kind": "image", **meta})
        with pytest.raises(FormatError, match=r"bad sidecar .*img\.f64\.json"):
            io.load_image(path, GridSpec(6, 4, 0.5))

    def test_image_sidecar_without_grid_keys(self, tmp_path, rng):
        path = tmp_path / "img.f64"
        values = rng.random((4, 6))
        io.save_array(path, values)
        np.testing.assert_array_equal(io.load_image(path, GridSpec(6, 4, 0.5)).values, values)

    def test_sinogram_roundtrip_sparse(self, tmp_path, rng):
        geo = parallel_geometry(10, 7, GridSpec(8, 8, 1.0))
        idx = uniform_mask(10, 5).indices()
        sino = Sinogram(geo, idx, rng.random((5, 7)))
        path = tmp_path / "s.f64"
        io.save_sinogram(path, sino)
        loaded = io.load_sinogram(path, geo)
        np.testing.assert_array_equal(loaded.values, sino.values)
        np.testing.assert_array_equal(loaded.view_indices, idx)

    @pytest.mark.parametrize("shape", [[0, 10**30], [0] * 70])
    def test_empty_payload_of_impossible_shape(self, tmp_path, shape):
        path = tmp_path / "a.f64"
        path.write_bytes(b"")
        (tmp_path / "a.f64.json").write_text(json.dumps({"shape": shape}))
        with pytest.raises(FormatError, match="bad sidecar"):
            io.load_array(path)

    def test_sinogram_shape_must_match_views_and_detectors(self, tmp_path, rng):
        geo = parallel_geometry(10, 7, GridSpec(8, 8, 1.0))
        path = tmp_path / "s.f64"
        io.save_array(path, rng.random((5, 6)), {"view_indices": [0, 2, 4, 6, 8]})
        with pytest.raises(FormatError, match="s.f64: shape \\[5, 6\\] does not match"):
            io.load_sinogram(path, geo)


# Sidecar values of every JSON kind, nested a little; lists of small
# integers give negative, unsorted, repeated and out-of-range view indices.
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4)),
    lambda inner: st.lists(inner, max_size=4), max_leaves=8)
SMALL_INTS = st.lists(st.integers(-3, 12), max_size=12)
ABSENT = object()


@st.composite
def sinogram_files(draw):
    """(sidecar, number of payload values) for a sinogram of 10 views x 7 dets."""
    sidecar = {"dtype": "<f8"}
    for key, likely in (("shape", st.tuples(st.integers(0, 11), st.just(7)).map(list)),
                        ("view_indices", SMALL_INTS)):
        value = draw(st.one_of(st.just(ABSENT), JSON_VALUES, SMALL_INTS, likely))
        if value is not ABSENT:
            sidecar[key] = value
    shape = sidecar.get("shape")
    fits = (isinstance(shape, list) and len(shape) < 4
            and all(type(n) is int and 0 <= n <= 12 for n in shape))
    if fits and draw(st.booleans()):
        return sidecar, math.prod(shape)
    return sidecar, draw(st.integers(0, 90))


class TestFuzzedSinogramSidecar:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(sinogram_files())
    def test_only_format_or_input_errors(self, tmp_path, case):
        sidecar, n_values = case
        geo = parallel_geometry(10, 7, GridSpec(8, 8, 1.0))
        path = tmp_path / "s.f64"
        path.write_bytes(np.zeros(n_values, dtype="<f8").tobytes())
        (tmp_path / "s.f64.json").write_text(json.dumps(sidecar))
        try:
            sino = io.load_sinogram(path, geo)
        except (FormatError, InputError):
            return
        assert sino.values.shape == (sino.n_views, 7)
        assert 0 <= sino.view_indices[0] and sino.view_indices[-1] < 10


class TestPGM:
    def test_header_and_payload(self, tmp_path):
        vals = np.array([[0.0, 0.5], [1.0, 0.25]])
        path = tmp_path / "x.pgm"
        io.export_pgm(path, vals)
        data = path.read_bytes()
        header = b"P5\n2 2\n65535\n"
        assert data.startswith(header)
        pix = np.frombuffer(data[len(header):], dtype=">u2").reshape(2, 2)
        assert pix[0, 0] == 0
        assert pix[1, 0] == 65535
        assert pix[0, 1] == round(0.5 * 65535)

    def test_flat_image_no_division_error(self, tmp_path):
        io.export_pgm(tmp_path / "flat.pgm", np.full((3, 3), 2.0))


class TestConfig:
    def test_geometry_parallel(self):
        cfg = {"grid": {"nx": 16, "ny": 16, "pixel_size": 0.125},
               "kind": "parallel", "n_views": 20, "n_dets": 15}
        geo = io.geometry_from_config(cfg)
        assert geo.kind == PARALLEL
        assert geo.n_views_full == 20
        assert geo.grid.pixel_size == 0.125

    def test_geometry_fan(self):
        cfg = {"grid": {"nx": 8, "ny": 8}, "kind": "fan",
               "n_views": 12, "n_dets": 9, "source_radius": 20.0}
        geo = io.geometry_from_config(cfg)
        assert geo.kind == FAN
        assert geo.source_radius == 20.0

    def test_geometry_missing_key(self):
        with pytest.raises(ConfigError):
            io.geometry_from_config({"grid": {"nx": 8, "ny": 8}, "n_views": 4})

    @pytest.mark.parametrize("key, cfg", [
        ("geometry.n_views", {"n_views": 0, "n_dets": 5}),
        ("geometry.n_dets", {"n_views": 4, "n_dets": 0}),
        ("geometry.grid.nx", {"grid": {"nx": 0, "ny": 8}, "n_views": 4, "n_dets": 5}),
    ])
    def test_geometry_empty_count_named(self, key, cfg):
        with pytest.raises(ConfigError, match=f"{key} must be at least 1, got 0"):
            io.geometry_from_config({"grid": {"nx": 8, "ny": 8}, **cfg})

    def test_mask_variants(self):
        m = io.mask_from_config({"n_keep": 4}, 12)
        assert m.n_selected == 4
        m = io.mask_from_config({"selected": [0, 3, 7]}, 12)
        np.testing.assert_array_equal(m.indices(), [0, 3, 7])
        with pytest.raises(ConfigError):
            io.mask_from_config({}, 12)

    def test_noise_default_none(self):
        assert io.noise_from_config(None).model == "none"
        n = io.noise_from_config({"model": "gaussian", "sigma": 0.2, "seed": 7})
        assert n.sigma == 0.2 and n.seed == 7

    def test_weights_sources(self, tmp_path):
        assert io.weights_from_config(None, "image") is None
        assert io.weights_from_config({"source": "none"}, "image") is None
        tv = io.weights_from_config({"source": "tv"}, "image")
        assert tv.n_layers == 1
        rnd = io.weights_from_config({"source": "random", "seed": 2,
                                      "layers": 2, "channels": 4}, "image")
        assert rnd.n_layers == 2 and rnd.out_channels == 4
        path = tmp_path / "w.f64"
        io.save_weights(make_tv_weights(), path)
        loaded = io.weights_from_config({"source": "file", "path": str(path)}, "image")
        assert loaded.n_layers == 1
        with pytest.raises(ConfigError):
            io.weights_from_config({"source": "file"}, "image")
        with pytest.raises(ConfigError):
            io.weights_from_config({"source": "magic"}, "image")

    def test_weights_scale(self):
        def layers(cfg):
            return io.weights_from_config(cfg, "sinogram").layers
        for got, want in [
                (layers({"source": "tv"}), make_tv_weights(1.0).layers),
                (layers({"source": "tv", "scale": 0.002}), make_tv_weights(0.002).layers),
                (layers({"source": "random", "seed": 3}),
                 make_random_weights(3, kernel=(3, 15), scale=0.1).layers),
                (layers({"source": "random", "seed": 3, "scale": 0.5}),
                 make_random_weights(3, kernel=(3, 15), scale=0.5).layers)]:
            assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))
        for source in ("tv", "random"):
            with pytest.raises(ConfigError, match="regularizers.image.scale"):
                io.weights_from_config({"source": source, "scale": "big"}, "image")
        with pytest.raises(ConfigError, match="unknown key regularizers.image.scale"):
            io.weights_from_config({"source": "none", "scale": 2.0}, "image")

    def test_solver_params(self):
        params = io.solver_params_from_config({"rho": 0.25, "max_iters": 10})
        assert params.rho == 0.25
        assert params.max_iters == 10
        with pytest.raises(ConfigError):
            io.solver_params_from_config({"bogus_knob": 1})
        phased = io.solver_params_from_config(None, {"type": "phases", "phases": 5})
        assert phased.max_iters == 5 and phased.eps_tol == 0.0
        assert io.solver_params_from_config(None, {"type": "phases"}).max_iters == 15
        assert isinstance(io.solver_params_from_config(None), SolverParams)

    def test_solver_params_typed(self, tmp_path):
        # YAML 1.1 reads 1e-3 (no dot) as a string
        path = tmp_path / "c.yaml"
        path.write_text("solver: {eps_tol: 1e-3, bar_alpha0: 2}\n")
        params = io.solver_params_from_config(io.load_config(path)["solver"])
        assert params.eps_tol == 1e-3 and params.bar_alpha0 == 2.0
        for bad in ({"max_iters": 5.5}, {"max_iters": True}, {"max_iters": "10"},
                    {"eps_tol": "small"}, {"rho": None}):
            with pytest.raises(ConfigError):
                io.solver_params_from_config(bad)
        for phases in (2.5, "3", False):
            with pytest.raises(ConfigError):
                io.solver_params_from_config(None, {"type": "phases", "phases": phases})

    def test_scalars_typed(self, tmp_path):
        # YAML 1.1 reads 1e5 (no dot) as a string; floats convert with float()
        path = tmp_path / "c.yaml"
        path.write_text("noise: {model: poisson-transmission, photons: 1e5, seed: 3}\n")
        noise = io.noise_from_config(io.load_config(path)["noise"])
        assert noise.photons == 1e5 and noise.seed == 3
        grid = io.grid_from_config({"nx": 4, "ny": 6, "pixel_size": 1, "origin": [1, -2]})
        assert grid.pixel_size == 1.0 and grid.origin == (1.0, -2.0)
        assert io.config_int(7, "k") == 7
        for bad in (16.7, 16.0, "16", True, None):
            with pytest.raises(ConfigError, match="grid.nx"):
                io.grid_from_config({"nx": bad, "ny": 4})
        for bad in ("abc", None, [1.0]):
            with pytest.raises(ConfigError, match="noise.sigma"):
                io.noise_from_config({"sigma": bad})
        bad_cfgs = [
            (io.grid_from_config, {"nx": 4, "ny": 4, "origin": 5}),
            (io.geometry_from_config, {"grid": {"nx": 4, "ny": 4}, "n_views": 4.5, "n_dets": 5}),
            (io.geometry_from_config, {"grid": {"nx": 4, "ny": 4}, "n_views": 4, "n_dets": 5,
                                       "det_spacing": "wide"}),
            (io.geometry_from_config, {"grid": {"nx": 4, "ny": 4}, "kind": "fan", "n_views": 4,
                                       "n_dets": 5, "source_radius": "far"}),
            (lambda c: io.mask_from_config(c, 12), {"n_keep": 4.0}),
            (lambda c: io.mask_from_config(c, 12), {"selected": [0, 3.5]}),
            (lambda c: io.weights_from_config(c, "image"), {"source": "random", "layers": 2.5}),
            (lambda c: io.weights_from_config(c, "image"), {"source": "random", "kernel": [3, "3"]}),
        ]
        for read, cfg in bad_cfgs:
            with pytest.raises(ConfigError):
                read(cfg)

    def test_config_float_finite_not_bool(self):
        assert io.config_float("1e5", "k") == 1e5 and io.config_float(3, "k") == 3.0
        for bad in (True, "nan", float("inf"), "-inf", None, "abc"):
            with pytest.raises(ConfigError, match="k must be a finite number"):
                io.config_float(bad, "k")

    def test_load_config_validation(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("- just\n- a\n- list\n")
        with pytest.raises(ConfigError):
            io.load_config(path)
        path.write_text("key: [unclosed\n")
        with pytest.raises(FormatError):
            io.load_config(path)

    def test_config_hash_stable(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("a: 1\n")
        h1 = io.config_hash(path)
        assert h1 == io.config_hash(path)
        path.write_text("a: 2\n")
        assert io.config_hash(path) != h1
        assert len(h1) == 64


class TestJSONSidecars:
    def test_sidecar_is_valid_json(self, tmp_path, rng):
        path = tmp_path / "a.f64"
        io.save_array(path, rng.random((2, 2)))
        with open(str(path) + ".json") as fh:
            obj = json.load(fh)
        assert obj["dtype"] == "<f8"

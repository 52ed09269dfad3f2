import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dualct import io, tomo
from dualct.errors import ConfigError, FormatError, InputError
from dualct.regularizer import make_random_weights, make_tv_weights
from dualct.solver import SolverParams
from dualct.tomo import (FAN, PARALLEL, GridSpec, Image, Sinogram,
                         parallel_geometry, system_matrix, uniform_mask)


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

    @pytest.mark.parametrize("key, other", [
        ("pixel_size", parallel_geometry(10, 7, GridSpec(8, 8, 0.5), det_spacing=1.5)),
        ("origin", parallel_geometry(10, 7, GridSpec(8, 8, 1.0, (0.5, 0.0)), det_spacing=1.5)),
        ("det_spacing", parallel_geometry(10, 7, GridSpec(8, 8, 1.0), det_spacing=2.0)),
        ("n_views_full", parallel_geometry(12, 7, GridSpec(8, 8, 1.0), det_spacing=1.5)),
    ], ids=["pixel_size", "origin", "det_spacing", "n_views_full"])
    def test_sinogram_from_another_geometry(self, tmp_path, rng, key, other):
        geo = parallel_geometry(10, 7, GridSpec(8, 8, 1.0), det_spacing=1.5)
        path = tmp_path / "s.f64"
        io.save_sinogram(path, Sinogram(geo, [0, 4, 8], rng.random((3, 7))))
        with pytest.raises(FormatError, match=f"s.f64 is a sinogram with {key}"):
            io.load_sinogram(path, other)

    @pytest.mark.parametrize("meta", [{"det_spacing": "wide"}, {"det_spacing": None},
                                      {"n_views_full": 10.0}, {"n_views_full": True},
                                      {"pixel_size": "wide"}, {"origin": [0.0]}])
    def test_sinogram_geometry_keys_malformed(self, tmp_path, rng, meta):
        path = tmp_path / "s.f64"
        io.save_array(path, rng.random((10, 7)), {"kind": "sinogram", **meta})
        with pytest.raises(FormatError, match=r"bad sidecar .*s\.f64\.json"):
            io.load_sinogram(path, parallel_geometry(10, 7, GridSpec(8, 8, 1.0)))

    def test_sinogram_sidecar_without_geometry_keys(self, tmp_path, rng):
        path = tmp_path / "s.f64"
        values = rng.random((3, 7))
        io.save_array(path, values, {"kind": "sinogram", "view_indices": [0, 4, 8]})
        loaded = io.load_sinogram(path, parallel_geometry(10, 7, GridSpec(8, 8, 1.0)))
        np.testing.assert_array_equal(loaded.values, values)

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


def _poke(name, at, value):
    """A damage that sets entry ``at`` of the matrix file's array ``name``
    to ``value``, or to ``value(array)`` when it is callable."""
    def damage(path, sidecar):
        names = ("indptr", "indices", "data")
        counts = (sidecar["shape"][0] + 1, sidecar["nnz"], sidecar["nnz"])
        with open(path, "rb") as fh:
            arrays = {n: np.fromfile(fh, dtype=sidecar["dtypes"][n], count=c)
                      for n, c in zip(names, counts)}
        arrays[name][at] = value(arrays[name]) if callable(value) else value
        with open(path, "wb") as fh:
            for n in names:
                arrays[n].tofile(fh)
    return damage


def _edit_sidecar(edit):
    def damage(path, sidecar):
        edit(sidecar)
        Path(f"{path}.json").write_text(json.dumps(sidecar))
    return damage


class TestSystemMatrixFile:
    @pytest.fixture
    def saved(self, tmp_path, par16):
        path = tmp_path / io.SYSTEM_MATRIX_FILE
        io.save_system_matrix(path, par16, system_matrix(par16))
        return path, par16

    def test_roundtrip_bitwise(self, saved):
        path, geo = saved
        built = system_matrix(geo)
        loaded = io.load_system_matrix(path, geo)
        for got, want in zip(loaded, (built.indptr, built.indices, built.data)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert not list(path.parent.glob("*.tmp"))

    def test_seeds_the_cache(self, saved):
        path, geo = saved
        built = tomo._build_system_matrix(geo)
        tomo._cached_system_matrix.cache_clear()
        assert tomo.seed_system_matrix(geo, *io.load_system_matrix(path, geo))
        mat = system_matrix(geo)
        for name in ("indptr", "indices", "data"):
            assert getattr(mat, name).tobytes() == getattr(built, name).tobytes()
        # A of a cached geometry is kept
        assert not tomo.seed_system_matrix(geo, *io.load_system_matrix(path, geo))
        assert system_matrix(geo) is mat

    @pytest.mark.parametrize("field, value", [
        ("det_spacing", 0.5), ("n_dets", 21), ("angles", tuple(np.arange(18) * 0.1)),
        ("source_radius", 30.0)])
    def test_another_geometry_refused(self, saved, field, value):
        path, geo = saved
        other = replace(geo, **{field: value})
        with pytest.raises(FormatError, match="another geometry or format"):
            io.load_system_matrix(path, other)

    @pytest.mark.parametrize("damage, message", [
        (_edit_sidecar(lambda s: s["geometry"].update(det_spacing=0.5)), "another geometry"),
        (_edit_sidecar(lambda s: s.update(format=0)), "another geometry or format"),
        (_edit_sidecar(lambda s: s.update(nnz=s["nnz"] - 1)), "payload size"),
        (_edit_sidecar(lambda s: s["dtypes"].update(data="<f4")), "dtypes"),
        (_edit_sidecar(lambda s: s["dtypes"].update(indices="<i8")), "dtypes"),
        (_edit_sidecar(lambda s: s.update(shape=[360, 255])), "shape"),
        (_edit_sidecar(lambda s: s.pop("dtypes")), "bad sidecar"),
        (lambda path, s: Path(f"{path}.json").write_text("{not json"), "bad sidecar"),
        (lambda path, s: Path(f"{path}.json").write_text("[]"), "bad sidecar"),
        (lambda path, s: path.write_bytes(path.read_bytes()[:-8]), "payload size"),
        (lambda path, s: path.write_bytes(path.read_bytes() + bytes(8)), "payload size"),
        (_poke("indices", 5, 2**31 - 1), "off the grid"),
        (_poke("indices", 0, 256), "off the grid"),
        (_poke("indices", -1, -1), "off the grid"),
        (_poke("indptr", 0, 1), "row pointer"),
        (_poke("indptr", 3, lambda p: p[2] - 1), "row pointer"),
        (_poke("indptr", -1, lambda p: p[-1] - 1), "row pointer"),
        (_poke("data", 7, np.nan), "finite and nonnegative"),
        (_poke("data", 7, np.inf), "finite and nonnegative"),
        (_poke("data", 7, -0.5), "finite and nonnegative"),
    ])
    def test_damaged_file_refused(self, saved, damage, message):
        path, geo = saved
        damage(path, json.loads(Path(f"{path}.json").read_text()))
        with pytest.raises(FormatError, match=message) as err:
            io.load_system_matrix(path, geo)
        assert str(path) in str(err.value)

    def test_missing_sidecar(self, saved):
        path, geo = saved
        Path(f"{path}.json").unlink()
        with pytest.raises(FileNotFoundError):
            io.load_system_matrix(path, geo)


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

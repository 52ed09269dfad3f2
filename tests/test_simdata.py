import numpy as np
import pytest

from dualct.errors import ConfigError
from dualct.simdata import (DISK_DEFAULT, SHEPP_LOGAN_MODIFIED, NoiseSpec,
                            PhantomSpec, apply_noise, initialize, make_phantom,
                            simulate_measurement)
from dualct.tomo import (GridSpec, Image, forward_project, parallel_geometry,
                         uniform_mask)


class TestPhantoms:
    def test_disk_values_and_symmetry(self):
        grid = GridSpec(32, 32, 1.0)
        img = make_phantom(PhantomSpec("disk", grid)).values
        assert set(np.unique(img)) <= {0.0, 1.0}
        np.testing.assert_array_equal(img, img[::-1])       # up-down
        np.testing.assert_array_equal(img, img[:, ::-1])    # left-right
        np.testing.assert_array_equal(img, img.T)           # quarter turn
        assert img[16, 16] == 1.0
        assert img[0, 0] == 0.0

    def test_disk_area_close_to_analytic(self):
        grid = GridSpec(128, 128, 1.0)
        img = make_phantom(PhantomSpec("disk", grid)).values
        # radius 0.7 of the half-extent (64 pixels)
        expected = np.pi * (0.7 * 64) ** 2
        assert abs(img.sum() - expected) / expected < 0.01

    def test_shepp_logan_value_range(self):
        grid = GridSpec(64, 64, 1.0)
        img = make_phantom(PhantomSpec("shepp-logan-modified", grid)).values
        assert img.min() >= -1e-12  # ellipse sum cancels to 0 up to roundoff
        assert img.max() == pytest.approx(1.0)
        # the two dark ventricle ellipses subtract intensity
        assert np.any(np.isclose(img, 0.2))

    def test_custom_ellipses(self):
        grid = GridSpec(16, 16, 1.0)
        spec = PhantomSpec("custom-ellipses", grid,
                           ellipses=((2.0, 0.5, 0.25, 0.0, 0.0, 30.0),))
        img = make_phantom(spec).values
        assert img.max() == 2.0

    def test_validation(self):
        grid = GridSpec(8, 8, 1.0)
        with pytest.raises(ConfigError):
            PhantomSpec("blob", grid)
        with pytest.raises(ConfigError):
            PhantomSpec("custom-ellipses", grid)
        with pytest.raises(ConfigError):
            PhantomSpec("custom-ellipses", grid, ellipses=((1.0, -0.5, 0.5, 0, 0, 0),))

    def test_table_defaults(self):
        grid = GridSpec(8, 8, 1.0)
        assert PhantomSpec("disk", grid).table() == DISK_DEFAULT
        assert PhantomSpec("shepp-logan-modified", grid).table() == SHEPP_LOGAN_MODIFIED


def _sino(grid_n=16, n_views=12, n_dets=11):
    grid = GridSpec(grid_n, grid_n, 2.0 / grid_n)
    geo = parallel_geometry(n_views, n_dets, grid)
    disk = make_phantom(PhantomSpec("disk", grid))
    return forward_project(disk, geo), geo


class TestNoise:
    def test_none_is_identity(self):
        sino, _ = _sino()
        out = apply_noise(sino, NoiseSpec())
        np.testing.assert_array_equal(out.values, sino.values)
        assert out.values is not sino.values  # defensive copy

    def test_gaussian_seeded_reproducible(self):
        sino, _ = _sino()
        a = apply_noise(sino, NoiseSpec("gaussian", sigma=0.1, seed=3))
        b = apply_noise(sino, NoiseSpec("gaussian", sigma=0.1, seed=3))
        c = apply_noise(sino, NoiseSpec("gaussian", sigma=0.1, seed=4))
        np.testing.assert_array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_gaussian_moments(self):
        sino, _ = _sino(grid_n=32, n_views=64, n_dets=63)
        sigma = 0.25
        out = apply_noise(sino, NoiseSpec("gaussian", sigma=sigma, seed=0))
        resid = out.values - sino.values
        assert abs(resid.mean()) < 0.01
        assert abs(resid.std() - sigma) < 0.01

    def test_poisson_transmission_statistics(self):
        # For a constant line integral p, the log-domain noise has variance
        # close to exp(p)/I0 to first order.
        grid = GridSpec(4, 4, 1.0)
        geo = parallel_geometry(400, 50, grid)
        p = 1.5
        sino = forward_project(Image(grid, np.zeros((4, 4))), geo)
        vals = np.full_like(sino.values, p)
        sino = type(sino)(geo, sino.view_indices, vals)
        photons = 1e5
        out = apply_noise(sino, NoiseSpec("poisson-transmission",
                                          photons=photons, seed=1))
        resid = out.values - p
        expected_var = np.exp(p) / photons
        assert abs(resid.mean()) < 3e-3
        assert abs(resid.var() / expected_var - 1.0) < 0.1

    def test_poisson_values_finite(self):
        sino, _ = _sino()
        out = apply_noise(sino, NoiseSpec("poisson-transmission",
                                          photons=100.0, seed=0))
        assert np.all(np.isfinite(out.values))

    def test_validation(self):
        with pytest.raises(ConfigError):
            NoiseSpec("salt-pepper")
        with pytest.raises(ConfigError):
            NoiseSpec("gaussian", sigma=-1.0)
        with pytest.raises(ConfigError):
            NoiseSpec("poisson-transmission", photons=0.0)


class TestSimulateAndInitialize:
    def test_shapes_and_consistency(self):
        sino, geo = _sino()
        disk = make_phantom(PhantomSpec("disk", geo.grid))
        mask = uniform_mask(geo.n_views_full, 4)
        s, z_true = simulate_measurement(disk, geo, mask)
        assert s.values.shape == (4, geo.n_dets)
        assert z_true.values.shape == (geo.n_views_full, geo.n_dets)
        np.testing.assert_array_equal(s.values, z_true.values[mask.indices()])

    def test_initialize_anchors_and_nonnegativity(self):
        _, geo = _sino(grid_n=16, n_views=16, n_dets=17)
        disk = make_phantom(PhantomSpec("disk", geo.grid))
        mask = uniform_mask(geo.n_views_full, 8)
        s, _ = simulate_measurement(disk, geo, mask)
        state = initialize(s, geo, mask)
        assert state.z.is_full_view
        np.testing.assert_array_equal(state.z.values[mask.indices()], s.values)
        assert np.all(state.x.values >= 0.0)

    def test_initialize_deterministic(self):
        _, geo = _sino()
        disk = make_phantom(PhantomSpec("disk", geo.grid))
        mask = uniform_mask(geo.n_views_full, 6)
        s, _ = simulate_measurement(disk, geo, mask)
        a = initialize(s, geo, mask)
        b = initialize(s, geo, mask)
        np.testing.assert_array_equal(a.x.values, b.x.values)
        np.testing.assert_array_equal(a.z.values, b.z.values)

    def test_initialize_rejects_mismatched_mask(self):
        _, geo = _sino()
        disk = make_phantom(PhantomSpec("disk", geo.grid))
        mask = uniform_mask(geo.n_views_full, 6)
        s, _ = simulate_measurement(disk, geo, mask)
        with pytest.raises(ConfigError):
            initialize(s, geo, uniform_mask(geo.n_views_full, 4))

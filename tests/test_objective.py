import numpy as np
import pytest
import scipy.sparse as sp

from dualct import objective
from dualct.errors import ConfigError, NumericalError
from dualct.objective import (DualState, Point, ProblemSpec, block_lipschitz,
                              evaluate, grad_norm, lipschitz_constants,
                              phi_unsmoothed)
from dualct.regularizer import ConvStack, make_tv_weights
from dualct.tomo import (GridSpec, Image, Sinogram, fan_geometry, forward_project,
                         parallel_geometry, subsample_views, system_matrix,
                         uniform_mask)


def _make_problem(rng, with_regs=True, lam=3.0):
    grid = GridSpec(6, 6, 1.0)
    geo = parallel_geometry(8, 7, grid)
    mask = uniform_mask(8, 4)
    truth = Image(grid, rng.random(grid.shape))
    s = subsample_views(forward_project(truth, geo), mask)
    weights = make_tv_weights(scale=0.3) if with_regs else None
    spec = ProblemSpec(geo, mask, s, lam=lam,
                       image_weights=weights, sino_weights=weights)
    state = DualState(Image(grid, rng.standard_normal(grid.shape)),
                      Sinogram(geo, np.arange(8), rng.standard_normal((8, 7))))
    return spec, state


def data_term(state, spec):
    return evaluate(state, spec).f


class TestDataTerm:
    def test_matches_dense_formula(self, rng):
        spec, state = _make_problem(rng, with_regs=False)
        a = system_matrix(spec.geometry).toarray()
        ax = (a @ state.x.values.ravel()).reshape(state.z.values.shape)
        sel = spec.mask.indices()
        expected = (0.5 * np.sum((ax - state.z.values) ** 2)
                    + 0.5 * spec.lam
                    * np.sum((state.z.values[sel] - spec.measured.values) ** 2))
        assert data_term(state, spec) == pytest.approx(expected, rel=1e-12)

    def test_zero_at_consistent_state(self, rng):
        spec, _ = _make_problem(rng, with_regs=False)
        grid = spec.geometry.grid
        truth = Image(grid, rng.random(grid.shape))
        z = forward_project(truth, spec.geometry)
        s = subsample_views(z, spec.mask)
        spec2 = ProblemSpec(spec.geometry, spec.mask, s, lam=spec.lam)
        assert data_term(DualState(truth, z), spec2) == pytest.approx(0.0, abs=1e-20)

    def test_negative_lambda_rejected(self, rng):
        spec, _ = _make_problem(rng)
        with pytest.raises(ConfigError):
            ProblemSpec(spec.geometry, spec.mask, spec.measured, lam=-1.0)

    def test_mask_mismatch_rejected(self, rng):
        spec, _ = _make_problem(rng)
        wrong = uniform_mask(8, 3)
        with pytest.raises(ConfigError):
            ProblemSpec(spec.geometry, wrong, spec.measured)

    @pytest.mark.parametrize("det_spacing, n_dets", [(0.5, 7), (None, 9)])
    def test_geometry_mismatch_rejected(self, rng, det_spacing, n_dets):
        # a measurement of another detector pitch or count, at the same views
        spec, _ = _make_problem(rng)
        other = parallel_geometry(8, n_dets, spec.geometry.grid, det_spacing=det_spacing)
        measured = Sinogram(other, spec.mask.indices(), np.zeros((4, n_dets)))
        with pytest.raises(ConfigError, match="geometry does not match"):
            ProblemSpec(spec.geometry, spec.mask, measured)


class TestGradients:
    def test_grad_f_matches_finite_differences(self, rng):
        spec, state = _make_problem(rng, with_regs=False)
        gx, gz = evaluate(state, spec).grad_f
        h = 1e-6
        for _ in range(15):
            vx = rng.standard_normal(gx.shape)
            vz = rng.standard_normal(gz.shape)
            nrm = np.sqrt(np.sum(vx**2) + np.sum(vz**2))
            vx /= nrm
            vz /= nrm
            plus = DualState(Image(spec.geometry.grid, state.x.values + h * vx),
                             Sinogram(spec.geometry, np.arange(8), state.z.values + h * vz))
            minus = DualState(Image(spec.geometry.grid, state.x.values - h * vx),
                              Sinogram(spec.geometry, np.arange(8), state.z.values - h * vz))
            fd = (data_term(plus, spec) - data_term(minus, spec)) / (2 * h)
            assert abs(np.sum(gx * vx) + np.sum(gz * vz) - fd) < 1e-7

    def test_grad_phi_matches_finite_differences(self, rng):
        spec, state = _make_problem(rng, with_regs=True)
        eps = 0.05
        gx, gz = evaluate(state, spec).grad(eps)
        h = 1e-6
        for _ in range(15):
            vx = rng.standard_normal(gx.shape)
            vz = rng.standard_normal(gz.shape)
            nrm = np.sqrt(np.sum(vx**2) + np.sum(vz**2))
            vx /= nrm
            vz /= nrm
            plus = DualState(Image(spec.geometry.grid, state.x.values + h * vx),
                             Sinogram(spec.geometry, np.arange(8), state.z.values + h * vz))
            minus = DualState(Image(spec.geometry.grid, state.x.values - h * vx),
                              Sinogram(spec.geometry, np.arange(8), state.z.values - h * vz))
            fd = (evaluate(plus, spec).phi(eps) - evaluate(minus, spec).phi(eps)) / (2 * h)
            assert abs(np.sum(gx * vx) + np.sum(gz * vz) - fd) < 1e-6

    def test_grad_norm_is_euclidean(self, rng):
        gx = rng.standard_normal((4, 4))
        gz = rng.standard_normal((6, 5))
        expected = np.linalg.norm(np.concatenate([gx.ravel(), gz.ravel()]))
        assert grad_norm(gx, gz) == pytest.approx(expected, rel=1e-14)


class TestSmoothingGap:
    def test_smoothed_below_exact_with_bound(self, rng):
        spec, state = _make_problem(rng, with_regs=True)
        exact = phi_unsmoothed(state, spec)
        for eps in (1.0, 0.1, 0.01):
            smooth = evaluate(state, spec).phi(eps)
            n_sites = (spec.geometry.grid.nx * spec.geometry.grid.ny
                       + spec.geometry.n_views_full * spec.geometry.n_dets)
            assert -1e-10 <= exact - smooth <= n_sites * eps / 2 + 1e-10


class TestLipschitz:
    def test_z_block_exact(self, rng):
        spec, _ = _make_problem(rng, lam=7.0)
        l_z, _, _ = block_lipschitz(spec)
        assert l_z == 1.0 + 7.0

    def test_x_block_matches_dense(self, rng):
        spec, _ = _make_problem(rng)
        a = system_matrix(spec.geometry).toarray()
        expected = np.linalg.norm(a, 2) ** 2
        _, l_x, _ = block_lipschitz(spec)
        assert l_x == pytest.approx(expected, rel=1e-6)

    def test_x_block_bounds_from_above_with_unhit_pixels(self, rng):
        # two rays per view, 0.25 off the centre, miss the four corner
        # pixels: their zero columns must neither divide by zero nor loosen
        # the bound
        grid = GridSpec(8, 8, 1.0)
        geo = parallel_geometry(6, 2, grid, det_spacing=0.5)
        a = system_matrix(geo).toarray()
        assert np.sum(np.all(a == 0, axis=0)) == 4
        mask = uniform_mask(6, 2)
        truth = Image(grid, rng.random(grid.shape))
        spec = ProblemSpec(geo, mask, subsample_views(forward_project(truth, geo), mask))
        expected = np.linalg.norm(a, 2) ** 2
        _, l_x, _ = block_lipschitz(spec)
        assert l_x >= expected * (1 - 1e-14)
        assert l_x == pytest.approx(expected, rel=1e-11)

    def test_x_block_zero_for_zero_operator(self, rng, monkeypatch):
        spec, _ = _make_problem(rng)
        zero = sp.csr_matrix(system_matrix(spec.geometry).shape)
        monkeypatch.setattr(objective, "system_matrix", lambda geo: zero)
        assert block_lipschitz(spec)[1] == 0.0

    def test_full_hessian_matches_dense(self, rng):
        # exact with every view measured, an upper bound otherwise
        grid = GridSpec(6, 6, 1.0)
        for make_geometry in (parallel_geometry, fan_geometry):
            geo = make_geometry(8, 7, grid)
            truth = Image(grid, rng.random(grid.shape))
            for n_keep in (8, 4):
                mask = uniform_mask(8, n_keep)
                spec = ProblemSpec(geo, mask, subsample_views(forward_project(truth, geo), mask),
                                   lam=2.0)
                a = system_matrix(geo).toarray()
                n_z = a.shape[0]
                nd = geo.n_dets
                diag = np.zeros(n_z)
                for v in mask.indices():
                    diag[v * nd:(v + 1) * nd] = 1.0
                hess = np.block([
                    [a.T @ a, -a.T],
                    [-a, np.eye(n_z) + spec.lam * np.diag(diag)],
                ])
                expected = np.linalg.norm(hess, 2)
                _, _, l_f = block_lipschitz(spec)
                if n_keep == 8:
                    assert l_f == pytest.approx(expected, rel=1e-12)
                else:
                    assert l_f >= expected * (1 - 1e-12)

    def test_composite_exceeds_data(self, rng):
        spec, _ = _make_problem(rng, with_regs=True)
        assert lipschitz_constants(spec).composite(0.1) > block_lipschitz(spec)[2]

    def test_constants_are_eps_free(self, rng):
        # one set of power iterations serves every smoothing level
        spec, _ = _make_problem(rng, with_regs=True)
        lip = lipschitz_constants(spec)
        for eps in (0.1, 0.05, 1e-3):
            assert lip.composite(eps) == lipschitz_constants(spec).composite(eps)
        lr1, lq1 = lip.image(0.1), lip.sino(0.1)
        lr2, lq2 = lip.image(0.05), lip.sino(0.05)
        # single linear layers: no curvature term, so exactly 1/eps
        assert (lr2, lq2) == pytest.approx((2.0 * lr1, 2.0 * lq1), rel=1e-12)

    def test_absent_regularizers_have_zero_bound(self, rng):
        spec, _ = _make_problem(rng, with_regs=False)
        lip = lipschitz_constants(spec)
        assert (lip.image(0.1), lip.sino(0.1)) == (0.0, 0.0)
        # an all-zero stack gives exactly 0 too: its power iteration stops
        # at the first zero product, and its curvature has a zero norm
        two_layers = ConvStack((np.zeros((2, 1, 3, 3)), np.zeros((1, 2, 3, 3))))
        for w in (ConvStack((np.zeros((1, 1, 3, 3)),)), two_layers):
            zero = ProblemSpec(spec.geometry, spec.mask, spec.measured, lam=spec.lam,
                               image_weights=w, sino_weights=w)
            lip = lipschitz_constants(zero)
            assert (lip.image(0.1), lip.sino(0.1)) == (0.0, 0.0)


class TestPoint:
    def test_values_kept_per_eps(self, rng):
        # after an eps change a point gives what a fresh point gives
        spec, state = _make_problem(rng, with_regs=True)
        point = evaluate(state, spec)
        for eps in (0.1, 0.05, 0.1):
            fresh = evaluate(state, spec)
            assert point.phi(eps) == fresh.phi(eps)
            for got, want in zip(point.grad(eps), fresh.grad(eps)):
                np.testing.assert_array_equal(got, want)
        assert point.phi(0.1) != point.phi(0.05)

    def test_grad_f_x_at_other_z(self, rng):
        spec, state = _make_problem(rng, with_regs=False)
        point = evaluate(state, spec)
        z2 = rng.standard_normal(state.z.values.shape)
        other = DualState(state.x, Sinogram(spec.geometry, np.arange(8), z2))
        np.testing.assert_array_equal(point.grad_f_x(z2), evaluate(other, spec).grad_f[0])

    def test_non_finite_rejected(self, rng):
        spec, state = _make_problem(rng)
        bad = state.z.values.copy()
        bad[0, 0] = np.inf
        with pytest.raises(NumericalError):
            Point(spec, state.x.values, bad)

    def test_state_mismatch_rejected(self, rng):
        spec, state = _make_problem(rng)
        other_grid = Image(GridSpec(5, 5, 1.0), np.zeros((5, 5)))
        with pytest.raises(ConfigError):
            evaluate(DualState(other_grid, state.z), spec)

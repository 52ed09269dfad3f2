"""Acceptance gate: one test per release criterion.

Each test records a single PASS/FAIL line (printed in the terminal summary)
and then asserts, so a red run still shows which criteria held.
"""

import math
import time

import numpy as np
import pytest

from dualct.metrics import psnr
from dualct.objective import (DualState, ProblemSpec, evaluate, grad_norm,
                              lipschitz_constants)
from dualct.regularizer import (feature_forward, l21_norm, make_random_weights,
                                make_tv_weights, smoothed_grad, smoothed_value)
from dualct.simdata import PhantomSpec, make_phantom
from dualct.solver import SolverParams, backtrack_bound, run
from dualct.tomo import (GridSpec, Image, Sinogram, back_project,
                         fan_geometry, fbp_reconstruct, forward_project,
                         parallel_geometry, subsample_views, system_matrix,
                         uniform_mask, zero_fill_views)

CRITERION_LINES = []


def _record(num, ok, detail):
    CRITERION_LINES.append(
        f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def _full_state(geo, x_vals, z_vals):
    return DualState(Image(geo.grid, x_vals),
                     Sinogram(geo, np.arange(geo.n_views_full), z_vals))


def _sparse_problem(grid_n, n_views, n_dets, n_keep, tv_scale, phantom_kind):
    grid = GridSpec(grid_n, grid_n, 2.0 / grid_n)
    geo = parallel_geometry(n_views, n_dets, grid)
    mask = uniform_mask(n_views, n_keep)
    truth = make_phantom(PhantomSpec(phantom_kind, grid))
    s = subsample_views(forward_project(truth, geo), mask)
    weights = make_tv_weights(scale=tv_scale)
    spec = ProblemSpec(geo, mask, s, lam=10.0,
                       image_weights=weights, sino_weights=weights)
    return spec, truth, s


@pytest.fixture(scope="module")
def run32():
    """Shared 500-iteration sparse-view run on the 32x32 head phantom."""
    spec, truth, s = _sparse_problem(32, 90, 47, 30, 0.002,
                                     "shepp-logan-modified")
    init = _full_state(spec.geometry,
                       np.zeros(spec.geometry.grid.shape),
                       np.zeros(spec.sino_shape()))
    params = SolverParams(max_iters=500, eps_tol=0.0)
    final, log = run(spec, init, params)
    return spec, params, final, log


@pytest.fixture(scope="module")
def run64(tmp_path_factory):
    """Two sequential 64x64 sparse-view runs, fully serialized for the
    determinism check."""
    spec, truth, s = _sparse_problem(64, 90, 95, 30, 0.002,
                                     "shepp-logan-modified")
    init = _full_state(spec.geometry,
                       np.zeros(spec.geometry.grid.shape),
                       np.zeros(spec.sino_shape()))
    params = SolverParams(max_iters=800, eps_tol=0.0)
    t0 = time.perf_counter()
    outputs = []
    for tag in ("a", "b"):
        final, log = run(spec, init, params)
        out = tmp_path_factory.mktemp(f"run64_{tag}")
        from dualct import io
        io.save_image(out / "recon.f64", final.x)
        io.save_sinogram(out / "recon_sino.f64", final.z)
        log.write_csv(out / "iterations.csv")
        log.write_json(out / "iterations.json")
        outputs.append((final, log, out))
    elapsed = time.perf_counter() - t0
    fbp_zf = fbp_reconstruct(zero_fill_views(s), spec.geometry)
    return spec, truth, fbp_zf, outputs, elapsed


class TestCriterion1Adjoint:
    def test_adjoint_defect(self):
        t0 = time.perf_counter()
        grid = GridSpec(16, 16, 1.0)
        worst = 0.0
        rng = np.random.default_rng(0)
        for geo in (parallel_geometry(18, 20, grid), fan_geometry(18, 20, grid)):
            for _ in range(100):
                x = rng.standard_normal(grid.shape)
                y = rng.standard_normal((geo.n_views_full, geo.n_dets))
                ax = forward_project(Image(grid, x), geo).values
                aty = back_project(
                    Sinogram(geo, np.arange(geo.n_views_full), y), geo).values
                denom = np.linalg.norm(ax) * np.linalg.norm(y)
                worst = max(worst, abs(np.sum(ax * y) - np.sum(x * aty)) / denom)
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-12 and elapsed < 10.0
        _record(1, ok, f"adjoint defect {worst:.2e} (limit 1e-12), "
                       f"{elapsed:.1f}s (limit 10s)")


class TestCriterion2GradientFidelity:
    def test_finite_difference_match(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1)
        h = 1e-6
        eps = 0.1
        worst = 0.0
        n_instances = 0

        # regularizer gradients across the three index-set regimes:
        # all-small norms, all-large norms, and mixed
        for regime_scale in (1e-3, 10.0, 1.0):
            for seed in range(10):
                stack = make_random_weights(seed, n_layers=2, n_channels=4)
                y = regime_scale * rng.standard_normal((9, 9))
                g = smoothed_grad(y, stack, eps)
                for _ in range(2):
                    v = rng.standard_normal(y.shape)
                    v /= np.linalg.norm(v)
                    fd = (smoothed_value(y + h * v, stack, eps)
                          - smoothed_value(y - h * v, stack, eps)) / (2 * h)
                    scale = max(abs(fd), np.linalg.norm(g))
                    if scale > 0:
                        worst = max(worst, abs(np.sum(g * v) - fd) / scale)
                n_instances += 1

        # full smoothed-objective gradients on a small dual-domain problem
        grid = GridSpec(6, 6, 1.0)
        geo = parallel_geometry(8, 7, grid)
        mask = uniform_mask(8, 4)
        truth = Image(grid, rng.random(grid.shape))
        s = subsample_views(forward_project(truth, geo), mask)
        weights = make_tv_weights(scale=0.3)
        spec = ProblemSpec(geo, mask, s, lam=3.0,
                           image_weights=weights, sino_weights=weights)
        for _ in range(25):
            state = _full_state(geo, rng.standard_normal(grid.shape),
                                rng.standard_normal((8, 7)))
            gx, gz = evaluate(state, spec).grad(eps)
            vx = rng.standard_normal(gx.shape)
            vz = rng.standard_normal(gz.shape)
            nrm = math.sqrt(np.sum(vx**2) + np.sum(vz**2))
            vx /= nrm
            vz /= nrm
            plus = _full_state(geo, state.x.values + h * vx,
                               state.z.values + h * vz)
            minus = _full_state(geo, state.x.values - h * vx,
                                state.z.values - h * vz)
            fd = (evaluate(plus, spec).phi(eps) - evaluate(minus, spec).phi(eps)) / (2 * h)
            scale = max(abs(fd), grad_norm(gx, gz))
            worst = max(worst, abs(np.sum(gx * vx) + np.sum(gz * vz) - fd) / scale)
            n_instances += 1

        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-5 and n_instances >= 50 and elapsed < 60.0
        _record(2, ok, f"gradient FD relative error {worst:.2e} (limit 1e-5) "
                       f"over {n_instances} instances, {elapsed:.1f}s (limit 60s)")


class TestCriterion3SmoothingGap:
    def test_gap_bound(self):
        rng = np.random.default_rng(2)
        shapes = {"image": (16, 16), "sinogram": (12, 17)}
        stack = make_tv_weights()
        worst_low = 0.0
        worst_high = 0.0
        for shape in shapes.values():
            m = shape[0] * shape[1]
            for eps in (1.0, 0.1, 0.01):
                for _ in range(20):
                    y = 2.0 * rng.standard_normal(shape)
                    gap = (l21_norm(feature_forward(y, stack)[0])
                           - smoothed_value(y, stack, eps))
                    worst_low = min(worst_low, gap)
                    worst_high = max(worst_high, gap - m * eps / 2)
        ok = worst_low >= -1e-12 and worst_high <= 1e-12
        _record(3, ok, f"gap in [0, m*eps/2]: min {worst_low:.1e}, "
                       f"excess over bound {worst_high:.1e}")


class TestCriterion4Descent:
    def test_no_objective_increase(self, run32):
        _, _, _, log = run32
        violations = sum(r.phi_after > r.phi_before for r in log.records)
        ok = len(log.records) == 500 and violations == 0
        _record(4, ok, f"{violations} objective increases over "
                       f"{len(log.records)} iterations (0 tolerated)")


class TestCriterion5SafeguardTermination:
    def test_backtrack_bound(self, run32):
        spec, params, _, log = run32
        eps_min = min(r.eps for r in log.records)
        l_hat = lipschitz_constants(spec).composite(eps_min)
        bound = backtrack_bound(params, l_hat)
        observed = log.max_backtracks()
        ok = observed <= bound
        _record(5, ok, f"max backtracks {observed} <= bound {bound} "
                       f"(at eps {eps_min:.2e})")


class TestCriterion6ScheduleSemantics:
    def test_reduction_rule(self, run32):
        _, params, _, log = run32
        thresh_ok = all(
            r.grad_norm < params.sigma * params.gamma * r.eps
            for r in log.records if r.eps_reduced)
        eps_seq = [r.eps for r in log.records]
        monotone = all(b <= a for a, b in zip(eps_seq, eps_seq[1:]))
        n_red = log.n_eps_reductions()
        ok = thresh_ok and monotone and n_red >= 3
        _record(6, ok, f"reductions gated by grad norm: {thresh_ok}, "
                       f"eps non-increasing: {monotone}, "
                       f"{n_red} reductions (>= 3 required)")


class TestCriterion7LeastSquaresOracle:
    def test_matches_normal_equations(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(3)
        grid = GridSpec(8, 8, 1.0)
        geo = parallel_geometry(24, 15, grid)
        mask = uniform_mask(24, 12)
        truth = Image(grid, rng.random(grid.shape))
        s = subsample_views(forward_project(truth, geo), mask)
        spec = ProblemSpec(geo, mask, s, lam=10.0)
        init = _full_state(geo, np.zeros(grid.shape), np.zeros((24, 15)))
        final, _ = run(spec, init, SolverParams(eps_tol=0.0, max_iters=2000))

        a = system_matrix(geo).toarray()
        nd = geo.n_dets
        diag = np.zeros(a.shape[0])
        for v in mask.indices():
            diag[v * nd:(v + 1) * nd] = 1.0
        hess = np.block([
            [a.T @ a, -a.T],
            [-a, np.eye(a.shape[0]) + spec.lam * np.diag(diag)],
        ])
        scatter = np.zeros((24, nd))
        scatter[mask.indices()] = s.values
        rhs = np.concatenate([np.zeros(a.shape[1]),
                              spec.lam * diag * scatter.ravel()])
        opt = np.linalg.lstsq(hess, rhs, rcond=None)[0]
        got = np.concatenate([final.x.values.ravel(), final.z.values.ravel()])
        rel = np.linalg.norm(got - opt) / np.linalg.norm(opt)
        elapsed = time.perf_counter() - t0
        ok = rel <= 1e-4 and elapsed < 30.0
        _record(7, ok, f"relative error vs normal equations {rel:.2e} "
                       f"(limit 1e-4), {elapsed:.1f}s (limit 30s)")


class TestCriterion8QualityOrdering:
    def test_beats_zero_filled_fbp(self, run64):
        spec, truth, fbp_zf, outputs, elapsed = run64
        final = outputs[0][0]
        p_solver = psnr(final.x, truth)
        p_fbp = psnr(fbp_zf, truth)
        ok = p_solver >= p_fbp + 3.0 and elapsed < 300.0
        _record(8, ok, f"solver {p_solver:.2f} dB vs zero-filled FBP "
                       f"{p_fbp:.2f} dB (margin >= 3 dB), "
                       f"{elapsed:.0f}s for both runs (limit 300s)")


class TestCriterion9Determinism:
    def test_byte_identical_runs(self, run64):
        _, _, _, outputs, _ = run64
        (_, _, out_a), (_, _, out_b) = outputs
        names = ("recon.f64", "recon_sino.f64", "iterations.csv",
                 "iterations.json")
        mismatched = [n for n in names
                      if (out_a / n).read_bytes() != (out_b / n).read_bytes()]
        ok = not mismatched
        _record(9, ok, "byte-identical repeat run"
                if ok else f"differing artifacts: {mismatched}")


class TestCriterion10TVEquivalence:
    @staticmethod
    def _huber_tv(y, eps, scale):
        """Independent isotropic Huber total variation (forward
        differences, zero beyond the far edge)."""
        dh = np.zeros_like(y)
        dh[:, :-1] = y[:, 1:] - y[:, :-1]
        dh[:, -1] = -y[:, -1]
        dv = np.zeros_like(y)
        dv[:-1] = y[1:] - y[:-1]
        dv[-1] = -y[-1]
        mag = scale * np.hypot(dh, dv)
        return float(np.sum(np.where(mag <= eps,
                                     mag**2 / (2.0 * eps),
                                     mag - 0.5 * eps)))

    def test_matches_independent_huber_tv(self):
        rng = np.random.default_rng(4)
        stack = make_tv_weights(scale=0.7)
        eps = 0.05
        worst = 0.0
        for _ in range(20):
            y = rng.standard_normal((14, 11))
            ours = smoothed_value(y, stack, eps)
            ref = self._huber_tv(y, eps, 0.7)
            worst = max(worst, abs(ours - ref) / abs(ref))
        ok = worst <= 1e-12
        _record(10, ok, f"relative deviation from independent Huber-TV "
                        f"{worst:.2e} (limit 1e-12)")

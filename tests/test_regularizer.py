import json
import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dualct.errors import ConfigError, FormatError
from dualct import regularizer
from dualct.io import load_weights, save_array, save_weights
from dualct.regularizer import (LANCZOS_STEPS, ConvStack, feature_forward,
                                feature_jvp, feature_vjp, l21_norm,
                                lanczos_top_eigenvalue, lipschitz_estimate,
                                make_random_weights, make_tv_weights,
                                smoothed_grad, smoothed_relu, smoothed_value)


class TestSmoothedRelu:
    def test_regions(self):
        d = 0.1
        assert smoothed_relu(-0.5, d) == (0.0, 0.0)
        assert smoothed_relu(0.5, d) == (0.5, 1.0)
        # at t = 0 the quadratic piece gives delta/4, at slope 1/2
        assert smoothed_relu(0.0, d) == pytest.approx((d / 4.0, 0.5))

    def test_c1_at_knots(self):
        d = 0.05
        for t in (-d, d):
            (left, dl), (right, dr) = smoothed_relu(t - 1e-9, d), smoothed_relu(t + 1e-9, d)
            assert abs(left - right) < 1e-8
            assert abs(dl - dr) < 1e-7

    def test_derivative_matches_fd(self, rng):
        d = 0.07
        t = rng.uniform(-0.3, 0.3, size=200)
        h = 1e-7
        fd = (smoothed_relu(t + h, d)[0] - smoothed_relu(t - h, d)[0]) / (2 * h)
        np.testing.assert_allclose(smoothed_relu(t, d)[1], fd, atol=1e-6)


class TestConvStackValidation:
    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            ConvStack((np.zeros((1, 1, 2, 3)),))

    def test_channel_mismatch_rejected(self):
        layers = (np.zeros((4, 1, 3, 3)), np.zeros((2, 3, 3, 3)))
        with pytest.raises(ConfigError):
            ConvStack(layers)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            ConvStack(())

    def test_nonfinite_rejected(self):
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 0, 0] = np.inf
        with pytest.raises(ConfigError):
            ConvStack((w,))

    @pytest.mark.parametrize("layers", [(np.zeros((0, 1, 3, 3)),),
                                        (np.zeros((2, 1, 3, 3)), np.zeros((0, 2, 3, 3)))])
    def test_zero_extent_rejected(self, layers):
        with pytest.raises(ConfigError, match="at least 1"):
            ConvStack(layers)

    @pytest.mark.parametrize("delta", [0.0, -1.0, math.nan, math.inf])
    def test_bad_delta_rejected(self, delta):
        with pytest.raises(ConfigError, match="activation_delta"):
            ConvStack((np.zeros((1, 1, 3, 3)),), delta)

    @pytest.mark.parametrize("n_channels, kernel", [(0, (3, 3)), (-1, (3, 3)), (2, (-1, 3))])
    def test_empty_random_stack_rejected(self, n_channels, kernel):
        with pytest.raises(ConfigError, match="channels and kernel must be >= 1"):
            make_random_weights(n_channels=n_channels, kernel=kernel)


class TestFeatureExtractor:
    def test_tv_weights_match_forward_differences(self, rng):
        y = rng.standard_normal((9, 7))
        features, _ = feature_forward(y, make_tv_weights())
        dh = np.zeros_like(y)
        dh[:, :-1] = y[:, 1:] - y[:, :-1]
        dh[:, -1] = -y[:, -1]  # zero padding beyond the far edge
        dv = np.zeros_like(y)
        dv[:-1] = y[1:] - y[:-1]
        dv[-1] = -y[-1]
        expected = np.stack([dh.ravel(), dv.ravel()], axis=1)
        np.testing.assert_allclose(features, expected, atol=1e-14)

    def test_vjp_is_adjoint_of_jvp(self, rng):
        stack = make_random_weights(3, n_layers=2, n_channels=4)
        y = rng.standard_normal((10, 8))
        _, slopes = feature_forward(y, stack)
        for _ in range(20):
            v = rng.standard_normal(y.shape)
            u = rng.standard_normal((y.size, stack.out_channels))
            jv = feature_jvp(v, stack, slopes)
            jtu = feature_vjp(y, stack, u, slopes)
            lhs = np.sum(jv * u)
            rhs = np.sum(v * jtu)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_cached_passes_match_recomputed(self, rng):
        stack = make_random_weights(4, n_layers=3, n_channels=3)
        y = rng.standard_normal((7, 9))
        v = rng.standard_normal(y.shape)
        eps = 0.05
        forward = feature_forward(y, stack)
        np.testing.assert_array_equal(feature_jvp(v, stack, forward[1]),
                                      feature_jvp(v, stack, feature_forward(y, stack)[1]))
        assert (smoothed_value(y, stack, eps, forward=forward)
                == smoothed_value(y, stack, eps))
        np.testing.assert_array_equal(
            smoothed_grad(y, stack, eps, forward=forward),
            smoothed_grad(y, stack, eps))

    def test_jvp_matches_finite_differences(self, rng):
        stack = make_random_weights(5, n_layers=2, n_channels=3)
        y = rng.standard_normal((8, 8))
        v = rng.standard_normal((8, 8))
        h = 1e-6
        fplus, _ = feature_forward(y + h * v, stack)
        fminus, _ = feature_forward(y - h * v, stack)
        fd = (fplus - fminus) / (2 * h)
        _, slopes = feature_forward(y, stack)
        np.testing.assert_allclose(feature_jvp(v, stack, slopes), fd, atol=1e-6)


def _conv_layer_reference(h, w):
    """The conv pass written out with ``ndimage.correlate``:
    h (in_c, H, W) -> (out_c, H, W), summing over input channels in order."""
    from scipy import ndimage
    out = np.empty((w.shape[0],) + h.shape[1:])
    for o in range(w.shape[0]):
        acc = ndimage.correlate(h[0], w[o, 0], mode="constant")
        for i in range(1, w.shape[1]):
            acc += ndimage.correlate(h[i], w[o, i], mode="constant")
        out[o] = acc
    return out


def _conv_layer_transpose_reference(g, w):
    """The transposed conv pass written out with ``ndimage.convolve``:
    g (out_c, H, W) -> (in_c, H, W), summing over output channels in order."""
    from scipy import ndimage
    out = np.empty((w.shape[1],) + g.shape[1:])
    for i in range(w.shape[1]):
        acc = ndimage.convolve(g[0], w[0, i], mode="constant")
        for o in range(1, w.shape[0]):
            acc += ndimage.convolve(g[o], w[o, i], mode="constant")
        out[i] = acc
    return out


def assert_matches_reference(got, h, w, reference):
    """``got`` equals ``reference(h, w)`` to 1e-13 relative to the sum of
    absolute terms at each site, ``reference(|h|, |w|)``: the BLAS products
    sum over channels and taps in another order than the reference."""
    want = reference(h, w)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-13 * reference(np.abs(h), np.abs(w)))


def assert_adjoint(h, g, w):
    """<K h, g> == <h, K^T g> to 1e-12 relative to the sum of the absolute
    terms, which bounds both sides."""
    lhs = np.sum(regularizer._conv_layer(h, w) * g)
    rhs = np.sum(h * regularizer._conv_layer_adjoint(g, w))
    scale = np.sum(_conv_layer_reference(np.abs(h), np.abs(w)) * np.abs(g))
    assert abs(lhs - rhs) <= 1e-12 * scale


class TestTransposedConv:
    """The conv pass and its transpose against the ndimage references.

    The im2col products sum over channels and taps in another order than
    the references, so outputs, TV's included, match them to rounding."""

    @pytest.mark.parametrize("kernel", [(1, 1), (3, 3), (3, 15), (5, 3), (3, 1)])
    @pytest.mark.parametrize("in_c, out_c", [(1, 1), (1, 16), (8, 8), (16, 3)])
    def test_bytes_match_convolve(self, rng, kernel, in_c, out_c):
        w = rng.standard_normal((out_c, in_c) + kernel)
        w[rng.random(w.shape) < 0.3] = 0.0  # zero taps
        g = rng.standard_normal((out_c, 9, 17))
        h = rng.standard_normal((in_c, 9, 17))
        assert_matches_reference(regularizer._conv_layer_adjoint(g, w), g, w,
                                 _conv_layer_transpose_reference)
        assert_matches_reference(regularizer._conv_layer(h, w), h, w, _conv_layer_reference)
        assert_adjoint(h, g, w)

    def test_tv_bytes_match_convolve(self, rng):
        w = make_tv_weights(scale=0.7).layers[0]
        g = rng.standard_normal((2, 12, 10))
        h = rng.standard_normal((1, 12, 10))
        assert_matches_reference(regularizer._conv_layer(h, w), h, w, _conv_layer_reference)
        assert_matches_reference(regularizer._conv_layer_adjoint(g, w), g, w,
                                 _conv_layer_transpose_reference)

    @pytest.mark.parametrize("kernel, out_c", [((3, 3), 1), ((3, 15), 16), ((5, 3), 8)])
    def test_single_input_channel_bytes_match_correlate(self, rng, kernel, out_c):
        w = rng.standard_normal((out_c, 1) + kernel)
        w[rng.random(w.shape) < 0.3] = 0.0
        h = rng.standard_normal((1, 9, 17))
        assert_matches_reference(regularizer._conv_layer(h, w), h, w, _conv_layer_reference)

    def test_blocked_sinogram_layer(self, rng):
        # cnn32's hidden sinogram layer: 8 -> 8 channels, 3x15 taps, on a
        # 90x47 field is 90*61 = 5490 sites in blocks of 182, the last partial
        w = rng.standard_normal((8, 8, 3, 15))
        h = rng.standard_normal((8, 90, 47))
        g = rng.standard_normal((8, 90, 47))
        assert regularizer.WINDOW // w[0].size == 182 and 5490 % 182
        assert_matches_reference(regularizer._conv_layer(h, w), h, w, _conv_layer_reference)
        assert_matches_reference(regularizer._conv_layer_adjoint(g, w), g, w,
                                 _conv_layer_transpose_reference)
        assert_adjoint(h, g, w)

    def test_blocked_layer_scratch_is_bounded(self, rng):
        # the whole (360, 5490) im2col matrix alone would take 16 MB
        w = rng.standard_normal((8, 8, 3, 15))
        h = rng.standard_normal((8, 90, 47))
        tracemalloc.start()
        try:
            regularizer._conv_layer(h, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_scratch_reused_after_a_larger_call(self, rng):
        # the larger field leaves its values where the smaller one's padding goes
        w = rng.standard_normal((2, 3, 5, 3))
        regularizer._conv_layer(rng.standard_normal((3, 40, 30)), w)
        h = rng.standard_normal((3, 9, 17))
        assert_matches_reference(regularizer._conv_layer(h, w), h, w, _conv_layer_reference)

    @pytest.mark.parametrize("taps", [
        (slice(0, 1), slice(0, 1)), (slice(3, 5), slice(4, 7)),  # corners
        (slice(2, 3), slice(None)), (slice(4, 5), slice(1, 6)),  # one row
        (slice(None), slice(0, 1)), (slice(1, 4), slice(6, 7)),  # one column
    ])
    def test_taps_in_part_of_the_kernel(self, rng, taps):
        w = np.zeros((3, 2, 5, 7))
        w[:, :, taps[0], taps[1]] = rng.standard_normal(w[:, :, taps[0], taps[1]].shape)
        h = rng.standard_normal((2, 11, 6))
        g = rng.standard_normal((3, 11, 6))
        assert_matches_reference(regularizer._conv_layer(h, w), h, w, _conv_layer_reference)
        assert_matches_reference(regularizer._conv_layer_adjoint(g, w), g, w,
                                 _conv_layer_transpose_reference)
        assert_adjoint(h, g, w)

    @settings(max_examples=150, deadline=None)
    @given(dims=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(0, 4),
                          st.integers(0, 4), st.integers(1, 9), st.integers(1, 9)),
           zeros=st.sampled_from([0.0, 0.3, 1.0]), seed=st.integers(0, 2**32 - 1))
    def test_random_shapes(self, dims, zeros, seed):
        # odd kernels from 1x1 up to 9x9, so some are wider or taller than
        # the field; no, 30% or all of the taps zero
        out_c, in_c, kh, kw, rows, cols = dims
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((out_c, in_c, 2 * kh + 1, 2 * kw + 1))
        w[rng.random(w.shape) < zeros] = 0.0
        h = rng.standard_normal((in_c, rows, cols))
        g = rng.standard_normal((out_c, rows, cols))
        got = regularizer._conv_layer(h, w)
        assert_matches_reference(got, h, w, _conv_layer_reference)
        assert_matches_reference(regularizer._conv_layer_adjoint(g, w), g, w,
                                 _conv_layer_transpose_reference)
        assert_adjoint(h, g, w)
        if zeros == 1.0:
            assert not np.any(got)


class TestSmoothedRegularizer:
    def test_gap_bound(self, rng):
        stack = make_random_weights(7, n_layers=2, n_channels=5)
        for eps in (1.0, 0.1, 0.01):
            for _ in range(10):
                y = rng.standard_normal((9, 9)) * 2.0
                exact = l21_norm(feature_forward(y, stack)[0])
                smooth = smoothed_value(y, stack, eps)
                m = y.size
                assert -1e-12 <= exact - smooth <= m * eps / 2 + 1e-12

    def test_gradient_matches_finite_differences(self, rng):
        stack = make_random_weights(11, n_layers=2, n_channels=4)
        eps = 0.05
        y = rng.standard_normal((7, 7))
        g = smoothed_grad(y, stack, eps)
        h = 1e-6
        for _ in range(25):
            v = rng.standard_normal(y.shape)
            v /= np.linalg.norm(v)
            fd = (smoothed_value(y + h * v, stack, eps)
                  - smoothed_value(y - h * v, stack, eps)) / (2 * h)
            assert abs(np.sum(g * v) - fd) < 1e-6

    def test_zero_weights_vanish(self, rng):
        stack = ConvStack((np.zeros((1, 1, 3, 3)),))
        y = rng.standard_normal((6, 6))
        assert smoothed_value(y, stack, 0.1) == 0.0
        assert np.all(smoothed_grad(y, stack, 0.1) == 0.0)


class TestLipschitzEstimate:
    def test_huge_weights_give_an_infinite_estimate(self):
        assert lipschitz_estimate(make_tv_weights(scale=1e160), (8, 8))(0.1) == math.inf

    def test_tv_spectral_bound(self):
        # forward differences: J^T J has spectral norm < 8 (approaches 8
        # from below as the grid grows), so the estimate is M^2/eps with
        # M^2 in (4, 8].
        eps = 0.1
        est = lipschitz_estimate(make_tv_weights(), (32, 32))(eps)
        assert 4.0 / eps < est <= 8.0 / eps + 1e-9

    def test_scaling_with_eps(self):
        # single linear layer: no curvature term, so the estimate is
        # exactly proportional to 1/eps
        stack = make_tv_weights()
        bound = lipschitz_estimate(stack, (16, 16))
        e1 = bound(0.1)
        e2 = bound(0.05)
        assert e2 == pytest.approx(2.0 * e1, rel=1e-10)

    def test_gradient_actually_lipschitz(self, rng):
        # empirical check: |grad(y1) - grad(y2)| <= L |y1 - y2|
        stack = make_random_weights(2, n_layers=2, n_channels=4)
        eps = 0.1
        lip = lipschitz_estimate(stack, (8, 8))(eps)
        for _ in range(20):
            y1 = rng.standard_normal((8, 8))
            y2 = y1 + 1e-3 * rng.standard_normal((8, 8))
            dg = np.linalg.norm(smoothed_grad(y1, stack, eps)
                                - smoothed_grad(y2, stack, eps))
            assert dg <= lip * np.linalg.norm(y1 - y2) * (1 + 1e-9)


def _power_iteration_reference(apply, v, power_iters):
    """Largest eigenvalue of the symmetric positive semidefinite operator
    ``apply`` by power iteration from ``v``: the estimator that the Lanczos
    steps replaced (0.0 if an iterate vanishes, inf past the float range)."""
    v = v / np.linalg.norm(v)
    lam = 0.0
    for _ in range(power_iters):
        w = apply(v)
        s = regularizer._scale_of(w)
        lam = float(np.linalg.norm(w * s)) / s
        if not math.isfinite(lam):
            return math.inf
        if lam == 0.0:
            return 0.0
        v = w / lam
    return lam


def _lanczos_steps(apply, v):
    return lanczos_top_eigenvalue(apply, v, LANCZOS_STEPS)


def _thirty_power_steps(apply, v):
    return _power_iteration_reference(apply, v, 30)


def _float64_jacobian_norm_sq(stack, probe_shape, estimate=_lanczos_steps):
    """M^2 as ``estimate(apply, start)`` over J^T J of the layers as they
    are, in float64, from the probe and start that
    :func:`lipschitz_estimate` draws."""
    rng = np.random.default_rng(0)
    y = rng.standard_normal(probe_shape)
    _, slopes = feature_forward(y, stack)
    return estimate(
        lambda v: feature_vjp(y, stack, feature_jvp(v, stack, slopes), slopes),
        rng.standard_normal(probe_shape))


def _estimated_norm_sq(stack, probe_shape):
    """M^2 of :func:`lipschitz_estimate`, which is sqrt(m)*L_g + M^2/eps."""
    bound = lipschitz_estimate(stack, probe_shape)
    return bound(0.5) - bound(1.0)


class TestLanczos:
    """The Lanczos estimator on small dense operators and at the edges of
    the float range."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n=st.integers(1, 12), rank=st.integers(0, 12), steps=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_between_power_steps_and_the_top_eigenvalue(self, n, rank, steps, seed):
        # B = M^T M with M of ``rank`` rows; k Lanczos steps span the Krylov
        # space of k - 1 power steps and one more product, so they reach at
        # least the power estimate, and they find the top eigenvalue once
        # the space closes
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((rank, n))
        b = m.T @ m
        v = rng.standard_normal(n)
        got = lanczos_top_eigenvalue(lambda x: b @ x, v, steps)
        top = max(float(np.linalg.eigvalsh(b)[-1]), 0.0)
        power = _power_iteration_reference(lambda x: b @ x, v, steps - 1)
        assert power * (1 - 1e-10) <= got <= top * (1 + 1e-10)
        if min(rank, n) < steps:
            assert got == pytest.approx(top, rel=1e-10, abs=0.0)

    def test_zero_operator_gives_zero(self):
        assert lanczos_top_eigenvalue(lambda x: np.zeros((5, 5)) @ x, np.ones(5), 12) == 0.0
        assert lanczos_top_eigenvalue(lambda x: 0.0 * x, np.ones((3, 4)), 1) == 0.0

    def test_near_the_float_limits(self):
        # the squares of the entries overflow or underflow, the norm does not
        assert lanczos_top_eigenvalue(lambda v: 1e300 * v, np.ones(4), 12) == 1e300
        assert lanczos_top_eigenvalue(lambda v: 1e-170 * v, np.ones(4), 12) == 1e-170
        assert lanczos_top_eigenvalue(lambda v: 1e-320 * v, np.ones(4), 12) == pytest.approx(
            1e-320, rel=1e-2)  # subnormal

    def test_overflow_is_infinite(self):
        # the first product holds infinities; its Rayleigh quotient is not finite
        with np.errstate(over="ignore"):
            assert lanczos_top_eigenvalue(lambda v: 1e308 * 10 * v, np.ones(4), 12) == math.inf


def _cnn32_stacks():
    """cnn32's image and sinogram stacks at workload seeds 0-9, on their
    probe shapes."""
    for seed in range(10):
        yield pytest.param(make_random_weights(seed, n_layers=3, n_channels=8, kernel=(3, 3)),
                           (32, 32), id=f"image-{seed}")
        yield pytest.param(make_random_weights(seed + 1, n_layers=3, n_channels=8,
                                               kernel=(3, 15)), (90, 47), id=f"sinogram-{seed}")


@pytest.mark.parametrize("stack, probe_shape", [
    *_cnn32_stacks(),
    *(pytest.param(make_tv_weights(), shape, id=f"tv-{shape[0]}x{shape[1]}")
      for shape in [(64, 64), (90, 95), (128, 128), (180, 185)])])
def test_estimate_not_below_thirty_power_steps(stack, probe_shape):
    want = _float64_jacobian_norm_sq(stack, probe_shape, _thirty_power_steps)
    assert _estimated_norm_sq(stack, probe_shape) >= want * (1 - 1e-6)


FLOAT32_STACKS = [(make_tv_weights(), (32, 32)),
                  (make_random_weights(3, n_layers=3, n_channels=4, kernel=(3, 3)), (24, 20)),
                  (make_random_weights(4, n_layers=3, n_channels=4, kernel=(3, 15)), (30, 47)),
                  (make_random_weights(5, n_layers=2, n_channels=6, kernel=(5, 3)), (21, 18))]


class TestFloat32PowerIteration:
    """The Jacobian norm from float32 Lanczos steps on unit-norm layers,
    against a float64 run of the same steps on the layers as they are."""

    @pytest.mark.parametrize("stack, probe_shape", FLOAT32_STACKS)
    def test_matches_float64_steps(self, stack, probe_shape):
        want = _float64_jacobian_norm_sq(stack, probe_shape)
        assert _estimated_norm_sq(stack, probe_shape) == pytest.approx(want, rel=1e-5)

    @pytest.mark.parametrize("stack, probe_shape", FLOAT32_STACKS[1:])
    def test_large_weights_stay_finite(self, stack, probe_shape):
        big = ConvStack(tuple(w * 1e15 for w in stack.layers), stack.activation_delta)
        want = _float64_jacobian_norm_sq(big, probe_shape)
        assert math.isfinite(want)
        assert _estimated_norm_sq(big, probe_shape) == pytest.approx(want, rel=1e-5)
        # the same steps in float32 without the normalization overflow
        as_float32 = SimpleNamespace(layers=tuple(w.astype(np.float32) for w in big.layers))
        y = np.random.default_rng(0).standard_normal(probe_shape)
        slopes = [s.astype(np.float32) for s in feature_forward(y, big)[1]]
        with np.errstate(over="ignore", invalid="ignore"):
            assert _lanczos_steps(
                lambda v: feature_vjp(y, as_float32, feature_jvp(v, as_float32, slopes), slopes),
                np.ones(probe_shape, np.float32)) == math.inf

    @pytest.mark.parametrize("zero_at", [0, 1, 2])
    def test_zero_layer_gives_zero(self, zero_at):
        layers = list(make_random_weights(6, n_layers=3, n_channels=4).layers)
        layers[zero_at] = np.zeros_like(layers[zero_at])
        assert lipschitz_estimate(ConvStack(tuple(layers)), (12, 12))(0.1) == 0.0
        tv_zero = make_tv_weights(scale=0.0)
        assert lipschitz_estimate(tv_zero, (12, 12))(0.1) == 0.0


class TestWeightIO:
    def test_roundtrip_exact(self, tmp_path):
        stack = make_random_weights(9, n_layers=3, n_channels=6)
        path = tmp_path / "w.f64"
        save_weights(stack, path)
        loaded = load_weights(path)
        assert loaded.n_layers == stack.n_layers
        assert loaded.activation_delta == stack.activation_delta
        for a, b in zip(loaded.layers, stack.layers):
            np.testing.assert_array_equal(a, b)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "w.f64"
        save_weights(make_tv_weights(), path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(FormatError):
            load_weights(path)

    def test_random_weights_deterministic(self):
        a = make_random_weights(4)
        b = make_random_weights(4)
        for wa, wb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(wa, wb)
        c = make_random_weights(5)
        assert any(not np.array_equal(wa, wc)
                   for wa, wc in zip(a.layers, c.layers))


def save_unchecked(path, layers, delta=0.01):
    """A weight file for layers and a delta that ConvStack would reject."""
    save_array(path, np.concatenate([np.ravel(w) for w in layers] + [np.zeros(0)]),
               {"kind": "weights", "layer_shapes": [list(np.shape(w)) for w in layers],
                "activation_delta": delta})


# What a JSON sidecar can hold, weighted towards the edges of a layer shape
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=3),
    st.sampled_from([0, 1, 2, 3, -1, 2**16, 2**63, 2**64]), st.integers())
JSON_VALUES = st.recursive(JSON_SCALARS, lambda inner: st.lists(inner, max_size=5),
                           max_leaves=12)
FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestDamagedWeightFiles:
    """Whatever a weight file holds, load_weights returns a ConvStack or
    raises FormatError."""

    @pytest.fixture
    def valid(self, tmp_path):
        path = tmp_path / "w.f64"
        save_weights(make_random_weights(3, n_layers=2, n_channels=2), path)
        return path, path.read_bytes(), Path(f"{path}.json").read_text()

    def test_truncated_at_every_offset(self, valid):
        path, data, text = valid
        for end in range(len(data)):
            path.write_bytes(data[:end])
            with pytest.raises(FormatError):
                load_weights(path)
        path.write_bytes(data)
        for end in range(len(text.rstrip())):  # every cut before the closing brace
            Path(f"{path}.json").write_text(text[:end])
            with pytest.raises(FormatError):
                load_weights(path)

    @FUZZ
    @given(tail=st.binary(min_size=1, max_size=40))
    def test_appended_bytes(self, valid, tail):
        path, data, _ = valid
        path.write_bytes(data + tail)
        with pytest.raises(FormatError, match="does not match shape"):
            load_weights(path)

    @FUZZ
    @given(field=st.sampled_from(["layer_shapes", "activation_delta", "shape"]),
           value=JSON_VALUES, dim=st.none() | st.tuples(st.integers(0, 1), st.integers(0, 3)),
           payload=st.none() | st.integers(0, 54 * 8 - 1) | st.binary(min_size=1, max_size=16))
    def test_fuzzed_sidecar(self, valid, field, value, dim, payload):
        # one field replaced, or one dimension of one layer shape; the
        # payload kept, truncated to a byte count or extended by some bytes
        path, data, text = valid
        sidecar = json.loads(text)
        if dim is None:
            sidecar[field] = value
        else:
            sidecar["layer_shapes"][dim[0]][dim[1]] = value
        Path(f"{path}.json").write_text(json.dumps(sidecar))
        path.write_bytes(data if payload is None else data[:payload]
                         if isinstance(payload, int) else data + payload)
        try:
            assert isinstance(load_weights(path), ConvStack)
        except FormatError as exc:
            assert str(path) in str(exc)

    def test_overflowing_layer_shape(self, tmp_path):
        # 65536**4 elements wrap to 0 in int64 arithmetic
        path = tmp_path / "w.f64"
        save_weights(make_tv_weights(), path)
        sidecar = Path(f"{path}.json")
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()),
                                       "layer_shapes": [[65536] * 4]}))
        with pytest.raises(FormatError, match=f"need {65536**4} values"):
            load_weights(path)

    @pytest.mark.parametrize("layers, delta, message", [
        ((np.ones((2, 1, 3, 3)),), math.nan, "activation_delta"),
        ((np.full((1, 1, 3, 3), np.nan),), 0.01, "non-finite"),
        ((np.ones((1, 1, 2, 2)),), 0.01, "odd"),
        ((), 0.01, "at least one layer"),
        ((np.ones((0, 1, 3, 3)), np.ones((2, 0, 3, 3))), 0.01, "at least 1"),
    ])
    def test_rejected_stack_names_the_file(self, tmp_path, layers, delta, message):
        path = tmp_path / "w.f64"
        save_unchecked(path, layers, delta)
        with pytest.raises(FormatError, match=message) as exc:
            load_weights(path)
        assert str(path) in str(exc.value)

import math
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dualct.errors import ConfigError, FormatError, InputError
from dualct import regularizer
from dualct.regularizer import (ConvStack, feature_forward,
                                feature_jvp, feature_vjp, l21_norm,
                                lipschitz_estimate, load_weights,
                                make_random_weights, make_tv_weights,
                                make_zero_weights, save_weights,
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
            jv = feature_jvp(y, stack, v, slopes)
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
        np.testing.assert_array_equal(feature_jvp(y, stack, v, forward[1]),
                                      feature_jvp(y, stack, v, feature_forward(y, stack)[1]))
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
        np.testing.assert_allclose(feature_jvp(y, stack, v, slopes), fd, atol=1e-6)

    def test_cotangent_shape_checked(self, rng):
        stack = make_tv_weights()
        y = rng.standard_normal((6, 6))
        _, slopes = feature_forward(y, stack)
        with pytest.raises(InputError):
            feature_vjp(y, stack, np.zeros((36, 5)), slopes)


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
    absolute terms at each site, ``reference(|h|, |w|)``: the per-tap BLAS
    products sum over channels in another order than the reference."""
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

    The per-tap BLAS products sum over channels in another order than the
    references, so outputs match them to rounding; only single-input-channel
    forward passes, TV's included, match byte for byte."""

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
        assert regularizer._conv_layer(h, w).tobytes() == _conv_layer_reference(h, w).tobytes()
        assert_matches_reference(regularizer._conv_layer_adjoint(g, w), g, w,
                                 _conv_layer_transpose_reference)

    @pytest.mark.parametrize("kernel, out_c", [((3, 3), 1), ((3, 15), 16), ((5, 3), 8)])
    def test_single_input_channel_bytes_match_correlate(self, rng, kernel, out_c):
        # each tap's product is a plain multiply, added tap by tap in
        # row-major order, as ndimage adds them
        w = rng.standard_normal((out_c, 1) + kernel)
        w[rng.random(w.shape) < 0.3] = 0.0
        h = rng.standard_normal((1, 9, 17))
        got = regularizer._conv_layer(h, w)
        assert got.tobytes() == _conv_layer_reference(h, w).tobytes()

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
        stack = make_zero_weights()
        y = rng.standard_normal((6, 6))
        assert smoothed_value(y, stack, 0.1) == 0.0
        assert np.all(smoothed_grad(y, stack, 0.1) == 0.0)

    def test_bad_eps(self, rng):
        with pytest.raises(ConfigError):
            smoothed_value(np.zeros((4, 4)), make_tv_weights(), 0.0)


class TestLipschitzEstimate:
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

    def test_nonpositive_eps_rejected(self):
        bound = lipschitz_estimate(make_tv_weights(), (8, 8))
        with pytest.raises(ConfigError):
            bound(0.0)

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


class TestWeightIO:
    def test_roundtrip_exact(self, tmp_path):
        stack = make_random_weights(9, n_layers=3, n_channels=6)
        path = tmp_path / "w.bin"
        save_weights(stack, path)
        loaded = load_weights(path)
        assert loaded.n_layers == stack.n_layers
        assert loaded.activation_delta == stack.activation_delta
        for a, b in zip(loaded.layers, stack.layers):
            np.testing.assert_array_equal(a, b)

    def test_meta_sidecar_written(self, tmp_path):
        import json
        path = tmp_path / "w.bin"
        save_weights(make_tv_weights(), path)
        with open(str(path) + ".meta.json") as fh:
            meta = json.load(fh)
        assert meta["n_layers"] == 1
        assert meta["layer_shapes"] == [[2, 1, 3, 3]]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError) as exc:
            load_weights(path)
        assert exc.value.offset == 0

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "w.bin"
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
    """save_weights for layers and a delta that ConvStack would reject."""
    save_weights(SimpleNamespace(layers=layers, activation_delta=delta,
                                 n_layers=len(layers)), path)


# A valid two-layer file: magic, then version and n_layers at byte 4 and 8,
# delta at 12, the four shape fields of each layer from 20, the payload at 52.
U32_FIELDS = [4, 8, *range(20, 52, 4)]
U32 = st.one_of(st.sampled_from([0, 1, 2, 3, 2**16, 2**32 - 1]), st.integers(0, 2**32 - 1))
FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestDamagedWeightFiles:
    """Whatever a weight file holds, load_weights returns a ConvStack or
    raises FormatError."""

    @pytest.fixture
    def valid(self, tmp_path):
        path = tmp_path / "w.bin"
        save_weights(make_random_weights(3, n_layers=2, n_channels=2), path)
        return path, path.read_bytes()

    def test_truncated_at_every_offset(self, valid):
        path, data = valid
        for end in range(len(data)):
            path.write_bytes(data[:end])
            with pytest.raises(FormatError):
                load_weights(path)

    @FUZZ
    @given(tail=st.binary(min_size=1, max_size=40))
    def test_appended_bytes(self, valid, tail):
        path, data = valid
        path.write_bytes(data + tail)
        with pytest.raises(FormatError, match="after the payload"):
            load_weights(path)

    @FUZZ
    @given(patch=st.one_of(
        st.tuples(st.sampled_from(U32_FIELDS), U32.map(lambda v: struct.pack("<I", v))),
        st.tuples(st.just(12), st.floats().map(lambda v: struct.pack("<d", v)))))
    def test_fuzzed_header_field(self, valid, patch):
        path, data = valid
        off, raw = patch
        path.write_bytes(data[:off] + raw + data[off + len(raw):])
        try:
            load_weights(path)
        except FormatError:
            pass

    def test_overflowing_layer_shape(self, tmp_path):
        # 65536**4 elements wrap to 0 in int64 arithmetic
        path = tmp_path / "w.bin"
        save_weights(make_tv_weights(), path)
        data = path.read_bytes()
        path.write_bytes(data[:20] + struct.pack("<4I", *(65536,) * 4) + data[36:])
        with pytest.raises(FormatError, match="truncated payload"):
            load_weights(path)

    @pytest.mark.parametrize("layers, delta, message", [
        ((np.ones((2, 1, 3, 3)),), math.nan, "activation_delta"),
        ((np.full((1, 1, 3, 3), np.nan),), 0.01, "non-finite"),
        ((np.ones((1, 1, 2, 2)),), 0.01, "odd"),
        ((), 0.01, "at least one layer"),
        ((np.ones((0, 1, 3, 3)), np.ones((2, 0, 3, 3))), 0.01, "at least 1"),
    ])
    def test_rejected_stack_names_the_file(self, tmp_path, layers, delta, message):
        path = tmp_path / "w.bin"
        save_unchecked(path, layers, delta)
        with pytest.raises(FormatError, match=message) as exc:
            load_weights(path)
        assert str(path) in str(exc.value)

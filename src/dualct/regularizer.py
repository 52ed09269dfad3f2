"""Composite group-sparsity regularizer.

A small convolutional feature extractor g maps a 2-D field to an
(site x channel) feature array; the regularizer is the l2,1 norm of the
features, Huber-smoothed with half-width eps so that it is C^1. The
gradient is obtained by hand-rolled backpropagation through g (transpose
convolutions + activation slopes cached by the forward pass).
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, FormatError, InputError, config_float, config_int,
                     config_seed, list_of, read_fields)

WEIGHT_MAGIC = b"DCTW"
WEIGHT_VERSION = 1


def smoothed_relu(t, delta):
    """C^1 quadratic-spline ReLU (0 below -delta, identity above delta) and
    its slope, which lies in [0, 1]; returns ``(value, slope)``."""
    t = np.asarray(t, dtype=float)
    low, high, shifted = t <= -delta, t >= delta, t + delta
    return (np.where(low, 0.0, np.where(high, t, shifted**2 / (4.0 * delta))),
            np.where(low, 0.0, np.where(high, 1.0, shifted / (2.0 * delta))))


@dataclass(frozen=True)
class ConvStack:
    """Weights of the feature extractor: pure convolutions, no bias.

    Each layer is an array of shape (out_channels, in_channels, kh, kw)
    with odd kernel dims; layers are applied with stride 1 and zero "same"
    padding, separated by the smoothed ReLU (the last layer stays linear).
    """

    layers: tuple[np.ndarray, ...]
    activation_delta: float = 0.01

    def __post_init__(self):
        if not self.layers:
            raise ConfigError("ConvStack needs at least one layer")
        read_fields(self, activation_delta=config_float)
        if not self.activation_delta > 0:
            raise ConfigError(f"activation_delta must be positive, got {self.activation_delta}")
        in_c = 1
        for li, w in enumerate(self.layers):
            if w.ndim != 4 or min(w.shape) < 1:
                raise ConfigError(f"layer {li}: weights must be 4-D (out, in, kh, kw) with "
                                  f"every dimension at least 1, got shape {w.shape}")
            if w.shape[1] != in_c:
                raise ConfigError(f"layer {li}: expected {in_c} input channels, got {w.shape[1]}")
            if w.shape[2] % 2 == 0 or w.shape[3] % 2 == 0:
                raise ConfigError(f"layer {li}: kernel dims must be odd")
            if not np.all(np.isfinite(w)):
                raise ConfigError(f"layer {li}: non-finite weights")
            in_c = w.shape[0]

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def out_channels(self) -> int:
        return self.layers[-1].shape[0]


def _conv_layer(h, w):
    """Apply one layer: h (in_c, H, W) -> (out_c, H, W), zero "same" padding.

    A correlation as one BLAS product per nonzero kernel tap. ``h`` is
    zero-padded once into a flat (in_c, L) buffer whose rows are
    Wp = W + kw - 1 wide, so the inputs of tap (a, b) for every output
    site are the unit-stride window that starts at a*Wp + b. The products
    accumulate on (out_c, H, Wp) rows whose last kw - 1 columns are cropped.
    ``np.dot``, not ``@``: numpy's matmul skips BLAS when in_c is 1.
    """
    out_c, in_c, kh, kw = w.shape
    _, rows, cols = h.shape
    wp = cols + kw - 1
    n = rows * wp
    hp = np.zeros((in_c, (rows + kh - 1) * wp + kw - 1))
    hp[:, :(rows + kh - 1) * wp].reshape(in_c, rows + kh - 1, wp)[
        :, kh // 2:kh // 2 + rows, kw // 2:kw // 2 + cols] = h
    out = np.zeros((out_c, n))
    for a, b in zip(*np.nonzero(w.any(axis=(0, 1)))):
        start = a * wp + b
        out += np.dot(w[:, :, a, b], hp[:, start:start + n])
    return out.reshape(out_c, rows, wp)[:, :, :cols]


def _conv_layer_adjoint(g, w):
    """Transpose of :func:`_conv_layer`: g (out_c, H, W) -> (in_c, H, W).

    It is the same routine with the channel axes swapped and each kernel
    turned by 180 degrees (correlating with a turned kernel is convolving).
    """
    return _conv_layer(g, w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])


def feature_forward(y: np.ndarray, stack: ConvStack):
    """Run the extractor on a 2-D field.

    Returns ``(features, slopes)``: the (n_sites, out_channels) features
    and the :func:`smoothed_relu` slopes of the hidden layers,
    which the Jacobian passes :func:`feature_vjp` and :func:`feature_jvp`
    take.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        raise InputError("feature_forward expects a 2-D field")
    h = y[None]
    slopes = []
    for li, w in enumerate(stack.layers):
        h = _conv_layer(h, w)
        if li < stack.n_layers - 1:
            h, slope = smoothed_relu(h, stack.activation_delta)
            slopes.append(slope)
    return h.reshape(h.shape[0], -1).T, slopes


def feature_vjp(y: np.ndarray, stack: ConvStack, cotangent: np.ndarray,
                slopes) -> np.ndarray:
    """Jacobian-transpose of the extractor at ``y`` applied to ``cotangent``.

    ``cotangent`` is (n_sites, out_channels) and ``slopes`` comes from
    :func:`feature_forward` at ``y``; the result has the shape of ``y``.
    """
    y = np.asarray(y, dtype=float)
    cot = np.asarray(cotangent, dtype=float)
    n_sites = y.shape[0] * y.shape[1]
    if cot.shape != (n_sites, stack.out_channels):
        raise InputError("cotangent shape does not match extractor output")
    g = cot.T.reshape(stack.out_channels, *y.shape)
    for li in range(stack.n_layers - 1, -1, -1):
        g = _conv_layer_adjoint(g, stack.layers[li])
        if li > 0:
            g = g * slopes[li - 1]
    return g[0]


def feature_jvp(y: np.ndarray, stack: ConvStack, tangent: np.ndarray,
                slopes) -> np.ndarray:
    """Directional derivative of the extractor at ``y`` along ``tangent``.

    ``slopes`` comes from :func:`feature_forward` at ``y``. Returns an
    (n_sites, out_channels) array; used by the power iteration in
    :func:`lipschitz_estimate`.
    """
    y = np.asarray(y, dtype=float)
    v = np.asarray(tangent, dtype=float)
    if v.shape != y.shape:
        raise InputError("tangent shape must match the input field")
    hv = v[None]
    for li, w in enumerate(stack.layers):
        hv = _conv_layer(hv, w)
        if li < stack.n_layers - 1:
            hv = hv * slopes[li]
    return hv.reshape(hv.shape[0], -1).T


def _site_norms(features: np.ndarray) -> np.ndarray:
    """Euclidean norm across channels at each site."""
    return np.sqrt(np.sum(features**2, axis=1))


def l21_norm(features: np.ndarray) -> float:
    """Sum over sites of the Euclidean norm across channels."""
    return float(np.sum(_site_norms(features)))


def smoothed_value(y: np.ndarray, stack: ConvStack, eps: float,
                   forward=None) -> float:
    """Huber-smoothed l2,1 regularizer value.

    Sites with feature norm <= eps contribute quadratically, the rest
    contribute their norm minus eps/2. ``forward`` is the
    :func:`feature_forward` result at ``y``, if already computed.
    """
    if not eps > 0:
        raise ConfigError("smoothing eps must be positive")
    features, _ = forward if forward is not None else feature_forward(y, stack)
    norms = _site_norms(features)
    inner = norms <= eps
    return float(np.sum(np.where(inner, norms**2 / (2.0 * eps), norms - 0.5 * eps)))


def smoothed_grad(y: np.ndarray, stack: ConvStack, eps: float,
                  forward=None) -> np.ndarray:
    """Gradient of :func:`smoothed_value` with respect to ``y``; ``forward``
    is the :func:`feature_forward` result at ``y``, if already computed."""
    if not eps > 0:
        raise ConfigError("smoothing eps must be positive")
    features, slopes = forward if forward is not None else feature_forward(y, stack)
    norms = _site_norms(features)
    scale = np.where(norms <= eps, 1.0 / eps, 1.0 / np.where(norms > 0, norms, 1.0))
    return feature_vjp(y, stack, features * scale[:, None], slopes)


def power_iteration(apply, v: np.ndarray, power_iters: int) -> float:
    """Largest eigenvalue of the symmetric positive semidefinite operator
    ``apply``, by power iteration from ``v`` (0.0 if an iterate vanishes)."""
    v = v / np.linalg.norm(v)
    lam = 0.0
    for _ in range(power_iters):
        w = apply(v)
        lam = np.linalg.norm(w)
        if lam == 0.0:
            return 0.0
        v = w / lam
    return float(lam)


def lipschitz_estimate(stack: ConvStack, probe_shape: tuple[int, int]):
    """Estimate of the Lipschitz constant of the smoothed-regularizer gradient,
    as a function of the smoothing half-width eps.

    sqrt(m)*L_g + M^2/eps, where M is the spectral norm of the extractor's
    Jacobian, estimated by 30 power-iteration steps at a random probe
    (seed 0), and L_g is a curvature constant for the extractor (0 for a
    single linear layer; otherwise max|a''| = 1/(2*delta) times the product
    of layer Frobenius norms). Neither depends on eps, so the power
    iteration runs once for every eps the returned function is given.
    """
    rng = np.random.default_rng(0)
    y = rng.standard_normal(probe_shape)
    _, slopes = feature_forward(y, stack)
    m_spec_sq = power_iteration(  # largest eigenvalue of J^T J
        lambda v: feature_vjp(y, stack, feature_jvp(y, stack, v, slopes), slopes),
        rng.standard_normal(probe_shape), 30)
    curvature = 0.0 if stack.n_layers == 1 else (
        math.prod(float(np.linalg.norm(w)) for w in stack.layers)
        / (2.0 * stack.activation_delta))
    curvature_term = np.sqrt(probe_shape[0] * probe_shape[1]) * curvature

    def at(eps: float) -> float:
        if not eps > 0:
            raise ConfigError("smoothing eps must be positive")
        return float(curvature_term + m_spec_sq / eps)
    return at


# ---------------------------------------------------------------------------
# Weight provisioning and I/O
# ---------------------------------------------------------------------------

def make_tv_weights(scale: float = 1.0) -> ConvStack:
    """Single linear layer with forward-difference kernels.

    Two 3x3 kernels (horizontal and vertical difference, zero beyond the
    far edge) make the regularizer ``scale`` times the isotropic discrete
    total variation, in either domain.
    """
    scale = config_float(scale, "scale")
    kh = np.zeros((3, 3))
    kh[1, 1] = -scale
    kh[1, 2] = scale
    kv = np.zeros((3, 3))
    kv[1, 1] = -scale
    kv[2, 1] = scale
    return ConvStack((np.stack([kh, kv])[:, None],))


def make_zero_weights() -> ConvStack:
    """All-zero single 3x3 layer; the regularizer vanishes identically."""
    return ConvStack((np.zeros((1, 1, 3, 3)),))


def make_random_weights(seed: int = 0, n_layers: int = 3, n_channels: int = 16,
                        kernel: tuple[int, int] = (3, 3), scale: float = 0.1,
                        activation_delta: float = 0.01) -> ConvStack:
    """Deterministic random stack; identical for identical seeds."""
    seed, scale = config_seed(seed, "seed"), config_float(scale, "scale")
    n_layers, n_channels = config_int(n_layers, "n_layers"), config_int(n_channels, "n_channels")
    kernel = list_of(config_int, 2)(kernel, "kernel")
    if min(n_channels, *kernel) < 1:
        raise ConfigError(f"random channels and kernel must be >= 1, got {n_channels}, {kernel}")
    rng = np.random.default_rng(seed)
    layers = []
    in_c = 1
    for _ in range(n_layers):
        fan_in = in_c * kernel[0] * kernel[1]
        layers.append(rng.standard_normal((n_channels, in_c) + kernel) * scale / np.sqrt(fan_in))
        in_c = n_channels
    return ConvStack(tuple(layers), activation_delta)


def save_weights(stack: ConvStack, path) -> None:
    """Write the versioned binary weight file plus a JSON metadata sidecar."""
    path = str(path)
    with open(path, "wb") as fh:
        fh.write(WEIGHT_MAGIC)
        fh.write(struct.pack("<II", WEIGHT_VERSION, stack.n_layers))
        fh.write(struct.pack("<d", stack.activation_delta))
        for w in stack.layers:
            fh.write(struct.pack("<IIII", *w.shape))
        for w in stack.layers:
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
    meta = {
        "version": WEIGHT_VERSION,
        "n_layers": stack.n_layers,
        "activation_delta": stack.activation_delta,
        "layer_shapes": [list(w.shape) for w in stack.layers],
    }
    with open(path + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def load_weights(path) -> ConvStack:
    """Read a weight file written by :func:`save_weights`; any fault in the
    file, the layers or delta it declares included, is a FormatError."""
    with open(str(path), "rb") as fh:
        data = fh.read()
    if data[:4] != WEIGHT_MAGIC:
        raise FormatError(f"bad magic in weight file {path}", offset=0)
    off = 4
    try:
        version, n_layers = struct.unpack_from("<II", data, off)
        off += 8
        if version != WEIGHT_VERSION:
            raise FormatError(f"unsupported version {version} of weight file {path}", offset=4)
        (delta,) = struct.unpack_from("<d", data, off)
        off += 8
        shapes = []
        for _ in range(n_layers):
            shapes.append(struct.unpack_from("<IIII", data, off))
            off += 16
        layers = []
        for shp in shapes:
            end = off + 8 * math.prod(shp)
            if end > len(data):
                raise FormatError(f"truncated payload in weight file {path}", offset=off)
            layers.append(np.frombuffer(data[off:end], dtype="<f8").reshape(shp).copy())
            off = end
        if off != len(data):
            raise FormatError(f"{len(data) - off} bytes after the payload of weight file {path}",
                              offset=off)
        return ConvStack(tuple(layers), delta)
    except struct.error as exc:
        raise FormatError(f"truncated header in weight file {path}: {exc}", offset=off) from exc
    except (ConfigError, ValueError) as exc:  # ValueError: an empty layer numpy cannot shape
        raise FormatError(f"bad weight file {path}: {exc}") from None

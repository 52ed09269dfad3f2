"""Composite group-sparsity regularizer.

A small convolutional feature extractor g maps a 2-D field to an
(site x channel) feature array; the regularizer is the l2,1 norm of the
features, Huber-smoothed with half-width eps so that it is C^1. The
gradient is obtained by hand-rolled backpropagation through g (transpose
convolutions + activation slopes cached by the forward pass).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import ConfigError, config_float, config_int, config_seed, list_of, read_fields
from .lanes import both


def smoothed_relu(t, delta):
    """C^1 quadratic-spline ReLU (0 below -delta, identity above delta) and
    its slope, which lies in [0, 1]; returns ``(value, slope)``."""
    low, high, shifted = t <= -delta, t >= delta, t + delta
    return (np.where(low, 0.0, np.where(high, t, shifted**2 / (4.0 * delta))),
            np.where(low, 0.0, np.where(high, 1.0, shifted / (2.0 * delta))))


@dataclass(frozen=True)
class ConvStack:
    """Weights of the feature extractor: pure convolutions, no bias.

    Each layer is an array of shape (out_channels, in_channels, kh, kw)
    with odd kernel dims; layers are applied with stride 1 and zero "same"
    padding, separated by the smoothed ReLU (the last layer stays linear).
    Each layer may be any nest of real numbers numpy can read; it is stored
    as a float64 array (a float64 array as itself, not a copy).
    """

    layers: tuple[np.ndarray, ...]
    activation_delta: float = 0.01

    def __post_init__(self):
        read_fields(self, activation_delta=config_float)
        if not self.activation_delta > 0:
            raise ConfigError(f"activation_delta must be positive, got {self.activation_delta}")
        layers, in_c = [], 1
        for li, w in enumerate(self.layers):
            try:
                w = np.asarray(w)
            except ValueError as exc:  # ragged
                raise ConfigError(f"layer {li}: weights must be an array: {exc}") from None
            if w.dtype.kind not in "iuf":
                raise ConfigError(f"layer {li}: weights must be real numbers, got {w.dtype}")
            if w.ndim != 4 or min(w.shape) < 1:
                raise ConfigError(f"layer {li}: weights must be 4-D (out, in, kh, kw) with "
                                  f"every dimension at least 1, got shape {w.shape}")
            if w.shape[1] != in_c:
                raise ConfigError(f"layer {li}: expected {in_c} input channels, got {w.shape[1]}")
            if w.shape[2] % 2 == 0 or w.shape[3] % 2 == 0:
                raise ConfigError(f"layer {li}: kernel dims must be odd")
            if not np.all(np.isfinite(w)):
                raise ConfigError(f"layer {li}: non-finite weights")
            layers.append(w.astype(float, copy=False))
            in_c = w.shape[0]
        if not layers:
            raise ConfigError("ConvStack needs at least one layer")
        object.__setattr__(self, "layers", tuple(layers))

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def out_channels(self) -> int:
        return self.layers[-1].shape[0]


WINDOW = 1 << 16  # elements in one block of the im2col matrix (512 KiB of doubles)

# multiply-adds (out_c * k * H * Wp) from which a layer's site blocks run on
# two lanes. Whole -> split, float64 / float32, ms on a 2-vCPU host: 8 -> 8
# channels, 3x15 on a 90x47 sinogram (12.4M) 1.3 -> 1.0 / 0.74-0.98 ->
# 0.71-0.81; its 8 -> 1 adjoint (1.6M) 0.84 -> 0.67 / 0.44 -> 0.56-0.63;
# TV's adjoint at 512^2 (2.1M) 1.93 -> 1.59 / 1.12 -> 1.26; TV at 180x185
# (0.27M) and 8 -> 8, 3x3 on 32x32 (0.63M) slower split in both
SPLIT_MACS = 4_000_000

_scratch = threading.local()


def _scratch_buffer(name: str, size: int, dtype=np.float64) -> np.ndarray:
    """``size`` elements of ``dtype`` in a buffer kept per name and thread,
    grown as needed.

    The conv layer's padded input, im2col block and block product live
    here. glibc maps a large allocation afresh and unmaps it on free, unless
    an earlier free raised its threshold, so a fresh buffer costs a page
    fault per page touched: about 26k faults in the conv passes of a
    128x128, 40-phase TV reconstruction. Each buffer is kept as raw bytes,
    so the float32 Jacobian passes of :func:`lipschitz_estimate` reuse the
    float64 passes' memory.
    """
    nbytes = size * np.dtype(dtype).itemsize
    buf = getattr(_scratch, name, None)
    if buf is None or buf.size < nbytes:
        buf = np.empty(nbytes, np.uint8)
        setattr(_scratch, name, buf)
    return buf[:nbytes].view(dtype)


def _conv_layer(h, w):
    """Apply one layer: h (in_c, H, W) -> (out_c, H, W), zero "same" padding.

    A correlation lowered to matrix products (im2col), in the dtype of
    ``h`` and ``w``. A kernel wider than tall is applied to the transposed
    field as the transposed kernel, so that the long side runs along the
    rows (below). The kernel is cropped to the th x tw box of taps that are
    nonzero for some channel pair; an all-zero layer gives exact zeros.
    ``h`` is zero-padded once into a flat (in_c, L) buffer whose rows are
    Wp = W + kw - 1 wide, so the inputs of tap (a, b) for every output
    site are the unit-stride window that starts at a*Wp + b. Output sites
    are taken in blocks of at most WINDOW // k, k = in_c*th*tw: each
    block's (k, block) im2col matrix is copied from a strided view of the
    buffer and multiplied by the (out_c, k) weights, so the scratch stays
    at WINDOW elements whatever the field size. The sites lie on
    (out_c, H, Wp) rows whose last kw - 1 columns are cropped, hence the
    orientation rule. From :data:`SPLIT_MACS` multiply-adds the blocks run
    on two lanes (:mod:`dualct.lanes`), split at a block boundary, so the
    bytes are those of one lane. The padded buffer, the im2col block and
    the block product are reused from call to call (:func:`_scratch_buffer`,
    one im2col block and product per lane); only the output is new.
    ``np.dot``, not ``@``: numpy's matmul skips BLAS when k is 1.
    """
    out_c, in_c, kh, kw = w.shape
    if kw > kh:
        return _conv_layer(h.transpose(0, 2, 1), w.transpose(0, 1, 3, 2)).transpose(0, 2, 1)
    _, rows, cols = h.shape
    dtype = np.result_type(h, w)
    ta, tb = np.nonzero(w.any(axis=(0, 1)))
    if ta.size == 0:
        return np.zeros((out_c, rows, cols), dtype)
    a0, b0 = ta[0], tb.min()  # np.nonzero lists the taps row by row
    w_box = w[:, :, a0:ta[-1] + 1, b0:tb.max() + 1]
    th, tw = w_box.shape[2:]
    k = in_c * th * tw
    wp = cols + kw - 1
    n = rows * wp
    hp = _scratch_buffer("padded", in_c * ((rows + kh - 1) * wp + kw - 1), dtype)
    hp = hp.reshape(in_c, -1)
    hp.fill(0.0)
    hp[:, :(rows + kh - 1) * wp].reshape(in_c, rows + kh - 1, wp)[
        :, kh // 2:kh // 2 + rows, kw // 2:kw // 2 + cols] = h
    # view[c, a, b, s] = hp[c, a0*Wp + b0 + a*Wp + b + s]. Its largest index,
    # (a0 + th - 1)*Wp + (b0 + tw - 1) + n - 1, is at most
    # (kh - 1)*Wp + (kw - 1) + H*Wp - 1 = L - 1, so it stays inside each row.
    step = hp.strides[1]
    view = np.lib.stride_tricks.as_strided(
        hp[:, a0 * wp + b0:], shape=(in_c, th, tw, n),
        strides=(hp.strides[0], wp * step, step, step), writeable=False)
    w_mat = w_box.reshape(out_c, k)
    block = min(n, max(1, WINDOW // k))
    out = np.empty((out_c, n), dtype)

    def blocks(start, stop):
        cols_buf = _scratch_buffer("im2col", k * block, dtype)
        prod_buf = _scratch_buffer("product", out_c * block, dtype)
        for s in range(start, stop, block):
            size = min(block, stop - s)
            patch = cols_buf[:k * size].reshape(k, size)
            patch.reshape(in_c, th, tw, size)[...] = view[..., s:s + size]
            prod = prod_buf[:out_c * size].reshape(out_c, size)
            out[:, s:s + size] = np.dot(w_mat, patch, out=prod)

    n_blocks = -(-n // block)
    if n_blocks > 1 and out_c * k * n >= SPLIT_MACS:
        cut = block * ((n_blocks + 1) // 2)
        both(lambda: blocks(0, cut), lambda: blocks(cut, n))
    else:
        blocks(0, n)
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
    Of ``stack`` only its ``layers`` are read, so :func:`lipschitz_estimate`
    passes its float32 copies the same way.
    """
    layers = stack.layers
    g = cotangent.T.reshape(layers[-1].shape[0], *y.shape)
    for li in range(len(layers) - 1, -1, -1):
        g = _conv_layer_adjoint(g, layers[li])
        if li > 0:
            g = g * slopes[li - 1]
    return g[0]


def feature_jvp(tangent: np.ndarray, stack: ConvStack, slopes) -> np.ndarray:
    """Directional derivative of the extractor along ``tangent`` at the
    field whose :func:`feature_forward` gave ``slopes``; that field enters
    only through them, and ``tangent`` has its shape. Returns an
    (n_sites, out_channels) array; used by the Lanczos steps of
    :func:`lipschitz_estimate`. Of ``stack`` only its ``layers`` are read.
    """
    hv = tangent[None]
    for li, w in enumerate(stack.layers):
        hv = _conv_layer(hv, w)
        if li < len(stack.layers) - 1:
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
    contribute their norm minus eps/2; ``eps`` must be positive. ``forward``
    is the :func:`feature_forward` result at ``y``, if already computed.
    """
    features, _ = forward if forward is not None else feature_forward(y, stack)
    norms = _site_norms(features)
    inner = norms <= eps
    return float(np.sum(np.where(inner, norms**2 / (2.0 * eps), norms - 0.5 * eps)))


def smoothed_grad(y: np.ndarray, stack: ConvStack, eps: float,
                  forward=None) -> np.ndarray:
    """Gradient of :func:`smoothed_value` (``eps`` > 0) with respect to ``y``;
    ``forward`` is the :func:`feature_forward` result at ``y``, if already computed."""
    features, slopes = forward if forward is not None else feature_forward(y, stack)
    norms = _site_norms(features)
    scale = np.where(norms <= eps, 1.0 / eps, 1.0 / np.where(norms > 0, norms, 1.0))
    return feature_vjp(y, stack, features * scale[:, None], slopes)


def _scale_of(a: np.ndarray) -> float:
    """A power of two near 1/max|a| (1.0 for an all-zero ``a``). Scaling by
    it is exact and brings the largest entry near 1, so ``norm(a * s) / s``
    is ``norm(a)``, free of overflow for any finite ``a``."""
    return math.ldexp(1.0, min(-math.frexp(float(np.max(np.abs(a))))[1], 1023))


# Lanczos steps of the extractor Jacobian estimate. At 12, M^2 was above
# the value of 30 power steps on cnn32's image and sinogram stacks (seeds
# 0-9) and on TV from 64^2 to 180x185, by 2.2e-4 to 2.2e-2 relative; at 10
# it fell below on 5 of those 24 stacks, by up to 7.9e-4
LANCZOS_STEPS = 12


def lanczos_top_eigenvalue(apply, v: np.ndarray, steps: int) -> float:
    """Largest eigenvalue of the symmetric positive semidefinite operator
    ``apply``: the top Ritz value of ``steps`` Lanczos steps from ``v``, in
    the dtype of ``v`` and ``apply``.

    Each new basis vector is reorthogonalized against the whole stored
    basis by two classical Gram-Schmidt passes, and the top eigenvalue of
    the tridiagonal matrix is taken in float64. The run stops early when
    the Krylov space closes (an off-diagonal entry at most 1e-6 of the
    largest diagonal one), where the value is exact. An operator that
    vanishes on ``v`` gives 0.0, a product that is not finite gives inf.
    """
    basis = np.empty((steps, v.size), v.dtype)
    basis[0] = (v / np.linalg.norm(v)).ravel()
    alphas, betas = [], []
    for j in range(steps):
        w = apply(basis[j].reshape(v.shape)).ravel()
        q = basis[:j + 1]
        h = q @ w
        alphas.append(float(h[j]))
        if not math.isfinite(alphas[-1]):
            return math.inf
        if j == steps - 1:
            break
        w = w - q.T @ h
        w -= q.T @ (q @ w)
        s = _scale_of(w)
        w *= s
        norm = float(np.linalg.norm(w))
        beta = norm / s
        if not math.isfinite(beta):
            return math.inf
        if beta <= 1e-6 * max(alphas):  # the Krylov space closed
            break
        betas.append(beta)
        basis[j + 1] = w / norm
    t = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
    s = _scale_of(t)
    return float(np.linalg.eigvalsh(t * s)[-1]) / s


def lipschitz_estimate(stack: ConvStack, probe_shape: tuple[int, int]):
    """Estimate of the Lipschitz constant of the smoothed-regularizer gradient,
    as a function of the smoothing half-width eps.

    sqrt(m)*L_g + M^2/eps, where M is the spectral norm of the extractor's
    Jacobian, estimated by :data:`LANCZOS_STEPS` Lanczos steps on J^T J at
    a random probe (seed 0), and L_g is a curvature constant for the
    extractor (0 for a single linear layer; otherwise max|a''| = 1/(2*delta)
    times the product of layer Frobenius norms). Neither depends on eps, so
    the Lanczos run is made once for every positive eps the returned
    function is given.

    The slopes come from the float64 forward pass at the probe. The Lanczos
    steps run in float32 on the layers each divided by its Frobenius norm,
    which keeps them in float32's range for any finite weights; their
    eigenvalue is then scaled by the product of the squared norms in
    float64. A zero layer gives 0; weights too large for that product, or
    for the forward pass, give an infinite estimate.
    """
    rng = np.random.default_rng(0)
    y = rng.standard_normal(probe_shape)
    start = rng.standard_normal(probe_shape)
    scales = [_scale_of(w) for w in stack.layers]
    scaled_norms = [float(np.linalg.norm(w * s)) for w, s in zip(stack.layers, scales)]
    norms = [nrm / s for nrm, s in zip(scaled_norms, scales)]  # inf past the float range
    if 0.0 in scaled_norms:
        m_spec_sq = curvature = 0.0
    else:
        unit = SimpleNamespace(layers=tuple(
            (w * (s / nrm)).astype(np.float32)
            for w, s, nrm in zip(stack.layers, scales, scaled_norms)))
        with np.errstate(over="ignore", invalid="ignore"):
            _, slopes = feature_forward(y, stack)
            slopes = [slope.astype(np.float32) for slope in slopes]
            unit_sq = lanczos_top_eigenvalue(  # of J^T J over the unit layers
                lambda v: feature_vjp(y, unit, feature_jvp(v, unit, slopes), slopes),
                start.astype(np.float32), LANCZOS_STEPS)
        m_spec_sq = unit_sq * math.prod(nrm * nrm for nrm in norms)
        curvature = 0.0 if stack.n_layers == 1 else (
            math.prod(norms) / (2.0 * stack.activation_delta))
    curvature_term = math.sqrt(probe_shape[0] * probe_shape[1]) * curvature

    return lambda eps: float(curvature_term + m_spec_sq / eps)


# ---------------------------------------------------------------------------
# Weight provisioning
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

"""Dual-domain objective: data term, smoothed regularizers, gradients.

f(x, z) = 1/2 ||Ax - z||^2 + lambda/2 ||P0 z - s||^2, with smoothed
group-sparsity regularizers added per domain. All gradients are exact for
the discretized operators (matched projector pair, backprop through the
extractors).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import regularizer as reg
from .errors import ConfigError, NumericalError, config_float, read_fields
from .tomo import Image, ScanGeometry, Sinogram, ViewMask, system_matrix

@dataclass
class DualState:
    """Joint iterate: image x and full-view sinogram z."""

    x: Image
    z: Sinogram

    def __post_init__(self):
        if not self.z.is_full_view:
            raise ConfigError("state sinogram must be full-view")


@dataclass
class ProblemSpec:
    """One reconstruction problem instance.

    ``image_weights`` / ``sino_weights`` may be None to disable the
    corresponding regularizer (equivalent to all-zero weights).
    """

    geometry: ScanGeometry
    mask: ViewMask
    measured: Sinogram
    lam: float = 10.0
    image_weights: reg.ConvStack | None = None
    sino_weights: reg.ConvStack | None = None

    def __post_init__(self):
        read_fields(self, lam=config_float)
        if self.lam < 0:
            raise ConfigError("consistency weight lambda must be nonnegative")
        for name in ("image_weights", "sino_weights"):
            if not isinstance(getattr(self, name), (reg.ConvStack, type(None))):
                raise ConfigError(f"{name} must be a ConvStack or None")
        if self.measured.geometry != self.geometry:
            raise ConfigError("measured sinogram geometry does not match")
        if self.mask.n_views_full != self.geometry.n_views_full:
            raise ConfigError("mask does not match geometry view count")
        if not np.array_equal(self.measured.view_indices, self.mask.selected):
            raise ConfigError("measured sinogram does not conform to the mask")

    def sino_shape(self) -> tuple[int, int]:
        return (self.geometry.n_views_full, self.geometry.n_dets)

    def project(self, x: np.ndarray) -> np.ndarray:
        """A x as a full-view sinogram array."""
        return (system_matrix(self.geometry) @ x.ravel()).reshape(self.sino_shape())

    def backproject(self, r: np.ndarray) -> np.ndarray:
        """A^T r as an image array, through the transpose view of the one
        cached A."""
        return (system_matrix(self.geometry).T @ r.ravel()).reshape(
            self.geometry.grid.shape)


def _reg_grad(y: np.ndarray, weights: reg.ConvStack | None, eps: float,
              forward=None) -> np.ndarray:
    if weights is None:
        return np.zeros_like(y)
    return reg.smoothed_grad(y, weights, eps, forward=forward)


class Point:
    """One iterate (x, z) with everything the solver evaluates at it.

    Construction keeps Ax, both residuals and the data term ``f``; it
    applies A once unless ``ax`` (A x, known by linearity) is given.
    Extractor features, gradients and phi_eps are computed on first use and
    kept, the eps-dependent ones per eps. ``x`` and ``z`` are never modified
    and must be finite.
    """

    def __init__(self, spec: ProblemSpec, x: np.ndarray, z: np.ndarray,
                 ax: np.ndarray | None = None):
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(z))):
            raise NumericalError("non-finite iterate")
        self.spec, self.x, self.z = spec, x, z
        self.ax = spec.project(x) if ax is None else ax
        self.proj_res = self.ax - z
        self.data_res = z[spec.measured.view_indices] - spec.measured.values
        self.f = float(0.5 * np.sum(self.proj_res**2)
                       + 0.5 * spec.lam * np.sum(self.data_res**2))
        self._domains = ((x, spec.image_weights), (z, spec.sino_weights))
        self._phi, self._grad = {}, {}

    @cached_property
    def forward(self):
        """Each domain's extractor features and activation slopes (None for
        an absent regularizer)."""
        return tuple(None if w is None else reg.feature_forward(y, w)
                     for y, w in self._domains)

    def grad_f_x(self, z: np.ndarray | None = None) -> np.ndarray:
        """A^T (Ax - z) for this point's z or a given one; applies only A^T."""
        return self.spec.backproject(self.proj_res if z is None else self.ax - z)

    @cached_property
    def grad_f_z(self) -> np.ndarray:
        """d/dz of the data term, -(Ax - z) + lambda P0^T (P0 z - s); applies
        no operator."""
        gz = -self.proj_res
        gz[self.spec.measured.view_indices] += self.spec.lam * self.data_res
        return gz

    @cached_property
    def grad_f(self) -> tuple[np.ndarray, np.ndarray]:
        """(d/dx, d/dz) of the data term."""
        return self.grad_f_x(), self.grad_f_z

    def phi(self, eps: float) -> float:
        """Smoothed objective value f + R_eps(x) + Q_eps(z)."""
        if eps not in self._phi:
            val = self.f
            for (y, w), fwd in zip(self._domains, self.forward):
                if w is not None:
                    val += reg.smoothed_value(y, w, eps, forward=fwd)
            self._phi[eps] = val
        return self._phi[eps]

    def grad(self, eps: float) -> tuple[np.ndarray, np.ndarray]:
        """(d/dx, d/dz) of the smoothed objective."""
        if eps not in self._grad:
            self._grad[eps] = tuple(gf + _reg_grad(y, w, eps, fwd) for gf, (y, w), fwd
                                    in zip(self.grad_f, self._domains, self.forward))
        return self._grad[eps]

    def state(self) -> DualState:
        """A copy of the point as a public DualState."""
        geo = self.spec.geometry
        return DualState(Image(geo.grid, self.x.copy()),
                         Sinogram(geo, np.arange(geo.n_views_full), self.z.copy()))


def evaluate(state: DualState, spec: ProblemSpec) -> Point:
    """The Point at ``state``, after checking that it belongs to ``spec``."""
    if state.x.grid != spec.geometry.grid:
        raise ConfigError("state image grid does not match geometry")
    if state.z.geometry != spec.geometry:
        raise ConfigError("state sinogram geometry does not match")
    return Point(spec, state.x.values, state.z.values)


def phi_unsmoothed(state: DualState, spec: ProblemSpec) -> float:
    """Original nonsmooth objective (plain l2,1 regularizers)."""
    point = evaluate(state, spec)
    val = point.f
    for fwd in point.forward:
        if fwd is not None:
            val += reg.l21_norm(fwd[0])
    return val


def grad_norm(gx: np.ndarray, gz: np.ndarray) -> float:
    """Euclidean norm of the concatenated (image, sinogram) gradient."""
    return float(np.sqrt(np.sum(gx**2) + np.sum(gz**2)))


def _ata_norm(spec: ProblemSpec) -> float:
    """A certified upper bound on ||A^T A||.

    A is elementwise nonnegative, so A^T A is too, and for any v > 0 the
    Collatz-Wielandt quotient max_i (A^T A v)_i / v_i bounds its spectral
    radius, which is its norm, from above; the Rayleigh quotient bounds it
    from below. Power steps from the all-ones vector close the gap; they
    stop once the two agree to 1e-12 relative, or after 50 steps. A pixel
    no ray hits keeps v_i = 0 after the first step and is left out of the
    maximum. 0.0 for an all-zero A.
    """
    v = np.ones(spec.geometry.grid.shape)
    for _ in range(50):
        w = spec.backproject(spec.project(v))
        hit = v > 0
        upper = float(np.max(w[hit] / v[hit]))
        if upper - float(np.vdot(v, w)) / float(np.vdot(v, v)) <= 1e-12 * upper:
            break
        v = w / np.max(w)
    return upper


def block_lipschitz(spec: ProblemSpec):
    """Hessian spectral norms of f: (z-block, x-block, a bound on the whole).

    l_z = 1 + lambda exactly; l_x = ||A^T A||, from above (:func:`_ata_norm`).
    As P0^T P0 <= I, the Hessian
    [[A^T A, -A^T], [-A, I + lambda P0^T P0]] is at most [[A^T A, -A^T], [-A, l_z I]],
    whose norm is the largest eigenvalue of [[s^2, -s], [-s, l_z]] at s^2 = l_x; the
    bound is exact when every view is measured or lambda is 0.
    """
    l_z = 1.0 + spec.lam
    l_x = _ata_norm(spec)
    return l_z, l_x, (l_x + l_z + math.hypot(l_x - l_z, 2.0 * math.sqrt(l_x))) / 2


def lipschitz_regularizers(spec: ProblemSpec):
    """(image, sinogram) regularizer gradient Lipschitz estimates, as
    functions of eps; zero for an absent or all-zero regularizer."""
    return tuple((lambda eps: 0.0) if w is None
                 else reg.lipschitz_estimate(w, probe_shape)
                 for w, probe_shape in ((spec.image_weights, spec.geometry.grid.shape),
                                        (spec.sino_weights, spec.sino_shape())))


@dataclass(frozen=True)
class LipschitzConstants:
    """The Lipschitz estimates of one problem, from one set of power
    iterations; only the M^2/eps term of the regularizer bounds varies."""

    l_z: float  # z-block Hessian norm of f
    l_x: float  # x-block Hessian norm of f
    l_f: float  # bound on the norm of the whole Hessian of f
    image: Callable[[float], float]  # regularizer estimates as functions of eps
    sino: Callable[[float], float]

    def composite(self, eps: float) -> float:
        """Lipschitz estimate of the full smoothed gradient at eps."""
        return self.l_f + self.image(eps) + self.sino(eps)


def lipschitz_constants(spec: ProblemSpec) -> LipschitzConstants:
    """Run every Lipschitz power iteration of the problem once."""
    return LipschitzConstants(*block_lipschitz(spec), *lipschitz_regularizers(spec))

"""Dual-domain objective: data term, smoothed regularizers, gradients.

f(x, z) = 1/2 ||Ax - z||^2 + lambda/2 ||P0 z - s||^2, with smoothed
group-sparsity regularizers added per domain. All gradients are exact for
the discretized operators (matched projector pair, backprop through the
extractors).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import regularizer as reg
from .errors import ConfigError, NumericalError, config_float, read_fields
from .tomo import (Image, ScanGeometry, Sinogram, ViewMask, system_matrix,
                   system_matrix_transpose)

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
        if self.measured.geometry != self.geometry:
            raise ConfigError("measured sinogram geometry does not match")
        if self.mask.n_views_full != self.geometry.n_views_full:
            raise ConfigError("mask does not match geometry view count")
        if not np.array_equal(self.measured.view_indices, self.mask.selected):
            raise ConfigError("measured sinogram does not conform to the mask")

    def sino_shape(self) -> tuple[int, int]:
        return (self.geometry.n_views_full, self.geometry.n_dets)


def _reg_grad(y: np.ndarray, weights: reg.ConvStack | None, eps: float,
              forward=None) -> np.ndarray:
    if weights is None:
        return np.zeros_like(y)
    return reg.smoothed_grad(y, weights, eps, forward=forward)


class Point:
    """One iterate (x, z) with everything the solver evaluates at it.

    Construction applies A once and keeps Ax, both residuals, the data term
    ``f`` and each domain's extractor features with their activation slopes.
    Gradients and phi_eps are computed on first use and kept per eps.
    ``x`` and ``z`` are never modified and must be finite.
    """

    def __init__(self, spec: ProblemSpec, x: np.ndarray, z: np.ndarray):
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(z))):
            raise NumericalError("non-finite iterate")
        self.spec, self.x, self.z = spec, x, z
        self.ax = (system_matrix(spec.geometry) @ x.ravel()).reshape(spec.sino_shape())
        self.proj_res = self.ax - z
        self.data_res = z[spec.measured.view_indices] - spec.measured.values
        self.f = float(0.5 * np.sum(self.proj_res**2)
                       + 0.5 * spec.lam * np.sum(self.data_res**2))
        self._domains = ((x, spec.image_weights), (z, spec.sino_weights))
        self.forward = tuple(None if w is None else reg.feature_forward(y, w)
                             for y, w in self._domains)
        self._phi, self._reg_grads, self._grad = {}, {}, {}

    def grad_f_x(self, z: np.ndarray | None = None) -> np.ndarray:
        """A^T (Ax - z) for this point's z or a given one; applies only A^T."""
        res = self.proj_res if z is None else self.ax - z
        return (system_matrix_transpose(self.spec.geometry) @ res.ravel()).reshape(self.x.shape)

    @cached_property
    def grad_f(self) -> tuple[np.ndarray, np.ndarray]:
        """(d/dx, d/dz) of the data term: A^T (Ax - z) and
        -(Ax - z) + lambda P0^T (P0 z - s)."""
        gz = -self.proj_res
        gz[self.spec.measured.view_indices] += self.spec.lam * self.data_res
        return self.grad_f_x(), gz

    def phi(self, eps: float) -> float:
        """Smoothed objective value f + R_eps(x) + Q_eps(z)."""
        if eps not in self._phi:
            val = self.f
            for (y, w), fwd in zip(self._domains, self.forward):
                if w is not None:
                    val += reg.smoothed_value(y, w, eps, forward=fwd)
            self._phi[eps] = val
        return self._phi[eps]

    def reg_grads(self, eps: float) -> tuple[np.ndarray, np.ndarray]:
        """(image, sinogram) smoothed-regularizer gradients."""
        if eps not in self._reg_grads:
            self._reg_grads[eps] = tuple(_reg_grad(y, w, eps, fwd) for (y, w), fwd
                                         in zip(self._domains, self.forward))
        return self._reg_grads[eps]

    def grad(self, eps: float) -> tuple[np.ndarray, np.ndarray]:
        """(d/dx, d/dz) of the smoothed objective."""
        if eps not in self._grad:
            self._grad[eps] = tuple(gf + gr for gf, gr in zip(self.grad_f, self.reg_grads(eps)))
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


def block_lipschitz(spec: ProblemSpec):
    """Hessian spectral norms of f: (z-block, x-block, a bound on the whole).

    l_z = 1 + lambda exactly; l_x = ||A^T A|| by 50 power-iteration steps from
    a random start (seed 0). As P0^T P0 <= I, the Hessian
    [[A^T A, -A^T], [-A, I + lambda P0^T P0]] is at most [[A^T A, -A^T], [-A, l_z I]],
    whose norm is the largest eigenvalue of [[s^2, -s], [-s, l_z]] at s^2 = l_x; the
    bound is exact when every view is measured or lambda is 0.
    """
    a, at = system_matrix(spec.geometry), system_matrix_transpose(spec.geometry)
    l_z = 1.0 + spec.lam
    l_x = reg.power_iteration(lambda v: at @ (a @ v),
                              np.random.default_rng(0).standard_normal(a.shape[1]), 50)
    return l_z, l_x, (l_x + l_z + np.sqrt((l_x - l_z)**2 + 4.0 * l_x)) / 2


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

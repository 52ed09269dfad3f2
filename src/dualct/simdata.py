"""Phantoms, measurement simulation, and deterministic initialization."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, config_float, config_seed, list_of, read_fields
from .objective import DualState
from .tomo import (GridSpec, Image, ScanGeometry, Sinogram, ViewMask,
                   fbp_reconstruct, forward_project, subsample_views,
                   read_grid, upsample_sinogram_linear)

# (intensity, a, b, x0, y0, phi_deg) in the unit square [-1, 1]^2;
# standard modified Shepp-Logan ellipse table.
SHEPP_LOGAN_MODIFIED = (
    (1.0, 0.69, 0.92, 0.0, 0.0, 0.0),
    (-0.8, 0.6624, 0.8740, 0.0, -0.0184, 0.0),
    (-0.2, 0.1100, 0.3100, 0.22, 0.0, -18.0),
    (-0.2, 0.1600, 0.4100, -0.22, 0.0, 18.0),
    (0.1, 0.2100, 0.2500, 0.0, 0.35, 0.0),
    (0.1, 0.0460, 0.0460, 0.0, 0.1, 0.0),
    (0.1, 0.0460, 0.0460, 0.0, -0.1, 0.0),
    (0.1, 0.0460, 0.0230, -0.08, -0.605, 0.0),
    (0.1, 0.0230, 0.0230, 0.0, -0.606, 0.0),
    (0.1, 0.0230, 0.0460, 0.06, -0.605, 0.0),
)

DISK_DEFAULT = ((1.0, 0.7, 0.7, 0.0, 0.0, 0.0),)


@dataclass(frozen=True)
class PhantomSpec:
    """Analytic ellipse-sum phantom on a grid."""

    kind: str  # shepp-logan-modified | disk | custom-ellipses
    grid: GridSpec
    ellipses: tuple[tuple[float, ...], ...] = ()

    def __post_init__(self):
        if self.kind not in ("shepp-logan-modified", "disk", "custom-ellipses"):
            raise ConfigError(f"unknown phantom kind {self.kind!r}")
        if self.kind == "custom-ellipses" and not self.ellipses:
            raise ConfigError("custom-ellipses phantom needs an ellipse list")
        # each ellipse is (intensity, a, b, x0, y0, phi_deg)
        read_fields(self, grid=read_grid, ellipses=list_of(list_of(config_float, 6)))
        for e in self.ellipses:
            if not (e[1] > 0 and e[2] > 0):
                raise ConfigError("ellipse axes must be positive")

    def table(self):
        if self.kind == "shepp-logan-modified":
            return SHEPP_LOGAN_MODIFIED
        if self.kind == "disk":
            return self.ellipses or DISK_DEFAULT
        return self.ellipses


@dataclass(frozen=True)
class NoiseSpec:
    """Measurement noise model; default is noise-free."""

    model: str = "none"  # none | gaussian | poisson-transmission
    sigma: float = 0.0
    photons: float = 1e6
    seed: int = 0

    def __post_init__(self):
        if self.model not in ("none", "gaussian", "poisson-transmission"):
            raise ConfigError(f"unknown noise model {self.model!r}")
        read_fields(self, sigma=config_float, photons=config_float, seed=config_seed)
        if self.sigma < 0:
            raise ConfigError("gaussian sigma must be nonnegative")
        if not self.photons > 0:
            raise ConfigError("photon count must be positive")


def make_phantom(spec: PhantomSpec) -> Image:
    """Evaluate the ellipse sum at pixel centers.

    Ellipse coordinates live in [-1, 1]^2 scaled to the half-extent of the
    grid; a pixel gets the summed intensity of every ellipse containing
    its center.
    """
    grid = spec.grid
    xs, ys = grid.pixel_centers()
    ox, oy = grid.origin
    half = 0.5 * max(grid.nx, grid.ny) * grid.pixel_size
    xg, yg = np.meshgrid((xs - ox) / half, (ys - oy) / half)
    vals = np.zeros(grid.shape)
    for inten, a, b, x0, y0, phi_deg in spec.table():
        phi = np.deg2rad(phi_deg)
        xr = (xg - x0) * np.cos(phi) + (yg - y0) * np.sin(phi)
        yr = -(xg - x0) * np.sin(phi) + (yg - y0) * np.cos(phi)
        vals += inten * ((xr / a) ** 2 + (yr / b) ** 2 <= 1.0)
    return Image(grid, vals)


def apply_noise(sino: Sinogram, noise: NoiseSpec) -> Sinogram:
    """Seeded noise on a sinogram; reproducible for a fixed spec."""
    if noise.model == "none" or (noise.model == "gaussian" and noise.sigma == 0.0):
        return sino.copy()
    rng = np.random.default_rng(noise.seed)
    vals = sino.values
    if noise.model == "gaussian":
        vals = vals + noise.sigma * rng.standard_normal(vals.shape)
    else:  # poisson-transmission: counts ~ Poisson(I0 * exp(-p))
        counts = rng.poisson(noise.photons * np.exp(-vals)).astype(float)
        counts = np.maximum(counts, 1.0)
        vals = -np.log(counts / noise.photons)
    return Sinogram(sino.geometry, sino.view_indices.copy(), vals)


def simulate_measurement(phantom: Image, geo: ScanGeometry, mask: ViewMask,
                         noise: NoiseSpec = NoiseSpec()):
    """Project the phantom, apply noise, and subsample.

    Returns (s, z_true): the sparse measurement and the noisy full-view
    sinogram it was cut from.
    """
    z_true = apply_noise(forward_project(phantom, geo), noise)
    return subsample_views(z_true, mask), z_true


def initialize(s: Sinogram, geo: ScanGeometry, mask: ViewMask) -> DualState:
    """Deterministic solver initialization from the sparse measurement.

    z0 interpolates the missing views linearly (periodic in angle); x0 is
    the FBP of z0 clamped to nonnegative values.
    """
    if not np.array_equal(s.view_indices, mask.indices()):
        raise ConfigError("measurement does not conform to the mask")
    z0 = upsample_sinogram_linear(s)
    x0 = fbp_reconstruct(z0, geo)
    x0 = Image(geo.grid, np.maximum(x0.values, 0.0))
    return DualState(x0, z0)

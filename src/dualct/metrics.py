"""PSNR and SSIM of a reconstruction against a reference."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .tomo import Image

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


@dataclass
class MetricReport:
    psnr_db: float          # math.inf for identical inputs
    ssim: float
    data_range: float

    def to_json_obj(self) -> dict:
        return {
            "psnr_db": "inf" if math.isinf(self.psnr_db) else self.psnr_db,
            "ssim": self.ssim,
            "data_range": self.data_range,
        }

    def write_json(self, path) -> None:
        with open(str(path), "w") as fh:
            json.dump(self.to_json_obj(), fh, indent=2)
            fh.write("\n")


def _as_array(img) -> np.ndarray:
    if isinstance(img, Image):
        return img.values
    return np.asarray(img, dtype=float)


def default_data_range(ref: np.ndarray) -> float:
    rng = float(ref.max() - ref.min())
    return rng if rng > 0 else 1.0


def psnr(test, ref, data_range: float | None = None) -> float:
    """10 log10(range^2 / MSE); +inf for identical inputs."""
    t = _as_array(test)
    r = _as_array(ref)
    if t.shape != r.shape:
        raise InputError("psnr inputs must share a shape")
    if data_range is None:
        data_range = default_data_range(r)
    if not data_range > 0:
        raise InputError("data_range must be positive")
    mse = float(np.mean((t - r) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(data_range**2 / mse)


def _gaussian_window(size: int, sigma: float) -> np.ndarray:
    ax = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(ax**2) / (2.0 * sigma**2))
    w = np.outer(g, g)
    return w / w.sum()


def _windowed(img: np.ndarray, win: np.ndarray) -> np.ndarray:
    """Valid-mode weighted local means via sliding windows."""
    from numpy.lib.stride_tricks import sliding_window_view

    patches = sliding_window_view(img, win.shape)
    return np.einsum("ijkl,kl->ij", patches, win)


def ssim(test, ref, data_range: float | None = None) -> float:
    """Mean local SSIM, 11x11 Gaussian window (sigma 1.5), standard constants."""
    t = _as_array(test)
    r = _as_array(ref)
    if t.shape != r.shape:
        raise InputError("ssim inputs must share a shape")
    if t.ndim != 2:
        raise InputError(f"ssim needs 2-D images, got shape {t.shape}")
    if min(t.shape) < SSIM_WINDOW:
        raise InputError(f"ssim needs images of at least {SSIM_WINDOW}x{SSIM_WINDOW}")
    if data_range is None:
        data_range = default_data_range(r)
    if not data_range > 0:
        raise InputError("data_range must be positive")

    win = _gaussian_window(SSIM_WINDOW, SSIM_SIGMA)
    mu_t = _windowed(t, win)
    mu_r = _windowed(r, win)
    tt = _windowed(t * t, win) - mu_t**2
    rr = _windowed(r * r, win) - mu_r**2
    tr = _windowed(t * r, win) - mu_t * mu_r

    c1 = (SSIM_K1 * data_range) ** 2
    c2 = (SSIM_K2 * data_range) ** 2
    num = (2.0 * mu_t * mu_r + c1) * (2.0 * tr + c2)
    den = (mu_t**2 + mu_r**2 + c1) * (tt + rr + c2)
    return float(np.mean(num / den))


def report(test, ref, data_range: float | None = None) -> MetricReport:
    r = _as_array(ref)
    if data_range is None:
        data_range = default_data_range(r)
    return MetricReport(psnr_db=psnr(test, ref, data_range),
                        ssim=ssim(test, ref, data_range),
                        data_range=data_range)

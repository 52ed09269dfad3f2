"""Dual-domain sparse-view CT reconstruction toolkit."""

__version__ = "0.1.0"

from .metrics import MetricReport, psnr, ssim
from .objective import DualState, ProblemSpec
from .regularizer import ConvStack, make_random_weights, make_tv_weights
from .simdata import (NoiseSpec, PhantomSpec, initialize, make_phantom,
                      simulate_measurement)
from .solver import IterateLog, SolverParams, run
from .tomo import (GridSpec, Image, ScanGeometry, Sinogram, ViewMask,
                   back_project, fan_geometry, fbp_reconstruct,
                   forward_project, parallel_geometry, subsample_views,
                   uniform_mask, upsample_sinogram_linear)

__all__ = [
    "DualState", "ProblemSpec", "ConvStack", "IterateLog", "SolverParams",
    "run", "GridSpec", "Image", "ScanGeometry", "Sinogram", "ViewMask",
    "back_project", "fan_geometry", "fbp_reconstruct", "forward_project",
    "parallel_geometry", "subsample_views", "uniform_mask",
    "upsample_sinogram_linear", "MetricReport", "psnr", "ssim",
    "make_random_weights", "make_tv_weights", "NoiseSpec", "PhantomSpec",
    "initialize", "make_phantom", "simulate_measurement",
]

"""Scan geometry, ray-driven projection, view masking and FBP.

The forward projector traverses each ray through the pixel grid
(Siddon-style), recording exact chord lengths. The weights are assembled
once per geometry into a sparse matrix, so the back-projector is the exact
transpose of the forward projector by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from numbers import Integral
from typing import TYPE_CHECKING

import numpy as np

from .errors import (ConfigError, InputError, config_count, config_float, config_int,
                     list_of, read_fields)

if TYPE_CHECKING:
    import scipy.sparse as sp

PARALLEL = "parallel"
FAN = "fan"


@dataclass(frozen=True)
class GridSpec:
    """Regular isotropic pixel grid, centered at ``origin``."""

    nx: int
    ny: int
    pixel_size: float = 1.0
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        read_fields(self, nx=config_count, ny=config_count, pixel_size=config_float,
                    origin=list_of(config_float, 2))
        if not self.pixel_size > 0:
            raise ConfigError(f"pixel_size must be positive, got {self.pixel_size}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.ny, self.nx)

    @property
    def extent(self) -> tuple[float, float, float, float]:
        """(xmin, xmax, ymin, ymax) of the physical bounding box."""
        ox, oy = self.origin
        hx = 0.5 * self.nx * self.pixel_size
        hy = 0.5 * self.ny * self.pixel_size
        return (ox - hx, ox + hx, oy - hy, oy + hy)

    def pixel_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Physical x and y coordinates of pixel centers (1-D each)."""
        xmin, _, ymin, _ = self.extent
        h = self.pixel_size
        xs = xmin + (np.arange(self.nx) + 0.5) * h
        ys = ymin + (np.arange(self.ny) + 0.5) * h
        return xs, ys


@dataclass(frozen=True)
class ScanGeometry:
    """Acquisition geometry: view angles, detector array, and the image grid.

    ``det_spacing`` is a length for parallel beam and an angular increment
    (radians) for the equiangular fan. ``source_radius`` and
    ``source_to_detector`` are only meaningful for the fan.
    """

    kind: str
    angles: tuple[float, ...]
    n_dets: int
    det_spacing: float
    grid: GridSpec
    source_radius: float = 0.0
    source_to_detector: float = 0.0

    def __post_init__(self):
        if self.kind not in (PARALLEL, FAN):
            raise ConfigError(f"unknown geometry kind {self.kind!r}")
        read_fields(self, angles=list_of(config_float), n_dets=config_count,
                    det_spacing=config_float, source_radius=config_float,
                    source_to_detector=config_float)
        if not self.det_spacing > 0:
            raise ConfigError("det_spacing must be positive")
        if not self.angles:
            raise ConfigError("angles must be a non-empty sequence")
        if np.any(np.diff(self.angles) <= 0):
            raise ConfigError("angles must be strictly increasing")
        if self.kind == FAN:
            if not (self.source_radius > 0 and self.source_to_detector > 0):
                raise ConfigError("fan beam needs positive source_radius and source_to_detector")

    @property
    def n_views_full(self) -> int:
        return len(self.angles)

    @property
    def angular_period(self) -> float:
        return np.pi if self.kind == PARALLEL else 2.0 * np.pi

    def angles_array(self) -> np.ndarray:
        return np.asarray(self.angles, dtype=float)


def parallel_geometry(n_views, n_dets, grid, det_spacing=None):
    """Evenly spaced parallel-beam geometry covering [0, pi).

    Default detector pitch covers the grid diagonal.
    """
    n_views, n_dets = config_count(n_views, "n_views"), config_count(n_dets, "n_dets")
    if det_spacing is None:
        xmin, xmax, ymin, ymax = grid.extent
        diag = np.hypot(xmax - xmin, ymax - ymin)
        det_spacing = diag / n_dets
    angles = tuple(np.arange(n_views) * (np.pi / n_views))
    return ScanGeometry(PARALLEL, angles, n_dets, det_spacing, grid)


def fan_geometry(n_views, n_dets, grid, det_spacing=None, source_radius=None, source_to_detector=None):
    """Evenly spaced equiangular fan-beam geometry covering [0, 2*pi)."""
    n_views, n_dets = config_count(n_views, "n_views"), config_count(n_dets, "n_dets")
    xmin, xmax, ymin, ymax = grid.extent
    radius = 0.5 * np.hypot(xmax - xmin, ymax - ymin)
    source_radius = (2.0 * radius if source_radius is None
                     else config_float(source_radius, "source_radius"))
    if source_to_detector is None:
        source_to_detector = 2.0 * source_radius
    if det_spacing is None:
        # full fan angle subtending the grid circle, small safety margin
        half_fan = np.arcsin(min(0.999, radius / source_radius)) * 1.05
        det_spacing = 2.0 * half_fan / n_dets
    angles = tuple(np.arange(n_views) * (2.0 * np.pi / n_views))
    return ScanGeometry(FAN, angles, n_dets, det_spacing, grid,
                        source_radius=source_radius, source_to_detector=source_to_detector)


def _finite_field(values, shape: tuple[int, int], what: str) -> np.ndarray:
    """``values`` as a finite float array of ``shape``; any array of that
    many values is reshaped."""
    values = np.asarray(values, dtype=float)
    if values.size != shape[0] * shape[1]:
        raise InputError(f"{what} of shape {shape} needs {shape[0] * shape[1]} values, "
                         f"got {values.size}")
    if not np.all(np.isfinite(values)):
        raise InputError(f"{what} contains non-finite values")
    return values.reshape(shape)


@dataclass
class Image:
    """Scalar field on a pixel grid; ``values`` has shape (ny, nx)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = _finite_field(self.values, self.grid.shape, "image")


@dataclass
class Sinogram:
    """Projection data on a (view x detector) grid.

    ``view_indices`` names the subset of the geometry's full view set this
    sinogram holds; a full-view sinogram has ``view_indices == range(n_views)``.
    """

    geometry: ScanGeometry
    view_indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.view_indices)
        # an empty list reads as float64; huge ints as objects, refused below
        if idx.size and not (idx.dtype.kind in "iu" or idx.dtype.kind == "O" and all(
                isinstance(i, Integral) and not isinstance(i, bool) for i in idx.flat)):
            raise InputError(f"view_indices must be integers, got {idx.dtype} values")
        try:
            self.view_indices = np.asarray(idx, dtype=int)
        except OverflowError:
            raise InputError("view index out of range for geometry") from None
        n = self.view_indices.size
        if n == 0:
            raise InputError("sinogram must hold at least one view")
        if np.any(np.diff(self.view_indices) <= 0):
            raise InputError("view_indices must be sorted and unique")
        if self.view_indices[0] < 0 or self.view_indices[-1] >= self.geometry.n_views_full:
            raise InputError("view index out of range for geometry")
        self.values = _finite_field(self.values, (n, self.geometry.n_dets), "sinogram")

    @property
    def n_views(self) -> int:
        return self.view_indices.size

    @property
    def is_full_view(self) -> bool:
        return self.n_views == self.geometry.n_views_full

    def copy(self) -> "Sinogram":
        return Sinogram(self.geometry, self.view_indices.copy(), self.values.copy())


@dataclass(frozen=True)
class ViewMask:
    """Selection operator over the full view set (the subsampler P0)."""

    n_views_full: int
    selected: tuple[int, ...]

    def __post_init__(self):
        read_fields(self, n_views_full=config_int, selected=list_of(config_int))
        s = self.selected
        if not s:
            raise ConfigError("view mask must select at least one view")
        if any(b <= a for a, b in zip(s, s[1:])):
            raise ConfigError("mask indices must be sorted and unique")
        if s[0] < 0 or s[-1] >= self.n_views_full:
            raise ConfigError("mask index out of range")

    @property
    def n_selected(self) -> int:
        return len(self.selected)

    def indices(self) -> np.ndarray:
        return np.asarray(self.selected, dtype=int)


def uniform_mask(n_views_full: int, n_keep: int) -> ViewMask:
    """Keep ``n_keep`` uniformly strided views out of ``n_views_full``: view
    ``round(i * n_views_full / n_keep)`` for i < n_keep (an exact stride when
    it divides evenly; the indices never repeat because the stride is >= 1).
    """
    n_views_full, n_keep = config_int(n_views_full, "n_views_full"), config_int(n_keep, "n_keep")
    if n_keep < 1 or n_keep > n_views_full:
        raise ConfigError(f"cannot keep {n_keep} of {n_views_full} views")
    idx = np.round(np.arange(n_keep) * n_views_full / n_keep).astype(int)
    return ViewMask(n_views_full, tuple(idx.tolist()))


# ---------------------------------------------------------------------------
# Ray tracing and the system matrix
# ---------------------------------------------------------------------------

def _view_endpoints(geo: ScanGeometry, theta: float, t: np.ndarray):
    """Start and end points, as (R, 2) arrays, of the rays of one view.

    ``t`` holds each ray's detector coordinate: the offset from the
    rotation center for parallel beam, the angle within the fan for the
    equiangular fan.
    """
    ox, oy = geo.grid.origin
    xmin, xmax, ymin, ymax = geo.grid.extent
    diag = np.hypot(xmax - xmin, ymax - ymin)
    cos, sin = np.cos(theta), np.sin(theta)
    if geo.kind == PARALLEL:
        # through origin + t*(cos, sin), along (-sin, cos)
        bx, by = ox + t * cos, oy + t * sin
        p0 = np.stack([bx + diag * sin, by - diag * cos], axis=1)
        p1 = np.stack([bx - diag * sin, by + diag * cos], axis=1)
        return p0, p1
    # from the source on the circle of radius source_radius, toward the
    # rotation center turned by the fan angle t
    src = np.array([ox + geo.source_radius * cos, oy + geo.source_radius * sin])
    reach = geo.source_radius + geo.source_to_detector + diag
    p1 = np.stack([src[0] - reach * np.cos(theta + t),
                   src[1] - reach * np.sin(theta + t)], axis=1)
    return np.broadcast_to(src, p1.shape), p1


def _trace_view(p0: np.ndarray, p1: np.ndarray, grid: GridSpec):
    """Exact chord lengths of the segments p0[r] -> p1[r] through the grid cells.

    Returns (ray index, flat pixel index, length) of every chord, ordered by
    ray and then along the ray. Each ray is parametrized as
    p(a) = p0 + a*(p1-p0); its entry and exit parameters and its pixel-edge
    crossings in between are sorted into one row, and each inter-crossing
    midpoint names the cell of that chord. A crossing through a pixel corner
    appears twice and yields a zero-length chord, which the length filter
    drops.
    """
    xmin, xmax, ymin, ymax = grid.extent
    h = grid.pixel_size
    d = p1 - p0
    seg_len = np.hypot(d[:, 0], d[:, 1])

    a_lo, a_hi = np.zeros(len(d)), np.ones(len(d))
    hit = seg_len != 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for axis, (lo, hi) in enumerate(((xmin, xmax), (ymin, ymax))):
            p, da = p0[:, axis], d[:, axis]
            moving = da != 0.0
            a1, a2 = (lo - p) / da, (hi - p) / da
            a_lo = np.where(moving, np.maximum(a_lo, np.minimum(a1, a2)), a_lo)
            a_hi = np.where(moving, np.minimum(a_hi, np.maximum(a1, a2)), a_hi)
            # a ray parallel to this axis misses unless it lies in the slab
            hit &= moving | ((lo <= p) & (p <= hi))
        hit &= a_lo < a_hi
        rays = np.flatnonzero(hit)
        p0, d, seg_len = p0[rays], d[rays], seg_len[rays]
        a_lo, a_hi = a_lo[rays, None], a_hi[rays, None]
        # edge crossings; a ray parallel to an axis gets +-inf or nan there,
        # which the interior test below discards
        edges = [(lo + np.arange(n + 1) * h - p0[:, axis, None]) / d[:, axis, None]
                 for axis, lo, n in ((0, xmin, grid.nx), (1, ymin, grid.ny))]
    crossings = np.concatenate(edges, axis=1)
    crossings[~((crossings > a_lo) & (crossings < a_hi))] = np.inf
    alphas = np.sort(np.concatenate([a_lo, a_hi, crossings], axis=1), axis=1)

    # the finite entries of each sorted row are a prefix: its chords
    seg = np.isfinite(alphas[:, 1:])
    n_seg = np.count_nonzero(seg, axis=1)
    a0, a1 = alphas[:, :-1][seg], alphas[:, 1:][seg]
    lengths = (a1 - a0) * np.repeat(seg_len, n_seg)
    mid = 0.5 * (a0 + a1)

    def cell(axis, lo):
        at = np.repeat(p0[:, axis], n_seg) + mid * np.repeat(d[:, axis], n_seg)
        return np.floor((at - lo) / h).astype(int)

    ix, iy = cell(0, xmin), cell(1, ymin)
    ok = (ix >= 0) & (ix < grid.nx) & (iy >= 0) & (iy < grid.ny) & (lengths > 1e-12 * h)
    return np.repeat(rays, n_seg)[ok], iy[ok] * grid.nx + ix[ok], lengths[ok]


def _build_system_matrix(geo: ScanGeometry) -> sp.csr_matrix:
    # imported here: loading scipy.sparse is a large share of a CLI
    # command's start-up, and most commands never build a matrix
    import scipy.sparse as sp

    grid = geo.grid
    n_rows = geo.n_views_full * geo.n_dets
    t = (np.arange(geo.n_dets) - 0.5 * (geo.n_dets - 1)) * geo.det_spacing
    # the index type scipy picks for this shape, so the COO arrays need no copy
    fits_int32 = max(n_rows, grid.nx * grid.ny) <= np.iinfo(np.int32).max
    index_dtype = np.int32 if fits_int32 else np.int64

    rows, cols, vals = [], [], []
    for v, theta in enumerate(geo.angles):
        ray, pix, ln = _trace_view(*_view_endpoints(geo, theta, t), grid)
        rows.append((v * geo.n_dets + ray).astype(index_dtype))
        cols.append(pix.astype(index_dtype))
        vals.append(ln)
    # one list at a time, so each list of pieces is freed once joined
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(n_rows, grid.nx * grid.ny))
    mat.sum_duplicates()
    return mat


class _Operators:
    """The projector of one geometry: A, built on construction, and A^T,
    built from it on the first adjoint product."""

    def __init__(self, geo: ScanGeometry):
        self.a = _build_system_matrix(geo)

    @cached_property
    def at(self) -> sp.csr_matrix:
        return self.a.T.tocsr()


# Operators of the most recently used geometries; at 128^2 with 180 views A
# takes about 46 MB, and A^T as much again once built, so a process
# sweeping geometries keeps only a few.
_operators = lru_cache(maxsize=4)(_Operators)


def system_matrix(geo: ScanGeometry) -> sp.csr_matrix:
    """Sparse (n_views*n_dets, nx*ny) matrix of ray/pixel chord lengths,
    one ray through the center of each detector bin.

    All rays of a view are traced in one vectorized pass. Cached per
    geometry; the cache keeps the operators of the 4 most recently used
    geometries.
    """
    return _operators(geo).a


def system_matrix_transpose(geo: ScanGeometry) -> sp.csr_matrix:
    """A^T of :func:`system_matrix` as its own CSR matrix, so each adjoint
    product is a row gather rather than a column scatter.

    Built from the cached A on the first call for a geometry, never inside
    the build of A, whose coordinate arrays would otherwise be alive at the
    same time; evicted with A. Each output adds its terms in the same order
    as the scatter product through A's column view, so the results are
    byte-identical to it.
    """
    return _operators(geo).at


def forward_project(img: Image, geo: ScanGeometry) -> Sinogram:
    """Line-integral projection of ``img`` over every view of ``geo``."""
    if img.grid != geo.grid:
        raise ConfigError("image grid does not match geometry grid")
    vals = system_matrix(geo) @ img.values.ravel()
    return Sinogram(geo, np.arange(geo.n_views_full), vals.reshape(geo.n_views_full, geo.n_dets))


def back_project(sino: Sinogram, geo: ScanGeometry) -> Image:
    """Exact transpose of :func:`forward_project`.

    Sparse-view input is zero-filled onto the full view set first, so this
    also realizes A^T P0^T.
    """
    if sino.geometry != geo:
        raise ConfigError("sinogram geometry does not match")
    vals = system_matrix_transpose(geo) @ zero_fill_views(sino).values.ravel()
    return Image(geo.grid, vals.reshape(geo.grid.shape))


# ---------------------------------------------------------------------------
# View subsampling / upsampling
# ---------------------------------------------------------------------------

def subsample_views(sino: Sinogram, mask: ViewMask) -> Sinogram:
    """Restrict a full-view sinogram to the masked views (apply P0)."""
    if mask.n_views_full != sino.geometry.n_views_full:
        raise ConfigError("mask does not match geometry view count")
    if not sino.is_full_view:
        raise InputError("subsample_views expects a full-view sinogram")
    idx = mask.indices()
    return Sinogram(sino.geometry, idx, sino.values[idx])


def zero_fill_views(sparse: Sinogram) -> Sinogram:
    """Scatter a sparse-view sinogram onto the full view set (apply P0^T)."""
    geo = sparse.geometry
    full = np.zeros((geo.n_views_full, geo.n_dets))
    full[sparse.view_indices] = sparse.values
    return Sinogram(geo, np.arange(geo.n_views_full), full)


def upsample_sinogram_linear(sparse: Sinogram) -> Sinogram:
    """Per-detector-bin linear interpolation along the view axis, onto
    every view of the sinogram's geometry.

    Views are treated as periodic in the angular index; retained views are
    reproduced exactly.
    """
    geo = sparse.geometry
    if sparse.n_views < 2:
        raise InputError("need at least 2 views to interpolate")
    views = np.arange(geo.n_views_full)
    out = np.stack([np.interp(views, sparse.view_indices, column, period=geo.n_views_full)
                    for column in sparse.values.T], axis=1)
    return Sinogram(geo, views, out)


# ---------------------------------------------------------------------------
# FBP
# ---------------------------------------------------------------------------

def _ramp_filter(n_pad: int, spacing: float, window: str) -> np.ndarray:
    """Frequency response of the band-limited ramp (optionally Hann-apodized)."""
    # real-space ramp taps, wrap-around layout
    f = np.zeros(n_pad)
    f[0] = 1.0 / (4.0 * spacing**2)
    odd = np.arange(1, n_pad // 2 + 1, 2)
    f[odd] = -1.0 / (np.pi * odd * spacing) ** 2
    f[-odd] = f[odd]
    resp = np.real(np.fft.fft(f)) * spacing
    if window == "hann":
        resp *= 0.5 * (1.0 + np.cos(2.0 * np.pi * np.fft.fftfreq(n_pad)))
    elif window != "ram-lak":
        raise ConfigError(f"unknown FBP window {window!r}")
    return resp


def _view_weights(angles: np.ndarray, period: float) -> np.ndarray:
    """Angular quadrature weight per view: half the gap to each neighbor."""
    if angles.size == 1:
        return np.array([period])
    ext = np.concatenate([[angles[-1] - period], angles, [angles[0] + period]])
    return 0.5 * (ext[2:] - ext[:-2])


def fbp_reconstruct(sino: Sinogram, geo: ScanGeometry, window: str = "ram-lak") -> Image:
    """Filtered back-projection (parallel beam only).

    Views are ramp-filtered in the frequency domain (zero-padded to the next
    power of two >= 2*n_dets) and back-projected with per-view angular
    weights, so sparse view sets are handled by their angular gaps.
    """
    if geo.kind != PARALLEL:
        raise ConfigError("FBP supports parallel-beam geometry only")
    if sino.geometry != geo:
        raise ConfigError("sinogram geometry does not match")
    n_dets = geo.n_dets
    n_pad = 1 << int(np.ceil(np.log2(max(2 * n_dets, 2))))
    resp = _ramp_filter(n_pad, geo.det_spacing, window)

    padded = np.zeros((sino.n_views, n_pad))
    padded[:, :n_dets] = sino.values
    filtered = np.real(np.fft.ifft(np.fft.fft(padded, axis=1) * resp[None, :], axis=1))[:, :n_dets]

    angles = geo.angles_array()[sino.view_indices]
    weights = _view_weights(angles, geo.angular_period)

    xs, ys = geo.grid.pixel_centers()
    ox, oy = geo.grid.origin
    xg, yg = np.meshgrid(xs - ox, ys - oy)
    recon = np.zeros(geo.grid.shape)
    half = 0.5 * (n_dets - 1)
    for v in range(sino.n_views):
        th = angles[v]
        t = (xg * np.cos(th) + yg * np.sin(th)) / geo.det_spacing + half
        lo = np.floor(t).astype(int)
        frac = t - lo
        lo0 = np.clip(lo, 0, n_dets - 1)
        lo1 = np.clip(lo + 1, 0, n_dets - 1)
        inside = (t >= 0) & (t <= n_dets - 1)
        prof = filtered[v]
        recon += weights[v] * inside * ((1.0 - frac) * prof[lo0] + frac * prof[lo1])
    return Image(geo.grid, recon)

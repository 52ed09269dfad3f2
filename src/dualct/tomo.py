"""Scan geometry, ray-driven projection, view masking and FBP.

The forward projector traverses each ray through the pixel grid
(Siddon-style), recording exact chord lengths. The weights are assembled
once per geometry into a sparse matrix, so the back-projector is the exact
transpose of the forward projector by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral
from typing import TYPE_CHECKING

import numpy as np

from .errors import (ConfigError, InputError, config_count, config_float, config_int,
                     instance_of, list_of, read_fields)

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


read_grid = instance_of(GridSpec)


@dataclass(frozen=True)
class ScanGeometry:
    """Acquisition geometry: view angles, detector array, and the image grid.

    ``det_spacing`` is a length for parallel beam and an angular increment
    (radians) for the equiangular fan. ``source_radius`` is only meaningful
    for the fan. A fan ray is traced from the source until it is past the
    grid (see :func:`_view_endpoints`); the chords, and so the projector, do
    not depend on where the detector is, so the geometry does not hold it.
    """

    kind: str
    angles: tuple[float, ...]
    n_dets: int
    det_spacing: float
    grid: GridSpec
    source_radius: float = 0.0

    def __post_init__(self):
        if self.kind not in (PARALLEL, FAN):
            raise ConfigError(f"unknown geometry kind {self.kind!r}")
        read_fields(self, grid=read_grid, angles=list_of(config_float), n_dets=config_count,
                    det_spacing=config_float, source_radius=config_float)
        if not self.det_spacing > 0:
            raise ConfigError("det_spacing must be positive")
        if not self.angles:
            raise ConfigError("angles must be a non-empty sequence")
        if np.any(np.diff(self.angles) <= 0):
            raise ConfigError("angles must be strictly increasing")
        if self.kind == FAN and not self.source_radius > 0:
            raise ConfigError("fan beam needs a positive source_radius")

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
        xmin, xmax, ymin, ymax = read_grid(grid, "grid").extent
        diag = np.hypot(xmax - xmin, ymax - ymin)
        det_spacing = diag / n_dets
    angles = tuple(np.arange(n_views) * (np.pi / n_views))
    return ScanGeometry(PARALLEL, angles, n_dets, det_spacing, grid)


def fan_geometry(n_views, n_dets, grid, det_spacing=None, source_radius=None):
    """Evenly spaced equiangular fan-beam geometry covering [0, 2*pi)."""
    n_views, n_dets = config_count(n_views, "n_views"), config_count(n_dets, "n_dets")
    xmin, xmax, ymin, ymax = read_grid(grid, "grid").extent
    radius = 0.5 * np.hypot(xmax - xmin, ymax - ymin)
    source_radius = (2.0 * radius if source_radius is None
                     else config_float(source_radius, "source_radius"))
    if det_spacing is None:
        # full fan angle subtending the grid circle, small safety margin
        half_fan = np.arcsin(min(0.999, radius / source_radius)) * 1.05
        det_spacing = 2.0 * half_fan / n_dets
    angles = tuple(np.arange(n_views) * (2.0 * np.pi / n_views))
    return ScanGeometry(FAN, angles, n_dets, det_spacing, grid, source_radius=source_radius)


def _finite_field(values, shape: tuple[int, int], what: str) -> np.ndarray:
    """``values`` as a finite float array of ``shape``; any array of that
    many values is reshaped."""
    try:
        values = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:  # non-numeric or ragged
        raise InputError(f"{what} values must be a numeric array: {exc}") from None
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
        self.values = _finite_field(self.values, read_grid(self.grid, "grid").shape, "image")


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
        read_fields(self, geometry=instance_of(ScanGeometry))
        try:
            idx = np.asarray(self.view_indices)
        except ValueError as exc:  # ragged
            raise InputError(f"view_indices must be a 1-D list: {exc}") from None
        if idx.ndim != 1:
            raise InputError(f"view_indices must be a 1-D list, got {idx.ndim} dimensions")
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
        read_fields(self, n_views_full=config_int)
        s = self.selected
        if not isinstance(s, (list, tuple)):
            raise ConfigError(f"selected must be a list, got {s!r}")
        # config_int's rule, tested once per distinct type instead of per index
        bad = sorted(t.__name__ for t in set(map(type, s))
                     if t is bool or not issubclass(t, Integral))
        if bad:
            raise ConfigError(f"selected must be a list of integers, got {', '.join(bad)}")
        if not s:
            raise ConfigError("view mask must select at least one view")
        try:
            idx = np.asarray(s, dtype=np.int64)
        except OverflowError:
            raise ConfigError("mask index out of range") from None
        if np.any(idx[1:] <= idx[:-1]):
            raise ConfigError("mask indices must be sorted and unique")
        if idx[0] < 0 or idx[-1] >= self.n_views_full:
            raise ConfigError("mask index out of range")
        object.__setattr__(self, "selected", tuple(idx.tolist()))

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
    equiangular fan. A parallel ray runs the grid diagonal to each side of
    the detector line; a fan ray runs from the source for 3*source_radius +
    diagonal, past the far side of the grid wherever the source is. So no
    chord depends on where a segment ends.
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
    # R + 2R + diag, the reach when the geometry held a source-to-detector
    # distance (default 2R): the same segments, so the same matrix bytes
    reach = 3.0 * geo.source_radius + diag
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
    n_dets = geo.n_dets
    n_rows, n_pix = geo.n_views_full * n_dets, grid.nx * grid.ny
    t = (np.arange(n_dets) - 0.5 * (n_dets - 1)) * geo.det_spacing
    # a trace row holds nx + ny + 4 sorted parameters, so a ray has at most
    # nx + ny + 3 chords; the pages past the chords written are never
    # touched, so never resident
    bound = n_rows * (grid.nx + grid.ny + 3)
    fits_int32 = max(n_rows, n_pix, bound) <= np.iinfo(np.int32).max
    index_dtype = np.int32 if fits_int32 else np.int64
    indptr = np.zeros(n_rows + 1, dtype=index_dtype)
    indices = np.empty(bound, dtype=index_dtype)
    data = np.empty(bound)

    nnz = 0
    for v, theta in enumerate(geo.angles):
        # chords come ordered by ray, so each view's are one stretch of rows
        ray, pix, ln = _trace_view(*_view_endpoints(geo, theta, t), grid)
        indices[nnz:nnz + ln.size] = pix
        data[nnz:nnz + ln.size] = ln
        nnz += ln.size
        indptr[1 + v * n_dets:1 + (v + 1) * n_dets] = np.bincount(ray, minlength=n_dets)
    np.cumsum(indptr, out=indptr)
    # shrunk in place to the chords written, so nothing is copied; the
    # default refcheck refuses the resize while any view of a buffer lives
    indices.resize(nnz)
    data.resize(nnz)
    mat = sp.csr_matrix((data, indices, indptr), shape=(n_rows, n_pix))
    # in place: sorts each row's columns (and would add any repeated pixel)
    mat.sum_duplicates()
    return mat


# A of the most recently used geometries; at 128^2 with 180 views each
# takes about 46 MB, so a process sweeping geometries keeps only a few.
_cached_system_matrix = lru_cache(maxsize=4)(_build_system_matrix)


def system_matrix(geo: ScanGeometry) -> sp.csr_matrix:
    """Sparse (n_views*n_dets, nx*ny) matrix of ray/pixel chord lengths,
    one ray through the center of each detector bin.

    All rays of a view are traced in one vectorized pass. Cached per
    geometry; the cache keeps the matrices of the 4 most recently used
    geometries. The adjoint is ``system_matrix(geo).T``, scipy's CSC view
    of the same arrays, so no second copy is ever built.
    """
    return _cached_system_matrix(geo)


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
    vals = system_matrix(geo).T @ zero_fill_views(sino).values.ravel()
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
    """Real-FFT response of the band-limited ramp (optionally Hann-apodized)."""
    # real-space ramp taps, wrap-around layout
    f = np.zeros(n_pad)
    f[0] = 1.0 / (4.0 * spacing**2)
    odd = np.arange(1, n_pad // 2 + 1, 2)
    f[odd] = -1.0 / (np.pi * odd * spacing) ** 2
    f[-odd] = f[odd]
    resp = np.fft.rfft(f).real * spacing
    if window == "hann":
        resp *= 0.5 * (1.0 + np.cos(2.0 * np.pi * np.fft.rfftfreq(n_pad)))
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

    Views are ramp-filtered with real FFTs (zero-padded to the next power of
    two >= 2*n_dets), then back-projected by linear interpolation
    (``np.interp``, 0 off the detector) with per-view angular weights, so
    sparse view sets are handled by their angular gaps.
    """
    if geo.kind != PARALLEL:
        raise ConfigError("FBP supports parallel-beam geometry only")
    if sino.geometry != geo:
        raise ConfigError("sinogram geometry does not match")
    n_dets = geo.n_dets
    n_pad = 1 << int(np.ceil(np.log2(max(2 * n_dets, 2))))
    resp = _ramp_filter(n_pad, geo.det_spacing, window)

    filtered = np.fft.irfft(np.fft.rfft(sino.values, n=n_pad, axis=1) * resp,
                            n=n_pad, axis=1)[:, :n_dets]

    angles = geo.angles_array()[sino.view_indices]
    weights = _view_weights(angles, geo.angular_period)

    xs, ys = geo.grid.pixel_centers()
    ox, oy = geo.grid.origin
    xg, yg = np.meshgrid(xs - ox, ys - oy)
    recon = np.zeros(geo.grid.shape)
    half = 0.5 * (n_dets - 1)
    for th, wt, prof in zip(angles, weights, filtered):
        t = (xg * np.cos(th) + yg * np.sin(th)) / geo.det_spacing + half
        recon += wt * np.interp(t, np.arange(n_dets), prof, left=0.0, right=0.0)
    return Image(geo.grid, recon)

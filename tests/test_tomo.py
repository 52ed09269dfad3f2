import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import in_forked_child
from dualct import lanes, rowsplit, tomo
from dualct.errors import ConfigError, InputError
from dualct.metrics import psnr
from dualct.simdata import PhantomSpec, make_phantom
from dualct.tomo import (FAN, PARALLEL, GridSpec, Image, ScanGeometry,
                         Sinogram, ViewMask, back_project, fan_geometry,
                         fbp_reconstruct, forward_project, parallel_geometry,
                         subsample_views, system_matrix, uniform_mask,
                         upsample_sinogram_linear, zero_fill_views)


# ---------------------------------------------------------------------------
# Independent dense-matrix oracle: clip each ray against every pixel square
# (Liang-Barsky), entirely separate from the production Siddon traversal.
# ---------------------------------------------------------------------------

def _oracle_endpoints(geo, view, det):
    """A segment along the ray of (view, detector bin) that spans the grid.

    Built from the geometry's definition, not from the production tracer:
    a parallel ray is the line whose normal at angle theta lies at offset t
    from the origin; a fan ray leaves the source at angle theta on the
    source circle, turned by t from the direction to the origin.
    """
    theta = geo.angles[view]
    t = (det - (geo.n_dets - 1) / 2) * geo.det_spacing
    center = np.asarray(geo.grid.origin, dtype=float)
    xmin, xmax, ymin, ymax = geo.grid.extent
    reach = geo.source_radius + (xmax - xmin) + (ymax - ymin)
    normal = np.array([np.cos(theta), np.sin(theta)])
    if geo.kind == PARALLEL:
        foot = center + t * normal
        along = np.array([np.cos(theta + np.pi / 2), np.sin(theta + np.pi / 2)])
        return foot - reach * along, foot + reach * along
    rot = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    src = center + geo.source_radius * normal
    return src, src + reach * (rot @ -normal)


def _clip_length(p0, p1, xlo, xhi, ylo, yhi):
    # Pixels are half-open, [lo, hi): a ray lying exactly on a shared edge
    # belongs to the pixel on the high side (same tie convention as a
    # floor-based cell lookup), so it is rejected on the low pixel's hi face.
    d = p1 - p0
    t0, t1 = 0.0, 1.0
    for p, q, hi_face in ((-d[0], p0[0] - xlo, False), (d[0], xhi - p0[0], True),
                          (-d[1], p0[1] - ylo, False), (d[1], yhi - p0[1], True)):
        if p == 0.0:
            if q < 0 or (q == 0 and hi_face):
                return 0.0
        else:
            r = q / p
            if p < 0:
                t0 = max(t0, r)
            else:
                t1 = min(t1, r)
    if t0 >= t1:
        return 0.0
    return (t1 - t0) * float(np.hypot(*d))


def dense_matrix_oracle(geo):
    grid = geo.grid
    xmin, _, ymin, _ = grid.extent
    h = grid.pixel_size
    mat = np.zeros((geo.n_views_full * geo.n_dets, grid.nx * grid.ny))
    for v in range(geo.n_views_full):
        for j in range(geo.n_dets):
            p0, p1 = _oracle_endpoints(geo, v, j)
            for iy in range(grid.ny):
                for ix in range(grid.nx):
                    mat[v * geo.n_dets + j, iy * grid.nx + ix] = _clip_length(
                        p0, p1, xmin + ix * h, xmin + (ix + 1) * h,
                        ymin + iy * h, ymin + (iy + 1) * h)
    return mat


def _off_axis(angles, margin=1e-3):
    """True when no angle lies within ``margin`` of a multiple of pi/2."""
    r = np.mod(np.asarray(angles, dtype=float), np.pi / 2)
    return bool(np.all((r > margin) & (r < np.pi / 2 - margin)))


@st.composite
def small_geometries(draw):
    """A grid of at most 6x6 pixels at a random origin, a few off-axis views
    and a random detector pitch."""
    h = draw(st.floats(0.25, 2.0))
    grid = GridSpec(draw(st.integers(1, 6)), draw(st.integers(1, 6)), h,
                    (draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))))
    angles = tuple(sorted(draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=1,
                                        max_size=4, unique=True))))
    assume(_off_axis(angles))
    n_dets = draw(st.integers(1, 7))
    if draw(st.sampled_from([PARALLEL, FAN])) == PARALLEL:
        geo = ScanGeometry(PARALLEL, angles, n_dets, draw(st.floats(0.1, 1.5)) * h, grid)
    else:
        xmin, xmax, ymin, ymax = grid.extent
        radius = 0.5 * np.hypot(xmax - xmin, ymax - ymin) * draw(st.floats(1.1, 3.0))
        geo = ScanGeometry(FAN, angles, n_dets, draw(st.floats(0.01, 0.3)), grid,
                           source_radius=radius)
        # every fan ray must be off-axis too
        span = np.arange(n_dets) - 0.5 * (n_dets - 1)
        assume(_off_axis(np.add.outer(angles, span * geo.det_spacing)))
    return geo


def _coo_build_oracle(geo):
    """The system matrix assembled through coordinates: row, column and
    value lists joined, then scipy's COO-to-CSR conversion."""
    t = (np.arange(geo.n_dets) - 0.5 * (geo.n_dets - 1)) * geo.det_spacing
    rows, cols, vals = [], [], []
    for v, theta in enumerate(geo.angles):
        ray, pix, ln = tomo._trace_view(*tomo._view_endpoints(geo, theta, t), geo.grid)
        rows.append(v * geo.n_dets + ray)
        cols.append(pix)
        vals.append(ln)
    mat = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                        shape=(geo.n_views_full * geo.n_dets, geo.grid.nx * geo.grid.ny))
    mat.sum_duplicates()
    return mat


# Builds the 128x128, 180-view, 185-detector matrix of the benchmark's CLI
# pipeline in a fresh interpreter and prints A's bytes, the peak resident
# growth during the build and the resident growth left after it. The peak
# is the interpreter's own high-water mark (VmHWM): ru_maxrss would also
# hold the resident size of the process that started it, kept across exec.
_BUILD_MEMORY_PROBE = """
import json
import scipy.sparse  # loaded before the first reading: its import is not the build's
from dualct.tomo import GridSpec, parallel_geometry, system_matrix

def status(key):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith(key + ":"))

geo = parallel_geometry(180, 185, GridSpec(128, 128, 2.0 / 128))
before = status("VmRSS")
a = system_matrix(geo)
peak = status("VmHWM")
print(json.dumps({"a": a.data.nbytes + a.indices.nbytes + a.indptr.nbytes,
                  "peak": peak - before, "after": status("VmRSS") - before}))
"""


class TestSystemMatrix:
    @settings(max_examples=60, deadline=None)
    @given(small_geometries())
    def test_matches_dense_oracle(self, geo):
        np.testing.assert_allclose(system_matrix(geo).toarray(), dense_matrix_oracle(geo),
                                   rtol=0, atol=1e-10)

    # sha256 of (indptr, indices, data), recorded from the per-ray tracing
    # loop this vectorized tracer replaced; the build must stay byte-identical.
    PINNED = {
        # theta = 0 and pi/2 with detector bins on pixel edges
        "parallel16_axis": (lambda: parallel_geometry(8, 17, GridSpec(16, 16, 1.0),
                                                      det_spacing=1.0),
                            "f4dc00701e694ac026f1cb81445544d670718fee8ec631207733ce8facabb83a",
                            "8b54ad1e25d671c013802f0f36969cc21fa4f95a265140657c56d8e94db08ead",
                            "4b9dbfff5dc0fa80340d5e969cee47df6abea611c49445bd404e440fd407aa6e"),
        # offset origin, detector span wider than the grid: 246 empty rows
        "rect_offset_wide": (lambda: ScanGeometry(
                                PARALLEL, tuple(np.arange(10) * (np.pi / 10) + 0.05), 41, 0.9,
                                GridSpec(20, 13, 0.7, origin=(1.3, -0.6))),
                             "7913e90d874b08a220b59fb80842e78720a232526d4f3f151597d3b2f7539e3a",
                             "de7944796560a2267887045c9dd06bd253c517cf3a2e389b72bf01c7e7101b85",
                             "b074203f4782ae7e4452264b56c4525a9301b45f1dfe1f7623bdf29e6bdf2cee"),
        "fan": (lambda: fan_geometry(16, 25, GridSpec(16, 16, 1.0)),
                "4cc0e217b04b059690b587937f6ea98c128279ecdad03eb1257c1f58f1f76355",
                "08fb24a6b802f07d3d70b6cb91efa39262fbf99ced7a4230961d36d2176a3eb2",
                "05c585230ce4d5b60555195c42e7c18513406597d0654b9d5e76eb817fc4b218"),
        "grid1x1": (lambda: parallel_geometry(4, 3, GridSpec(1, 1, 1.0)),
                    "c72dd2e22cfe4b7a3023394a011364af88315aa6e10c0f8b4c955f8e17ae1c4c",
                    "17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1",
                    "048ba90947ebcbd10a314799db283722492b8e027b38a4c4cfc3927e4cc7b285"),
        # the benchmark's tv64 geometry
        "tv64": (lambda: parallel_geometry(90, 95, GridSpec(64, 64, 2.0 / 64)),
                 "4f7c2603a28a795af6698d22eb0e88736187baf18385a12f5c51d7e07b92722e",
                 "f725b5e1a0c93cc67c8e4582110abce4a44cea8f08ac7ebbe0e299f0d5e31545",
                 "f3f48028640b8bf6598ceabe8c5f916a6e468487f5d4898ce8cb8dc11ee7b3fc"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_bytes(self, name):
        make_geo, *expected = self.PINNED[name]
        mat = system_matrix(make_geo())
        got = [hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
               for a in (mat.indptr, mat.indices, mat.data)]
        assert got == expected

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_bytes_under_a_profiler(self, name):
        make_geo, *expected = self.PINNED[name]
        geo = make_geo()
        # a Python-level profile hook holds the frame's locals, which the
        # in-place shrink's refcheck must not count
        sys.setprofile(lambda *args: None)
        try:
            mat = tomo._build_system_matrix(geo)
        finally:
            sys.setprofile(None)
        got = [hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
               for a in (mat.indptr, mat.indices, mat.data)]
        assert got == expected

    @staticmethod
    def _assert_matches_coo_build(geo):
        mat, oracle = system_matrix(geo), _coo_build_oracle(geo)
        for got, want in ((mat.indptr, oracle.indptr), (mat.indices, oracle.indices),
                          (mat.data, oracle.data)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert np.diff(mat.indptr).max() <= geo.grid.nx + geo.grid.ny + 3

    @settings(max_examples=60, deadline=None)
    @given(small_geometries())
    def test_matches_coo_build(self, geo):
        self._assert_matches_coo_build(geo)

    @pytest.mark.parametrize("name", ["rect_offset_wide", "grid1x1"])
    def test_matches_coo_build_pinned(self, name):
        self._assert_matches_coo_build(self.PINNED[name][0]())

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="needs /proc/self/status for the resident sizes")
    def test_build_memory(self):
        src = str(Path(tomo.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run([sys.executable, "-c", _BUILD_MEMORY_PROBE], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        # the buffers are shrunk in place to A's arrays, so at its peak the
        # build holds A and a few per-view temporaries, and frees all but A
        assert got["peak"] <= 1.3 * got["a"], got
        assert got["after"] <= 1.2 * got["a"], got

    def test_cache_evicts_least_recently_used(self, grid8):
        tomo._cached_system_matrix.cache_clear()
        size = 4
        assert tomo._cached_system_matrix.cache_info().maxsize == size
        geos = [parallel_geometry(3 + k, 5, grid8) for k in range(size + 1)]
        mats = [system_matrix(geo) for geo in geos[:-1]]
        assert system_matrix(geos[0]) is mats[0]  # built once, now the most recently used
        system_matrix(geos[-1])
        assert tomo._cached_system_matrix.cache_info().currsize == size
        assert system_matrix(geos[0]) is mats[0]
        # geos[1] was evicted
        rebuilt = system_matrix(geos[1])
        assert rebuilt is not mats[1]
        assert (rebuilt != mats[1]).nnz == 0
        assert tomo._cached_system_matrix.cache_info().currsize == size


def _split_products(mat, x, r, one_cpu):
    """``(A x, A^T r)`` bytes, whether a pool exists and A's thread count,
    in a process limited to one CPU if ``one_cpu``."""
    if one_cpu:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    fwd, adj = mat @ x, mat.T @ r
    return fwd.tobytes(), adj.tobytes(), lanes._pool is not None, mat.threads


class TestRowSplit:
    """Products of a matrix split by row halves, forced on a 16^2 geometry."""

    @pytest.fixture(params=["parallel", "fan"])
    def split(self, request, monkeypatch, par16, fan16):
        monkeypatch.setattr(rowsplit, "SPLIT_NNZ", 0)
        geo = par16 if request.param == "parallel" else fan16
        mat = tomo._build_system_matrix(geo)
        plain = sp.csr_matrix((mat.data, mat.indices, mat.indptr), shape=mat.shape)
        return geo, mat, plain

    def test_halves_are_views(self, split):
        _, mat, plain = split
        top, bottom = mat._halves
        assert top.shape[0] + bottom.shape[0] == mat.shape[0]
        assert abs(top.nnz - bottom.nnz) <= mat.shape[1]
        for half in (top, bottom):
            for name in ("data", "indices"):
                assert np.shares_memory(getattr(half, name), getattr(mat, name))
        assert np.shares_memory(top.indptr, mat.indptr)
        assert isinstance(mat, sp.csr_matrix) and mat.T is mat.T
        assert (mat != plain).nnz == 0
        np.testing.assert_array_equal(mat.toarray(), plain.toarray())

    def test_forward_bytes_and_adjoint_match_unsplit(self, split, rng):
        _, mat, plain = split
        for _ in range(10):
            x = rng.standard_normal(mat.shape[1])
            r = rng.random(mat.shape[0])  # nonnegative: no cancellation
            assert (mat @ x).tobytes() == (plain @ x).tobytes()
            np.testing.assert_allclose(mat.T @ r, plain.T @ r, rtol=1e-15, atol=0)

    def test_adjoint_identity(self, split, rng):
        geo, mat, _ = split
        for _ in range(100):
            x = rng.standard_normal(mat.shape[1])
            z = rng.standard_normal(mat.shape[0])
            ax = mat @ x
            denom = np.linalg.norm(ax) * np.linalg.norm(z)
            assert abs(np.dot(ax, z) - np.dot(x, mat.T @ z)) <= 1e-12 * denom

    def test_threshold_leaves_small_matrices_whole(self, par16):
        mat = tomo._build_system_matrix(par16)
        assert mat.nnz < rowsplit.SPLIT_NNZ and mat._halves is None and mat.threads == 1

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_one_cpu_gives_the_same_bytes(self, split, rng):
        _, mat, _ = split
        x, r = rng.standard_normal(mat.shape[1]), rng.standard_normal(mat.shape[0])
        fwd, adj, _, threads = _split_products(mat, x, r, one_cpu=False)
        assert threads == lanes.lane_count()
        # a fresh fork has no pool: with one CPU the caller runs both halves
        assert in_forked_child(_split_products, mat, x, r, True) == (fwd, adj, False, 1)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_fork_after_the_pool_ran(self, split, rng):
        _, mat, _ = split
        x, r = rng.standard_normal(mat.shape[1]), rng.standard_normal(mat.shape[0])
        want = _split_products(mat, x, r, one_cpu=False)
        assert want[2] == (lanes.lane_count() == 2)
        assert in_forked_child(_split_products, mat, x, r, False) == want


class TestForwardProject:
    def test_single_pixel_line_integral(self):
        grid = GridSpec(1, 1, 1.0)
        geo = ScanGeometry(PARALLEL, (0.0,), 1, 1.0, grid)
        sino = forward_project(Image(grid, np.array([[2.0]])), geo)
        assert sino.values[0, 0] == pytest.approx(2.0, abs=1e-14)

    def test_zero_image(self, grid8):
        geo = parallel_geometry(10, 9, grid8)
        sino = forward_project(Image(grid8, np.zeros((8, 8))), geo)
        assert np.all(sino.values == 0.0)

    def test_matches_dense_oracle(self, rng):
        # Angles are offset from the axes so that no ray lies exactly on a
        # pixel boundary (where chord attribution is a floating-point tie).
        grid = GridSpec(8, 8, 1.0)
        angles = tuple(np.arange(12) * (np.pi / 12) + 0.0137)
        geo = ScanGeometry(PARALLEL, angles, 11, 1.03, grid)
        dense = dense_matrix_oracle(geo)
        img = rng.standard_normal((8, 8))
        expected = (dense @ img.ravel()).reshape(12, 11)
        got = forward_project(Image(grid, img), geo).values
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)

    def test_fan_matches_dense_oracle(self, rng):
        grid = GridSpec(6, 6, 0.5)
        base = fan_geometry(8, 9, grid)
        angles = tuple(np.asarray(base.angles) + 0.0213)
        geo = ScanGeometry(FAN, angles, 9, base.det_spacing, grid,
                           source_radius=base.source_radius)
        dense = dense_matrix_oracle(geo)
        img = rng.standard_normal((6, 6))
        expected = (dense @ img.ravel()).reshape(8, 9)
        got = forward_project(Image(grid, img), geo).values
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)

    def test_linearity(self, grid8, rng):
        geo = parallel_geometry(10, 9, grid8)
        x1 = rng.standard_normal((8, 8))
        x2 = rng.standard_normal((8, 8))
        a, b = 1.7, -0.3
        lhs = forward_project(Image(grid8, a * x1 + b * x2), geo).values
        rhs = (a * forward_project(Image(grid8, x1), geo).values
               + b * forward_project(Image(grid8, x2), geo).values)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-13)

    def test_grid_mismatch_raises(self, grid8):
        geo = parallel_geometry(10, 9, GridSpec(9, 9, 1.0))
        with pytest.raises(ConfigError):
            forward_project(Image(grid8, np.zeros((8, 8))), geo)

    def test_nonfinite_input_rejected(self, grid8):
        vals = np.zeros((8, 8))
        vals[0, 0] = np.nan
        with pytest.raises(InputError):
            Image(grid8, vals)

    def test_quarter_turn_symmetry_centered_disk(self):
        # The pixelized disk is invariant under the lattice's quarter-turn
        # symmetry, so projections at theta and theta + pi/2 must agree.
        grid = GridSpec(32, 32, 1.0)
        disk = make_phantom(PhantomSpec("disk", grid))
        for theta in (0.11, 0.3, 0.7, 1.2):
            geo = ScanGeometry(PARALLEL, (theta, theta + np.pi / 2), 33, 1.0, grid)
            sino = forward_project(disk, geo).values
            spread = np.max(np.abs(sino[1] - sino[0]))
            assert spread <= 1e-10 * max(1.0, np.max(np.abs(sino)))


class TestBackProject:
    def test_zero_sinogram(self, grid8):
        geo = parallel_geometry(10, 9, grid8)
        sino = Sinogram(geo, np.arange(10), np.zeros((10, 9)))
        img = back_project(sino, geo)
        assert np.all(img.values == 0.0)

    def test_single_ray_footprint(self):
        grid = GridSpec(4, 4, 1.0)
        geo = parallel_geometry(6, 5, grid)
        dense = dense_matrix_oracle(geo)
        vals = np.zeros((6, 5))
        vals[2, 3] = 1.0
        img = back_project(Sinogram(geo, np.arange(6), vals), geo)
        expected = dense[2 * 5 + 3].reshape(4, 4)
        np.testing.assert_allclose(img.values, expected, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("make_geo", [
        lambda g: parallel_geometry(18, 20, g),
        lambda g: fan_geometry(18, 20, g),
        lambda g: parallel_geometry(7, 23, g),
    ])
    def test_adjoint_identity(self, grid16, make_geo, rng):
        geo = make_geo(grid16)
        for _ in range(100):
            x = rng.standard_normal(grid16.shape)
            z = rng.standard_normal((geo.n_views_full, geo.n_dets))
            ax = forward_project(Image(grid16, x), geo).values
            aty = back_project(Sinogram(geo, np.arange(geo.n_views_full), z), geo).values
            lhs = np.sum(ax * z)
            rhs = np.sum(x * aty)
            denom = np.linalg.norm(ax) * np.linalg.norm(z)
            assert abs(lhs - rhs) <= 1e-12 * denom


class TestViewMask:
    def test_uniform_64_of_1024(self):
        mask = uniform_mask(1024, 64)
        assert mask.indices()[0] == 0
        assert np.all(np.diff(mask.indices()) == 16)
        assert mask.n_selected == 64

    def test_one_formula_matches_two_branch_reference(self):
        def reference(n_views_full, n_keep):
            # the exact-stride / rounded-and-deduplicated code uniform_mask replaced
            if n_views_full % n_keep == 0:
                return np.arange(n_keep) * (n_views_full // n_keep)
            return np.unique(np.round(np.arange(n_keep) * n_views_full / n_keep).astype(int))

        for n in range(1, 400):
            for k in range(1, n + 1):
                assert uniform_mask(n, k).selected == tuple(reference(n, k).tolist()), (n, k)

    def test_identity_mask_roundtrip(self, grid8, rng):
        geo = parallel_geometry(10, 9, grid8)
        sino = forward_project(Image(grid8, rng.random((8, 8))), geo)
        out = subsample_views(sino, uniform_mask(10, 10))
        np.testing.assert_array_equal(out.values, sino.values)

    def test_projection_idempotent(self, grid8, rng):
        geo = parallel_geometry(12, 9, grid8)
        mask = uniform_mask(12, 4)
        sino = forward_project(Image(grid8, rng.random((8, 8))), geo)
        once = subsample_views(zero_fill_views(subsample_views(sino, mask)), mask)
        np.testing.assert_array_equal(once.values, subsample_views(sino, mask).values)

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            ViewMask(10, (0, 10))


class TestUpsample:
    def _sparse(self, geo, mask_keep, values):
        mask = uniform_mask(geo.n_views_full, mask_keep)
        return Sinogram(geo, mask.indices(), values)

    def test_constant_stays_constant(self, grid8):
        geo = parallel_geometry(12, 9, grid8)
        sparse = self._sparse(geo, 4, np.full((4, 9), 3.0))
        out = upsample_sinogram_linear(sparse)
        assert np.allclose(out.values, 3.0)

    def test_midpoint_average(self, grid8):
        geo = parallel_geometry(4, 9, grid8)
        sparse = self._sparse(geo, 2, np.stack([np.zeros(9), np.full(9, 4.0)]))
        out = upsample_sinogram_linear(sparse)
        assert np.allclose(out.values[1], 2.0)
        assert np.allclose(out.values[3], 2.0)  # periodic wrap

    def test_anchors_reproduced(self, grid8, rng):
        geo = parallel_geometry(12, 9, grid8)
        vals = rng.random((4, 9))
        sparse = self._sparse(geo, 4, vals)
        out = upsample_sinogram_linear(sparse)
        np.testing.assert_array_equal(out.values[sparse.view_indices], vals)

    @pytest.mark.parametrize("n_views, selected, n_dets", [
        (24, (0, 1, 5, 6, 11, 17, 18, 23), 13),
        (24, (3, 4, 9, 20), 7),
        (180, tuple(range(0, 180, 3)), 185),
    ])
    def test_bytes_match_per_column_interp(self, grid8, rng, n_views, selected, n_dets):
        geo = parallel_geometry(n_views, n_dets, grid8)
        vals = rng.standard_normal((len(selected), n_dets))
        vals[:, 0] = -0.0  # np.interp returns a knot's value itself, sign of zero included
        out = upsample_sinogram_linear(Sinogram(geo, np.array(selected), vals))
        sel = np.asarray(selected, dtype=float)
        xp = np.concatenate([sel, [sel[0] + n_views]])
        fp = np.vstack([vals, vals[:1]])
        targets = (np.arange(n_views) - sel[0]) % n_views + sel[0]
        expected = np.stack([np.interp(targets, xp, fp[:, d]) for d in range(n_dets)], axis=1)
        assert out.values.tobytes() == expected.tobytes()

    def test_too_few_views(self, grid8):
        geo = parallel_geometry(12, 9, grid8)
        sparse = Sinogram(geo, np.array([0]), np.zeros((1, 9)))
        with pytest.raises(InputError):
            upsample_sinogram_linear(sparse)


def _fbp_oracle(sino, geo, window):
    """The earlier FBP: complex FFTs over a hand-padded buffer, and linear
    interpolation by floor, fraction and clipped neighbours."""
    n_dets = geo.n_dets
    n_pad = 1 << int(np.ceil(np.log2(max(2 * n_dets, 2))))
    taps = np.zeros(n_pad)
    taps[0] = 1.0 / (4.0 * geo.det_spacing**2)
    odd = np.arange(1, n_pad // 2 + 1, 2)
    taps[odd] = -1.0 / (np.pi * odd * geo.det_spacing) ** 2
    taps[-odd] = taps[odd]
    resp = np.real(np.fft.fft(taps)) * geo.det_spacing
    if window == "hann":
        resp *= 0.5 * (1.0 + np.cos(2.0 * np.pi * np.fft.fftfreq(n_pad)))
    padded = np.zeros((sino.n_views, n_pad))
    padded[:, :n_dets] = sino.values
    filtered = np.real(np.fft.ifft(np.fft.fft(padded, axis=1) * resp, axis=1))[:, :n_dets]
    angles = geo.angles_array()[sino.view_indices]
    weights = tomo._view_weights(angles, geo.angular_period)
    xs, ys = geo.grid.pixel_centers()
    xg, yg = np.meshgrid(xs - geo.grid.origin[0], ys - geo.grid.origin[1])
    recon = np.zeros(geo.grid.shape)
    for v, th in enumerate(angles):
        t = (xg * np.cos(th) + yg * np.sin(th)) / geo.det_spacing + 0.5 * (n_dets - 1)
        lo = np.floor(t).astype(int)
        frac = t - lo
        lo0, lo1 = np.clip(lo, 0, n_dets - 1), np.clip(lo + 1, 0, n_dets - 1)
        inside = (t >= 0) & (t <= n_dets - 1)
        prof = filtered[v]
        recon += weights[v] * inside * ((1.0 - frac) * prof[lo0] + frac * prof[lo1])
    return recon


class TestFBP:
    @pytest.mark.parametrize("window", ["ram-lak", "hann"])
    @pytest.mark.parametrize("nx, ny, n_views, n_dets, det_spacing, n_keep", [
        (16, 16, 24, 23, None, 24),   # full view set, odd n_dets
        (16, 16, 24, 22, None, 8),    # sparse, even n_dets
        (32, 24, 90, 21, 0.6, 30),    # detector narrower than the grid
        (20, 20, 45, 64, 1.3, 9),     # detector wider than the grid, even
        (33, 33, 180, 1, None, 60),   # a single detector bin
    ])
    def test_matches_earlier_fbp(self, rng, window, nx, ny, n_views, n_dets, det_spacing,
                                 n_keep):
        grid = GridSpec(nx, ny, 0.5, origin=(0.3, -0.2))
        geo = parallel_geometry(n_views, n_dets, grid, det_spacing=det_spacing)
        views = uniform_mask(n_views, n_keep).indices()
        sino = Sinogram(geo, views, rng.standard_normal((views.size, n_dets)))
        new = fbp_reconstruct(sino, geo, window=window).values
        old = _fbp_oracle(sino, geo, window)
        assert np.max(np.abs(new - old)) <= 2e-15 * np.max(np.abs(old))

    def test_zero_sinogram(self, grid8):
        geo = parallel_geometry(10, 9, grid8)
        img = fbp_reconstruct(Sinogram(geo, np.arange(10), np.zeros((10, 9))), geo)
        assert np.all(img.values == 0.0)

    def test_disk_quality_and_sparse_degradation(self):
        grid = GridSpec(64, 64, 1.0)
        disk = make_phantom(PhantomSpec("disk", grid))
        geo180 = parallel_geometry(180, 129, grid, det_spacing=0.75)
        rec180 = fbp_reconstruct(forward_project(disk, geo180), geo180)
        p180 = psnr(rec180, disk)
        assert p180 >= 28.0
        geo30 = parallel_geometry(30, 129, grid, det_spacing=0.75)
        rec30 = fbp_reconstruct(forward_project(disk, geo30), geo30)
        assert psnr(rec30, disk) < p180

    def test_hann_window_runs(self):
        grid = GridSpec(32, 32, 1.0)
        disk = make_phantom(PhantomSpec("disk", grid))
        geo = parallel_geometry(48, 47, grid)
        rec = fbp_reconstruct(forward_project(disk, geo), geo, window="hann")
        assert np.all(np.isfinite(rec.values))

    def test_fan_rejected(self, grid16):
        geo = fan_geometry(8, 9, grid16)
        sino = Sinogram(geo, np.arange(8), np.zeros((8, 9)))
        with pytest.raises(ConfigError):
            fbp_reconstruct(sino, geo)


_NOT_REAL = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, "x", "1e", None]),
                      st.booleans())
_NOT_INTEGER = st.one_of(st.floats(), st.booleans(), st.text(), st.none())


class TestGeometryValidation:
    def test_bad_kind(self, grid8):
        with pytest.raises(ConfigError):
            ScanGeometry("cone", (0.0,), 4, 1.0, grid8)

    def test_nonincreasing_angles(self, grid8):
        with pytest.raises(ConfigError):
            ScanGeometry(PARALLEL, (0.5, 0.1), 4, 1.0, grid8)

    def test_fan_requires_radii(self, grid8):
        with pytest.raises(ConfigError):
            ScanGeometry(FAN, (0.0, 1.0), 4, 0.01, grid8)

    def test_negative_view_index_rejected(self, grid8):
        geo = parallel_geometry(4, 5, grid8)
        with pytest.raises(InputError, match="view index out of range"):
            Sinogram(geo, [-1, 0, 2], np.zeros((3, 5)))
        with pytest.raises(InputError, match="view index out of range"):
            Sinogram(geo, [0, 2**70], np.zeros((2, 5)))

    @pytest.mark.parametrize("view_indices", [[0.5, 1.7], [0.0, 2.0], [False, True], [0, None]])
    def test_non_integer_view_indices_rejected(self, grid8, view_indices):
        geo = parallel_geometry(4, 5, grid8)
        with pytest.raises(InputError, match="view_indices must be integers"):
            Sinogram(geo, view_indices, np.zeros((2, 5)))

    def test_wrong_value_count_rejected(self, grid8):
        with pytest.raises(InputError, match="image of shape .* needs 16 values, got 5"):
            Image(GridSpec(4, 4, 1.0), np.zeros(5))
        geo = parallel_geometry(4, 5, grid8)
        with pytest.raises(InputError, match="sinogram of shape .* needs 10 values, got 3"):
            Sinogram(geo, [0, 1], np.zeros(3))

    @pytest.mark.parametrize("view_indices", [[[0, 1]], 1, [[0, 1], [2]], [[0], 1]])
    def test_view_indices_not_1d_rejected(self, grid8, view_indices):
        geo = parallel_geometry(4, 5, grid8)
        with pytest.raises(InputError, match="view_indices must be a 1-D list"):
            Sinogram(geo, view_indices, np.zeros((2, 5)))

    @pytest.mark.parametrize("values", ["abc", [[1, 2], [3]], {"a": 1}])
    def test_non_numeric_values_rejected(self, grid8, values):
        with pytest.raises(InputError, match="image values must be a numeric array"):
            Image(GridSpec(4, 4, 1.0), values)
        geo = parallel_geometry(4, 5, grid8)
        with pytest.raises(InputError, match="sinogram values must be a numeric array"):
            Sinogram(geo, [0, 1], values)

    @pytest.mark.parametrize("factory", [parallel_geometry, fan_geometry])
    @pytest.mark.parametrize("n_views, n_dets", [(4, 0), (0, 4)])
    def test_empty_geometry_rejected_without_warning(self, grid8, factory, n_views, n_dets):
        # refused before the default pitch or the angle step divides by it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="must be at least 1"):
                factory(n_views, n_dets, grid8)

    def test_system_matrix_cached(self, grid8):
        geo = parallel_geometry(5, 7, grid8)
        assert system_matrix(geo) is system_matrix(geo)

    # each field of GridSpec and ScanGeometry with the values it must refuse:
    # anything but an integer for a count, anything but a finite number for a
    # real (a bool, None and a non-numeric string included); a NaN angle
    # would otherwise get no rays and make the geometry unequal to itself, so
    # its cached matrix would never be found again
    BAD_VALUES = {
        "nx": _NOT_INTEGER,
        "ny": _NOT_INTEGER,
        "pixel_size": _NOT_REAL,
        "origin": st.one_of(st.tuples(_NOT_REAL, st.just(0.0)),
                            st.tuples(st.just(0.0), _NOT_REAL)),
        "angles": st.builds(lambda bad, i: (0.0, 1.0, 2.0)[:i] + (bad,) + (0.0, 1.0, 2.0)[i:],
                            _NOT_REAL, st.integers(0, 3)),
        "n_dets": _NOT_INTEGER,
        "det_spacing": _NOT_REAL,
        "source_radius": _NOT_REAL,
    }

    @pytest.mark.parametrize("field", sorted(BAD_VALUES))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_rejects_non_finite_and_non_integer(self, field, data):
        grid = {"nx": 8, "ny": 8, "pixel_size": 0.25, "origin": (0.0, 0.0)}
        geo = {"kind": data.draw(st.sampled_from([PARALLEL, FAN])), "angles": (0.0, 1.0, 2.0),
               "n_dets": 5, "det_spacing": 0.1, "source_radius": 4.0}
        (grid if field in grid else geo)[field] = data.draw(self.BAD_VALUES[field])
        with pytest.raises(ConfigError):
            ScanGeometry(grid=GridSpec(**grid), **geo)

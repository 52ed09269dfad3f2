"""On-disk formats: raw float64 arrays with JSON sidecars (images,
sinograms and extractor weights alike), 16-bit PGM export, and the YAML
run configuration."""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import fields
from pathlib import Path

import numpy as np
import yaml

from .errors import (ConfigError, FormatError, config_count, config_float, config_int,
                     config_seed, list_of)
from .regularizer import ConvStack, make_random_weights, make_tv_weights
from .simdata import NoiseSpec, PhantomSpec
from .solver import SolverParams
from .tomo import (GridSpec, Image, ScanGeometry, Sinogram, ViewMask,
                   fan_geometry, parallel_geometry, uniform_mask)


# ---------------------------------------------------------------------------
# Raw arrays
# ---------------------------------------------------------------------------

def save_array(path, values: np.ndarray, meta: dict | None = None) -> None:
    """Raw little-endian float64 payload plus a JSON sidecar with the shape."""
    path = Path(path)
    values = np.asarray(values, dtype=float)
    path.write_bytes(np.ascontiguousarray(values, dtype="<f8").tobytes())
    sidecar = {"shape": list(values.shape), "dtype": "<f8"}
    if meta:
        sidecar.update(meta)
    with open(str(path) + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_array(path):
    """Returns (values, sidecar dict)."""
    path = Path(path)
    sidecar_path = Path(str(path) + ".json")
    if not sidecar_path.exists():
        raise FormatError(f"missing sidecar for {path}")
    try:
        with open(sidecar_path) as fh:
            sidecar = json.load(fh)
        shape = list_of(config_int)(sidecar.get("shape"), "shape")
    except (ValueError, AttributeError, ConfigError) as exc:  # not JSON, not a mapping
        raise FormatError(f"bad sidecar {sidecar_path}: {exc}") from None
    raw = path.read_bytes()
    if len(raw) != math.prod(shape) * 8 or min(shape, default=0) < 0:
        raise FormatError(f"{path}: payload size {len(raw)} does not match shape {shape}")
    try:
        values = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    except ValueError as exc:  # an empty payload of more dims or extent than numpy allows
        raise FormatError(f"bad sidecar {sidecar_path}: {exc}") from None
    if not np.all(np.isfinite(values)):
        raise FormatError(f"{path} holds non-finite values")
    return values, sidecar


def _grid_record(grid: GridSpec) -> dict:
    """What an image's sidecar records of its grid, under ``grid``."""
    return {"nx": grid.nx, "ny": grid.ny, "pixel_size": grid.pixel_size,
            "origin": list(grid.origin)}


def _geometry_record(geo: ScanGeometry) -> dict:
    """Everything of ``geo`` that A depends on, as the sidecars of a
    sinogram and of A record it under ``geometry``."""
    angles = hashlib.sha256(geo.angles_array().astype("<f8").tobytes()).hexdigest()
    return {"kind": geo.kind, "angles_sha256": angles, "n_dets": geo.n_dets,
            "det_spacing": geo.det_spacing, "source_radius": geo.source_radius,
            **_grid_record(geo.grid)}


def _check_record(path, sidecar: dict, kind: str, entry: str, want: dict) -> None:
    """Refuses a file whose sidecar names another ``kind`` of file, or
    records under ``entry`` another value of any field of ``want``, so a
    file left from another grid or geometry is refused rather than reused.
    Values compare as JSON text, so ``true`` is not 1 and 8.0 is not 8. A
    sidecar without ``kind`` or ``entry``, as a hand-written one, passes."""
    if sidecar.get("kind", kind) != kind:
        raise FormatError(f"{path} holds kind {sidecar['kind']!r}, not {kind!r}")
    got = sidecar.get(entry, want)
    if not isinstance(got, dict):
        raise FormatError(f"bad sidecar {path}.json: {entry} must be a mapping, got {got!r}")
    for key, value in want.items():
        if json.dumps(got.get(key)) != json.dumps(value):
            what = "an image" if kind == "image" else f"a {kind}"
            raise FormatError(f"{path} is {what} with {key} {got.get(key)}, "
                              f"the {entry} has {value}")


def save_image(path, img: Image) -> None:
    save_array(path, img.values, {"kind": "image", "grid": _grid_record(img.grid)})


def load_image(path, grid: GridSpec) -> Image:
    """An image of ``grid``; a sidecar that records a grid must record this one."""
    values, sidecar = load_array(path)
    if tuple(sidecar["shape"]) != grid.shape:
        raise FormatError(f"{path}: image shape {sidecar['shape']} does not match grid")
    _check_record(path, sidecar, "image", "grid", _grid_record(grid))
    return Image(grid, values)


def save_sinogram(path, sino: Sinogram) -> None:
    save_array(path, sino.values, {"kind": "sinogram",
                                   "view_indices": [int(i) for i in sino.view_indices],
                                   "geometry": _geometry_record(sino.geometry)})


def load_sinogram(path, geo: ScanGeometry) -> Sinogram:
    """One row of ``geo.n_dets`` values per view the sidecar's ``view_indices``
    names; without them the rows are views 0, 1, ... A sidecar that records
    a geometry must record this one."""
    values, sidecar = load_array(path)
    _check_record(path, sidecar, "sinogram", "geometry", _geometry_record(geo))
    n_rows = values.size // geo.n_dets
    try:
        idx = list_of(config_int)(sidecar.get("view_indices", list(range(n_rows))), "view_indices")
    except ConfigError as exc:
        raise FormatError(f"bad sidecar {path}.json: {exc}") from None
    if values.shape != (len(idx), geo.n_dets):
        raise FormatError(f"{path}: shape {list(values.shape)} does not match "
                          f"{len(idx)} views x {geo.n_dets} detectors")
    return Sinogram(geo, idx, values)


def save_weights(stack: ConvStack, path) -> None:
    """The layers' values in C order, one layer after another, with the
    layer shapes and the activation delta in the sidecar."""
    save_array(path, np.concatenate([w.ravel() for w in stack.layers]),
               {"kind": "weights", "layer_shapes": [list(w.shape) for w in stack.layers],
                "activation_delta": stack.activation_delta})


def load_weights(path) -> ConvStack:
    """Read a file written by :func:`save_weights`; any fault in it, the
    layers or delta it declares included, is a FormatError naming the file."""
    values, sidecar = load_array(path)
    try:
        shapes = list_of(list_of(config_count, 4))(sidecar.get("layer_shapes"), "layer_shapes")
        sizes = [math.prod(shape) for shape in shapes]
        if sum(sizes) != values.size:
            raise ConfigError(f"layer_shapes need {sum(sizes)} values, the payload holds "
                              f"{values.size}")
        parts = np.split(values.ravel(), np.cumsum(sizes[:-1], dtype=int))
        return ConvStack(tuple(part.reshape(shape) for part, shape in zip(parts, shapes)),
                         sidecar.get("activation_delta"))
    except ConfigError as exc:
        raise FormatError(f"bad weight file {path}: {exc}") from None


# ---------------------------------------------------------------------------
# The system matrix
# ---------------------------------------------------------------------------

# what `dualct simulate` saves A in, for `dualct reconstruct` to load
SYSTEM_MATRIX_FILE = "system_matrix.bin"
# bumped whenever the trace's bytes change, so older files are rebuilt
SYSTEM_MATRIX_FORMAT = 1
_CSR_ARRAYS = ("indptr", "indices", "data")


def _temp_beside(path: Path) -> Path:
    """A fresh name for a temporary file in ``path``'s directory, so that
    two runs into one directory never share one. Opened with ``"x"``, it
    is created with the mode any other output gets."""
    return path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")


def save_system_matrix(path, geo: ScanGeometry, mat) -> None:
    """A's CSR arrays (indptr, indices, data), raw little-endian and back to
    back, with a JSON sidecar of their dtypes, the shape, nnz and the
    geometry. Both are written to temporary files of this call first and
    put in place by ``os.replace``: the old sidecar is moved aside, the
    payload replaced, and the new sidecar put in place last, so a file is
    never paired with another's sidecar. If the payload cannot be put in
    place, the old sidecar goes back, so the old pair still loads. The
    temporary files are removed whatever fails. The arrays are written
    from where they lie, not copied."""
    path = Path(path)
    sidecar_path = Path(str(path) + ".json")
    arrays = [np.asarray(getattr(mat, name)) for name in _CSR_ARRAYS]
    arrays = [a.astype(a.dtype.newbyteorder("<"), copy=False) for a in arrays]
    sidecar = {"format": SYSTEM_MATRIX_FORMAT, "shape": list(mat.shape), "nnz": int(mat.nnz),
               "dtypes": {name: a.dtype.str for name, a in zip(_CSR_ARRAYS, arrays)},
               "geometry": _geometry_record(geo)}
    temps = payload_tmp, sidecar_tmp, old_sidecar = (
        _temp_beside(path), _temp_beside(sidecar_path), _temp_beside(sidecar_path))
    try:
        with open(payload_tmp, "xb") as fh:
            for a in arrays:
                a.tofile(fh)
        with open(sidecar_tmp, "x") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
            fh.write("\n")
        try:
            os.replace(sidecar_path, old_sidecar)
        except FileNotFoundError:
            pass
        try:
            os.replace(payload_tmp, path)
        except OSError:
            if old_sidecar.exists():
                os.replace(old_sidecar, sidecar_path)
            raise
        os.replace(sidecar_tmp, sidecar_path)
    finally:
        for tmp in temps:
            tmp.unlink(missing_ok=True)


def load_system_matrix(path, geo: ScanGeometry):
    """(indptr, indices, data) of A of ``geo`` from a file that
    :func:`save_system_matrix` wrote. A FormatError names the file when its
    sidecar is malformed or of another format or geometry, when
    the payload has another size, or when the arrays are not a CSR
    structure of A's shape: indptr from 0 to nnz and never decreasing,
    indices in ``[0, nx*ny)``, data finite and nonnegative."""
    path = Path(path)
    n_rows, n_cols = geo.n_views_full * geo.n_dets, geo.grid.nx * geo.grid.ny
    try:
        with open(str(path) + ".json") as fh:
            sidecar = json.load(fh)
        nnz = config_int(sidecar.get("nnz"), "nnz")
        dtypes = [np.dtype(sidecar["dtypes"][name]) for name in _CSR_ARRAYS]
    except (ValueError, TypeError, KeyError, AttributeError, ConfigError) as exc:
        raise FormatError(f"bad sidecar {path}.json: {exc}") from None
    if (sidecar.get("format") != SYSTEM_MATRIX_FORMAT
            or sidecar.get("geometry") != _geometry_record(geo)):
        raise FormatError(f"{path} holds A of another geometry or format")
    if (sidecar.get("shape") != [n_rows, n_cols] or nnz < 0
            or [d.str for d in dtypes[:2]] not in (["<i4", "<i4"], ["<i8", "<i8"])
            or dtypes[2].str != "<f8"):
        raise FormatError(f"bad sidecar {path}.json: shape, nnz or dtypes")
    counts = (n_rows + 1, nnz, nnz)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size != sum(d.itemsize * n for d, n in zip(dtypes, counts)):
            raise FormatError(f"{path}: payload size {size} does not match its sidecar")
        indptr, indices, data = (np.fromfile(fh, dtype=d, count=n)
                                 for d, n in zip(dtypes, counts))
    if not (indptr[0] == 0 and indptr[-1] == nnz and np.all(indptr[1:] >= indptr[:-1])):
        raise FormatError(f"{path}: indptr is not a CSR row pointer")
    if nnz and not (indices.min() >= 0 and indices.max() < n_cols):
        raise FormatError(f"{path}: a column index is off the grid")
    if nnz and not (data.min() >= 0 and np.isfinite(data.max())):
        raise FormatError(f"{path}: chord lengths must be finite and nonnegative")
    return indptr, indices, data


def export_pgm(path, values: np.ndarray) -> None:
    """16-bit binary PGM, linearly rescaled to the value range."""
    values = np.asarray(values, dtype=float)
    lo, hi = float(values.min()), float(values.max())
    span = hi - lo if hi > lo else 1.0
    scaled = np.round((values - lo) / span * 65535).astype(">u2")
    with open(str(path), "wb") as fh:
        fh.write(f"P5\n{values.shape[1]} {values.shape[0]}\n65535\n".encode())
        fh.write(scaled.tobytes())


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

def load_config(path) -> dict:
    """The run config's root section, read (nested sections left as they are)."""
    try:
        cfg = yaml.safe_load(Path(path).read_bytes())
    except yaml.YAMLError as exc:  # also bytes that are not UTF-8 or UTF-16
        raise FormatError(f"malformed config {path}: {exc}") from exc
    return read_section(cfg, "", {**dict.fromkeys(("geometry", "mask", "phantom", "noise",
                                                   "regularizers", "solver", "mode")),
                                  "lambda": config_float, "output": config_str})


def config_hash(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def config_str(value, key: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def read_section(cfg, key: str, fields: dict, required=()) -> dict:
    """Section ``key`` (a dotted path, "" for the root) read through
    ``fields``, which maps each key it may hold to ``reader(value, dotted_key)``
    or to None (a nested section, kept as it is). Null reads as ``{}``; a
    non-mapping, an unknown or a missing required key is a ConfigError.
    Absent keys are left out, so the defaults of what is built from it apply."""
    if cfg is None:
        cfg = {}
    if not isinstance(cfg, dict):
        raise ConfigError(f"{key or 'config root'} must be a mapping, got {cfg!r}")
    prefix = f"{key}." if key else ""
    for name in cfg:
        if name not in fields:
            raise ConfigError(f"unknown key {prefix}{name} (known: {', '.join(fields)})")
    for name in required:
        if name not in cfg:
            raise ConfigError(f"{key or 'config'} needs {name!r}")
    return {name: fields[name](value, prefix + name) if fields[name] else value
            for name, value in cfg.items()}


def _read_variant(cfg, key: str, selector: str, default: str, variants: dict,
                  required=()) -> dict:
    """A section read with the table ``variants[cfg[selector]]``, so keys
    that variant does not read are unknown; the result holds the selector."""
    kind = config_str(cfg.get(selector, default) if isinstance(cfg, dict) else default,
                      f"{key}.{selector}")
    if kind not in variants:
        raise ConfigError(f"unknown {key}.{selector} {kind!r} (known: {', '.join(variants)})")
    return {**read_section(cfg, key, {selector: config_str, **variants[kind]}, required),
            selector: kind}


def grid_from_config(cfg, key: str = "geometry.grid") -> GridSpec:
    return GridSpec(**read_section(cfg, key, {
        "nx": config_count, "ny": config_count, "pixel_size": config_float,
        "origin": list_of(config_float, 2)}, required=("nx", "ny")))


def geometry_from_config(cfg) -> ScanGeometry:
    parallel = {"grid": grid_from_config, "n_views": config_count, "n_dets": config_count,
                "det_spacing": config_float}
    args = _read_variant(cfg, "geometry", "kind", "parallel", {
        "parallel": parallel, "fan": {**parallel, "source_radius": config_float}},
        required=("grid", "n_views", "n_dets"))
    return (parallel_geometry if args.pop("kind") == "parallel" else fan_geometry)(**args)


def mask_from_config(cfg, n_views_full: int) -> ViewMask:
    args = read_section(cfg, "mask", {"n_keep": config_int, "selected": list_of(config_int)})
    if len(args) != 1:
        raise ConfigError("mask needs exactly one of 'n_keep' or 'selected'")
    if "selected" in args:
        return ViewMask(n_views_full, args["selected"])
    return uniform_mask(n_views_full, args["n_keep"])


def phantom_from_config(cfg, grid: GridSpec) -> PhantomSpec:
    ellipses = {"ellipses": list_of(list_of(config_float))}
    args = _read_variant(cfg, "phantom", "kind", "shepp-logan-modified", {
        "shepp-logan-modified": {}, "disk": ellipses, "custom-ellipses": ellipses})
    return PhantomSpec(grid=grid, **args)


def noise_from_config(cfg) -> NoiseSpec:
    return NoiseSpec(**_read_variant(cfg, "noise", "model", NoiseSpec.model, {
        "none": {}, "gaussian": {"sigma": config_float, "seed": config_seed},
        "poisson-transmission": {"photons": config_float, "seed": config_seed}}))


def weights_from_config(cfg, domain: str) -> ConvStack | None:
    """Regularizer weight source: tv | random | file | none; ``tv`` and
    ``random`` take a weight ``scale`` (defaults 1.0 and 0.1)."""
    random = {"seed": config_seed, "layers": config_int, "channels": config_int,
              "kernel": list_of(config_int, 2), "scale": config_float}
    args = _read_variant(cfg, f"regularizers.{domain}", "source", "none", {
        "none": {}, "tv": {"scale": config_float}, "file": {"path": config_str},
        "random": random})
    source = args.pop("source")
    if source == "tv":
        return make_tv_weights(**args)
    if source == "file":
        if "path" not in args:
            raise ConfigError(f"regularizers.{domain} needs 'path' for source file")
        return load_weights(args["path"])
    if source == "random":
        names = {"layers": "n_layers", "channels": "n_channels"}
        return make_random_weights(**{"kernel": (3, 3) if domain == "image" else (3, 15),
                                      **{names.get(k, k): v for k, v in args.items()}})
    return None


def solver_params_from_config(cfg, mode=None) -> SolverParams:
    """Solver knobs, then the run mode. ``mode: {type: phases, phases: N}``
    runs exactly N iterations: max_iters=N with the tolerance stop off."""
    knobs = read_section(cfg, "solver", {
        f.name: config_int if f.type == "int" else config_float for f in fields(SolverParams)})
    mode = _read_variant(mode, "mode", "type", "converge",
                         {"converge": {}, "phases": {"phases": config_int}})
    if mode["type"] == "phases":
        knobs.update(max_iters=mode.get("phases", 15), eps_tol=0.0)
    return SolverParams(**knobs)

"""On-disk formats: raw float64 arrays with JSON sidecars, 16-bit PGM
export, and the YAML run configuration."""

from __future__ import annotations

import hashlib
import json
from numbers import Integral
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigError, FormatError
from .regularizer import (ConvStack, load_weights, make_random_weights,
                          make_tv_weights)
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
    with open(sidecar_path) as fh:
        sidecar = json.load(fh)
    raw = path.read_bytes()
    shape = tuple(sidecar["shape"])
    expected = int(np.prod(shape)) * 8
    if len(raw) != expected:
        raise FormatError(
            f"payload size {len(raw)} does not match shape {shape}", offset=len(raw))
    return np.frombuffer(raw, dtype="<f8").reshape(shape).copy(), sidecar


def save_image(path, img: Image) -> None:
    save_array(path, img.values, {"kind": "image",
                                  "pixel_size": img.grid.pixel_size,
                                  "origin": list(img.grid.origin)})


def load_image(path, grid: GridSpec) -> Image:
    values, sidecar = load_array(path)
    if tuple(sidecar["shape"]) != grid.shape:
        raise FormatError(f"image shape {sidecar['shape']} does not match grid")
    return Image(grid, values)


def save_sinogram(path, sino: Sinogram) -> None:
    save_array(path, sino.values, {"kind": "sinogram",
                                   "view_indices": [int(i) for i in sino.view_indices]})


def load_sinogram(path, geo: ScanGeometry) -> Sinogram:
    values, sidecar = load_array(path)
    idx = np.asarray(sidecar.get("view_indices", range(values.shape[0])), dtype=int)
    return Sinogram(geo, idx, values)


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
    try:
        with open(str(path)) as fh:
            cfg = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise FormatError(f"malformed config: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    return cfg


def config_hash(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def config_float(value, key: str) -> float:
    """A config number as a float; strings such as ``1e5``, which YAML 1.1
    loads as strings, convert too."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {value!r}") from None


def config_int(value, key: str) -> int:
    """A config integer; bools, floats and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def config_mapping(value, key: str) -> dict:
    """A config section; an absent (null) section reads as ``{}``."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a mapping, got {value!r}")
    return value


def config_list(value, key: str) -> list:
    """A config sequence."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key} must be a list, got {value!r}")
    return value


def grid_from_config(cfg: dict) -> GridSpec:
    cfg = config_mapping(cfg, "geometry.grid")
    try:
        nx, ny = config_int(cfg["nx"], "grid.nx"), config_int(cfg["ny"], "grid.ny")
    except KeyError as exc:
        raise ConfigError(f"grid config missing key {exc}") from exc
    origin = cfg.get("origin", (0.0, 0.0))
    if not isinstance(origin, (list, tuple)) or len(origin) != 2:
        raise ConfigError(f"grid.origin must be a pair of numbers, got {origin!r}")
    return GridSpec(nx, ny, config_float(cfg.get("pixel_size", 1.0), "grid.pixel_size"),
                    tuple(config_float(v, "grid.origin") for v in origin))


def geometry_from_config(cfg: dict) -> ScanGeometry:
    cfg = config_mapping(cfg, "geometry")
    try:
        grid = grid_from_config(cfg["grid"])
        kind = cfg.get("kind", "parallel")
        n_views = config_int(cfg["n_views"], "geometry.n_views")
        n_dets = config_int(cfg["n_dets"], "geometry.n_dets")
    except KeyError as exc:
        raise ConfigError(f"geometry config missing key {exc}") from exc

    def optional_float(key):
        value = cfg.get(key)
        return None if value is None else config_float(value, f"geometry.{key}")

    spacing = optional_float("det_spacing")
    if kind == "parallel":
        return parallel_geometry(n_views, n_dets, grid, det_spacing=spacing)
    if kind in ("fan", "fan-beam-equiangular"):
        return fan_geometry(n_views, n_dets, grid, det_spacing=spacing,
                            source_radius=optional_float("source_radius"),
                            source_to_detector=optional_float("source_to_detector"))
    raise ConfigError(f"unknown geometry kind {kind!r}")


def mask_from_config(cfg: dict, n_views_full: int) -> ViewMask:
    cfg = config_mapping(cfg, "mask")
    if "selected" in cfg:
        selected = tuple(config_int(i, "mask.selected")
                         for i in config_list(cfg["selected"], "mask.selected"))
        return ViewMask(n_views_full, selected)
    if "n_keep" in cfg:
        return uniform_mask(n_views_full, config_int(cfg["n_keep"], "mask.n_keep"))
    raise ConfigError("mask config needs 'n_keep' or 'selected'")


def phantom_from_config(cfg: dict, grid: GridSpec) -> PhantomSpec:
    cfg = config_mapping(cfg, "phantom")
    ellipses = tuple(tuple(config_float(v, "phantom.ellipses")
                           for v in config_list(e, "phantom.ellipses"))
                     for e in config_list(cfg.get("ellipses", ()), "phantom.ellipses"))
    return PhantomSpec(cfg.get("kind", "shepp-logan-modified"), grid, ellipses)


def noise_from_config(cfg: dict | None) -> NoiseSpec:
    cfg = config_mapping(cfg, "noise")
    if not cfg:
        return NoiseSpec()
    return NoiseSpec(model=cfg.get("model", "none"),
                     sigma=config_float(cfg.get("sigma", 0.0), "noise.sigma"),
                     photons=config_float(cfg.get("photons", 1e6), "noise.photons"),
                     seed=config_int(cfg.get("seed", 0), "noise.seed"))


def weights_from_config(cfg: dict | None, domain: str) -> ConvStack | None:
    """Regularizer weight source: tv | random | file | none."""
    key = f"regularizers.{domain}"
    cfg = config_mapping(cfg, key)
    if not cfg:
        return None
    source = cfg.get("source", "none")
    if source == "none":
        return None
    if source == "tv":
        return make_tv_weights(domain)
    if source == "random":
        kernel = cfg.get("kernel", (3, 3) if domain == "image" else (3, 15))
        if not isinstance(kernel, (list, tuple)) or len(kernel) != 2:
            raise ConfigError(f"{key}.kernel must be a pair of integers, got {kernel!r}")
        return make_random_weights(config_int(cfg.get("seed", 0), f"{key}.seed"),
                                   n_layers=config_int(cfg.get("layers", 3), f"{key}.layers"),
                                   n_channels=config_int(cfg.get("channels", 16), f"{key}.channels"),
                                   kernel=tuple(config_int(k, f"{key}.kernel") for k in kernel))
    if source == "file":
        if "path" not in cfg:
            raise ConfigError(f"{domain} weights: file source needs 'path'")
        return load_weights(cfg["path"])
    raise ConfigError(f"unknown weight source {source!r}")


def solver_params_from_config(cfg: dict | None, mode: dict | None = None) -> SolverParams:
    cfg = config_mapping(cfg, "solver")
    mode = config_mapping(mode, "mode")
    params = SolverParams()
    if cfg:
        valid = set(SolverParams.__dataclass_fields__)
        for key, val in cfg.items():
            if key not in valid:
                raise ConfigError(f"unknown solver parameter {key!r}")
            setattr(params, key, val)
    if mode:
        mtype = mode.get("type", "converge")
        if mtype == "phases":
            params.phase_mode = True
            params.phases = mode.get("phases", 15)
        elif mtype != "converge":
            raise ConfigError(f"unknown mode {mtype!r}")
    params.validate()
    return params

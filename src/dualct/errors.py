"""Exception hierarchy shared across the package, and the readers that
decide what a valid count, seed or real number is, for the run config and
the public constructors alike."""

import math
from numbers import Integral


class DualCTError(Exception):
    """Base class for all package errors."""


class ConfigError(DualCTError):
    """Invalid configuration: bad geometry, parameter constraints, mismatched grids."""


class InputError(DualCTError):
    """Invalid runtime input: non-finite values, shape mismatches."""


class FormatError(DualCTError):
    """Malformed file on disk (weight files, array sidecars, configs)."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class NumericalError(DualCTError):
    """Non-finite intermediate or failed numerical procedure."""


class SolverError(NumericalError):
    """Solver failure; carries the iterate log collected so far."""

    def __init__(self, message, log=None):
        super().__init__(message)
        self.log = log


def config_float(value, key: str) -> float:
    """A finite number as a float; strings such as ``1e5``, which YAML 1.1
    loads as strings, convert too. Bools are rejected."""
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return number


def config_int(value, key: str) -> int:
    """An integer; bools, floats and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def config_count(value, key: str) -> int:
    """A count: an integer of at least 1."""
    count = config_int(value, key)
    if count < 1:
        raise ConfigError(f"{key} must be >= 1, got {count}")
    return count


def config_seed(value, key: str) -> int:
    """A random seed: an integer of at least 0, as numpy's generators take
    no negative seed."""
    seed = config_int(value, key)
    if seed < 0:
        raise ConfigError(f"{key} must be >= 0, got {seed}")
    return seed


def list_of(item, length: int | None = None):
    """Reader of a list, read as a tuple of ``item`` values; ``length``,
    when given, is the required number of entries."""
    def read(value, key: str) -> tuple:
        if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
            raise ConfigError(f"{key} must be a list{f' of {length}' if length else ''}, "
                              f"got {value!r}")
        return tuple(item(v, key) for v in value)
    return read


def read_fields(obj, **readers) -> None:
    """Reads each named field of the dataclass ``obj`` through its reader
    and stores the converted value; frozen dataclasses included."""
    for name, reader in readers.items():
        object.__setattr__(obj, name, reader(getattr(obj, name), name))

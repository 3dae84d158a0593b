"""Input validation helpers shared across the library.

All public entry points of the library validate their inputs through the
functions in this module so that error messages are uniform and informative.
Each helper either returns a normalised value (for example, a float converted
from an int, or a C-contiguous ``numpy`` array) or raises ``ValueError`` /
``TypeError`` with a message that names the offending parameter.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "check_epsilon",
    "check_phi",
    "check_positive_int",
    "check_non_negative_float",
    "check_probability",
    "check_weight",
    "check_weight_batch",
    "check_row",
    "check_row_batch",
    "check_matrix",
    "check_unit_vector",
    "check_site_count",
    "check_site",
    "check_site_ids",
    "check_rank",
]


def _as_real(value: float, name: str) -> float:
    """Convert ``value`` to float, rejecting strings and non-numeric types."""
    if isinstance(value, (str, bytes)):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise TypeError(f"{name} must be a real number, got {value!r}") from exc


def check_epsilon(epsilon: float, *, name: str = "epsilon") -> float:
    """Validate an approximation parameter ``epsilon`` in ``(0, 1]``.

    Parameters
    ----------
    epsilon:
        The error parameter to validate.
    name:
        Parameter name used in error messages.

    Returns
    -------
    float
        ``epsilon`` converted to ``float``.
    """
    value = _as_real(epsilon, name)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must lie in (0, 1], got {value!r}")
    return value


def check_phi(phi: float, epsilon: Optional[float] = None, *, name: str = "phi") -> float:
    """Validate a heavy-hitter threshold ``phi`` in ``(0, 1]``.

    If ``epsilon`` is given, additionally require ``phi > epsilon / 2`` so the
    report rule ``estimate >= phi - epsilon/2`` is meaningful.
    """
    value = _as_real(phi, name)
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must lie in (0, 1], got {value!r}")
    if epsilon is not None and value <= epsilon / 2.0:
        raise ValueError(
            f"{name}={value!r} must exceed epsilon/2={epsilon / 2.0!r} for the "
            "approximate heavy-hitter guarantee to be non-trivial"
        )
    return value


def check_positive_int(value: int, *, name: str = "value") -> int:
    """Validate a strictly positive integer."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def check_non_negative_float(value: float, *, name: str = "value") -> float:
    """Validate a finite, non-negative float."""
    result = _as_real(value, name)
    if not np.isfinite(result):
        raise ValueError(f"{name} must be finite, got {result!r}")
    if result < 0.0:
        raise ValueError(f"{name} must be non-negative, got {result!r}")
    return result


def check_probability(value: float, *, name: str = "probability") -> float:
    """Validate a probability in ``[0, 1]``."""
    result = check_non_negative_float(value, name=name)
    if result > 1.0:
        raise ValueError(f"{name} must be at most 1, got {result!r}")
    return result


def check_weight(weight: float, beta: Optional[float] = None, *, name: str = "weight") -> float:
    """Validate an item weight: finite, strictly positive, optionally at most ``beta``."""
    result = check_non_negative_float(weight, name=name)
    if result == 0.0:
        raise ValueError(f"{name} must be strictly positive, got 0")
    if beta is not None and result > beta * (1.0 + 1e-9):
        raise ValueError(f"{name}={result!r} exceeds the declared upper bound beta={beta!r}")
    return result


def check_weight_batch(weights: Optional[Sequence[float]], *,
                       count: Optional[int] = None,
                       name: str = "weights") -> np.ndarray:
    """Validate a batch of item weights and return it as a 1-d float array.

    The batch analogue of :func:`check_weight`: every entry must be finite and
    strictly positive.  An empty batch is allowed (and returned unchanged).
    When ``count`` is given the batch length must match it, and ``None``
    weights mean "unit weight per item" (a length-``count`` array of ones) —
    the convention shared by every ``update_batch`` kernel.
    """
    if weights is None:
        if count is None:
            raise ValueError(f"{name} may only be None when count is given")
        return np.ones(count, dtype=np.float64)
    array = np.asarray(weights, dtype=np.float64)
    if array.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {array.shape}")
    if count is not None and array.shape[0] != count:
        raise ValueError(f"got {count} elements but {array.shape[0]} {name}")
    if array.size and not np.isfinite(array).all():
        raise ValueError(f"{name} contains non-finite entries")
    if array.size and (array <= 0.0).any():
        raise ValueError(f"{name} must be strictly positive everywhere")
    return array


def check_row(row: Sequence[float], dimension: Optional[int] = None, *, name: str = "row") -> np.ndarray:
    """Validate a single matrix row and return it as a 1-d float array.

    Parameters
    ----------
    row:
        Array-like of shape ``(d,)``.
    dimension:
        If given, the required number of columns.
    """
    array = np.asarray(row, dtype=np.float64)
    if array.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {array.shape}")
    if array.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.isfinite(array).all():
        raise ValueError(f"{name} contains non-finite entries")
    if dimension is not None and array.shape[0] != dimension:
        raise ValueError(
            f"{name} has {array.shape[0]} columns but the stream dimension is {dimension}"
        )
    return array


def check_row_batch(rows: Iterable[Sequence[float]], dimension: Optional[int] = None, *,
                    name: str = "rows") -> np.ndarray:
    """Validate a batch of matrix rows and return it as a 2-d float array.

    The batch analogue of :func:`check_row`: a single 1-d row is promoted to a
    one-row matrix, every entry must be finite, and the number of columns must
    match ``dimension`` when given.  An empty ``(0, d)`` batch is allowed.
    """
    array = np.asarray(rows, dtype=np.float64)
    if array.ndim == 1:
        if array.size:
            array = array[np.newaxis, :]
        else:  # genuinely empty input: normalise to a (0, d) block
            array = array.reshape(0, dimension if dimension is not None else 0)
    if array.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {array.shape}")
    if array.size and not np.isfinite(array).all():
        raise ValueError(f"{name} contains non-finite entries")
    if dimension is not None and array.shape[1] != dimension:
        raise ValueError(
            f"{name} has {array.shape[1]} columns but the stream dimension is {dimension}"
        )
    return array


def check_matrix(matrix: Iterable[Sequence[float]], *, name: str = "matrix",
                 min_rows: int = 0) -> np.ndarray:
    """Validate a 2-d matrix of finite floats and return it as an ndarray."""
    array = np.asarray(matrix, dtype=np.float64)
    if array.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {array.shape}")
    if array.shape[0] < min_rows:
        raise ValueError(f"{name} must have at least {min_rows} rows, got {array.shape[0]}")
    if array.size and not np.all(np.isfinite(array)):
        raise ValueError(f"{name} contains non-finite entries")
    return array


def check_unit_vector(x: Sequence[float], dimension: Optional[int] = None, *,
                      name: str = "x", tolerance: float = 1e-6) -> np.ndarray:
    """Validate a unit-norm direction vector."""
    vector = check_row(x, dimension, name=name)
    norm = float(np.linalg.norm(vector))
    if abs(norm - 1.0) > tolerance:
        raise ValueError(f"{name} must have unit norm, got norm {norm!r}")
    return vector


def check_site_count(num_sites: int, *, name: str = "num_sites") -> int:
    """Validate the number of distributed sites (``m`` in the paper)."""
    return check_positive_int(num_sites, name=name)


def _site_range_error(num_sites: int, low: int, high: int) -> ValueError:
    return ValueError(f"site indices must lie in [0, {num_sites}), "
                      f"got range [{low}, {high}]")


_BOOL_TYPES = frozenset({bool, np.bool_})


def check_site_type(site: Any) -> int:
    """One site index as an ``int``, whatever its range: an ``int`` or a
    NumPy integer, never a ``bool`` or a float (``TypeError``)."""
    if isinstance(site, bool) or not isinstance(site, (int, np.integer)):
        raise TypeError(
            f"site must be an integer, got {type(site).__name__} {site!r}")
    return int(site)


def check_site(site: Any, num_sites: int) -> int:
    """Validate one site index and return it as an ``int``.

    A site passes :func:`check_site_type` and lies in ``[0, num_sites)``:
    an out-of-range one raises the ``ValueError`` a one-item
    :func:`check_site_ids` would raise.
    """
    if type(site) is not int:
        site = check_site_type(site)
    if not 0 <= site < num_sites:
        raise _site_range_error(num_sites, site, site)
    return site


def check_site_column(site_ids: Any, count: int, *,
                      name: str = "site_ids") -> np.ndarray:
    """``count`` site indices as an int64 array, whatever their range: a
    float or bool array — or a list with a bool in it, which NumPy would
    read as an integer — raises ``TypeError`` instead of being truncated."""
    if isinstance(site_ids, (list, tuple)) \
            and not _BOOL_TYPES.isdisjoint(map(type, site_ids)):
        raise TypeError(f"{name} must be integers, got a bool")
    sites = np.asarray(site_ids)
    if sites.size and sites.dtype.kind not in "iu":
        raise TypeError(f"{name} must be integers, got dtype {sites.dtype}")
    sites = sites.astype(np.int64, copy=False)
    if sites.shape != (count,):
        raise ValueError(
            f"{name} must have shape ({count},), got {sites.shape}")
    return sites


def check_site_ids(site_ids: Any, count: int, num_sites: int) -> np.ndarray:
    """Validate ``count`` site indices and return them as an int64 array.

    The array form of :func:`check_site`: :func:`check_site_column`, and
    every entry in ``[0, num_sites)``.
    """
    sites = check_site_column(site_ids, count)
    if count:
        if count == 1:
            low = high = int(sites[0])
        else:
            low, high = int(sites.min()), int(sites.max())
        if low < 0 or high >= num_sites:
            raise _site_range_error(num_sites, low, high)
    return sites


def check_rank(rank: int, dimension: Optional[int] = None, *, name: str = "rank") -> int:
    """Validate a target rank ``k``; optionally at most the ambient dimension."""
    value = check_positive_int(rank, name=name)
    if dimension is not None and value > dimension:
        raise ValueError(f"{name}={value} cannot exceed the matrix dimension {dimension}")
    return value

"""The spectral kernel behind Frequent Directions compaction and matrix P2.

Profiling the matrix benches shows that FD compaction — a dense
decomposition of the protocols' ``4ℓ × d`` compaction buffer — dominates
the ingestion cost of protocols P1/P2, and that on small buffers the cost
is LAPACK *call latency*, not flops.  Every product path therefore runs one
kernel, the Gram-trick eigendecomposition: form the *smaller* Gram matrix
(``B·Bᵀ`` when the buffer is wide, ``Bᵀ·B`` when it is tall) and take a
symmetric ``eigh``, whose eigenvalue spectrum *is* the squared singular
value spectrum the FD shrink step needs.  One ``eigh`` of an ``m×m``
matrix with ``m = min(rows, d)`` replaces an SVD of the full buffer; for
the wide-buffer case the compacted rows are recovered with a single fused
back-multiply.  Numerically this squares the condition number, so
singular values below ``σ₁·1e-8`` lose precision — harmless for FD, whose
shrink step floors that tail at zero anyway.  A symmetric input (matrix
P2 hands over a site's PSD Gram) is decomposed as is.  Should ``eigh``
fail to converge, the kernel falls back to
:func:`~repro.utils.linalg.thin_svd`.

``mode="exact"`` runs ``numpy.linalg.svd`` (LAPACK ``gesdd``) of exactly
the matrix it is handed instead.  No product path uses it: it stays only
because the benchmark harness times ``shrink_rows(buffer, keep, "exact")``
as its ``accel.shrink_exact_us`` reference, and it goes, with ``mode`` and
the metrics' ``svd_mode`` label, when that reference is retired.

Both kernels are pure functions of their inputs, so repeated runs and
checkpoint/resume remain deterministic.
"""

from __future__ import annotations

from time import perf_counter
from typing import Tuple

import numpy as np

from ..obs.metrics import LATENCY_BUCKETS, REGISTRY
from ..utils.linalg import thin_svd

__all__ = [
    "SVD_MODES",
    "check_svd_mode",
    "spectral_decomposition",
    "shrink_rows",
]

#: Accepted values of the kernels' ``mode`` (``exact`` is the benchmark's
#: reference only; see the module docstring).
SVD_MODES = ("auto", "exact")

#: Relative cutoff below which a Gram-recovered singular value is treated
#: as zero (its right singular vector is unrecoverable noise).
_GRAM_TOLERANCE = 1e-12

#: FD compaction telemetry.  Observed per compaction (one SVD-sized unit
#: of work), never per row, and only when the registry is enabled — the
#: kernels themselves stay pure functions of their inputs.
_FD_COMPACTIONS = REGISTRY.counter(
    "repro_fd_compactions_total",
    "Frequent Directions shrink_rows compactions", labels=("svd_mode",))
_FD_SVD_SECONDS = REGISTRY.histogram(
    "repro_fd_svd_seconds",
    "Wall time of one spectral kernel invocation", labels=("svd_mode",),
    buckets=LATENCY_BUCKETS)


def check_svd_mode(mode: str) -> str:
    """Validate an ``svd_mode`` value, returning it unchanged."""
    if mode not in SVD_MODES:
        raise ValueError(
            f"svd_mode must be one of {', '.join(SVD_MODES)}; got {mode!r}"
        )
    return mode


def _as_matrix(matrix: np.ndarray) -> np.ndarray:
    array = np.asarray(matrix, dtype=np.float64)
    if array.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {array.shape}")
    return array


def _descending_eigh(gram: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``eigh`` of a PSD Gram matrix with eigenpairs sorted descending and
    negative round-off eigenvalues clamped to zero."""
    eigenvalues, eigenvectors = np.linalg.eigh(gram)
    order = slice(None, None, -1)
    return (np.maximum(eigenvalues[order], 0.0),
            np.ascontiguousarray(eigenvectors[:, order]))


def _gram_spectrum(array: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Singular values and right singular vectors via the smaller Gram side.

    Returns ``(s, vt)`` with ``r = min(n, d)`` entries, like ``thin_svd``.
    Rows of ``vt`` whose singular value is below ``σ₁·1e-12`` are zeroed:
    the Gram trick cannot recover them, and every consumer in this package
    multiplies those rows by (shrunk) singular values that are zero anyway.

    A symmetric input is already its own Gram side: ``A = V·Λ·Vᵀ`` is an SVD
    with singular values ``|λ|`` and right singular vectors ``V``, so one
    ``eigh`` of ``A`` itself replaces the ``eigh`` of ``A·Aᵀ`` (which would
    square the condition number for nothing).  For a PSD Gram ``BᵀB`` the
    returned values are ``σ²(B)`` and ``vt`` holds its eigenvectors.
    """
    rows, columns = array.shape
    if rows == columns and np.array_equal(array, array.T):
        eigenvalues, eigenvectors = np.linalg.eigh(array)
        order = np.argsort(-np.abs(eigenvalues), kind="stable")
        return (np.abs(eigenvalues[order]),
                np.ascontiguousarray(eigenvectors[:, order].T))
    if rows <= columns:
        squared, u = _descending_eigh(array @ array.T)
        s = np.sqrt(squared)
        vt = np.zeros((rows, columns))
        if s.size:
            usable = s > s[0] * _GRAM_TOLERANCE
            if usable.any():
                vt[usable, :] = (u[:, usable] / s[usable]).T @ array
        return s, vt
    squared, v = _descending_eigh(array.T @ array)
    return np.sqrt(squared), np.ascontiguousarray(v.T)


def spectral_decomposition(matrix: np.ndarray, mode: str = "auto"
                           ) -> Tuple[np.ndarray, np.ndarray]:
    """Singular values and right singular vectors of a row matrix.

    Parameters
    ----------
    matrix:
        The ``n × d`` row matrix to decompose.
    mode:
        One of :data:`SVD_MODES` (module docstring).

    Returns
    -------
    (s, vt):
        The full ``min(n, d)``-point spectrum, non-increasing, and the
        matching rows of ``Vᵀ``.
    """
    check_svd_mode(mode)
    array = _as_matrix(matrix)
    if array.size == 0:
        r = min(array.shape)
        return np.zeros(r), np.zeros((r, array.shape[1]))
    started = perf_counter() if REGISTRY.enabled else None
    try:
        if mode == "auto":
            try:
                return _gram_spectrum(array)
            except np.linalg.LinAlgError:  # pragma: no cover - eigh rarely fails
                pass
        _, s, vt = thin_svd(array)
        return s, vt
    finally:
        if started is not None:
            _FD_SVD_SECONDS.observe(perf_counter() - started, svd_mode=mode)


def _shrink_from_spectrum(squared: np.ndarray, keep: int
                          ) -> Tuple[np.ndarray, float, int]:
    """The FD shrink arithmetic shared by every kernel: subtract the
    ``(keep+1)``-st squared singular value ``δ`` and floor at zero."""
    if squared.shape[0] > keep:
        delta = float(squared[keep])
    else:
        delta = 0.0
    shrunk = np.sqrt(np.maximum(squared - delta, 0.0))
    return shrunk, delta, min(keep, shrunk.shape[0])


def shrink_rows(matrix: np.ndarray, keep: int, mode: str = "auto"
                ) -> Tuple[np.ndarray, float]:
    """One Frequent-Directions compaction: shrink ``matrix`` to ``keep`` rows.

    Returns ``(compacted, delta)`` where ``compacted`` has at most ``keep``
    rows and ``delta`` is the shrinkage to add to the FD certificate: the
    invariant ``0 ≤ ‖Ax‖² − ‖Bx‖² ≤ delta`` holds per unit direction ``x``.
    """
    check_svd_mode(mode)
    if keep < 1:
        raise ValueError(f"keep must be a positive integer, got {keep!r}")
    array = _as_matrix(matrix)
    if array.size == 0:
        return np.zeros((0, array.shape[1])), 0.0
    started = perf_counter() if REGISTRY.enabled else None
    try:
        return _shrink_rows(array, keep, mode)
    finally:
        if started is not None:
            _FD_COMPACTIONS.inc(svd_mode=mode)
            _FD_SVD_SECONDS.observe(perf_counter() - started, svd_mode=mode)


def _shrink_rows(array: np.ndarray, keep: int, mode: str
                 ) -> Tuple[np.ndarray, float]:
    if mode == "exact":
        _, singular_values, vt = thin_svd(array)
        squared = singular_values ** 2
        shrunk, delta, kept = _shrink_from_spectrum(squared, keep)
        return shrunk[:kept, np.newaxis] * vt[:kept, :], delta

    rows, columns = array.shape
    try:
        if rows <= columns:
            squared, u = _descending_eigh(array @ array.T)
            shrunk, delta, kept = _shrink_from_spectrum(squared, keep)
            s = np.sqrt(squared[:kept])
            coefficients = np.zeros(kept)
            if s.size:
                usable = s > s[0] * _GRAM_TOLERANCE
                np.divide(shrunk[:kept], s, out=coefficients, where=usable)
            # Fused back-multiply: compacted = diag(shrunk/σ)·Uᵀ·A, i.e. the
            # shrunk singular values times the right singular vectors,
            # without materialising Vᵀ.
            return (u[:, :kept] * coefficients).T @ array, delta
        squared, v = _descending_eigh(array.T @ array)
        shrunk, delta, kept = _shrink_from_spectrum(squared, keep)
        return shrunk[:kept, np.newaxis] * v[:, :kept].T, delta
    except np.linalg.LinAlgError:  # pragma: no cover - eigh rarely fails
        return _shrink_rows(array, keep, "exact")

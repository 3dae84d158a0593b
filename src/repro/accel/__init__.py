"""Acceleration kernels: the spectral decomposition behind FD compaction.

:mod:`repro.accel.fd_kernels` holds the one kernel — a Gram-trick
``eigh`` with a ``thin_svd`` fallback — that the
:class:`~repro.sketch.frequent_directions.FrequentDirections` sketch and the
matrix-tracking protocols P1/P2 all run.
"""

from .fd_kernels import shrink_rows, spectral_decomposition

__all__ = ["shrink_rows", "spectral_decomposition"]

"""Acceleration kernels: fast spectral decompositions for FD compaction.

See :mod:`repro.accel.fd_kernels` for the ``svd_mode`` contract shared by
the :class:`~repro.sketch.frequent_directions.FrequentDirections` sketch and
the matrix-tracking protocols P1/P2.
"""

from .fd_kernels import (
    SVD_MODES,
    check_svd_mode,
    shrink_rows,
    spectral_decomposition,
)

__all__ = [
    "SVD_MODES",
    "check_svd_mode",
    "shrink_rows",
    "spectral_decomposition",
]

"""Properties of the FD compaction kernel (``repro.accel``).

Two families of guarantees, each checked across the seed matrix from
``REPRO_PROPERTY_SEEDS``:

* **Shrinkage certificate** — the cumulative shrinkage ``Σδ`` reported by
  a :class:`FrequentDirections` sketch is a true data-dependent upper bound
  on the directional error ``‖Ax‖² − ‖Bx‖²`` (and is itself bounded by
  ``‖A‖²_F / ℓ``).  This is the invariant that lets the Gram-trick kernel
  replace a LAPACK SVD without weakening the paper's error analysis.
* **Query purity** — :meth:`FrequentDirections.compacted_view` returns
  exactly the matrix that :meth:`compact` + :meth:`sketch_matrix` would
  install, without mutating the buffer, the compaction schedule or the
  shrinkage accumulator.  Continuous queries therefore never perturb the
  stream evolution.

Plus the Gram contract matrix P2 relies on — a PSD ``BᵀB`` decomposes into
``σ²(B)`` and its eigenvectors under each of the kernel's modes, without
squaring its condition number — one ``shrink_rows`` compaction under each
mode, and the regression test for the ``thin_svd`` non-convergence fallback:
the deterministically jittered retry is a pure function of the input and
floors sub-tolerance singular values to exactly zero, so a fallback never
changes which singular values callers consider nonzero.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accel import spectral_decomposition
from repro.accel import shrink_rows
from repro.accel.fd_kernels import SVD_MODES, check_svd_mode
from repro.sketch.frequent_directions import FrequentDirections
from repro.utils.linalg import SVD_RELATIVE_TOLERANCE, thin_svd

from test_protocol_equivalence_properties import SEEDS


def _stream(seed: int, rows: int = 300, dimension: int = 12) -> np.ndarray:
    """A row stream with decaying spectrum so compactions actually shrink."""
    rng = np.random.default_rng(seed)
    scales = np.logspace(0, -2, dimension)
    return rng.standard_normal((rows, dimension)) * scales


class TestShrinkageCertificate:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_shrinkage_bounds_directional_error(self, seed):
        rows = _stream(seed)
        sketch = FrequentDirections(dimension=rows.shape[1], sketch_size=5)
        sketch.update_many(rows)

        # Install the final compaction so the reported Σδ covers exactly the
        # shrinks that produced the matrix we query below (compacted_view's
        # extra shrink is deliberately not folded into the accumulator).
        sketch.compact()

        frobenius = float(np.sum(rows ** 2))
        tolerance = 1e-6 * max(1.0, frobenius)
        # The data-dependent certificate is itself within the worst case.
        assert 0.0 <= sketch.shrinkage <= frobenius / sketch.sketch_size + tolerance

        b = sketch.sketch_matrix()
        directions = np.vstack([np.eye(rows.shape[1]),
                                np.random.default_rng(seed + 1)
                                .standard_normal((20, rows.shape[1]))])
        for x in directions:
            x = x / np.linalg.norm(x)
            true = float(np.linalg.norm(rows @ x) ** 2)
            approx = float(np.linalg.norm(b @ x) ** 2)
            assert true - approx >= -tolerance
            assert true - approx <= sketch.shrinkage + tolerance

    @pytest.mark.parametrize("seed", SEEDS)
    def test_merge_keeps_certificate(self, seed):
        rows = _stream(seed, rows=240)
        cut = rows.shape[0] // 2
        left = FrequentDirections(dimension=rows.shape[1], sketch_size=5)
        right = FrequentDirections(dimension=rows.shape[1], sketch_size=5)
        left.update_many(rows[:cut])
        right.update_many(rows[cut:])
        merged = left.merge(right)

        merged.compact()
        frobenius = float(np.sum(rows ** 2))
        tolerance = 1e-6 * max(1.0, frobenius)
        b = merged.sketch_matrix()
        rng = np.random.default_rng(seed + 2)
        for _ in range(10):
            x = rng.standard_normal(rows.shape[1])
            x = x / np.linalg.norm(x)
            true = float(np.linalg.norm(rows @ x) ** 2)
            approx = float(np.linalg.norm(b @ x) ** 2)
            assert true - approx >= -tolerance
            assert true - approx <= merged.shrinkage + tolerance


class TestCompactedViewPurity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_view_matches_installed_compaction(self, seed):
        rows = _stream(seed)
        sketch = FrequentDirections(dimension=rows.shape[1], sketch_size=5)
        sketch.update_many(rows)

        before = (sketch.sketch_matrix(), sketch.shrinkage, sketch.rows_seen,
                  sketch.squared_frobenius)

        view = sketch.compacted_view()

        # The view did not perturb the sketch ...
        assert np.array_equal(sketch.sketch_matrix(), before[0])
        assert sketch.shrinkage == before[1]
        assert sketch.rows_seen == before[2]
        assert sketch.squared_frobenius == before[3]

        # ... and it is bit-identical to what compact() would install.
        installed = sketch.copy()
        installed.compact()
        assert np.array_equal(view, installed.sketch_matrix())

    def test_view_below_capacity_is_plain_copy(self):
        sketch = FrequentDirections(dimension=4, sketch_size=3)
        rows = np.arange(8.0).reshape(2, 4)
        sketch.update_many(rows)
        assert np.array_equal(sketch.compacted_view(), rows)
        assert sketch.shrinkage == 0.0


class TestGramSpectrum:
    @pytest.mark.parametrize("svd_mode", SVD_MODES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_psd_gram_gives_squared_singular_values(self, svd_mode, seed):
        """Handed a PSD Gram ``BᵀB``, each mode returns ``σ²(B)`` and the
        eigenvectors — what matrix P2 decomposes a site residual into.  The
        ``σ²`` span ten decades: decomposing ``G·Gᵀ`` instead of ``G``
        would square that and lose the small ones."""
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((40, 12)) * np.logspace(0, -5, 12)
        gram = rows.T @ rows
        values, vt = spectral_decomposition(gram, mode=svd_mode)
        singular = np.linalg.svd(rows, compute_uv=False)
        scale = singular[0] ** 2
        assert np.allclose(values, singular ** 2, rtol=0.0, atol=1e-12 * scale)
        assert np.allclose(vt @ vt.T, np.eye(gram.shape[0]), atol=1e-10)
        assert np.allclose((vt.T * values) @ vt, gram, rtol=0.0,
                           atol=1e-12 * scale)


class TestShrinkRows:
    """The kernel's one compaction, under each of its remaining modes: the
    certificate holds for one step, and the modes install the same Gram."""

    @staticmethod
    def _buffer(seed: int) -> np.ndarray:
        return _stream(seed, rows=20, dimension=12)

    @pytest.mark.parametrize("svd_mode", SVD_MODES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_one_compaction_keeps_the_certificate(self, svd_mode, seed):
        rows = self._buffer(seed)
        compacted, delta = shrink_rows(rows, 5, svd_mode)
        assert compacted.shape[0] <= 5
        assert compacted.shape[1] == rows.shape[1]
        gap = rows.T @ rows - compacted.T @ compacted
        extremes = np.linalg.eigvalsh(gap)
        tolerance = 1e-9 * float(np.sum(rows ** 2))
        # 0 <= ||Ax||^2 - ||Bx||^2 <= delta for every unit x.
        assert extremes[0] >= -tolerance
        assert extremes[-1] <= delta + tolerance
        assert 0.0 <= delta <= np.sum(rows ** 2) / 5 + tolerance

    @pytest.mark.parametrize("seed", SEEDS)
    def test_modes_install_the_same_gram(self, seed):
        rows = self._buffer(seed)
        (auto, auto_delta), (exact, exact_delta) = (
            shrink_rows(rows, 5, mode) for mode in ("auto", "exact"))
        scale = float(np.sum(rows ** 2))
        assert np.isclose(auto_delta, exact_delta, rtol=1e-9, atol=0.0)
        assert np.allclose(auto.T @ auto, exact.T @ exact, rtol=0.0,
                           atol=1e-9 * scale)

    @pytest.mark.parametrize("retired", ["gram", "randomized"])
    def test_retired_modes_are_refused(self, retired):
        with pytest.raises(ValueError, match=retired):
            check_svd_mode(retired)
        with pytest.raises(ValueError, match=retired):
            shrink_rows(self._buffer(0), 5, retired)


class TestThinSvdFallback:
    """Regression: the LinAlgError jitter fallback is deterministic and
    respects the documented :data:`SVD_RELATIVE_TOLERANCE` contract."""

    @staticmethod
    def _failing_once(monkeypatch):
        real_svd = np.linalg.svd
        calls = {"failed": 0}

        def flaky(matrix, *args, **kwargs):
            if calls["failed"] == 0:
                calls["failed"] += 1
                raise np.linalg.LinAlgError("SVD did not converge")
            return real_svd(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", flaky)
        return calls

    def test_fallback_is_deterministic(self, monkeypatch):
        rng = np.random.default_rng(11)
        matrix = rng.standard_normal((6, 4))

        calls = self._failing_once(monkeypatch)
        u1, s1, vt1 = thin_svd(matrix)
        assert calls["failed"] == 1

        calls["failed"] = 0
        u2, s2, vt2 = thin_svd(matrix)
        assert np.array_equal(u1, u2)
        assert np.array_equal(s1, s2)
        assert np.array_equal(vt1, vt2)

    def test_fallback_reconstructs_within_tolerance(self, monkeypatch):
        rng = np.random.default_rng(12)
        matrix = rng.standard_normal((8, 5))
        self._failing_once(monkeypatch)
        u, s, vt = thin_svd(matrix)
        reconstructed = (u * s) @ vt
        scale = float(np.abs(matrix).max())
        # The jitter is scaled to max|A| · SVD_RELATIVE_TOLERANCE, so the
        # reconstruction can drift by at most a small multiple of that.
        assert np.max(np.abs(reconstructed - matrix)) <= \
            100 * scale * SVD_RELATIVE_TOLERANCE

    def test_fallback_floors_subtolerance_singular_values(self, monkeypatch):
        # A rank-1 matrix: the jittered copy would otherwise report tiny
        # nonzero trailing singular values, silently promoting rank.
        outer = np.outer(np.arange(1.0, 7.0), np.arange(1.0, 5.0))
        self._failing_once(monkeypatch)
        _, s, _ = thin_svd(outer)
        cutoff = max(float(s[0]), 1.0) * SVD_RELATIVE_TOLERANCE
        tail = s[s <= cutoff]
        assert tail.size == s.size - 1
        assert np.all(tail == 0.0)

    def test_zero_matrix_fallback_stays_below_tolerance(self, monkeypatch):
        # The jitter scale for an all-zero input is SVD_RELATIVE_TOLERANCE
        # itself — the fallback never fabricates above-tolerance energy.
        matrix = np.zeros((4, 3))
        self._failing_once(monkeypatch)
        _, s, _ = thin_svd(matrix)
        assert np.all(s <= 100 * SVD_RELATIVE_TOLERANCE)

#!/usr/bin/env python
"""Distributed image-feature monitoring (the paper's image-analysis motivation).

A search-engine company receives images at many data centers.  Each image is
represented by a 128-dimensional SIFT-like descriptor; the company wants an
always-fresh principal-component model of the global descriptor matrix (for
near-duplicate detection, visual clustering, index maintenance, …) without
shipping every descriptor to a central cluster.

This example simulates ``m`` data centers receiving descriptor streams whose
latent structure drifts over time (a new "visual theme" appears midway).  A
``repro.Tracker`` session over spec ``matrix/P2`` maintains the
approximation at the coordinator; the stream arrives in instalments
(repeated ``tracker.run`` calls continue the site assignment exactly), and
after every instalment the typed ``ApproximationError``/``SketchMatrix``
queries report the sketch quality — demonstrating the continuous-tracking
property: the approximation is valid at *every* time instant, not just at
the end.  matrix/P2 serves that error from its own state (the sites'
unsent residuals are exactly the mass ``B`` misses), so no party needs the
descriptors to know it.  Midway through, the session is checkpointed to
disk and resumed, exactly as a long-running monitor surviving a process
restart would.

Run with:  python examples/image_feature_monitoring.py
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

import repro
from repro.api import ApproximationError, FrobeniusSquared, SketchMatrix
from repro.utils.linalg import thin_svd

NUM_SITES = 25
DIMENSION = 128
EPSILON = 0.1
ROWS_PER_PHASE = 6_000
CHECKPOINT_EVERY = 2_000


def descriptor_batch(rng: np.random.Generator, basis: np.ndarray,
                     count: int) -> np.ndarray:
    """Sample SIFT-like descriptors concentrated on a low-dimensional basis."""
    rank = basis.shape[0]
    spectrum = np.exp(-np.arange(rank) / 3.0)
    coefficients = rng.standard_normal((count, rank)) * spectrum
    noise = 0.02 * rng.standard_normal((count, DIMENSION))
    descriptors = coefficients @ basis + noise
    # SIFT descriptors are non-negative and normalised; mimic that roughly.
    return np.abs(descriptors)


def subspace_alignment(exact_rows: np.ndarray, sketch_rows: np.ndarray,
                       k: int = 10) -> float:
    """Fraction of the exact top-k energy captured by the sketch's top-k subspace."""
    _, _, exact_vt = thin_svd(exact_rows)
    _, _, sketch_vt = thin_svd(sketch_rows)
    exact_top = exact_vt[:k]
    sketch_top = sketch_vt[:min(k, sketch_vt.shape[0])]
    projected = exact_top @ sketch_top.T
    return float(np.sum(projected ** 2)) / k


def main() -> None:
    rng = np.random.default_rng(2014)
    # Two visual "themes": the second appears halfway through the stream.
    theme_a = np.linalg.qr(rng.standard_normal((DIMENSION, 12)))[0].T
    theme_b = np.linalg.qr(rng.standard_normal((DIMENSION, 12)))[0].T

    tracker = repro.Tracker.create("matrix/P2", num_sites=NUM_SITES,
                                   dimension=DIMENSION, epsilon=EPSILON)
    checkpoint = os.path.join(tempfile.mkdtemp(), "monitor.ckpt")

    print(f"Simulating {NUM_SITES} data centers, d = {DIMENSION}, epsilon = {EPSILON}")
    print(f"{'images':>8s} {'err':>10s} {'PC align':>10s} {'messages':>10s} "
          f"{'naive msgs':>11s}")

    history = []
    for phase, basis in enumerate((theme_a, theme_b)):
        descriptors = descriptor_batch(rng, basis, ROWS_PER_PHASE)
        history.append(descriptors)
        # The phase arrives in instalments; each tracker.run continues the
        # round-robin site assignment where the previous one stopped.
        for start in range(0, ROWS_PER_PHASE, CHECKPOINT_EVERY):
            tracker.run(descriptors[start:start + CHECKPOINT_EVERY])
            exact = np.vstack(history)[: tracker.items_processed]
            error = tracker.query(ApproximationError())
            sketch = tracker.query(SketchMatrix()).estimate
            alignment = subspace_alignment(exact, sketch)
            print(f"{tracker.items_processed:8d} {error.estimate:10.4f} "
                  f"{alignment:10.3f} {error.total_messages:10d} "
                  f"{tracker.items_processed:11d}")
        if phase == 0:
            # Survive a "process restart" between the two phases: persist the
            # session and resume it — the restored tracker continues
            # bit-identically (same thresholds, same message accounting).
            tracker.save(checkpoint)
            tracker = repro.Tracker.load(checkpoint)
            print(f"  -- session checkpointed to {checkpoint} and resumed --")

    exact = np.vstack(history)
    frobenius = tracker.query(FrobeniusSquared())
    sketch = tracker.query(SketchMatrix()).estimate
    print("\nFinal state:")
    print(f"  {tracker!r}")
    print(f"  approximation error        : "
          f"{tracker.query(ApproximationError()).estimate:.4f} "
          f"(guarantee: {EPSILON})")
    print(f"  coordinator sketch rows    : {sketch.shape[0]}")
    print(f"  total messages             : {tracker.total_messages} "
          f"(naive streaming would use {exact.shape[0]})")
    print(f"  estimated ||A||_F^2        : {frobenius.estimate:.1f} "
          f"(exact {float(np.sum(exact ** 2)):.1f})")
    os.remove(checkpoint)


if __name__ == "__main__":
    main()

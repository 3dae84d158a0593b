#!/usr/bin/env python
"""Latent semantic indexing over logs collected at multiple data centers.

The paper's second motivating application: documents (or log records) in the
bag-of-words model arrive continuously at distributed nodes, forming a
document × term matrix.  Latent semantic indexing (LSI) needs the top
singular directions of that matrix; the covariance guarantee
``‖AᵀA − BᵀB‖₂ ≤ ε‖A‖²_F`` means the coordinator's sketch supports LSI
directly without collecting the documents.

This example simulates three topic clusters of log messages spread over
``m`` collection nodes, tracks the term-covariance with a
``repro.Tracker`` session over spec ``matrix/P3`` (priority sampling of
rows), and then uses the sketch — obtained through the typed
``SketchMatrix`` query — to (a) recover the topic subspace and (b) answer
similarity queries between unseen documents, comparing both (and the
covariance error) against the exact answers computed from the documents
it fed.

Run with:  python examples/distributed_lsi_logs.py
"""

from __future__ import annotations

import numpy as np

import repro
from repro.api import SketchMatrix
from repro.utils.linalg import covariance_error, thin_svd

NUM_NODES = 15
VOCABULARY = 300
NUM_TOPICS = 3
DOCS_PER_TOPIC = 4_000
EPSILON = 0.1
LSI_RANK = 5


def topic_model(rng: np.random.Generator) -> np.ndarray:
    """Random sparse topic/term distributions."""
    topics = rng.gamma(0.3, 1.0, size=(NUM_TOPICS, VOCABULARY))
    return topics / topics.sum(axis=1, keepdims=True)


def sample_documents(rng: np.random.Generator, topics: np.ndarray,
                     count: int) -> np.ndarray:
    """Draw bag-of-words rows: each document mixes one dominant topic plus noise."""
    documents = np.zeros((count, VOCABULARY))
    for index in range(count):
        topic = int(rng.integers(0, NUM_TOPICS))
        length = int(rng.integers(30, 120))
        counts = rng.multinomial(length, topics[topic])
        documents[index] = counts
    # TF-IDF style damping keeps row norms comparable (the paper's beta bound).
    return np.sqrt(documents)


def main() -> None:
    rng = np.random.default_rng(31)
    topics = topic_model(rng)
    documents = sample_documents(rng, topics, NUM_TOPICS * DOCS_PER_TOPIC)
    rng.shuffle(documents)

    tracker = repro.Tracker.create(
        "matrix/P3", num_sites=NUM_NODES, dimension=VOCABULARY,
        epsilon=EPSILON, sample_size=800, seed=0)
    tracker.run(documents)

    # The sketch answers the queries; the documents we fed are the truth
    # it is scored against (no node holds them all).
    answer = tracker.query(SketchMatrix())
    sketch = answer.estimate
    print(f"{documents.shape[0]} log documents, vocabulary {VOCABULARY}, "
          f"{NUM_NODES} collection nodes")
    print(f"covariance error      : {covariance_error(documents, sketch):.4f} "
          f"(guarantee {EPSILON})")
    print(f"messages              : {answer.total_messages} "
          f"(vs {documents.shape[0]} to centralise everything)")

    # LSI subspace from the sketch vs from the exact matrix.
    _, _, exact_vt = thin_svd(documents)
    _, _, sketch_vt = thin_svd(sketch)
    exact_basis = exact_vt[:LSI_RANK]
    sketch_basis = sketch_vt[:LSI_RANK]
    overlap = np.sum((exact_basis @ sketch_basis.T) ** 2) / LSI_RANK
    print(f"topic-subspace overlap: {overlap:.3f} (1.0 = identical)")

    # Similarity queries: embed two fresh documents with both bases.
    fresh = sample_documents(rng, topics, 2)
    exact_embedding = fresh @ exact_basis.T
    sketch_embedding = fresh @ sketch_basis.T

    def cosine(u: np.ndarray, v: np.ndarray) -> float:
        return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

    print("similarity of two fresh documents:")
    print(f"  exact LSI embedding : {cosine(exact_embedding[0], exact_embedding[1]):.3f}")
    print(f"  sketch LSI embedding: {cosine(sketch_embedding[0], sketch_embedding[1]):.3f}")


if __name__ == "__main__":
    main()

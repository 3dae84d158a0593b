"""Random-number-generator management.

The randomized protocols (priority sampling, the Huang-et-al style protocol
P4) and the synthetic data generators all need reproducible randomness. The
convention across the library is:

* public constructors accept a ``seed`` argument that may be ``None``, an
  integer, or an already-constructed ``numpy.random.Generator``;
* internally everything uses :func:`as_generator` to normalise that argument;
* components that need several independent streams (for example ``s``
  independent with-replacement samplers) derive them with :func:`spawn`.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

__all__ = ["SeedLike", "as_generator", "spawn", "random_unit_vector",
           "restore_generator"]

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for any accepted seed-like input."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    raise TypeError(
        "seed must be None, an int, a numpy Generator or a SeedSequence, "
        f"got {type(seed).__name__}"
    )


def spawn(rng: np.random.Generator, count: int) -> List[np.random.Generator]:
    """Derive ``count`` statistically independent generators from ``rng``."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    seeds = rng.integers(0, np.iinfo(np.int64).max, size=count)
    return [np.random.default_rng(int(seed)) for seed in seeds]


#: Bit generators a checkpoint may name: everything NumPy ships.
_BIT_GENERATORS = {cls.__name__: cls for cls in (
    np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937,
    np.random.Philox, np.random.SFC64)}


def restore_generator(state: dict) -> np.random.Generator:
    """A generator continuing exactly where one whose
    ``bit_generator.state`` was ``state`` left off.  The bit generator is
    looked up in the closed table of NumPy's own by the name the state
    carries; any other name is a ``ValueError``."""
    cls = _BIT_GENERATORS.get(state.get("bit_generator")) \
        if isinstance(state, dict) else None
    if cls is None:
        raise ValueError(f"not a NumPy bit-generator state: {state!r:.80}")
    bit_generator = cls()
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def random_unit_vector(dimension: int, rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Sample a uniformly random unit vector in ``R^dimension``."""
    if dimension <= 0:
        raise ValueError(f"dimension must be positive, got {dimension}")
    generator = as_generator(rng)
    vector = generator.standard_normal(dimension)
    norm = np.linalg.norm(vector)
    while norm < 1e-12:
        vector = generator.standard_normal(dimension)
        norm = np.linalg.norm(vector)
    return vector / norm

"""Stream partitioners: assigning a global stream to ``m`` sites.

In the distributed streaming model every stream item arrives at exactly one
site.  Which site observes which item is adversarial in the theory, but the
experiments need concrete assignments.  Three policies are provided:

* :class:`RoundRobinPartitioner` — item ``i`` goes to site ``i mod m``
  (the default used by the experiment drivers; it maximises interleaving and
  therefore stresses the coordination logic most).
* :class:`UniformRandomPartitioner` — each item independently goes to a
  uniformly random site.
* :class:`HashPartitioner` — items are routed by a hash of their element
  label, clustering all copies of an element on one site (the "skewed" regime
  where per-site summaries see very unbalanced loads).
* :class:`BlockPartitioner` — contiguous blocks of the stream go to each
  site, modelling geographically partitioned logs.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Hashable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from ..utils.rng import SeedLike, as_generator, restore_generator
from ..utils.validation import check_positive_int, check_site_count

__all__ = [
    "Partitioner",
    "restore_partitioner",
    "RoundRobinPartitioner",
    "UniformRandomPartitioner",
    "HashPartitioner",
    "BlockPartitioner",
]

Item = TypeVar("Item")


class Partitioner(abc.ABC):
    """Assigns each stream item to one of ``num_sites`` sites.

    A partitioner declares its checkpoint, :meth:`state_dict`, so a
    restored tracker routes the rest of the stream exactly as an
    uninterrupted one would (this matters for the seeded
    :class:`UniformRandomPartitioner`, whose generator state is part of the
    state); :func:`restore_partitioner` rebuilds it.
    """

    def __init__(self, num_sites: int):
        self._num_sites = check_site_count(num_sites)

    def state_dict(self) -> Dict[str, Any]:
        """``{"kind", **constructor arguments}`` besides the site count, a
        seed as its generator's state."""
        if type(self) not in _KIND_OF:
            raise TypeError(f"a {type(self).__name__} has no checkpoint")
        return {"kind": _KIND_OF[type(self)]}

    @property
    def num_sites(self) -> int:
        """Number of sites ``m``."""
        return self._num_sites

    @abc.abstractmethod
    def assign(self, index: int, item: Item) -> int:
        """Return the site index in ``[0, num_sites)`` for the ``index``-th item."""

    def assign_batch(self, indices: Sequence[int], items: Sequence[Item]) -> np.ndarray:
        """Return the site of every ``(index, item)`` pair as an int array.

        Determinism contract: for every partitioner in this module the batch
        path returns exactly the assignments the item path would — stateless
        partitioners compute the same function of the index/item, and the
        seeded :class:`UniformRandomPartitioner` consumes its generator
        identically in both paths (one bounded draw per item, in order).  The
        default implementation simply loops over :meth:`assign`; vectorized
        overrides must preserve this contract (it is covered by tests).
        """
        index_array = np.asarray(indices, dtype=np.int64)
        return np.fromiter(
            (self.assign(int(index), item) for index, item in zip(index_array, items)),
            dtype=np.int64, count=index_array.shape[0],
        )

    def partition(self, stream: Iterable[Item]) -> Iterator[tuple]:
        """Yield ``(site, item)`` pairs for every item of ``stream`` in order."""
        for index, item in enumerate(stream):
            yield self.assign(index, item), item


class RoundRobinPartitioner(Partitioner):
    """Item ``i`` is observed by site ``i mod m``.

    Stateless and index-determined: item and batch paths trivially agree.
    """

    def assign(self, index: int, item: Item) -> int:
        return index % self._num_sites

    def assign_batch(self, indices: Sequence[int], items: Sequence[Item]) -> np.ndarray:
        return np.asarray(indices, dtype=np.int64) % self._num_sites


class UniformRandomPartitioner(Partitioner):
    """Each item is observed by an independently uniform random site.

    Determinism: two partitioners built with the same seed produce the same
    assignment sequence, and a single partitioner produces the same sequence
    whether it is consumed through :meth:`assign` or :meth:`assign_batch`
    (NumPy's ``Generator.integers`` draws bounded integers one at a time in
    either case, so the underlying bit stream is consumed identically).
    """

    def __init__(self, num_sites: int, seed: SeedLike = None):
        super().__init__(num_sites)
        self._rng = as_generator(seed)

    def state_dict(self) -> Dict[str, Any]:
        return {**super().state_dict(), "seed": self._rng.bit_generator.state}

    def assign(self, index: int, item: Item) -> int:
        return int(self._rng.integers(0, self._num_sites))

    def assign_batch(self, indices: Sequence[int], items: Sequence[Item]) -> np.ndarray:
        count = len(np.asarray(indices, dtype=np.int64))
        return self._rng.integers(0, self._num_sites, size=count, dtype=np.int64)


class HashPartitioner(Partitioner):
    """Items are routed by a hash of a key derived from the item.

    Parameters
    ----------
    num_sites:
        Number of sites.
    key:
        Callable extracting a hashable key from an item; defaults to using
        the item itself (which works for element labels and tuples).

    Determinism: assignments depend only on the key's ``hash``, so item and
    batch paths always agree, and repeated runs agree within one interpreter
    process.  Across processes, integer keys are stable but ``str``/``bytes``
    keys follow ``PYTHONHASHSEED`` — pin it for cross-process reproducibility.

    Only the default key has a checkpoint (kind ``"hash"``); a custom key is
    a function, which a checkpoint does not carry.
    """

    def __init__(self, num_sites: int, key=None):
        super().__init__(num_sites)
        self._key = key if key is not None else _identity

    def state_dict(self) -> Dict[str, Any]:
        if self._key is not _identity:
            raise TypeError(f"a {type(self).__name__} with a custom key has "
                            "no checkpoint")
        return super().state_dict()

    def assign(self, index: int, item: Item) -> int:
        label: Hashable = self._key(item)
        return hash(label) % self._num_sites

    def assign_batch(self, indices: Sequence[int], items: Sequence[Item]) -> np.ndarray:
        # ``hash`` of arbitrary labels cannot be vectorized; the win over the
        # base default is skipping the per-item index bookkeeping.
        labels = items.elements if hasattr(items, "elements") and self._key is _identity \
            else None
        if labels is not None:
            iterator = (hash(label) % self._num_sites for label in labels.tolist())
        else:
            iterator = (hash(self._key(item)) % self._num_sites for item in items)
        return np.fromiter(iterator, dtype=np.int64, count=len(items))


class BlockPartitioner(Partitioner):
    """The stream is cut into ``m`` contiguous blocks, one per site.

    Requires the total stream length up front so the block size is known.
    """

    def __init__(self, num_sites: int, stream_length: int):
        super().__init__(num_sites)
        self._stream_length = check_positive_int(stream_length, name="stream_length")
        self._block = max(1, -(-self._stream_length // self._num_sites))

    def state_dict(self) -> Dict[str, Any]:
        return {**super().state_dict(), "stream_length": self._stream_length}

    def assign(self, index: int, item: Item) -> int:
        return min(index // self._block, self._num_sites - 1)

    def assign_batch(self, indices: Sequence[int], items: Sequence[Item]) -> np.ndarray:
        blocks = np.asarray(indices, dtype=np.int64) // self._block
        return np.minimum(blocks, self._num_sites - 1)


def restore_partitioner(num_sites: int, state: Dict[str, Any]) -> Partitioner:
    """Rebuild the partitioner a :meth:`Partitioner.state_dict` describes.

    The ``kind`` is looked up in the closed table of this module's
    policies (a hash partitioner is rebuilt with its default key); any
    other kind is a ``ValueError``.
    """
    cls = _KINDS.get(state.get("kind")) if isinstance(state, dict) else None
    if cls is None:
        raise ValueError(f"unknown partitioner state {state!r:.80}")
    arguments = {key: value for key, value in state.items() if key != "kind"}
    if "seed" in arguments:
        arguments["seed"] = restore_generator(arguments["seed"])
    return cls(num_sites, **arguments)


_KINDS = {"round_robin": RoundRobinPartitioner,
          "uniform": UniformRandomPartitioner, "hash": HashPartitioner,
          "block": BlockPartitioner}
_KIND_OF = {cls: kind for kind, cls in _KINDS.items()}


def _identity(item):
    """Default key extractor used by :class:`HashPartitioner`."""
    if isinstance(item, tuple) and item:
        return item[0]
    element = getattr(item, "element", None)
    if element is not None:
        return element
    return item

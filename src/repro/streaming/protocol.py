"""Base class shared by every distributed streaming protocol.

A protocol owns a :class:`~repro.streaming.network.Network` (which performs
the message accounting), knows how many sites it coordinates, and receives
stream items through :meth:`DistributedProtocol.observe`, which dispatches to
the protocol-specific ``process`` method implemented by subclasses.

Batched ingestion: :meth:`DistributedProtocol.observe_batch` accepts a whole
chunk of ``(site, item)`` assignments at once, groups the chunk by site
(stable — each site sees its items in arrival order), and hands every site's
sub-batch to :meth:`DistributedProtocol.process_batch`.  The default
``process_batch`` loops over ``process``, so every protocol supports the
batch API out of the box; every registered protocol overrides it with a
vectorized kernel.  Note that grouping by site is itself a reordering of the
chunk: protocols whose coordination interleaves across sites (threshold
broadcasts, sampling rounds) may take a different — equally valid under the
paper's adversarial-order model — message trace than strict arrival-order
ingestion.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from ..utils.declared import Declared
from ..utils.rng import restore_generator
from ..utils.validation import check_site, check_site_count, check_site_ids
from .items import MatrixRowBatch, WeightedItemBatch, _as_element_column
from .network import Network

__all__ = [
    "DistributedProtocol",
    "first_crossing",
    "group_elements",
]


def first_crossing(cumulative: np.ndarray, threshold: float,
                   carry: float = 0.0, start: int = 0) -> int:
    """First index ``i >= start`` with ``carry + cumulative[i] >= threshold``.

    The trigger-splitting primitive shared by the vectorized ``process_batch``
    kernels: a site accumulates some quantity (weight, squared norm, a
    per-element delta) and must communicate the moment the running total
    reaches a threshold.  ``cumulative`` is the inclusive prefix sum of the
    per-item increments — non-decreasing because increments are non-negative
    — so one binary search replaces a per-item comparison loop.  Returns
    ``len(cumulative)`` when no index crosses.

    When scanning a suffix, pass the batch-global prefix sum together with
    ``start`` and fold the already-consumed prefix into ``carry`` (i.e.
    ``carry = state_carry - cumulative[start - 1]``); the clamp to ``start``
    keeps already-consumed indices out of the answer even when the threshold
    is already met (``threshold <= carry``), in which case the first
    remaining item triggers — matching the per-item path, where the check
    runs only after an item arrives.
    """
    index = int(np.searchsorted(cumulative, threshold - carry, side="left"))
    return max(index, start)


def group_elements(elements: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Columnar grouping of a 1-d array of element labels.

    Returns ``(keys, inverse)`` with ``keys[inverse[i]] == elements[i]``:
    ``inverse`` is an ``int64`` array of group ids, one per position, so a
    kernel can take per-group counts and sums with ``np.bincount`` and per-
    group positions with one stable ``argsort`` of ``inverse``.  Orderable
    non-object arrays group with ``np.unique`` (``keys`` ascending); object
    and mixed labels group with a dictionary sweep, and ``keys`` is then an
    object array in first-appearance order.  ``keys.dtype == object`` thus
    tells a caller which of the two orders it holds.
    """
    if elements.dtype.kind != "O":
        try:
            return np.unique(elements, return_inverse=True)
        except TypeError:  # unorderable element mix
            pass
    ids: Dict[Any, int] = {}
    inverse = np.fromiter((ids.setdefault(element, len(ids)) for element in elements),
                          dtype=np.int64, count=elements.shape[0])
    return np.fromiter(ids, dtype=object, count=len(ids)), inverse


class DistributedProtocol(Declared, abc.ABC):
    """Common machinery for distributed streaming protocols.

    Every protocol declares its checkpoint (:class:`~repro.utils.declared.
    Declared`): coordinator and per-site state, the network's message
    accounting and the per-site RNG streams as plain data under declared
    names, installed into a protocol built from the same registry
    parameters (:attr:`build_spec`), which then continues bit-identically
    to one that never stopped.  The :class:`~repro.api.tracker.Tracker`
    facade builds ``save``/``load`` on top of this (:mod:`repro.api.state`).

    Parameters
    ----------
    num_sites:
        Number of distributed sites ``m``.
    keep_message_records:
        If True, the network retains a full per-message log (memory heavy;
        useful in tests and debugging only).
    """

    #: Version of this class's declared checkpoint layout: bump it when
    #: :meth:`state_dict` changes incompatibly (older states are refused).
    state_version = 1

    STATE = {"items_processed": "_items_processed"}

    #: Per-site state holders, each :class:`~repro.utils.declared.Declared`,
    #: and per-site generators (the randomized protocols').
    _sites: Sequence[Declared] = ()
    _site_rngs: Sequence[np.random.Generator] = ()

    #: ``(spec name, parameters)`` of the registry build that made this
    #: protocol (set by :meth:`~repro.api.registry.ProtocolSpec.build`);
    #: ``None`` for a protocol constructed directly, which cannot be
    #: checkpointed.
    build_spec: Optional[Tuple[str, Dict[str, Any]]] = None

    def __init__(self, num_sites: int, keep_message_records: bool = False):
        self._num_sites = check_site_count(num_sites)
        self._network = Network(num_sites, keep_records=keep_message_records)
        self._items_processed = 0

    # ------------------------------------------------------------ properties
    @property
    def num_sites(self) -> int:
        """Number of sites ``m``."""
        return self._num_sites

    @property
    def network(self) -> Network:
        """The simulated star network (exposes the communication log)."""
        return self._network

    @property
    def total_messages(self) -> int:
        """Total message units exchanged so far (the paper's ``msg`` metric)."""
        return self._network.total_messages

    @property
    def items_processed(self) -> int:
        """Number of stream items processed so far (``n`` in the paper)."""
        return self._items_processed

    def message_counts(self) -> Dict[str, int]:
        """Break down of exchanged messages by kind and direction."""
        return self._network.message_counts()

    # -------------------------------------------------------------- ingestion
    @abc.abstractmethod
    def process(self, site: int, *args: Any) -> None:
        """Handle the arrival of one stream item at ``site``."""

    def observe(self, site: int, item: Any) -> None:
        """Dispatch a stream item (dataclass, tuple or raw payload) to ``process``.

        Heavy-hitter protocols accept :class:`~repro.streaming.items.WeightedItem`
        instances or ``(element, weight)`` tuples; matrix protocols accept
        :class:`~repro.streaming.items.MatrixRow` instances or raw rows.
        Subclasses override :meth:`_unpack` if they need custom handling.
        A site that is not an integer in ``[0, m)`` is refused before any
        state moves, as :meth:`observe_batch` refuses it.
        """
        check_site(site, self._num_sites)
        args = self._unpack(item)
        self.process(site, *args)

    def _unpack(self, item: Any):
        """Convert a stream item into the positional arguments of ``process``."""
        values = getattr(item, "values", None)
        if values is not None:
            return (values,)
        element = getattr(item, "element", None)
        if element is not None:
            return (element, item.weight)
        if isinstance(item, tuple):
            return item
        return (item,)

    # -------------------------------------------------------- batch ingestion
    def observe_batch(self, site_ids: Sequence[int], items: Any) -> None:
        """Dispatch a chunk of stream items to per-site batch updates.

        Parameters
        ----------
        site_ids:
            One site index per item (shape ``(n,)``).
        items:
            A :class:`~repro.streaming.items.WeightedItemBatch`,
            :class:`~repro.streaming.items.MatrixRowBatch`, 2-d row array, or
            any sequence of per-item objects accepted by :meth:`observe`.

        The chunk is grouped by site with a stable sort (each site receives
        its items in arrival order) and each group is handed to
        :meth:`process_batch` in ascending site order.  A one-item chunk
        goes to :meth:`process` instead.
        """
        columns = self._unpack_batch(items)
        count = int(columns[0].shape[0]) if columns else 0
        sites = check_site_ids(site_ids, count, self._num_sites)
        if count == 0:
            return
        first = int(sites[0])
        if count == 1:
            # One item takes the per-item path, with the column elements the
            # batch kernel would see (NumPy scalars, a row view), so element
            # key types, and with them checkpoint bytes, do not change.
            self.process(first, *(column[0] for column in columns))
            return
        if (sites == first).all():
            self.process_batch(first, *columns)
            return
        order = np.argsort(sites, kind="stable")
        sorted_sites = sites[order]
        boundaries = np.nonzero(np.diff(sorted_sites))[0] + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [count]))
        for start, end in zip(starts, ends):
            group = order[start:end]
            self.process_batch(
                int(sorted_sites[start]), *(column[group] for column in columns)
            )

    def process_batch(self, site: int, *columns: np.ndarray) -> None:
        """Handle a batch of stream items arriving at one ``site``.

        ``columns`` are the positional arguments of :meth:`process` in
        columnar form (e.g. an element array and a weight array, or a 2-d row
        block).  The default implementation replays the batch through
        :meth:`process` one item at a time — exact but slow; protocols with
        vectorizable site updates override it.
        """
        for args in zip(*columns):
            self.process(site, *args)

    def _unpack_batch(self, items: Any) -> Tuple[np.ndarray, ...]:
        """Convert a chunk of stream items into columnar ``process`` arguments."""
        if isinstance(items, WeightedItemBatch):
            return (items.elements, items.weights)
        if isinstance(items, MatrixRowBatch):
            return (items.values,)
        if isinstance(items, np.ndarray) and items.ndim == 2:
            return (items.astype(np.float64, copy=False),)
        item_list = list(items)
        if not item_list:
            return (np.empty(0, dtype=object),)
        unpacked = [self._unpack(item) for item in item_list]
        width = len(unpacked[0])
        if any(len(args) != width for args in unpacked):
            raise ValueError("cannot batch stream items of mixed shapes")
        columns = []
        for position in range(width):
            values = [args[position] for args in unpacked]
            if isinstance(values[0], np.ndarray):
                columns.append(np.asarray(values, dtype=np.float64))
            elif isinstance(values[0], float):
                columns.append(np.asarray(values, dtype=np.float64))
            else:
                columns.append(_as_element_column(values))
        return tuple(columns)

    # ------------------------------------------------------------ checkpoint
    def state_dict(self) -> Dict[str, Any]:
        return {**super().state_dict(),
                "messages": self._network.log.state_dict(),
                "sites": [site.state_dict() for site in self._sites],
                "site_rngs": [rng.bit_generator.state
                              for rng in self._site_rngs]}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        super().load_state_dict(state)
        self._network.log.load_state_dict(state["messages"])
        for site, site_state in zip(self._sites, state["sites"], strict=True):
            site.load_state_dict(site_state)
        if len(state["site_rngs"]) != len(self._site_rngs):
            raise ValueError("the site generators do not match the state")
        self._site_rngs = [restore_generator(rng) for rng in state["site_rngs"]]

    def _count_item(self) -> None:
        """Record that one more stream item has been consumed."""
        self._items_processed += 1

    def _count_items(self, count: int) -> None:
        """Record that ``count`` more stream items have been consumed."""
        self._items_processed += int(count)

    def _repr_params(self) -> Dict[str, Any]:
        """Key protocol parameters to surface in ``repr`` (for debugging).

        The base implementation picks up the common knobs by attribute
        convention (``dimension``, ``epsilon``); subclasses extend the
        dictionary with their own distinguishing parameters.
        """
        params: Dict[str, Any] = {}
        for name in ("dimension", "epsilon"):
            value = getattr(self, "_" + name, None)
            if value is not None:
                params[name] = value
        return params

    def __repr__(self) -> str:
        parts = [f"num_sites={self._num_sites}"]
        for name, value in self._repr_params().items():
            if isinstance(value, float):
                parts.append(f"{name}={value:g}")
            else:
                parts.append(f"{name}={value!r}")
        parts.append(f"items_processed={self._items_processed}")
        parts.append(f"total_messages={self.total_messages}")
        return f"{type(self).__name__}({', '.join(parts)})"

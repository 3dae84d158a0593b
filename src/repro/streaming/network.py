"""Simulated communication substrate with message accounting.

The paper measures protocols by the *number of messages* exchanged between the
sites and the coordinator, "where each message is a row of length d, the same
as the input stream" (Section 5), and by the number of scalar/vector messages
for the matrix protocols (Section 6 metrics).  This module provides that
accounting as a first-class object so every protocol reports communication in
exactly the paper's units:

* :class:`MessageKind` distinguishes scalar messages (a single number such as
  a weight total), vector messages (one element or one row/direction), and
  broadcast messages (coordinator to all sites).
* :class:`CommunicationLog` records every transmission with its direction and
  unit count and exposes aggregate counters.
* :class:`Network` wires ``m`` site endpoints and a coordinator endpoint to a
  shared log.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from ..utils.declared import Declared
from ..utils.validation import check_positive_int

__all__ = ["MessageKind", "Direction", "MessageRecord", "CommunicationLog", "Network"]


class MessageKind(str, enum.Enum):
    """The unit type of a transmission, following the paper's accounting."""

    SCALAR = "scalar"
    VECTOR = "vector"
    SUMMARY = "summary"
    BROADCAST = "broadcast"


class Direction(str, enum.Enum):
    """Direction of a transmission relative to the coordinator."""

    SITE_TO_COORDINATOR = "site_to_coordinator"
    COORDINATOR_TO_SITE = "coordinator_to_site"


@dataclass(frozen=True)
class MessageRecord:
    """One logged transmission."""

    direction: Direction
    kind: MessageKind
    site: Optional[int]
    units: int
    sequence: int
    description: str = ""


@dataclass
class CommunicationLog(Declared):
    """Aggregated message counters plus (optionally) the full record list.

    A log restored from its declared state resumes with identical counters,
    sequence numbers and (when enabled) record list, so message accounting
    continues bit-identically.

    Parameters
    ----------
    keep_records:
        If True every transmission is retained in :attr:`records`; protocols
        disable this for long runs to keep memory bounded.
    """

    STATE = {"sequence": "_sequence", "transmissions": "_transmissions"}

    keep_records: bool = False
    records: List[MessageRecord] = field(default_factory=list)
    _sequence: int = 0
    _units_by_kind: Dict[MessageKind, int] = field(default_factory=dict)
    _units_by_direction: Dict[Direction, int] = field(default_factory=dict)
    _transmissions: int = 0

    def record(self, direction: Direction, kind: MessageKind, units: int,
               site: Optional[int] = None, description: str = "") -> None:
        """Log one transmission of ``units`` message units."""
        if units < 0:
            raise ValueError(f"units must be non-negative, got {units}")
        if units == 0:
            return
        self._sequence += 1
        self._transmissions += 1
        self._units_by_kind[kind] = self._units_by_kind.get(kind, 0) + units
        self._units_by_direction[direction] = (
            self._units_by_direction.get(direction, 0) + units
        )
        if self.keep_records:
            self.records.append(
                MessageRecord(
                    direction=direction,
                    kind=kind,
                    site=site,
                    units=units,
                    sequence=self._sequence,
                    description=description,
                )
            )

    def record_batch(self, direction: Direction, kind: MessageKind, count: int,
                     units_per_message: int = 1, site: Optional[int] = None,
                     description: str = "") -> None:
        """Log ``count`` messages of ``units_per_message`` units each.

        Exactly equivalent to calling :meth:`record` ``count`` times with the
        same arguments — every counter (units by kind and direction, the
        transmission count, the sequence numbers and, when ``keep_records``
        is on, the record list) advances identically — but the aggregate
        counters are bumped in O(1) instead of O(count), which is what the
        vectorized protocol kernels need when a batch triggers many
        homogeneous sends.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if units_per_message < 0:
            raise ValueError(
                f"units_per_message must be non-negative, got {units_per_message}"
            )
        if count == 0 or units_per_message == 0:
            return
        total_units = count * units_per_message
        self._units_by_kind[kind] = self._units_by_kind.get(kind, 0) + total_units
        self._units_by_direction[direction] = (
            self._units_by_direction.get(direction, 0) + total_units
        )
        self._transmissions += count
        if self.keep_records:
            for _ in range(count):
                self._sequence += 1
                self.records.append(
                    MessageRecord(
                        direction=direction,
                        kind=kind,
                        site=site,
                        units=units_per_message,
                        sequence=self._sequence,
                        description=description,
                    )
                )
        else:
            self._sequence += count

    # ------------------------------------------------------------- aggregates
    @property
    def total_messages(self) -> int:
        """Total message units exchanged in both directions."""
        return sum(self._units_by_kind.values())

    @property
    def total_transmissions(self) -> int:
        """Number of logged transmissions (batched messages count once)."""
        return self._transmissions

    @property
    def upstream_messages(self) -> int:
        """Units sent from sites to the coordinator."""
        return self._units_by_direction.get(Direction.SITE_TO_COORDINATOR, 0)

    @property
    def downstream_messages(self) -> int:
        """Units sent from the coordinator to sites (broadcasts included)."""
        return self._units_by_direction.get(Direction.COORDINATOR_TO_SITE, 0)

    def messages_of_kind(self, kind: MessageKind) -> int:
        """Units of a particular :class:`MessageKind`."""
        return self._units_by_kind.get(kind, 0)

    def as_dict(self) -> Dict[str, int]:
        """Return the counters as a plain dictionary (useful for reports)."""
        summary = {f"kind_{kind.value}": units for kind, units in self._units_by_kind.items()}
        summary["total_messages"] = self.total_messages
        summary["upstream_messages"] = self.upstream_messages
        summary["downstream_messages"] = self.downstream_messages
        summary["total_transmissions"] = self.total_transmissions
        return summary

    def __iter__(self) -> Iterator[MessageRecord]:
        return iter(self.records)

    # ------------------------------------------------------------ checkpoint
    def state_dict(self) -> Dict[str, Any]:
        """Also units by kind and direction value, and one ``(direction,
        kind, site, units, sequence, description)`` row per kept record."""
        return {
            **super().state_dict(),
            "units_by_kind": {kind.value: units
                              for kind, units in self._units_by_kind.items()},
            "units_by_direction": {
                direction.value: units
                for direction, units in self._units_by_direction.items()},
            "records": [(record.direction.value, record.kind.value,
                         record.site, record.units, record.sequence,
                         record.description) for record in self.records],
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        super().load_state_dict(state)
        self._units_by_kind = {MessageKind(kind): units for kind, units
                               in state["units_by_kind"].items()}
        self._units_by_direction = {
            Direction(direction): units
            for direction, units in state["units_by_direction"].items()}
        self.records = [
            MessageRecord(Direction(direction), MessageKind(kind), site,
                          units, sequence, description)
            for direction, kind, site, units, sequence, description
            in state["records"]]


class Network:
    """Star network connecting ``num_sites`` sites to one coordinator.

    All transmissions are routed through :attr:`log`, which performs the
    message accounting and holds the network's whole checkpointed state.
    """

    def __init__(self, num_sites: int, keep_records: bool = False):
        self._num_sites = check_positive_int(num_sites, name="num_sites")
        self.log = CommunicationLog(keep_records=keep_records)

    @property
    def num_sites(self) -> int:
        """Number of sites ``m``."""
        return self._num_sites

    def _check_site(self, site: int) -> int:
        if not 0 <= site < self._num_sites:
            raise ValueError(f"site index {site} out of range [0, {self._num_sites})")
        return site

    # ----------------------------------------------------------- site uplink
    def send_scalar(self, site: int, description: str = "", units: int = 1) -> None:
        """Record a scalar message (e.g. a weight total) from ``site``."""
        self.log.record(Direction.SITE_TO_COORDINATOR, MessageKind.SCALAR, units,
                        site=self._check_site(site), description=description)

    def send_vector(self, site: int, description: str = "", units: int = 1) -> None:
        """Record ``units`` vector messages (elements or rows) from ``site``."""
        self.log.record(Direction.SITE_TO_COORDINATOR, MessageKind.VECTOR, units,
                        site=self._check_site(site), description=description)

    def send_summary(self, site: int, units: int, description: str = "") -> None:
        """Record a summary transmission counted as ``units`` message units."""
        self.log.record(Direction.SITE_TO_COORDINATOR, MessageKind.SUMMARY, units,
                        site=self._check_site(site), description=description)

    def send_batch(self, site: int, count: int,
                   kind: MessageKind = MessageKind.VECTOR,
                   units_per_message: int = 1, description: str = "") -> None:
        """Record ``count`` uplink messages from ``site`` in one accounting step.

        The batched counterpart of calling :meth:`send_scalar` /
        :meth:`send_vector` ``count`` times: ``total_messages``,
        ``message_counts()`` (units by kind/direction *and* the transmission
        count) and — when records are kept — the per-message log all match
        the per-item send loop exactly.  Used by the vectorized
        ``process_batch`` kernels when one site batch triggers many
        homogeneous transmissions.
        """
        self.log.record_batch(
            Direction.SITE_TO_COORDINATOR, kind, count,
            units_per_message=units_per_message,
            site=self._check_site(site), description=description,
        )

    # ------------------------------------------------------- coordinator side
    def broadcast(self, description: str = "", units_per_site: int = 1) -> None:
        """Record a broadcast from the coordinator to all sites."""
        self.log.record(Direction.COORDINATOR_TO_SITE, MessageKind.BROADCAST,
                        units_per_site * self._num_sites, description=description)

    # --------------------------------------------------------------- metrics
    @property
    def total_messages(self) -> int:
        """Total message units exchanged so far."""
        return self.log.total_messages

    def message_counts(self) -> Dict[str, int]:
        """Return the aggregate counters of the underlying log."""
        return self.log.as_dict()

    def __repr__(self) -> str:
        return f"Network(num_sites={self._num_sites}, total_messages={self.total_messages})"

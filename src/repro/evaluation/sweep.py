"""Parameter sweeps: run a set of protocols over a grid of one setting.

Every figure of the paper is a sweep of one parameter (``ε``, the number of
sites ``m``, the weight bound ``β``) for a fixed set of protocols, with one
of the Section 6 metrics on the y axis:

```
sweep = ParameterSweep(parameter="epsilon", values=[5e-3, 1e-2, 5e-2])
results = sweep.run(protocol_factories, run_one)
```

``protocol_factories`` maps protocol labels to callables receiving the swept
value; ``run_one`` feeds a stream into the constructed protocol and returns a
metrics dictionary.  The output is a :class:`SweepResult` that can be turned
into per-protocol series (for figures) or flat rows (for tables).
:mod:`repro.evaluation.figures` drives every table and figure through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Sequence

__all__ = ["SweepRecord", "SweepResult", "ParameterSweep"]


@dataclass(frozen=True)
class SweepRecord:
    """One (protocol, parameter value) cell of a sweep."""

    protocol: str
    parameter: str
    value: Any
    metrics: Dict[str, Any]


@dataclass
class SweepResult:
    """All records of one sweep, with helpers to reshape them."""

    parameter: str
    records: List[SweepRecord] = field(default_factory=list)

    def protocols(self) -> List[str]:
        """Protocol labels present in the sweep, in first-seen order."""
        return list(dict.fromkeys(record.protocol for record in self.records))

    def values(self) -> List[Any]:
        """Swept parameter values, in first-seen order."""
        return list(dict.fromkeys(record.value for record in self.records))

    def series(self, metric: str) -> Dict[str, List[Any]]:
        """Return ``{protocol: [metric at each swept value]}`` (a figure's lines)."""
        output: Dict[str, List[Any]] = {name: [] for name in self.protocols()}
        for value in self.values():
            for protocol in output:
                cell = self.lookup(protocol, value)
                output[protocol].append(cell.metrics.get(metric) if cell else None)
        return output

    def lookup(self, protocol: str, value: Any) -> SweepRecord:
        """Return the record for one (protocol, value) cell, or ``None``."""
        for record in self.records:
            if record.protocol == protocol and record.value == value:
                return record
        return None

    def rows(self) -> List[Dict[str, Any]]:
        """Flatten the sweep into table rows (the sweep's label and value win)."""
        return [{**record.metrics, "protocol": record.protocol,
                 self.parameter: record.value} for record in self.records]


class ParameterSweep:
    """Sweep one parameter over a list of values for several protocols.

    Parameters
    ----------
    parameter:
        Name of the swept parameter (used for reporting only).
    values:
        The values to sweep over, in order.
    """

    def __init__(self, parameter: str, values: Sequence[Any]):
        if not parameter:
            raise ValueError("parameter name must be non-empty")
        if not values:
            raise ValueError("values must be a non-empty sequence")
        self._parameter = parameter
        self._values = list(values)

    def run(
        self,
        protocol_factories: Mapping[str, Callable[[Any], Any]],
        run_one: Callable[[Any, Any], Dict[str, Any]],
    ) -> SweepResult:
        """Execute the sweep.

        Parameters
        ----------
        protocol_factories:
            Maps protocol labels to callables ``value -> protocol`` building a
            fresh protocol configured for the swept value.
        run_one:
            Callable ``(protocol, value) -> metrics dict`` that feeds the
            workload into the protocol and evaluates it.
        """
        result = SweepResult(parameter=self._parameter)
        for value in self._values:
            for name, factory in protocol_factories.items():
                protocol = factory(value)
                metrics = run_one(protocol, value)
                result.records.append(
                    SweepRecord(protocol=name, parameter=self._parameter,
                                value=value, metrics=dict(metrics))
                )
        return result

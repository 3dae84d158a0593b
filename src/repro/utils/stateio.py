"""The versioned ``get_state`` / ``set_state`` contract.

Checkpoint/resume (``repro.api.state``) needs every stateful component —
protocols, sketches, the network/communication log, partitioners and the
per-site RNG streams — to expose its complete state in a way that can be
captured mid-stream and installed into a fresh instance such that the
restored object continues *bit-identically*: same messages, same seeded
draws, same query answers as an object that never stopped.

The contract is the :class:`Stateful` mixin:

* ``get_state()`` returns ``{"cls", "state_version", "component_versions",
  "data"}`` where ``data`` is a (by default deep-copied) snapshot of the
  instance dictionary.  Deep-copying captures nested components (site
  states, sketches, the network and its log) and
  ``numpy.random.Generator`` objects exactly — NumPy generators deep-copy
  and pickle with their full bit-generator state, which is what makes
  restored randomized protocols replay the identical coin flips.
* ``set_state(state)`` validates the class tag, the object's own
  ``state_version`` *and* the recorded version of every nested
  :class:`Stateful` component (sketches inside site states, the network,
  …), then installs the captured data.
* :func:`restore_object` rebuilds an instance from a state dictionary alone
  (``cls.__new__`` + ``set_state``), which is how checkpoints are loaded.

Versioning: each class carries a ``state_version`` class attribute (bump it
whenever the meaning of the instance dictionary changes incompatibly).
``get_state`` records the version of every Stateful object reachable from
the instance dictionary, and ``set_state`` refuses the state if any of
those classes has since moved on — so a stale checkpoint fails loudly even
when only a nested component changed, instead of resuming with garbage.

The ``copy=False`` variants skip the defensive deep copies for callers that
immediately serialize the snapshot (or installed state) and hold no other
reference to it — the checkpoint file paths in :mod:`repro.api.state` —
halving the work and peak memory of save/load on large sessions.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List, Tuple

import numpy as np

__all__ = ["StateError", "Stateful", "restore_object"]


class StateError(ValueError):
    """A state dictionary cannot be installed into the target object."""


#: Instance attributes earlier builds kept and this one no longer has:
#: :meth:`Stateful.set_state` drops them, so those checkpoints still resume
#: (the protocols' exact-truth accumulators, retired without a version bump).
_RETIRED_KEYS = ("_observed_covariance", "_observed_squared_frobenius", "_observed_weight")

#: Exact types that can hold no :class:`Stateful`: the component walk skips
#: them before any bookkeeping (they are most of what a state holds).
_LEAF_TYPES = frozenset({type(None), bool, int, float, complex, str, bytes,
                         np.ndarray, *np.sctypeDict.values()})


def _collect_component_versions(value: Any) -> Dict[type, int]:
    """Map every :class:`Stateful` class reachable from ``value`` to its
    ``state_version`` at capture time.

    Walks plain containers and object instance dictionaries (site-state
    holders, dataclasses); leaves (arrays, generators, scalars) have no
    ``__dict__`` and terminate the walk.
    """
    found: Dict[type, int] = {}
    seen = set()
    stack: List[Any] = [value]
    while stack:
        current = stack.pop()
        if type(current) in _LEAF_TYPES:
            continue
        identity = id(current)
        if identity in seen:
            continue
        seen.add(identity)
        if isinstance(current, Stateful):
            found[type(current)] = type(current).state_version
        if isinstance(current, dict):
            stack.extend(current.values())
        elif isinstance(current, (list, tuple, set, frozenset)):
            stack.extend(current)
        else:
            attributes = getattr(current, "__dict__", None)
            if attributes:
                stack.extend(attributes.values())
    return found


class Stateful:
    """Mixin providing the versioned ``get_state``/``set_state`` contract."""

    #: Bump when the layout of the instance dictionary changes incompatibly.
    state_version: int = 1

    def get_state(self, copy_data: bool = True) -> Dict[str, Any]:
        """Capture the complete instance state as a tagged dictionary.

        With the default ``copy_data=True`` the returned dictionary owns
        deep copies of all mutable state, so the live object can keep
        running without disturbing the snapshot.  ``copy_data=False``
        references the live state directly — only for callers that
        serialize it immediately (e.g. straight into ``pickle.dump``).
        """
        data = self.__dict__
        components = _collect_component_versions(data)
        components[type(self)] = type(self).state_version
        return {
            "cls": type(self),
            "state_version": self.state_version,
            "component_versions": tuple(components.items()),
            "data": copy.deepcopy(data) if copy_data else data,
        }

    def set_state(self, state: Dict[str, Any], copy_data: bool = True) -> None:
        """Install a state previously captured by :meth:`get_state`.

        Raises :class:`StateError` when ``state`` was captured from a
        different class, an incompatible ``state_version``, or when any
        nested component class has changed its version since capture.
        ``copy_data=False`` installs the captured data without a defensive
        copy — only for states freshly deserialized and owned solely by the
        caller (restoring the same in-memory state twice with
        ``copy_data=False`` would alias live state between the instances).
        """
        if not isinstance(state, dict) or "data" not in state:
            raise StateError(
                f"not a get_state() dictionary: {type(state).__name__}"
            )
        captured_cls = state.get("cls")
        if captured_cls is not type(self):
            captured = getattr(captured_cls, "__name__", captured_cls)
            raise StateError(
                f"state was captured from {captured!r}, cannot install into "
                f"{type(self).__name__}"
            )
        captured_version = state.get("state_version")
        if captured_version != self.state_version:
            raise StateError(
                f"{type(self).__name__} state version mismatch: captured "
                f"{captured_version!r}, this build expects {self.state_version}"
            )
        for component_cls, version in state.get("component_versions", ()):
            current = getattr(component_cls, "state_version", None)
            if current != version:
                raise StateError(
                    f"nested component {component_cls.__name__} was captured "
                    f"at state version {version!r} but this build expects "
                    f"{current!r}"
                )
        data = {key: value for key, value in state["data"].items()
                if key not in _RETIRED_KEYS}
        self.__dict__.clear()
        self.__dict__.update(copy.deepcopy(data) if copy_data else data)


def restore_object(state: Dict[str, Any], copy_data: bool = True) -> Any:
    """Rebuild an instance from a :meth:`Stateful.get_state` dictionary.

    The class is taken from the state's ``cls`` tag; ``__init__`` is skipped
    (the captured instance dictionary is complete) and :meth:`set_state`
    performs the tag/version validation.  ``copy_data`` is forwarded to
    :meth:`Stateful.set_state`.
    """
    if not isinstance(state, dict) or "cls" not in state:
        raise StateError("not a get_state() dictionary")
    cls = state["cls"]
    if not (isinstance(cls, type) and issubclass(cls, Stateful)):
        raise StateError(f"state class tag {cls!r} is not a Stateful type")
    instance = cls.__new__(cls)
    instance.set_state(state, copy_data=copy_data)
    return instance

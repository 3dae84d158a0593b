"""Declared checkpoint state: plain values under names a class declares."""

from __future__ import annotations

from typing import Any, Dict, Iterator, Tuple

__all__ = ["Declared"]


class Declared:
    """A component whose checkpoint is a tree of plain values.

    Each class in the MRO may declare ``STATE``: checkpoint name → attribute
    holding a plain value (a number, a string, an array, or a container of
    those) or a nested :class:`Declared` component, whose own tree nests.
    A class overrides :meth:`state_dict` and :meth:`load_state_dict`,
    calling ``super()``, only for the values it converts (element-keyed
    maps, generators).  Renaming an attribute edits its entry, never a
    checkpoint.
    """

    STATE: Dict[str, str] = {}

    def _declared(self) -> Iterator[Tuple[str, str]]:
        for cls in type(self).__mro__:
            yield from vars(cls).get("STATE", {}).items()

    def state_dict(self) -> Dict[str, Any]:
        """The declared values; live references, so encode them at once."""
        return {name: _tree(getattr(self, attribute))
                for name, attribute in self._declared()}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Install a :meth:`state_dict` into a component built from the same
        parameters (which then owns the tree)."""
        for name, attribute in self._declared():
            component = getattr(self, attribute, None)
            if isinstance(component, Declared):
                component.load_state_dict(state[name])
            else:
                setattr(self, attribute, state[name])


def _tree(value: Any) -> Any:
    return value.state_dict() if isinstance(value, Declared) else value

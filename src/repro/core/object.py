"""The B2BObject interface (Figure 4).

The application programmer implements :class:`B2BObject` — either by
writing a new object that combines application logic with the interface,
by extending an existing object, or by wrapping one (see
:mod:`repro.core.wrapper`).  The middleware calls back into the object
for state capture (``get_state``/``get_update``), state installation
(``apply_state``/``apply_update``), application-specific validation
(``validate_*``) and asynchronous completion (``coord_callback``).

States and updates must be canonically encodable (dicts/lists/str/int/
bytes/bool/None) so they can be hashed, signed and transferred.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.protocol.validation import Decision

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.controller import B2BObjectController


class B2BObject:
    """Application-side interface to a shared object."""

    def __init__(self) -> None:
        self._controller: "Optional[B2BObjectController]" = None

    # -- wiring ---------------------------------------------------------

    def set_controller(self, controller: "B2BObjectController") -> None:
        """Called by the middleware when the object is registered."""
        self._controller = controller

    # -- state capture and installation ---------------------------------

    def get_state(self) -> Any:
        """Return a canonical-encodable snapshot of the object state."""
        raise NotImplementedError

    def apply_state(self, state: Any) -> None:
        """Install a validated (or rolled-back) state on this replica."""
        raise NotImplementedError

    def get_update(self) -> Any:
        """Return the pending update for update-mode coordination.

        Called at the final ``leave`` of an ``update``-scoped access.  The
        default derives a key-level diff for dict-shaped states; objects
        with richer state models override this.
        """
        raise NotImplementedError(
            "get_update must be implemented for update-mode coordination"
        )

    def merge_update(self, state: Any, update: Any) -> Any:
        """Pure computation of ``state after update`` (section 4.3.1).

        Recipients use this to verify that an agreed update produces the
        proposer's claimed new state, so it must be deterministic and
        side-effect free.  The default merges dict updates into dict
        states.
        """
        if isinstance(state, dict) and isinstance(update, dict):
            merged = dict(state)
            merged.update(update)
            return merged
        raise TypeError("default merge_update requires dict states and updates")

    # -- validation upcalls ----------------------------------------------

    def validate_state(self, proposed: Any, current: Any, proposer: str) -> Decision:
        """Local policy decision on a proposed state overwrite."""
        return Decision.accept()

    def validate_update(self, update: Any, resulting: Any, current: Any,
                        proposer: str) -> Decision:
        """Local policy decision on a proposed update (defaults to
        validating the resulting state)."""
        return self.validate_state(resulting, current, proposer)

    def validate_connect(self, subject: str, members: "list[str]") -> Decision:
        """Local policy decision on admitting *subject*."""
        return Decision.accept()

    def validate_disconnect(self, subject: str, voluntary: bool,
                            proposer: str) -> Decision:
        """Local policy decision on a departure/eviction."""
        return Decision.accept()

    # -- notifications ----------------------------------------------------

    def coord_callback(self, event: Any) -> None:
        """Progress/completion notification (asynchronous mode)."""


class DictB2BObject(B2BObject):
    """A ready-made B2BObject whose state is a flat dictionary.

    Mirrors the get/setAttribute example of section 5: convenient for
    tests, examples and simple applications.
    """

    def __init__(self, initial: "dict | None" = None) -> None:
        super().__init__()
        self._attributes: dict = dict(initial or {})
        self._dirty: dict = {}

    def get_state(self) -> dict:
        return dict(self._attributes)

    def apply_state(self, state: Any) -> None:
        if not isinstance(state, dict):
            raise TypeError("DictB2BObject state must be a dict")
        self._attributes = dict(state)
        self._dirty = {}

    def get_update(self) -> dict:
        return dict(self._dirty)

    def set_attribute(self, name: str, value: Any) -> None:
        self._attributes[name] = value
        self._dirty[name] = value

    def get_attribute(self, name: str, default: Any = None) -> Any:
        return self._attributes.get(name, default)

    def attributes(self) -> dict:
        return dict(self._attributes)

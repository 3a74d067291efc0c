"""Tagged event labels for networked DES models.

Every event carries a role that says where it lives in the architecture:
a plant event, its channel-entry / channel-exit copies, the compromised
copy injected by the attacker, command events and their channel copies,
plus the global clock event ``tick`` and the attacker's ``stop``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

PLAIN = "plain"
IN = "in"
COMPROMISED = "compromised"
OUT = "out"
COMMAND = "command"
COMMAND_IN = "command-in"
COMMAND_OUT = "command-out"
TICK = "tick"
STOP = "stop"

ROLES = (PLAIN, IN, COMPROMISED, OUT, COMMAND, COMMAND_IN, COMMAND_OUT, TICK, STOP)

_BARE_ROLES = (TICK, STOP)

_ROLE_RANK = {role: i for i, role in enumerate(ROLES)}


class EventError(ValueError):
    """Raised for malformed event labels or unknown spellings."""


@dataclass(frozen=True, order=False)
class EventLabel:
    """An event name plus the role it plays in the networked loop."""

    base: Optional[str]
    role: str

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise EventError(f"unknown event role {self.role!r}")
        if self.role in _BARE_ROLES:
            if self.base is not None:
                raise EventError(f"{self.role} carries no base name")
        else:
            if not self.base:
                raise EventError(f"role {self.role!r} requires a base name")
        # labels key every successor map; hash the fields once, not per lookup
        object.__setattr__(self, "_hash", hash((self.base, self.role)))

    def __hash__(self) -> int:
        return self._hash

    def spell(self) -> str:
        """Render in the text-format spelling (``x``, ``x_in``, ``x#`` ...)."""
        if self.role == TICK:
            return "tick"
        if self.role == STOP:
            return "stop"
        assert self.base is not None
        if self.role in (PLAIN, COMMAND):
            return self.base
        if self.role in (IN, COMMAND_IN):
            return self.base + "_in"
        if self.role in (OUT, COMMAND_OUT):
            return self.base + "_out"
        return self.base + "#"  # compromised

    def sort_key(self) -> tuple:
        return (self.base or "", _ROLE_RANK[self.role])

    def __lt__(self, other: "EventLabel") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        return f"E({self.spell()})"


def plant(name: str) -> EventLabel:
    return EventLabel(name, PLAIN)


def entry(name: str) -> EventLabel:
    return EventLabel(name, IN)


def compromised(name: str) -> EventLabel:
    return EventLabel(name, COMPROMISED)


def exit_(name: str) -> EventLabel:
    return EventLabel(name, OUT)


def command(name: str) -> EventLabel:
    return EventLabel(name, COMMAND)


def command_entry(name: str) -> EventLabel:
    return EventLabel(name, COMMAND_IN)


def command_exit(name: str) -> EventLabel:
    return EventLabel(name, COMMAND_OUT)


tick = EventLabel(None, TICK)
stop = EventLabel(None, STOP)


def parse_spelling(token: str, role: Optional[str] = None) -> EventLabel:
    """Decode a spelled event, optionally checked against a declared role.

    Without a role the spelling alone is ambiguous between plant and command
    families (``v`` could be either), so the plant family wins; alphabet
    declarations always carry the role and resolve this.
    """
    if token == "tick":
        label = tick
    elif token == "stop":
        label = stop
    elif token.endswith("#"):
        label = compromised(token[:-1])
    elif token.endswith("_in"):
        base = token[: -len("_in")]
        label = command_entry(base) if role == COMMAND_IN else entry(base)
    elif token.endswith("_out"):
        base = token[: -len("_out")]
        label = command_exit(base) if role == COMMAND_OUT else exit_(base)
    else:
        label = command(token) if role == COMMAND else plant(token)
    if role is not None and label.role != role:
        raise EventError(f"spelling {token!r} does not match role {role!r}")
    if not label.base and label.role not in _BARE_ROLES:
        raise EventError(f"empty base name in spelling {token!r}")
    return label


def sorted_events(events: Iterable[EventLabel]) -> list[EventLabel]:
    return sorted(events, key=EventLabel.sort_key)

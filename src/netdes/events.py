"""Tagged event labels for networked DES models.

Every event carries a role that says where it lives in the architecture:
a plant event, its channel-entry / channel-exit copies, the compromised
copy injected by the attacker, command events and their channel copies,
plus the global clock event ``tick`` and the attacker's ``stop``.

``SUFFIXES`` declares the text spelling once: a role with a base is spelled
as the base plus its suffix (``x``, ``x_in``, ``x#``, ``x_out``), ``tick``
and ``stop`` as their role names; its order, then theirs, is the label order.
A plant event and a command share their suffixes, so a spelling alone does
not say which role it is: ``parse_spelling`` reads a token only together
with the role it declares.

Labels are hash-consed: there is one ``EventLabel`` object per (base, role)
pair in a process, so ``==`` is ``is`` and a label hashes by its address.
Nothing may depend on the iteration order of a set or dict keyed by labels;
every output sorts them by ``sort_key`` first.
"""
from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

PLAIN = "plain"
IN = "in"
COMPROMISED = "compromised"
OUT = "out"
COMMAND = "command"
COMMAND_IN = "command-in"
COMMAND_OUT = "command-out"
TICK = "tick"
STOP = "stop"

SUFFIXES = {PLAIN: "", IN: "_in", COMPROMISED: "#", OUT: "_out",
            COMMAND: "", COMMAND_IN: "_in", COMMAND_OUT: "_out"}

ROLES = (*SUFFIXES, TICK, STOP)

_ENDINGS = tuple(suffix for suffix in SUFFIXES.values() if suffix)

_ROLE_RANK = {role: i for i, role in enumerate(ROLES)}


class EventError(ValueError):
    """Raised for malformed event labels or unknown spellings."""


_INTERNED: Dict[Tuple[Optional[str], str], "EventLabel"] = {}


class EventLabel:
    """An event name plus the role it plays in the networked loop.

    Labels are interned: ``EventLabel(base, role)`` returns the one instance
    for that pair, validating it only when it is first created. Equality and
    hashing are therefore by identity and run in C, and a label is immutable;
    copying or unpickling one yields the interned instance.
    """

    __slots__ = ("base", "role", "_key")

    def __new__(cls, base: Optional[str], role: str) -> "EventLabel":
        label = _INTERNED.get((base, role))
        if label is not None:
            return label
        if role not in ROLES:
            raise EventError(f"unknown event role {role!r}")
        if role not in SUFFIXES:
            if base is not None:
                raise EventError(f"{role} carries no base name")
        elif not base:
            raise EventError(f"role {role!r} requires a base name")
        label = object.__new__(cls)
        object.__setattr__(label, "base", base)
        object.__setattr__(label, "role", role)
        object.__setattr__(label, "_key", (base or "", _ROLE_RANK[role]))
        _INTERNED[base, role] = label
        return label

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"event labels are immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"event labels are immutable: cannot delete {name!r}")

    def __reduce__(self):
        return EventLabel, (self.base, self.role)

    def spell(self) -> str:
        """Render in the text-format spelling (``x``, ``x_in``, ``x#`` ...)."""
        return self.role if self.base is None else self.base + SUFFIXES[self.role]

    def sort_key(self) -> tuple:
        return self._key

    def __lt__(self, other: "EventLabel") -> bool:
        return self._key < other._key

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


def parse_spelling(token: str, role: str) -> EventLabel:
    """Decode ``token``, spelled as its declared ``role``: the inverse of
    ``EventLabel.spell``. The base is what the role's suffix leaves, and it
    must be ``spellable``; ``tick`` and ``stop`` are spelled as their role.
    A token that its label does not spell back is an EventError."""
    suffix = SUFFIXES.get(role)
    label = EventLabel(None if suffix is None else token.removesuffix(suffix), role)
    if label.spell() != token or label.base is not None and not spellable(label.base):
        raise EventError(f"spelling {token!r} does not match role {role!r}")
    return label


def spellable(name: str) -> bool:
    """Whether ``name`` can be a model's event or command name: every
    spelling of it then parses back to it and its role. The spelling rules
    reserve ``tick``, ``stop`` and the endings in ``SUFFIXES``; the config
    format also reserves whitespace, which separates columns, ``#``
    anywhere, where a comment starts, and a leading ``[``, which starts a
    section; ``.alphabet`` reserves the ``:`` before a role.

    State names reserve ``,``: a channel, store or stage state is named by
    its ``(name,number)`` pairs, joined by ``,`` and held in braces or
    parentheses. A name without ``,`` ends at the first ``,`` after the
    ``(`` that opens its pair, and the number, a ``)`` and any ``^count``
    follow, so such a state name reads back to one value and no two values
    share one. With a ``,`` allowed, ``{(x,0),(y,0)}`` names both two
    messages and one message ``x,0),(y``."""
    return (bool(name) and name not in (TICK, STOP) and "#" not in name
            and ":" not in name and "," not in name and not name.endswith(_ENDINGS)
            and not name.startswith("[") and not any(map(str.isspace, name)))


def sorted_events(events: Iterable[EventLabel]) -> list[EventLabel]:
    return sorted(events, key=EventLabel.sort_key)

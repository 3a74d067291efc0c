"""Non-FIFO bounded-delay channel automata.

Both channels hold a bounded multiset of (message, remaining-delay) pairs.
A message enters with the channel's full delay bound attached; ``tick``
decrements every remaining delay and is blocked while any message is at
delay zero (it must leave first); any resident message may exit at any
time, which is what makes the channel non-FIFO and the automaton
nondeterministic. A channel state is an interned ``ChannelState``: one
immutable object per multiset, compared and hashed by identity.

Capacities come from the closed-form rate analysis: the observation channel
holds at most ``n_f * u * (delta_o + 1)`` messages and the control channel at
most ``n_f * u * v * (delta_o + delta_c + 1) + v * (delta_c + 1)``.
"""
from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from . import events as ev
from .automaton import Automaton, AutomatonError, Row, lazy_automaton, state_name
from .config import SystemConfig

Entry = Tuple[Tuple[str, int], int]  # ((message, delay), multiplicity)

_INTERNED: Dict[Tuple[Entry, ...], "ChannelState"] = {}


class ChannelState:
    """Canonical bounded multiset of (message, remaining-delay) pairs.

    Entries are kept sorted by (message, delay) with positive multiplicities,
    and states are interned by that entries tuple: equal multisets are
    identical objects, whichever of ``tick``, ``add``, ``remove`` or the
    constructor reached them. Equality and hashing are by identity, and a
    state is immutable; copying or unpickling one yields the interned one.
    """

    __slots__ = ("entries",)

    def __new__(cls, entries: Iterable[Entry] = ()) -> "ChannelState":
        cleaned = tuple(sorted((pair, m) for (pair, m) in entries if m > 0))
        state = _INTERNED.get(cleaned)
        if state is None:
            state = object.__new__(cls)
            object.__setattr__(state, "entries", cleaned)
            _INTERNED[cleaned] = state
        return state

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"channel states are immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"channel states are immutable: cannot delete {name!r}")

    def __reduce__(self):
        return ChannelState, (self.entries,)

    def __lt__(self, other: "ChannelState") -> bool:
        return self.entries < other.entries

    def canonical_name(self) -> str:
        if not self.entries:
            return "{}"
        parts = []
        for (msg, delay), mult in self.entries:
            suffix = f"^{mult}" if mult > 1 else ""
            parts.append(f"({msg},{delay}){suffix}")
        return "{" + ",".join(parts) + "}"

    def __repr__(self) -> str:
        return self.canonical_name()

    def total(self) -> int:
        return sum(m for _, m in self.entries)

    def has_zero_delay(self) -> bool:
        return any(delay == 0 for (_, delay), _ in self.entries)

    def tick(self) -> "ChannelState":
        return ChannelState((((msg, delay - 1), m) for (msg, delay), m in self.entries))

    def add(self, msg: str, delay: int) -> "ChannelState":
        out: Dict[Tuple[str, int], int] = dict(self.entries)
        out[(msg, delay)] = out.get((msg, delay), 0) + 1
        return ChannelState(out.items())

    def remove(self, msg: str, delay: int) -> "ChannelState":
        out: Dict[Tuple[str, int], int] = dict(self.entries)
        if out.get((msg, delay), 0) < 1:
            raise ValueError(f"no ({msg},{delay}) entry to remove")
        out[(msg, delay)] -= 1
        return ChannelState(out.items())

    def delays_of(self, msg: str) -> List[int]:
        return [delay for (m, delay), _ in self.entries if m == msg]


EMPTY_CHANNEL = ChannelState()


# -- capacity formulas ---------------------------------------------------

def capacity_observation(n_f: int, u: int, delta_o: int) -> int:
    return n_f * u * (delta_o + 1)


def capacity_control(n_f: int, u: int, v: int, delta_o: int, delta_c: int) -> int:
    return n_f * u * v * (delta_o + delta_c + 1) + v * (delta_c + 1)


def enumerate_channel_states(n_kinds: int, delta: int, capacity: int) -> int:
    """Number of bounded multisets over n_kinds messages and delays [0:delta].

    Geometric sum of multiset counts by size; the empty channel counts too,
    and is the only state when there are no message kinds.
    """
    if n_kinds < 0:
        raise ValueError("the number of message kinds must be nonnegative")
    if capacity < 0:
        raise ValueError("capacity must be nonnegative")
    base = n_kinds * (delta + 1)
    if base == 1:
        return capacity + 1
    return (base ** (capacity + 1) - 1) // (base - 1)


# -- channel construction --------------------------------------------------

def _build_channel(messages: List[str], delta: int, capacity: int,
                   in_label, out_label, name: str) -> Automaton:
    """The channel as a row function. Its rows list tick, which has no base,
    then per message (the base of its labels) its entry and its exit: label
    order."""
    plan = [(m, in_label(m), out_label(m)) for m in sorted(messages)]
    alphabet = [label for _m, *labels in plan for label in labels] + [ev.tick]

    def row(q: ChannelState) -> Row:
        out: Row = {} if q.has_zero_delay() else {ev.tick: (q.tick(),)}
        room = q.total() < capacity
        for m, enter, leave in plan:
            if room:
                out[enter] = (q.add(m, delta),)
            delays = q.delays_of(m)
            if len(delays) == 1:
                out[leave] = (q.remove(m, delays[0]),)
            elif delays:
                out[leave] = tuple(sorted((q.remove(m, d) for d in delays),
                                          key=state_name))
        return out

    return lazy_automaton(EMPTY_CHANNEL, alphabet, row, name=name)


def build_observation_channel(cfg: SystemConfig) -> Automaton:
    """Channel between the attack point and the supervisor.

    Uncompromised observables enter as plant sends (``x_in``); compromised
    ones enter only as attacker sends (``x#``); each exit yields one
    successor per distinct resident delay of that message.
    """
    capacity = capacity_observation(cfg.rates.n_f, cfg.rates.u, cfg.delta_o)
    sa = set(cfg.sigma_sa)

    def in_label(m: str):
        return ev.compromised(m) if m in sa else ev.entry(m)

    return _build_channel(cfg.sigma_o, cfg.delta_o, capacity,
                          in_label, ev.exit_, "OC")


def build_control_channel(cfg: SystemConfig) -> Automaton:
    capacity = capacity_control(cfg.rates.n_f, cfg.rates.u, cfg.rates.v,
                                cfg.delta_o, cfg.delta_c)
    return _build_channel(cfg.gamma, cfg.delta_c, capacity,
                          ev.command_entry, ev.command_exit, "CC")


def relabel_to_attack_free(oc: Automaton) -> Automaton:
    """The monitor's attack-free reference model, lazy: each row is ``oc``'s
    with ``x#`` and ``x_in`` rewritten to ``x``. Labels sort by base, then
    ``x`` before ``x_in`` before ``x#``, so the row stays in label order
    unless two labels of ``oc`` become one ``x``: that is rejected."""
    relabel = {label: label for label in oc.alphabet}
    for label in ev.sorted_events(oc.alphabet):
        if label.role in (ev.IN, ev.COMPROMISED):
            plain = ev.plant(label.base)
            if plain in relabel.values():  # in oc, or another's image
                raise AutomatonError(f"relabeling {label.spell()} to {plain.spell()} "
                                     f"would collide with another label")
            relabel[label] = plain
    delta = oc._delta
    return lazy_automaton(oc.initial, relabel.values(),
                          lambda q: {relabel[e]: dsts for e, dsts in delta[q].items()},
                          oc.is_marked, (oc.name or "OC") + "^T")

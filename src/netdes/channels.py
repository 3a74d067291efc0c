"""Non-FIFO bounded-delay channel automata.

Both channels hold a bounded multiset of (message, remaining-delay) pairs.
A message enters with the channel's full delay bound attached; ``tick``
decrements every remaining delay and is blocked while any message is at
delay zero (it must leave first); any resident message may exit at any
time, which is what makes the channel non-FIFO and the automaton
nondeterministic. A channel state is a ``ChannelState``: the sorted tuple of
its pairs, one pair per resident message, interned on ``PairState``, the
one hash-consing base that the plant's store and stage states use too.

``capacities`` is the one capacity table of the loop: per bounded part (OC,
CC and the plant's command store CS) its capacity and the closed-form count
of its states, from the rate analysis. The observation channel holds at
most ``n_f * u * (delta_o + 1)`` messages and the control channel at most
``n_f * u * v * (delta_o + delta_c + 1) + v * (delta_c + 1)``. The store
holds what the control channel delivers over ``delta_c + delta_s`` ticks:
the control channel's bound with ``delta_c + delta_s`` for ``delta_c``.
"""
from __future__ import annotations

import bisect
import math
from typing import Callable, Dict, FrozenSet, Hashable, Iterable, List, Tuple, Union

from . import events as ev
from .automaton import Automaton, Row, lazy_automaton, successor_tuple
from .config import SystemConfig


_NAMES: Dict[FrozenSet[str], FrozenSet[str]] = {}  # one object per set of names


class PairState:
    """A value made of (name, number) pairs, hash-consed: one immutable
    object per ``value``, compared and hashed by identity, however it was
    reached; copying or unpickling one returns the interned object. Each
    subclass sets ``_kind`` (pairs -> value) and its own ``_interned``
    table, and gives each state its name in ``canonical_name()``.
    ``names``, the set of names in the pairs, is computed once."""

    __slots__ = ("value", "names")
    _kind: Callable[[Iterable[Tuple[str, int]]], Hashable]
    _interned: Dict[object, "PairState"]

    def __new__(cls, pairs: Iterable[Tuple[str, int]] = ()):
        value = cls._kind(pairs)
        state = cls._interned.get(value)
        if state is None:
            state = cls._interned[value] = object.__new__(cls)
            names = frozenset(name for name, _n in value)
            object.__setattr__(state, "value", value)
            object.__setattr__(state, "names", _NAMES.setdefault(names, names))
        return state

    @classmethod
    def _of(cls, value: Hashable) -> "PairState":
        """The state of ``value``, given already as ``_kind`` makes it."""
        state = cls._interned.get(value)
        return cls(value) if state is None else state

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"component states are immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"component states are immutable: cannot delete {name!r}")

    def __reduce__(self):
        return type(self), (self.value,)

    def __repr__(self) -> str:
        return self.canonical_name()

    def tick(self):
        """Every number decremented."""
        return type(self)((name, n - 1) for name, n in self.value)


class ChannelState(PairState):
    """A channel's bounded multiset of (message, remaining-delay) pairs: the
    sorted tuple of its pairs, one per resident message."""

    __slots__ = ()
    _kind, _interned = staticmethod(lambda pairs: tuple(sorted(pairs))), {}

    def canonical_name(self) -> str:
        """``{(a,0),(a,1)^2}``: each distinct pair, with its multiplicity
        when above one. Equal pairs are adjacent, so each run is counted
        once and skipped."""
        value, parts, i = self.value, [], 0
        while i < len(value):
            msg, delay = pair = value[i]
            run = value.count(pair)
            parts.append(f"({msg},{delay})^{run}" if run > 1 else f"({msg},{delay})")
            i += run
        return "{" + ",".join(parts) + "}"

    def add(self, msg: str, delay: int) -> "ChannelState":
        value = self.value
        i = bisect.bisect(value, (msg, delay))
        return ChannelState._of(value[:i] + ((msg, delay),) + value[i:])

    def remove(self, msg: str, delay: int) -> "ChannelState":
        """The state with one ``(msg, delay)`` pair less; one must be
        resident (the channel's row takes a delay from ``delays_of``)."""
        value = self.value
        i = bisect.bisect_left(value, (msg, delay))
        return ChannelState._of(value[:i] + value[i + 1:])

    def delays_of(self, msg: str) -> List[int]:
        """The distinct delays of ``msg``'s resident copies, ascending."""
        return sorted({d for m, d in self.value if m == msg})


EMPTY_CHANNEL = ChannelState()


# -- the capacity table --------------------------------------------------

def enumerate_channel_states(n_kinds: int, delta: int, capacity: int) -> Union[int, str]:
    """Number of entry sequences of length at most ``capacity`` over n_kinds
    messages and delays [0:delta]: an upper bound on the multiset states.

    Geometric sum by length; the empty channel counts too, and is the only
    state when there are no message kinds. A count of 30 digits or more is
    given, unbuilt, as the text ``~10^D``, D its base-10 logarithm rounded down.
    All three arguments are nonnegative: ``capacities`` passes lengths and
    products of parameters that ``SystemConfig`` has checked.
    """
    base = n_kinds * (delta + 1)
    if base == 1:
        return capacity + 1
    if base > 1:
        digits = (capacity + 1) * math.log10(base) - math.log10(base - 1)
        if digits >= 29:
            return f"~10^{math.floor(digits)}"
    return (base ** (capacity + 1) - 1) // (base - 1)


def capacities(cfg: SystemConfig) -> List[Tuple[int, Union[int, str]]]:
    """(capacity, closed-form state count) of OC, CC and CS, in that order."""
    n_f, u, v = cfg.rates.n_f, cfg.rates.u, cfg.rates.v

    def control(delta: int) -> int:  # what CC delivers over ``delta`` ticks
        return n_f * u * v * (cfg.delta_o + delta + 1) + v * (delta + 1)

    parts = ((n_f * u * (cfg.delta_o + 1), len(cfg.sigma_o), cfg.delta_o),
             (control(cfg.delta_c), len(cfg.gamma), cfg.delta_c),
             (control(cfg.delta_c + cfg.delta_s), len(cfg.gamma), cfg.delta_s))
    return [(c, enumerate_channel_states(kinds, delta, c)) for c, kinds, delta in parts]


# -- channel construction --------------------------------------------------

def _build_channel(messages: List[str], delta: int, capacity: int,
                   in_label, out_label, name: str) -> Automaton:
    """The channel as a row function. Its rows list tick, which has no base,
    then per message (the base of its labels) its entry and its exit: label
    order."""
    plan = [(m, in_label(m), out_label(m)) for m in sorted(messages)]
    alphabet = [label for _m, *labels in plan for label in labels] + [ev.tick]

    def row(q: ChannelState) -> Row:
        value, resident = q.value, q.names
        out: Row = {ev.tick: (q.tick(),)} if all(d for _m, d in value) else {}
        room = len(value) < capacity
        for m, enter, leave in plan:
            if room:
                out[enter] = (q.add(m, delta),)
            if m in resident:
                out[leave] = successor_tuple([q.remove(m, d) for d in q.delays_of(m)])
        return out

    return lazy_automaton(EMPTY_CHANNEL, alphabet, row, name=name)


def build_observation_channel(cfg: SystemConfig) -> Automaton:
    """Channel between the attack point and the supervisor.

    Each observable enters under ``cfg.sent``: as a plant send (``x_in``),
    or only as an attacker send (``x#``) when compromised; each exit yields
    one successor per distinct resident delay of that message.
    """
    (capacity, _count), _cc, _cs = capacities(cfg)
    return _build_channel(cfg.sigma_o, cfg.delta_o, capacity, cfg.sent, ev.exit_, "OC")


def build_control_channel(cfg: SystemConfig) -> Automaton:
    _oc, (capacity, _count), _cs = capacities(cfg)
    return _build_channel(cfg.gamma, cfg.delta_c, capacity,
                          ev.command_entry, ev.command_exit, "CC")


def relabel_to_attack_free(oc: Automaton) -> Automaton:
    """The monitor's attack-free reference model, lazy: each row is ``oc``'s
    with ``x#`` and ``x_in`` rewritten to ``x``. Labels sort by base, then
    ``x`` before ``x_in`` before ``x#``, so the row stays in label order as
    long as no two labels of ``oc`` become one ``x``. None do in an OC built
    from a config: it holds one entry label (``cfg.sent``) per observable
    event and no plant label, and ``SystemConfig`` keeps names distinct."""
    relabel = {label: ev.plant(label.base) if label.role in (ev.IN, ev.COMPROMISED)
               else label for label in oc.alphabet}
    delta = oc._delta
    return lazy_automaton(oc.initial, relabel.values(),
                          lambda q: {relabel[e]: dsts for e, dsts in delta[q].items()},
                          oc.is_marked, (oc.name or "OC") + "^T")

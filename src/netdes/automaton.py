"""Finite-state automaton kernel.

Automata here are possibly nondeterministic, immutable once built, and safe
to share. States are opaque hashable identifiers; composite operations
(products, observers) produce canonical encodings (tuples, frozensets) so
results hash and compare deterministically. Every forward search goes
through one lazy breadth-first explorer over successor rows, ``explore``: a
lazy automaton's ``states`` are its discovery order, and synthesis and the
monitor read rows through it; ``number`` walks that order into arrays and
``predecessors``, from the initial state, into reverse edges. Unordered
closures use ``close_under``; the observer's closures go by whole
breadth-first layers, so where one stops does not depend on the order of a
set.

There is one automaton type, ``Automaton``, stored as successor rows. Its
constructor validates explicit states and transitions, the initial state
among them, so no automaton is empty; ``lazy_automaton`` gives an initial
state and a row function instead. Its rows are computed on first lookup
and kept by ``_Rows``, the one keeper of rows (which gives every kept edge
with one successor that state's one shared 1-tuple), and its states (in
the breadth-first order of its rows) and marked set are filled by one
exploration on first read. The loop's components, ``product`` and
``subset_construction`` are lazy, so a product over them builds only the
component rows it reaches, and ``compose`` is an explored ``product``.
``subset_construction`` is the one observer: its alphabet is the observed
events and it reads silent successors from the rows at each use, keeping
no table of its own; the monitor and the attack each complete its rows
once, in their own row functions. Synthesis gives it a stop predicate: an
estimate whose closure meets a stop state is ``STOPPED``.

Event labels, channel states and the plant assembly's store and stage
states are interned (``events``, ``channels``, ``plant``): equal values are
one object, compared and hashed by identity. Their set and
dict orders therefore follow addresses, so every order an output can see is
fixed here by label order (``sorted_events``) or by ``state_name`` (one
event's successors: ``successor_tuple``), never by iteration over a set.
"""
from __future__ import annotations

from array import array
from typing import (Any, Callable, Dict, FrozenSet, Hashable, Iterable, Iterator,
                    List, Optional, Sequence, Set, Tuple)

from .events import EventLabel, sorted_events

State = Hashable
Transition = Tuple[State, EventLabel, State]


class AutomatonError(ValueError):
    """Raised when an automaton or an operation argument is ill-formed."""


def state_name(q: State) -> str:
    """Canonical, whitespace-free rendering of a state identifier.

    Used both for serialization and as a total order on heterogeneous
    state types, so every composite encoding must render deterministically.
    """
    if isinstance(q, str):
        return q
    canon = getattr(q, "canonical_name", None)
    if canon is not None:
        return canon()
    if isinstance(q, tuple):
        return "(" + ",".join(state_name(x) for x in q) + ")"
    if isinstance(q, frozenset):
        return "{" + ",".join(sorted(state_name(x) for x in q)) + "}"
    return repr(q)


def successor_tuple(dsts: Sequence[State]) -> Tuple[State, ...]:
    """The successors of one state on one event, as a row holds them:
    repeats dropped and several in ``state_name`` order, the one order that
    breadth-first numbering, written files and witnesses depend on."""
    return tuple(dsts) if len(dsts) == 1 else tuple(sorted(set(dsts), key=state_name))


Row = Dict[EventLabel, Tuple[State, ...]]


class Automaton:
    """A 5-tuple (states, alphabet, transition relation, initial, marked).

    The relation is stored once, as rows: ``_delta[q]`` maps each event
    enabled at q, in label order, to its successors, several in
    ``state_name`` order. ``initial`` is always one of its states.

    The constructor validates its arguments and builds every row. An
    automaton made by ``lazy_automaton`` has a row function instead: a row
    is computed on its first lookup and kept, and ``states`` (breadth-first
    from the initial state) and ``marked`` are filled on first read. A
    lookup of a state no kept row leads to explores first, so a lazy
    automaton answers as its explored self does. ``transitions`` is built
    from the rows on each read. ``is_marked(q)`` answers for one state
    without exploring anything.
    """

    __slots__ = ("name", "alphabet", "initial", "states", "marked", "_delta",
                 "is_marked")

    def __init__(self, states: Iterable[State], alphabet: Iterable[EventLabel],
                 transitions: Iterable[Transition], initial: State,
                 marked: Iterable[State] = (), name: str = "") -> None:
        self.name = name
        self.states: Tuple[State, ...] = tuple(dict.fromkeys(states))
        self.alphabet: FrozenSet[EventLabel] = frozenset(alphabet)
        self.initial = initial
        self.marked: FrozenSet[State] = frozenset(marked)
        self.is_marked: Callable[[State], bool] = self.marked.__contains__

        # the successor map doubles as the set of declared states
        delta: Dict[State, Dict[EventLabel, Any]] = {q: {} for q in self.states}
        if initial not in delta:
            raise AutomatonError(f"initial state {state_name(initial)} not declared")
        for q in self.marked:
            if q not in delta:
                raise AutomatonError(f"marked state {state_name(q)} not declared")

        for (src, ev, dst) in transitions:
            succ = delta.get(src)
            if succ is None or dst not in delta:
                raise AutomatonError(f"transition references unknown state: "
                                     f"{state_name(src)} -{ev.spell()}-> {state_name(dst)}")
            if ev not in self.alphabet:
                raise AutomatonError(f"transition event {ev.spell()} not in alphabet")
            dsts = succ.get(ev)
            if dsts is None:
                succ[ev] = [dst]
            else:
                dsts.append(dst)
        rank = {e: r for r, e in enumerate(sorted_events(self.alphabet))}.__getitem__
        for q, succ in delta.items():
            delta[q] = {e: successor_tuple(succ[e]) for e in
                        (succ if len(succ) < 2 else sorted(succ, key=rank))}
        self._delta: Dict[State, Row] = delta

    def __getattr__(self, attr: str) -> Any:
        # reached only for unset slots: a lazy automaton's states and marked
        # set, each filled on its first read
        if attr == "states":
            self.states = self._delta.complete()
            return self.states
        if attr == "marked":
            is_marked = self.is_marked
            self.marked = frozenset(q for q in self.states if is_marked(q))
            return self.marked
        raise AttributeError(f"'Automaton' object has no attribute {attr!r}")

    # -- basic queries -------------------------------------------------

    @property
    def transitions(self) -> FrozenSet[Transition]:
        """The relation as (source, event, target) triples, built from the
        rows on each read."""
        delta = self._delta
        return frozenset((q, e, dst) for q in self.states
                         for e, dsts in delta[q].items() for dst in dsts)

    def __repr__(self) -> str:
        rows = self._delta  # a lazy automaton's rows so far: explore nothing
        size = (f"{len(rows)} rows computed" if getattr(rows, "row", None) is not None
                else f"{len(self.states)} states, {len(self.transitions)} transitions")
        return f"Automaton({self.name or '?'}: {size}, {len(self.alphabet)} events)"


class _Rows(dict):
    """State -> successor row, each computed by ``row(q)`` on its first
    lookup by ``[]`` and then kept; ``get`` and ``in`` compute nothing. A
    lookup of a state not yet discovered (the initial state or a successor in
    a kept row) completes the rows first, so it gets what the explored
    automaton gives: KeyError unless reachable. Complete, it is a plain dict.

    ``lone`` maps each state discovered so far to its one 1-tuple, and every
    kept row that leads to a state by one successor holds that tuple: an
    equal tuple, so no answer changes, and one object per state however many
    edges lead to it."""

    __slots__ = ("row", "initial", "lone")

    def __init__(self, initial: State, row: Callable[[State], Row]) -> None:
        super().__init__()
        self.row, self.initial = row, initial
        self.lone: Optional[Dict[State, Tuple[State]]] = {initial: (initial,)}

    def __missing__(self, q: State) -> Row:
        if self.row is None:
            raise KeyError(q)
        lone = self.lone
        if q not in lone:
            self.complete()
            return self[q]
        out = self[q] = self.row(q)
        for e, dsts in out.items():
            if len(dsts) == 1:
                shared = lone.setdefault(dsts[0], dsts)
                if shared is not dsts:
                    out[e] = shared
            else:
                for dst in dsts:
                    if dst not in lone:
                        lone[dst] = (dst,)
        return out

    def complete(self) -> Tuple[State, ...]:
        """The states reachable from the initial one, in the order of
        ``explore``, with every row computed; drops the row function and its
        caches."""
        order = tuple(q for q, _out in explore(self.initial, self.__getitem__))
        self.row = self.lone = None
        return order


def _unmarked(q: State) -> bool:
    """``lazy_automaton``'s default marking: nothing, as in a channel."""
    return False


def lazy_automaton(initial: State, alphabet: Iterable[EventLabel],
                   row: Callable[[State], Row],
                   is_marked: Callable[[State], bool] = _unmarked,
                   name: str = "") -> Automaton:
    """The automaton reachable from ``initial`` under the row function
    ``row`` (rows in the form of ``Automaton._delta``), marked where
    ``is_marked`` holds. Its ``states`` and ``marked`` are filled by one
    exploration on their first read, whatever the marking."""
    a = Automaton.__new__(Automaton)
    a.name, a.alphabet, a.initial = name, frozenset(alphabet), initial
    a._delta = _Rows(initial, row)
    a.is_marked = is_marked
    return a


# -- exploration and reachability --------------------------------------

def explore(initial: State, row: Callable[[State], Row]
            ) -> Iterator[Tuple[State, Row]]:
    """Lazy breadth-first search over successor rows, the one forward search.

    Yields each state reachable from ``initial`` once, in discovery order,
    with its row ``row(q)`` (in the form of ``Automaton._delta``), as
    returned. A consumer may stop at any point: no state after the last one
    yielded has had its row computed.
    """
    order, seen = [initial], {initial}
    for q in order:  # grows while iterated
        out = row(q)
        for dsts in out.values():
            for dst in dsts:
                if dst not in seen:
                    seen.add(dst)
                    order.append(dst)
        yield q, out


class Numbering:
    """An automaton as arrays of positions (``number``). State i's
    transitions, in row order, are at ``starts[i]:starts[i + 1]`` of
    ``ranks`` (index in ``events``, label order) and ``targets``. ``empty``
    is the position of the empty set state (the monitor's detection state)."""

    __slots__ = ("name", "events", "initial", "marked", "empty", "starts",
                 "ranks", "targets")


def number(a: Automaton) -> Numbering:
    """``a`` with its states numbered. A lazy automaton whose row function is
    still in place is walked in the order of ``explore``, computing the rows
    not kept without keeping them; otherwise position i is ``a.states[i]``,
    unreachable declared states included."""
    n = Numbering()
    n.name, n.events = a.name, tuple(sorted_events(a.alphabet))
    rank = {e: r for r, e in enumerate(n.events)}
    rows = a._delta
    row = getattr(rows, "row", None)
    order = [a.initial] if row is not None else list(a.states)
    index = {q: i for i, q in enumerate(order)}
    is_marked, get = a.is_marked, rows.get
    starts, ranks, targets = n.starts, n.ranks, n.targets = (
        array("q", [0]), array("H"), array("I"))
    n.marked = marked = []
    add_rank, add_target, find = ranks.append, targets.append, index.get
    for i, q in enumerate(order):  # grows while iterated
        out = get(q)
        if out is None:
            out = row(q)
        if is_marked(q):
            marked.append(i)
        for e, dsts in out.items():
            r = rank[e]
            for dst in dsts:
                j = find(dst)
                if j is None:
                    j = index[dst] = len(order)
                    order.append(dst)
                add_rank(r)
                add_target(j)
        starts.append(len(targets))
    n.initial = index[a.initial]
    n.empty = index.get(frozenset())
    return n


def predecessors(a: Automaton) -> Dict[State, List[Any]]:
    """The one reverse-edge map: each state reachable in ``a``, in the order
    of ``explore`` from the initial state, with its incoming transitions in
    row order, flat as ``[source, event, source, event, ...]``. Rows are
    read as ``number`` reads them: a kept row if there is one, else one
    computed and not kept. The first pair of each state but the initial one
    is the transition that found it: followed back, they spell a shortest
    run."""
    rows = a._delta
    row, get = getattr(rows, "row", None), rows.get

    def row_of(q: State) -> Row:
        out = get(q)
        return row(q) if out is None else out

    into: Dict[State, List[Any]] = {a.initial: []}
    for q, out in explore(a.initial, row_of):
        for e, dsts in out.items():
            for dst in dsts:
                into.setdefault(dst, []).extend((q, e))
    return into


def close_under(seen: Set, seeds: Iterable, step: Callable[[Any], Iterable]) -> Set:
    """Worklist search: add ``seeds`` and everything ``step`` reaches from
    them to ``seen`` and return it. Members of ``seen`` are not expanded
    again, so growing a closed set costs only the new part."""
    # set operations reuse stored hashes; composite states hash slowly
    fresh = set(seeds) - seen
    seen |= fresh
    work = list(fresh)
    while work:
        for dst in step(work.pop()):
            if dst not in seen:
                seen.add(dst)
                work.append(dst)
    return seen


# -- observer / subset construction ------------------------------------

# the one estimate ``subset_construction`` gives every closure that meets a
# stop state; its one member is no automaton's state, so it equals no other
# estimate (the monitor's empty one included)
STOPPED: FrozenSet = frozenset((object(),))


def subset_construction(a: Automaton, observed: Iterable[EventLabel],
                        stop: Optional[Callable[[State], bool]] = None) -> Automaton:
    """The observer of ``a`` w.r.t. ``observed``, unnamed and explored on
    demand. Its alphabet is ``observed``, a subset of ``a``'s (each caller
    intersects it with that alphabet), every estimate is marked, and an
    estimate's row maps each observed event some state of it enables, in
    label order, to the 1-tuple of the unobservable reach of its successor
    set on it; a consumer completes the rows it needs. Rows of ``a`` are
    read only as estimates reach them, and each state's silent successors
    are read from its row at each use: the observer keeps no table of its
    own beside the rows of ``a``.

    A reach is closed breadth-first by whole layers: the seeds, then each
    layer of new silent successors. With ``stop``, a reach ends at the
    first layer that holds a state where ``stop`` holds, before reading
    that layer's rows, and is ``STOPPED``, whose row is empty. The rows of
    ``a`` it read are then those of the layers before, whatever order a
    layer's states come in; a reach that meets no stop state is closed in
    full, as without ``stop``."""
    obs = frozenset(observed)
    obs_sorted = sorted_events(obs)
    delta = a._delta

    def reach(seeds: Iterable[State]) -> FrozenSet[State]:
        # set operations reuse stored hashes; composite states hash slowly
        layer = set(seeds)
        seen = set(layer)
        while layer:
            if stop is not None and any(map(stop, layer)):
                return STOPPED
            layer = {dst for q in layer for ev, dsts in delta[q].items()
                     if ev not in obs for dst in dsts} - seen
            seen |= layer
        return frozenset(seen)

    def row(cur: FrozenSet[State]) -> Row:
        if cur is STOPPED:
            return {}
        raw_by_event: Dict[EventLabel, Set[State]] = {}
        for q in cur:
            for ev, dsts in delta[q].items():
                if ev in obs:
                    raw = raw_by_event.get(ev)
                    if raw is None:
                        raw_by_event[ev] = set(dsts)
                    else:
                        raw.update(dsts)
        return {ev: (reach(raw_by_event[ev]),) for ev in obs_sorted if ev in raw_by_event}

    return lazy_automaton(reach((a.initial,)), obs, row, lambda x: True)


# -- composition -------------------------------------------------------

def product(components: Sequence, name: str = "",
            is_marked: Optional[Callable[[Tuple[State, ...]], bool]] = None
            ) -> Automaton:
    """N-ary synchronous product with flat tuple states, explored on demand.

    A component's rows are looked up only as the product reaches them, so a
    lazy component builds only those. Shared events
    synchronize when all sharing components enable them, private events
    interleave, and a shared event enabled on one side only is blocked.
    Marked states are tuples of marked states (so a product over a channel
    marks none), or those where ``is_marked`` holds if it is given.

    A row visits only the events that no component blocks: each component
    state's mask of such events (those it enables and those outside its
    alphabet) is computed once, the masks are ANDed, and the events of each
    ANDed mask are listed once, in label order. An event on which every
    participant has one successor gives its target tuple directly; several
    go through ``successor_tuple``, as in ``Automaton``.
    """
    alphabet: Set[EventLabel] = set()
    for c in components:
        alphabet.update(c.alphabet)
    marks = [c.is_marked for c in components]
    if is_marked is None:
        def is_marked(q: Tuple[State, ...]) -> bool:
            for marked, x in zip(marks, q):
                if not marked(x):
                    return False
            return True

    participants: Dict[EventLabel, Tuple[int, ...]] = {
        ev: tuple(i for i, c in enumerate(components) if ev in c.alphabet)
        for ev in alphabet
    }
    # bit r of a mask stands for the event of rank r in label order
    events = [(ev, participants[ev]) for ev in sorted_events(alphabet)]
    rank = {ev: r for r, (ev, _parts) in enumerate(events)}
    full = (1 << len(events)) - 1
    deltas = [c._delta for c in components]
    # the events a component never blocks: those outside its alphabet
    outside = [full & ~sum(1 << rank[ev] for ev in c.alphabet) for c in components]
    # per component, filled lazily: state -> (unblocked-event mask, row)
    by_state: List[Dict[State, Tuple[int, Row]]] = [{} for _ in components]
    # per mask of unblocked events, filled lazily: those events in label order
    plans: Dict[int, List[Tuple[EventLabel, Tuple[int, ...]]]] = {}

    def row(cur: Tuple[State, ...]) -> Row:
        rows = []
        bits = full
        for i, q in enumerate(cur):
            hit = by_state[i].get(q)
            if hit is None:
                succ = deltas[i][q]
                hit = by_state[i][q] = (outside[i] | sum(1 << rank[ev] for ev in succ),
                                        succ)
            bits &= hit[0]
            rows.append(hit[1])
        plan = plans.get(bits)
        if plan is None:
            plan = plans[bits] = [events[r] for r in range(len(events)) if bits >> r & 1]
        out: Row = {}
        for ev, parts in plan:
            nxt = list(cur)
            for i in parts:
                dsts = rows[i][ev]
                if len(dsts) > 1:
                    break
                nxt[i] = dsts[0]
            else:  # one successor: no copies, no sort
                out[ev] = (tuple(nxt),)
                continue
            nexts = [list(cur)]
            for i in parts:
                nexts = [nxt[:i] + [dst] + nxt[i + 1:]
                         for nxt in nexts for dst in rows[i][ev]]
            out[ev] = successor_tuple(list(map(tuple, nexts)))
        return out

    return lazy_automaton(tuple(c.initial for c in components), alphabet, row, is_marked, name)


def compose(components: Sequence, name: str = "") -> Automaton:
    """``product(components, name)`` with its states explored, in the
    breadth-first order of its rows."""
    p = product(components, name)
    p.states  # explores every row and frees the row function's caches
    return p

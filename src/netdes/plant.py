"""Plant with command storage and execution.

The plant assembly has three parts: a FIFO command store (commands arrive
from the control channel, expire after a bounded number of ticks), a
command-execution stage (uses one fetched command at a time, fires an event
once its per-event countdown reaches zero, abandons the command when an
uncontrollable event preempts it), and the plant proper. Their product,
G_new, is pruned as it is explored: the execution stage never holds a
command that is useless at the current plant state, and never idles over a
tick while the store holds a usable command.

A store and a stage (``StorageState``, ``ExecState``) are interned on
``channels.PairState``, the base channel states use: one object per value,
compared and hashed by identity, named by the ``state_name`` of the tuple
or frozenset they hold, and carrying the set of names the pruning rules
read, so G_new's states hash cheaply and the rules decode no tuples.

The command store, the execution stage and G_new are given by row
functions (``automaton.lazy_automaton``), each row in label order: a row is
computed on its first lookup, so the new plant and the monitor, composed
over G_new, build only the part of it they reach.
Reading ``states``, as the writer of ``cs.aut`` does, explores all of it;
``automaton.number``, which writes ``g_new.aut``, keeps none of it.

The plant proper is user input, read by ``load_plant``: its marked states
are the damage states.
"""
from __future__ import annotations

import copy
from typing import Dict, List, Optional, Tuple

from . import events as ev
from .automaton import (Automaton, AutomatonError, Numbering, Row, lazy_automaton,
                        state_name, successor_tuple)
from .channels import PairState, capacities
from .config import SystemConfig
from .textio import load_automaton


class StorageState(PairState):
    """The command store: (command, time-left) entries in reception order,
    a tuple; ``names`` are the stored commands."""

    __slots__ = ()
    _kind, _interned = tuple, {}

    def canonical_name(self) -> str:
        return "(" + ",".join([f"({g},{t})" for g, t in self.value]) + ")"

    def tick(self) -> "StorageState":
        """Every time left decremented; expired entries dropped."""
        return StorageState((g, t - 1) for (g, t) in self.value if t > 0)

    def append(self, cmd: str, time_left: int) -> "StorageState":
        return StorageState(self.value + ((cmd, time_left),))

    def fetch(self, cmd: str) -> "StorageState":
        """The store without its earliest ``cmd`` entry; ``cmd`` must be
        stored (the store's row fetches only what ``names`` holds)."""
        q = self.value
        i = next(i for i, (g, _t) in enumerate(q) if g == cmd)
        return StorageState(q[:i] + q[i + 1:])


class ExecState(PairState):
    """The execution stage: the (event, countdown) pairs of the command in
    use, a frozenset, empty when idle; ``names`` are the command's events."""

    __slots__ = ()
    _kind, _interned = frozenset, {}

    def canonical_name(self) -> str:
        return "{" + ",".join(sorted([f"({s},{t})" for s, t in self.value])) + "}"


IDLE = ExecState()
EMPTY_QUEUE = StorageState()


# -- command storage -----------------------------------------------------

def build_command_storage(cfg: SystemConfig) -> Automaton:
    """FIFO queue of received commands; each entry survives delta_s ticks.

    ``v_out`` (arrival from the control channel) appends; the plain command
    event (a fetch by the execution stage) removes the earliest matching
    entry; ``tick`` decrements storage times and silently drops expired
    entries, so tick is defined everywhere. Its states are explored on
    demand: only those a composition reaches are built. A row lists tick,
    then per command its fetch and its arrival: label order.
    """
    _oc, _cc, (cap, _count) = capacities(cfg)
    plan = [(g, ev.command(g), ev.command_exit(g)) for g in sorted(cfg.gamma)]
    alphabet = [label for _g, *labels in plan for label in labels] + [ev.tick]
    tick, delta_s = ev.tick, cfg.delta_s

    def row(q: StorageState) -> Row:
        out: Row = {tick: (q.tick(),)}
        room, stored = len(q.value) < cap, q.names
        for g, fetch, arrive in plan:
            if g in stored:
                out[fetch] = (q.fetch(g),)
            if room:
                out[arrive] = (q.append(g, delta_s),)
        return out

    return lazy_automaton(EMPTY_QUEUE, alphabet, row, name="CS")


# -- command execution ----------------------------------------------------

def build_command_execution(cfg: SystemConfig) -> Automaton:
    """One command in use at a time.

    Fetching a command loads each of its events with that event's execution
    delay; tick decrements all countdowns while any is still positive; an
    event fires exactly when its countdown is zero; uncontrollable events
    fire at any time and reset the stage to idle, abandoning the command.
    """
    uncontrollable = [ev.plant(n) for n in cfg.sigma_uc]
    alphabet = [ev.command(g) for g in cfg.gamma]
    alphabet += cfg.plant_labels()
    alphabet.append(ev.tick)

    te = {e.name: e.exec_delay for e in cfg.events}
    numbered: Dict[str, ExecState] = {
        g: ExecState((name, te[name]) for name in cfg.commands[g]) for g in cfg.gamma}

    def row(q: ExecState) -> Row:
        if q is IDLE:
            out = {ev.tick: (IDLE,)}
            out.update((ev.command(g), (numbered[g],)) for g in cfg.gamma)
        else:
            out = {ev.plant(s): (IDLE,) for s, t in q.value if t == 0}
            if any(t > 0 for _, t in q.value):
                out[ev.tick] = (q.tick(),)
        out.update((u, (IDLE,)) for u in uncontrollable)
        return {e: out[e] for e in ev.sorted_events(out)}

    return lazy_automaton(IDLE, alphabet, row, name="CE")


# -- plant loading ---------------------------------------------------------

def load_plant(path: str, cfg: SystemConfig) -> Automaton:
    """The plant file at ``path`` over the config's whole plant alphabet.
    The states its ``.marked`` line names are the damage states, the one
    place they are declared."""
    return _check_plant(load_automaton(path, name="G"), cfg)


def _check_plant(g: Automaton, cfg: SystemConfig) -> Automaton:
    sigma = set(cfg.plant_labels())
    extra = g.alphabet - sigma
    if extra:
        raise AutomatonError(
            f"plant event {sorted(extra)[0].spell()} is not declared in the config")
    # the reader declares every name a ``.marked`` line gives, so a typo there
    # is a marked state that is neither initial nor on a transition
    linked = {g.initial, *(p for row in g._delta.values() for ps in row.values() for p in ps)}
    stray = sorted(state_name(q) for q in g.marked if q not in linked and not g._delta[q])
    if stray:
        raise AutomatonError(f"damage state {stray[0]} is neither the "
                             f"plant's initial state nor on any of its transitions")
    # the loaded states, rows and marking stay; only the alphabet widens
    plant = copy.copy(g)
    plant.name, plant.alphabet = "G", frozenset(sigma)
    return plant


# -- composition and pruning ------------------------------------------------

def compose_and_prune_plant(cs: Automaton, ce: Automaton, g: Automaton,
                            cfg: SystemConfig) -> Automaton:
    """Product of storage, execution and plant, pruned by two rules.

    Rule 1 deletes composite states whose active command shares no event with
    the plant's enabled set (the fetch was useless). Rule 2 removes tick from
    states where the execution stage idles while the store holds a usable
    command: the fetch preempts time. The result is lazy: a composition over
    it computes only the rows it reaches, and a state that only pruned
    transitions reach is never built.

    The rules read the stage, the plant state and, for an idle stage, the
    names of the stored commands. Each (stage, plant state) pair gets a
    plan, made once from CE's and the plant's rows with rule 1 applied: per
    event, in label order, whether the (deterministic) store takes part, and
    the (stage, plant state) pairs it leads to, several in ``state_name``
    order, which is that of the whole triples. A row reads the store's row
    and drops tick where rule 2 holds: where the stage idles and a stored
    command is one the plant state can use.

    ``cs`` and ``ce`` are ``build_command_storage(cfg)`` and
    ``build_command_execution(cfg)``, as ``fixtures.build_system`` makes
    them; only the plant, which is user input, is checked against ``cfg``.
    """
    if set(g.alphabet) != set(cfg.plant_labels()):
        raise AutomatonError("plant alphabet mismatch with config")

    alphabet = cs.alphabet | ce.alphabet | g.alphabet
    events = [(e, e in cs.alphabet, e in ce.alphabet, e in g.alphabet)
              for e in ev.sorted_events(alphabet)]
    stores, stages, plants = cs._delta, ce._delta, g._delta
    enabled = {q: frozenset(e.base for e in plants[q]) for q in g.states}
    # per plant state, the commands with an event it enables (rule 2)
    usable = {q: frozenset(c for c, names in cfg.commands.items() if not names.isdisjoint(on))
              for q, on in enabled.items()}
    plans: Dict[Tuple, List[Tuple]] = {}

    def plan_of(stage: ExecState, q: object) -> List[Tuple]:
        plan = plans[stage, q] = []
        for e, in_store, in_stage, in_plant in events:
            pairs = successor_tuple([
                (x, p) for x in (stages[stage].get(e, ()) if in_stage else (stage,))
                for p in (plants[q].get(e, ()) if in_plant else (q,))
                if x is IDLE or not x.names.isdisjoint(enabled[p])])  # rule 1
            if pairs:
                plan.append((e, in_store, *pairs[0], pairs if len(pairs) > 1 else None))
        return plan

    def row(state: Tuple) -> Row:
        s, stage, q = state
        plan = plans.get((stage, q)) or plan_of(stage, q)
        preempted = ev.tick if stage is IDLE and not s.names.isdisjoint(usable[q]) \
            else None  # rule 2
        store_row, stay = stores[s], (s,)
        out: Row = {}
        for e, in_store, x, p, several in plan:
            nxt = store_row.get(e) if in_store else stay
            if nxt is not None and e is not preempted:
                out[e] = ((nxt[0], x, p),) if several is None else tuple(
                    [(nxt[0], y, r) for y, r in several])
        return out

    return lazy_automaton((cs.initial, ce.initial, g.initial), alphabet, row,
                          name="G_new")


# -- structural checks -------------------------------------------------------

def max_plant_events_between_ticks(a: Numbering) -> Optional[int]:
    """Longest run of plant events on any tick-free path of the numbered
    automaton; None if the tick-free subgraph is cyclic. One topological
    sort over the positions carries, per position, the longest run that
    ends there."""
    starts, ranks, targets = a.starts, a.ranks, a.targets
    tick = a.events.index(ev.tick) if ev.tick in a.events else -1
    plain = [e.role == ev.PLAIN for e in a.events]
    size = len(starts) - 1
    indeg = [0] * size
    for r, t in zip(ranks, targets):
        if r != tick:
            indeg[t] += 1
    run = [0] * size
    order = [i for i, n in enumerate(indeg) if not n]
    for i in order:  # grows while iterated; i's run is final when it joins
        for k in range(starts[i], starts[i + 1]):
            r = ranks[k]
            if r != tick:
                longer = run[i] + plain[r]
                t = targets[k]
                if longer > run[t]:
                    run[t] = longer
                indeg[t] -= 1
                if not indeg[t]:
                    order.append(t)
    if len(order) < size:
        # Kahn's order misses exactly the states a tick-free cycle reaches
        return None
    return max(run, default=0)


def rate_bound_warnings(g_new: Numbering, cfg: SystemConfig) -> List[str]:
    """The per-tick firing bound is validated, not enforced: the plant is
    user input. ``g_new`` is G_new's ``automaton.number``."""
    burst = max_plant_events_between_ticks(g_new)
    if burst is None:
        return ["composed plant has an activity loop (cycle without tick)"]
    if burst > cfg.rates.n_f:
        return [f"plant assembly alone can fire {burst} events within one tick, "
                f"above n_f={cfg.rates.n_f} (the closed loop is tighter: supervisor "
                f"sends are bounded per observation)"]
    return []

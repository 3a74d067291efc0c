"""Test oracles: comparisons of automata and of their languages, a
nested-loop synchronous product, G_new's two pruning rules written out, a
rate check over per-state dicts, an explicit attack-free relabel of a
channel, the name of a channel state rendered from its multiplicities, the
kernel helpers only tests run (transition lists, shared target tuples,
deterministic steps, reachability, coreachability, trimming, re-marking,
language membership, self-loop completion), the one-edit local
maximality probe, and a reference synthesizer of networked supervisors
(the pipeline takes the supervisor as given).
"""
import itertools
from typing import (Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional,
                    Sequence, Set, Tuple)

import netdes.events as ev
from netdes.automaton import (Automaton, AutomatonError, State, Transition,
                              close_under, compose, state_name,
                              subset_construction)
from netdes.config import SystemConfig
from netdes.events import EventLabel, sorted_events
from netdes.supervision import (supervisor_control_constraint,
                                validate_networked_supervisor)
from netdes.synthesis import SynthesisProblem, supremal_supervisor


# -- comparisons ---------------------------------------------------------------

def isomorphic_by(a1: Automaton, a2: Automaton,
                  mapping: Callable[[State], State]) -> bool:
    """Check that ``mapping`` is a transition-preserving bijection from the
    states of a1 onto the states of a2 (works for nondeterministic automata
    when the bijection is known, e.g. tuple reordering)."""
    image = {mapping(q) for q in a1.states}
    if image != set(a2.states) or len(image) != len(a1.states):
        return False
    if mapping(a1.initial) != a2.initial:
        return False
    if {mapping(q) for q in a1.marked} != set(a2.marked):
        return False
    mapped = {(mapping(s), e, mapping(t)) for (s, e, t) in a1.transitions}
    return mapped == set(a2.transitions)


def assert_same_automaton(got: Automaton, want: Automaton) -> None:
    """Equal in every observable part: state order, transitions, marked set,
    alphabet and the order of ``moves`` at each state."""
    assert got.states == want.states
    assert got.transitions == want.transitions
    assert got.marked == want.marked
    assert got.alphabet == want.alphabet
    for q in want.states:
        assert moves(got, q) == moves(want, q)


def _bfs(start: State, successors: Callable[[State], Iterable[State]]) -> List[State]:
    """Everything reachable from ``start``, in breadth-first discovery order."""
    order, seen = [start], {start}
    for q in order:  # grows while iterated
        for dst in successors(q):
            if dst not in seen:
                seen.add(dst)
                order.append(dst)
    return order


def bfs_order(a: Automaton) -> List[State]:
    """The states reachable in ``a``, in the breadth-first order of its rows:
    the order in which a renamed file numbers them."""
    return _bfs(a.initial, lambda q: [dst for _q, _e, dst in moves(a, q)])


def bfs_distances(a: Automaton) -> Dict[State, int]:
    """The length of a shortest path from the initial state to each state."""
    dist: Dict[State, int] = {a.initial: 0}

    def targets(q: State) -> List[State]:
        out = [dst for _q, _e, dst in moves(a, q)]
        for dst in out:
            dist.setdefault(dst, dist[q] + 1)
        return out

    _bfs(a.initial, targets)
    return dist


def same_closed_language(a1: Automaton, a2: Automaton,
                         events: Iterable[EventLabel]) -> bool:
    """Equality of closed behaviors restricted to ``events``.

    Both automata must be deterministic on the compared events (observers
    are); transitions on other events are followed as silent self-loops only,
    so callers project first when anything else moves state.
    """
    evs = frozenset(events)

    def pair_successors(pair: Tuple[State, State]) -> List[Tuple[State, State]]:
        q1, q2 = pair
        if q1 is None or q2 is None:
            return []
        return [(step(a1, q1, e), step(a2, q2, e))
                for e in set(enabled(a1, q1) + enabled(a2, q2)) if e in evs]

    # an event enabled on one side only shows as a None component, which
    # is not expanded
    return all(None not in pair
               for pair in _bfs((a1.initial, a2.initial), pair_successors))


def bounded_traces(a: Automaton, depth: int) -> Set[Tuple[EventLabel, ...]]:
    """All traces of the closed behavior up to the given length.

    Tracks the state estimate per trace so nondeterminism does not blow up
    a level beyond the number of distinct traces.
    """
    out: Set[Tuple[EventLabel, ...]] = {()}
    level = {(): frozenset((a.initial,))}
    for _ in range(depth):
        nxt = {trace + (e,): frozenset(t for q in states for t in successors(a, q, e))
               for trace, states in level.items()
               for e in {e for q in states for e in enabled(a, q)}}
        out.update(nxt)
        level = nxt
    return out


# -- kernel helpers ------------------------------------------------------------

def moves(a: Automaton, q: State) -> List[Transition]:
    """The transitions leaving q, events in label order."""
    return [(q, e, dst) for e, dsts in a._delta[q].items() for dst in dsts]


def successors(a: Automaton, q: State, e: EventLabel) -> Tuple[State, ...]:
    """The successors of q on e, in ``state_name`` order; () when e is
    undefined at q."""
    return a._delta[q].get(e, ())


def enabled(a: Automaton, q: State) -> Tuple[EventLabel, ...]:
    """The events defined at q, in label order."""
    return tuple(a._delta[q])


def undeclared_entries(a: Automaton) -> List[Transition]:
    """The edges of ``a`` whose event is outside its alphabet or whose
    target is not one of its states; the constructor does not look, so
    whoever builds an automaton must give none."""
    states = set(a.states)
    return [(q, e, dst) for q in a.states for e, dsts in a._delta[q].items()
            for dst in dsts if e not in a.alphabet or dst not in states]


def lone_target_tuples(a: Automaton) -> Tuple[int, int, int]:
    """Over the rows ``a`` keeps, without computing any: the number of edges
    whose event has one successor, of distinct tuple objects holding those
    successors, and of distinct states among them."""
    lone = [dsts for out in a._delta.values() for dsts in out.values() if len(dsts) == 1]
    return len(lone), len({id(dsts) for dsts in lone}), len({dsts[0] for dsts in lone})


def step(a: Automaton, q: State, e: EventLabel) -> Optional[State]:
    """The one successor of q on e, or None when e is undefined at q; raises
    AutomatonError when e has several."""
    dsts = successors(a, q, e)
    if not dsts:
        return None
    if len(dsts) > 1:
        raise AutomatonError(f"nondeterministic on {e.spell()} at {state_name(q)}")
    return dsts[0]


def complete_with_selfloops(a: Automaton, events: Iterable[EventLabel],
                            name: str = "") -> Automaton:
    """``a`` with a self-loop wherever one of ``events`` is undefined; events
    outside the alphabet join it.

    Sound for synthesized supervisors: a missing uncontrollable event is
    infeasible at every plant state compatible with the estimate, so the
    loop's behavior is unchanged while the totality requirement is met.
    """
    events = frozenset(events)
    transitions = [t for q in a.states for t in moves(a, q)]
    transitions += [(q, e, q) for q in a.states for e in events
                    if not successors(a, q, e)]
    return Automaton(a.states, a.alphabet | events, transitions,
                     a.initial, a.marked, name or a.name)


def deterministic(a: Automaton) -> bool:
    return all(len(successors(a, q, e)) == 1
               for q in a.states for e in enabled(a, q))


def unobservable_reach(a: Automaton, q: State,
                       observed: Iterable[EventLabel]) -> FrozenSet[State]:
    """States reachable from q along events outside ``observed`` only."""
    obs = frozenset(observed)
    if q not in a.states:
        raise AutomatonError(f"unknown state {state_name(q)}")
    if not obs <= a.alphabet:
        bad = next(iter(obs - a.alphabet))
        raise AutomatonError(f"observed event {bad.spell()} not in alphabet")
    return frozenset(close_under(set(), (q,), lambda p: [
        dst for _p, e, dst in moves(a, p) if e not in obs]))


def reachable(a: Automaton) -> FrozenSet[State]:
    return frozenset(close_under(set(), (a.initial,), lambda q: [
        dst for _q, _e, dst in moves(a, q)]))


def coreachable(a: Automaton) -> FrozenSet[State]:
    """States from which some marked state can be reached."""
    back: Dict[State, List[State]] = {q: [] for q in a.states}
    for q in a.states:
        for _q, _e, dst in moves(a, q):
            back[dst].append(q)
    return frozenset(close_under(set(), a.marked, back.__getitem__))


def marked_copy(a: Automaton, marked: Iterable[State]) -> Automaton:
    """``a`` with ``marked`` as its marked states, built anew."""
    return Automaton(a.states, a.alphabet, a.transitions, a.initial, marked, a.name)


def is_nonblocking(a: Automaton) -> bool:
    return reachable(a) <= coreachable(a)


def trim(a: Automaton, name: str = "") -> Optional[Automaton]:
    """The reachable and coreachable part of ``a``; None, as
    ``supremal_supervisor`` reports no automaton, when the initial state is
    not in it."""
    return _restrict(a, reachable(a) & coreachable(a), name)


def restrict_reachable(a: Automaton, name: str = "") -> Automaton:
    return _restrict(a, reachable(a), name)


def _restrict(a: Automaton, keep: FrozenSet[State], name: str) -> Optional[Automaton]:
    """The part of ``a`` on ``keep``; None unless it holds the initial state."""
    if a.initial not in keep:
        return None
    kept_states = [q for q in a.states if q in keep]
    kept_trans = [t for q in kept_states for t in moves(a, q) if t[2] in keep]
    return Automaton(kept_states, a.alphabet, kept_trans, a.initial,
                     a.marked & keep, name or a.name)


def accepts(a: Automaton, seq: Sequence[EventLabel], marked: bool = False) -> bool:
    """Existential run semantics; with ``marked`` require a marked end state."""
    for e in seq:
        if e not in a.alphabet:
            raise AutomatonError(f"event {e.spell()} not in alphabet")
    current: Set[State] = {a.initial}
    for e in seq:
        nxt: Set[State] = set()
        for q in current:
            nxt.update(successors(a, q, e))
        if not nxt:
            return False
        current = nxt
    return bool(current & a.marked) if marked else True


def pruning_rules(g: Automaton, cfg: SystemConfig
                  ) -> Tuple[Callable[[Tuple], bool], Callable[[Tuple], bool]]:
    """The two pruning rules of ``plant.compose_and_prune_plant``, written
    out on G_new's (store, stage, plant state) triples: whether the stage
    holds a command none of whose events the plant enables (rule 1 removes
    the state), and whether the stage idles while some stored command has an
    event the plant enables (rule 2 removes the state's tick)."""
    bases = {q: {e.base for e in enabled(g, q)} for q in g.states}

    def useless(state: Tuple) -> bool:
        _store, stage, q = state
        return bool(stage.value) and not bases[q] & {name for name, _t in stage.value}

    def usable_stored(state: Tuple) -> bool:
        store, stage, q = state
        return not stage.value and any(cfg.commands[c] & bases[q]
                                       for c, _t in store.value)

    return useless, usable_stored


def pruning_filter(g: Automaton, cfg: SystemConfig) -> Callable:
    """``pruning_rules`` as a transition filter for ``nested_loop_product``
    over [CS, CE, G]: no transition into a useless stage, no preempted tick."""
    useless, usable_stored = pruning_rules(g, cfg)

    def allowed(src: Tuple, e: EventLabel, dst: Tuple) -> bool:
        return not useless(dst) and not (e == ev.tick and usable_stored(src))

    return allowed


def check_pruned_invariants(g_new: Automaton, g: Automaton,
                            cfg: SystemConfig) -> List[str]:
    """Re-assert both pruning rules on the finished G_new."""
    useless, usable_stored = pruning_rules(g, cfg)
    problems = []
    for state in g_new.states:
        if useless(state):
            problems.append(f"useless active command at {state_name(state)}")
        elif usable_stored(state) and successors(g_new, state, ev.tick):
            problems.append(f"tick not preempted at {state_name(state)}")
    return problems


def longest_plant_run_by_state(a: Automaton) -> Optional[int]:
    """``plant.max_plant_events_between_ticks`` with per-state dicts keyed by
    the states themselves: the longest run of plant events on a tick-free
    path, or None if the tick-free subgraph is cyclic."""
    tick = ev.tick
    indeg = dict.fromkeys(a.states, 0)
    rows = a._delta
    for row in rows.values():
        for e, dsts in row.items():
            if e is not tick:
                for t in dsts:
                    indeg[t] += 1
    run = dict.fromkeys(indeg, 0)
    order = [q for q, n in indeg.items() if n == 0]
    for q in order:  # grows while iterated; q's run is final when it joins
        for e, dsts in rows[q].items():
            if e is not tick:
                longer = run[q] + (e.role == ev.PLAIN)
                for t in dsts:
                    if longer > run[t]:
                        run[t] = longer
                    indeg[t] -= 1
                    if indeg[t] == 0:
                        order.append(t)
    if len(order) < len(indeg):
        # Kahn's order misses exactly the states a tick-free cycle reaches
        return None
    return max(run.values(), default=0)


def renamed_text(a: Automaton) -> str:
    """The renamed text ``textio`` wrote from a dict of names before it read
    ``automaton.number``: state i of ``a.states`` named ``S<i>``, the empty
    monitor estimate ``{}``, sources sorted by name, each row's events in
    label order and several targets of one event sorted by name."""
    naming = {q: f"S{i}" for i, q in enumerate(a.states)}
    if frozenset() in naming:
        naming[frozenset()] = "{}"
    events = sorted_events(a.alphabet)
    lines = [f".automaton {a.name or 'A'}\n", ".alphabet " + " ".join(
        e.spell() if e.role in (ev.TICK, ev.STOP) else f"{e.spell()}:{e.role}"
        for e in events) + "\n", f".initial {naming[a.initial]}\n"]
    if a.marked:
        lines.append(".marked " + " ".join(sorted(naming[q] for q in a.marked)) + "\n")
    for s in sorted(a.states, key=naming.__getitem__):
        for e, dsts in a._delta[s].items():
            lines += [f".trans {naming[s]} {e.spell()} {t}\n"
                      for t in sorted(naming[dst] for dst in dsts)]
    return "".join(lines)


def explicit_attack_free_relabel(oc: Automaton) -> Automaton:
    """``channels.relabel_to_attack_free`` as an explored copy: every
    transition of ``oc`` with ``x_in`` and ``x#`` rewritten to ``x``,
    through the validating constructor, over ``oc``'s states in order."""
    def relabel(label: EventLabel) -> EventLabel:
        if label.role in (ev.IN, ev.COMPROMISED):
            return ev.plant(label.base)
        return label

    alphabet = {relabel(label) for label in oc.alphabet}
    transitions = [(s, relabel(e), t) for q in oc.states for (s, e, t) in moves(oc, q)]
    return Automaton(oc.states, alphabet, transitions, oc.initial,
                     oc.marked, name=(oc.name or "OC") + "^T")


def channel_state_name(counts: Mapping[Tuple[str, int], int]) -> str:
    """A channel state's name rendered from its ((message, delay),
    multiplicity) entries, as channel states were named when they stored
    those entries: ``{(a,0),(a,1)^2}``, pairs in order, the empty channel
    ``{}``."""
    parts = []
    for (msg, delay), mult in sorted(counts.items()):
        if mult > 0:
            parts.append(f"({msg},{delay})" + (f"^{mult}" if mult > 1 else ""))
    return "{" + ",".join(parts) + "}"


# -- synchronous product -------------------------------------------------------

def nested_loop_product(components: Sequence[Automaton], name: str = "",
                        allowed: Optional[Callable] = None) -> Automaton:
    """The reachable synchronous product, written without ``compose``.

    A breadth-first search whose successors of a tuple state are, for each
    event in label order, the cartesian product of every component's
    successors on it (its own state alone when the event is outside its
    alphabet), earlier components varying slowest; ``allowed(src, event,
    dst)`` drops transitions before their targets are discovered. Marked
    states are the tuples of marked states.
    """
    alphabet = frozenset().union(*(c.alphabet for c in components))
    events = sorted_events(alphabet)
    init = tuple(c.initial for c in components)
    index: Dict[Tuple, int] = {init: 0}
    states = [init]
    transitions = []
    for cur in states:  # grows while iterated
        for e in events:
            choices = [successors(c, q, e) if e in c.alphabet else (q,)
                       for c, q in zip(components, cur)]
            for nxt in itertools.product(*choices):
                if allowed is not None and not allowed(cur, e, nxt):
                    continue
                transitions.append((cur, e, nxt))
                if nxt not in index:
                    index[nxt] = len(states)
                    states.append(nxt)
    marked = [q for q in states
              if all(x in c.marked for x, c in zip(q, components))]
    return Automaton(states, alphabet, transitions, init, marked, name)


# -- local maximality probes -----------------------------------------------------

def disabled_controllable_edits(problem: SynthesisProblem,
                                attack: Automaton) -> List[Tuple]:
    """Controllable events disabled at reachable supervisor states that the
    full observer could still take somewhere.

    Each edit is (state, event, full-observer successor). Events with no
    observer successor are not edits: the composed plant cannot take them at
    any compatible state, so re-enabling would change nothing.
    """
    plant = problem.plant
    controllable = frozenset(problem.constraint.controllable) & plant.alphabet
    observable = frozenset(problem.constraint.observable) & plant.alphabet
    full_obs = subset_construction(plant, observable)
    known = set(full_obs.states)
    edits = []
    for x in sorted(attack.states, key=state_name):
        if x not in known:
            continue
        for e in sorted_events(controllable):
            if successors(attack, x, e):
                continue
            y = step(full_obs, x, e)
            if y is not None:
                edits.append((x, e, y))
    return edits


def apply_edit(problem: SynthesisProblem, attack: Automaton,
               edit: Tuple) -> Automaton:
    """Re-enable one disabled controllable event.

    If the observer successor was pruned away it is reattached as a sink
    that self-loops on every event the attacker cannot disable (which
    includes everything it cannot observe); the attack's own states are
    total on those events already.
    """
    x, e, y = edit
    edited = Automaton(attack.states + (y,), attack.alphabet,
                       attack.transitions | {(x, e, y)}, attack.initial,
                       attack.marked | {y}, name=attack.name + "+edit")
    return complete_with_selfloops(
        edited, attack.alphabet - problem.constraint.controllable)


# -- reference supervisor synthesis ----------------------------------------------


class NoSupervisorError(Exception):
    """No networked supervisor exists for the given specification."""


class _SpecDump:
    __slots__ = ()

    def canonical_name(self) -> str:
        return "DUMP"

    def __repr__(self) -> str:
        return "DUMP"


SPEC_DUMP = _SpecDump()


def build_supervisor_constraints(cfg: SystemConfig) -> Automaton:
    """Burst bound on command sends: after each observation (an output or a
    tick) the supervisor sends at most its per-observation budget before the
    next observation. Counter analogue of the attack-constraints automaton."""
    v = cfg.rates.v
    states = [f"c{i}" for i in range(v + 1)]
    alphabet = [ev.command_entry(g) for g in cfg.gamma]
    alphabet += [ev.exit_(n) for n in cfg.sigma_o]
    alphabet.append(ev.tick)
    t: List[Tuple[str, EventLabel, str]] = []
    for i in range(v + 1):
        for n in cfg.sigma_o:
            t.append((f"c{i}", ev.exit_(n), "c0"))
        t.append((f"c{i}", ev.tick, "c0"))
        if i < v:
            for g in cfg.gamma:
                t.append((f"c{i}", ev.command_entry(g), f"c{i + 1}"))
    return Automaton(states, alphabet, t, "c0", name="NSC")


def _complete_spec(spec: Automaton, cfg: SystemConfig) -> Automaton:
    sigma = [ev.plant(n) for n in cfg.sigma]
    if not spec.alphabet <= set(sigma):
        extra = sorted(spec.alphabet - set(sigma))[0]
        raise AutomatonError(f"specification event {extra.spell()} is not a plant event")
    if not deterministic(spec):
        raise AutomatonError("specification automaton must be deterministic")
    states = list(spec.states) + [SPEC_DUMP]
    transitions = list(spec.transitions)
    for q in spec.states:
        for e in sigma:
            if not successors(spec, q, e):
                transitions.append((q, e, SPEC_DUMP))
    for e in sigma:
        transitions.append((SPEC_DUMP, e, SPEC_DUMP))
    return Automaton(states, sigma, transitions, spec.initial,
                     marked=states, name=(spec.name or "spec") + "_total")


def networked_supervisor_problem(g_new: Automaton, oc_t: Automaton, cc: Automaton,
                                 spec: Automaton, cfg: SystemConfig) -> SynthesisProblem:
    """The synthesis problem of a networked supervisor enforcing ``spec`` on
    the plant behavior of the attack-free loop.

    The loop with the burst-bound template is the plant; tick is observable
    but uncontrollable; the legal behavior is the specification lifted over
    it."""
    nsc = build_supervisor_constraints(cfg)
    spec_total = _complete_spec(spec, cfg)
    plant_ns = compose([g_new, oc_t, nsc, cc, spec_total], name="P_ns")
    bad = set()
    for q in plant_ns.states:
        _g, _oc, _nsc, _cc, spec_state = q
        if spec_state is SPEC_DUMP:
            bad.add(q)
    return SynthesisProblem(plant_ns, frozenset(bad).__contains__,
                            supervisor_control_constraint(cfg))


def synthesize_networked_supervisor(g_new: Automaton, oc_t: Automaton,
                                    cc: Automaton, spec: Automaton,
                                    cfg: SystemConfig) -> Automaton:
    """Synthesize a valid networked supervisor enforcing ``spec`` on the
    plant behavior of the attack-free loop (``networked_supervisor_problem``).
    Raises NoSupervisorError when the supremal result is empty.
    """
    problem = networked_supervisor_problem(g_new, oc_t, cc, spec, cfg)
    sup = supremal_supervisor(problem, require_nonblocking=False, name="NS")
    if sup is None:
        raise NoSupervisorError("no networked supervisor exists for this spec")
    # events outside P_ns's alphabet join as self-loops
    ns = complete_with_selfloops(
        sup, frozenset(cfg.full_alphabet()) - problem.constraint.controllable)
    report = validate_networked_supervisor(ns, cfg)
    if not report.ok:
        raise AutomatonError("synthesized supervisor fails validity:\n"
                             + report.render())
    return ns

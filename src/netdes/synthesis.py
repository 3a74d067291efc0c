"""Supremal covert-attack synthesis by reduction to partial-observation
supervisor synthesis.

The composed loop (plant assembly, attack constraints, channels, supervisor,
monitor) is treated as a new plant; the attack to synthesize is its
supervisor under the attack-control constraint. Because every event the
attacker controls is also one it observes (``ControlConstraint`` checks
this when it is made), observability coincides with normality and the
supremal solution exists; it is computed on the observer of the new plant
by an iterated pruning:

1. estimates that contain a covertness-violating state are deleted;
2. deletions propagate backwards over events the attacker cannot disable;
3. in damage-nonblocking mode, composed states that cannot reach the damage
   set are eliminated by disabling the controllable entries into them and
   deleting estimates entered uncontrollably, then the pass repeats.

Synthesis is on the fly (Tripakis & Altisen, FM 1999; Cassez et al.,
CONCUR 2005): P is a lazy product whose marked states are the damage
targets, and "bad" is a predicate on its states. The rows of P's
``subset_construction`` are explored from the initial estimate; an
estimate that holds a covertness-violating state is dead whatever follows
it (rule 1), so its row is empty and what only it leads to is never built.
The rows of P are computed only for the states of the estimates explored. The attack is a row function over the pruned observer.
Rules 1-2 are a worklist attractor (Graedel, Thomas & Wilke, LNCS 2500):
each dead estimate is pushed once to its uncontrollable predecessors, in
O(|E|). Rule 3 uses ``product([P, O])``, where O keeps the live observer
edges, explored once and numbered by position; each round recomputes
reachability and coreachability over the product edges that the dead
estimates and disabled events still allow. The damage-reachable check reads
the attack's estimates: the attack enables every event it does not observe,
so P||A reaches exactly the states of P in the estimates the attack reaches.

Verification is independent of the pruning: ``check_attack`` composes P||A
and reads its states and rows once, for all three verdicts and their
shortest witnesses.

Runs are reproducible without sorting the pruning passes: each pass only
adds to the sets of deleted estimates and disabled events, so it ends with
the same sets in any visiting order (the backward propagation is a least
fixpoint). Where order does reach an output, it comes from the automaton
kernel: the attack's states come in the breadth-first order of its rows,
events are visited in label order and several successors of one state on
one event are kept in canonical ``state_name`` order.
"""
from __future__ import annotations

import enum
import math
from typing import (Callable, Dict, FrozenSet, Iterable, List, NamedTuple,
                    Optional, Set, Tuple)

from .attacker import ControlConstraint, ac_state_count, attack_control_constraint
from .automaton import (Automaton, AutomatonError, Row, State, close_under,
                        compose, explore, lazy_automaton, product,
                        subset_construction)
from .channels import (capacity_control, capacity_observation,
                       enumerate_channel_states)
from .config import SystemConfig
from .events import EventLabel, sorted_events
from .fixtures import BuiltSystem
from .plant import capacity_storage
from .supervision import MONITOR_EMPTY


class SynthesisMode(enum.Enum):
    DAMAGE_NONBLOCKING = "nonblocking"
    DAMAGE_REACHABLE = "reachable"


class SynthesisProblem(NamedTuple):
    """The new plant P, the predicate on its states that marks a covertness
    violation, and the attacker's control constraint. The marked states of P
    are the damage targets. No synthesis or verification step reads ``bad``
    or ``target``: each explores all of P."""

    plant: Automaton
    is_bad: Callable[[State], bool]
    constraint: ControlConstraint

    @property
    def bad(self) -> FrozenSet:
        return frozenset(filter(self.is_bad, self.plant.states))

    @property
    def target(self) -> FrozenSet:
        return self.plant.marked


def build_problem(system: BuiltSystem) -> SynthesisProblem:
    """P = G_new || AC || OC || NS || CC || M over the built loop, as a lazy
    product, with its covertness predicate.

    A composed state is a damage target iff its plant component is a damage
    state, one the loop's plant marks (the other components' markings are
    ignored); it violates covertness iff the monitor component is the empty
    estimate while the plant component is not a damage state. So no state
    is both.
    """
    cfg, plant, _cs, _ce, g_new, ac, oc, _oc_t, cc, ns, m = system
    full = frozenset(cfg.full_alphabet())
    for c, label in ((ac, "AC"), (ns, "NS"), (m, "M")):
        if c.alphabet != full:
            raise AutomatonError(f"{label} alphabet is not the full loop alphabet")
    damage = plant.is_marked

    def is_bad(q: State) -> bool:
        (_store, _stage, g), _ac, _oc, _ns, _cc, estimate = q
        return estimate == MONITOR_EMPTY and not damage(g)

    return SynthesisProblem(product([g_new, ac, oc, ns, cc, m], name="P",
                                    is_marked=lambda q: damage(q[0][2])),
                            is_bad, attack_control_constraint(cfg))


# -- the observer fixpoint ---------------------------------------------------

def supremal_supervisor(problem: SynthesisProblem, require_nonblocking: bool,
                        name: str = "S") -> Optional[Automaton]:
    """Supremal controllable-and-normal supervisor of ``problem.plant``
    avoiding the states where ``problem.is_bad`` holds, under
    ``problem.constraint`` restricted to the plant's alphabet.

    Generic over the control constraint (the test suite's reference
    networked-supervisor synthesis uses it too); ``ControlConstraint``
    guarantees that every controllable event is observable. Returns None
    when no supervisor exists. The result is given by a row function over
    the pruned observer: its states are the surviving estimates it reaches,
    in the breadth-first order of its rows, all marked. It is total on the
    uncontrollable events: one missing from the observer's row self-loops,
    since an unobserved event keeps the plant inside the estimate and no
    state of the estimate takes a missing observed one.

    An estimate with a bad state gets an empty observer row, and the
    nonblocking product never enters a dead estimate, so only the rows of
    the plant that live estimates reach are read; its marked states are
    found with ``plant.is_marked``.
    """
    plant, is_bad = problem.plant, problem.is_bad
    controllable = problem.constraint.controllable & plant.alphabet

    def doomed(x: FrozenSet) -> bool:
        return any(map(is_bad, x))

    # the attacker's observer, explored into its rows; a stopped estimate
    # (one with a bad state) has an empty row, so what only it leads to is
    # never built
    observer = subset_construction(plant, problem.constraint.observable & plant.alphabet)
    init, rows = observer.initial, observer._delta
    if init is None:
        return None
    graph = dict(explore(init, lambda x: {} if doomed(x) else rows[x]))
    preds: Dict[FrozenSet, List[FrozenSet]] = {x: [] for x in graph}
    for x, out in graph.items():
        for e, (y,) in out.items():
            if e not in controllable:
                preds[y].append(x)
    dead: Set[FrozenSet] = set()
    disabled: Set[Tuple[FrozenSet, EventLabel]] = set()

    def keeps(x: FrozenSet, e: EventLabel, y: FrozenSet) -> bool:
        # whether an edge out of a live estimate survives
        return y not in dead and (x, e) not in disabled

    # rule 1 kills the stopped estimates (a live estimate may have an empty
    # row too)
    close_under(dead, (x for x, out in graph.items() if not out and doomed(x)),
                preds.__getitem__)
    if require_nonblocking and init not in dead:
        # P with the live observer edges: p is in x in every pair, so each
        # observed move of p has an observer successor, and unobserved
        # events leave x unchanged. No pair enters a dead estimate. Pairs
        # are numbered by position in the explored order.
        live = lazy_automaton(init, observer.alphabet, lambda x: {
            e: ys for e, ys in graph[x].items() if ys[0] not in dead},
            lambda x: True, "O")
        pairs = product([plant, live])
        index = {pair: i for i, pair in enumerate(pairs.states)}
        edges = [[(e, index[dst]) for e, dsts in pairs._delta[pair].items()
                  for dst in dsts] for pair in pairs.states]
        estimate = [x for _p, x in pairs.states]
        marked = [index[pair] for pair in pairs.marked]
        del pairs, index  # the rounds read only the numbered edges
        into: List[List[Tuple[int, EventLabel]]] = [[] for _ in edges]
        for i, out in enumerate(edges):
            for e, j in out:
                into[j].append((i, e))

        def live_edge(i: int, e: EventLabel, j: int) -> bool:
            return keeps(estimate[i], e, estimate[j])

        # every round disables an event or kills an estimate, so this ends
        while init not in dead:
            reach = close_under(set(), (0,), lambda i: [
                j for e, j in edges[i] if live_edge(i, e, j)])
            coreach = close_under(set(), (i for i in marked if i in reach),
                                  lambda j: [i for i, e in into[j]
                                             if i in reach and live_edge(i, e, j)])
            if len(coreach) == len(reach):
                break
            if 0 not in coreach:
                return None
            deaths = []
            for i in coreach:
                for e, j in edges[i]:
                    if j not in coreach and live_edge(i, e, j):
                        if e in controllable:
                            disabled.add((estimate[i], e))
                        else:
                            deaths.append(estimate[i])
            close_under(dead, deaths, preds.__getitem__)
    if init in dead:
        return None

    events = sorted_events(plant.alphabet)

    def row(x: FrozenSet) -> Row:
        # a live estimate's uncontrollable successors are live (rule 2)
        succ, loop = graph[x], (x,)
        return {e: succ.get(e, loop) for e in events
                if e not in controllable or (e in succ and keeps(x, e, succ[e][0]))}

    return lazy_automaton(init, plant.alphabet, row, lambda x: True, name)


def synthesize_supremal_attack(problem: SynthesisProblem,
                               mode: SynthesisMode) -> Optional[Automaton]:
    """Supremal covert attack for the requested damage goal, or None.

    Damage-reachable mode prunes covertness violations only, then demands
    that some damage state stays reachable; damage-nonblocking mode also
    eliminates every composed state that cannot reach damage.
    """
    attack = supremal_supervisor(
        problem, require_nonblocking=(mode is SynthesisMode.DAMAGE_NONBLOCKING),
        name="A")
    if attack is None:
        return None
    if mode is SynthesisMode.DAMAGE_REACHABLE:
        # the attack enables every event it does not observe, so P||A reaches
        # exactly the states of P in the estimates the attack reaches
        damage = problem.plant.is_marked
        if not any(damage(p) for x in attack.states for p in x):
            return None
    return attack


# -- verification -------------------------------------------------------------


class VerificationResult(NamedTuple):
    ok: bool
    witness: Optional[List[EventLabel]] = None

    def render_witness(self) -> str:
        if self.witness is None:
            return "-"
        return " ".join(e.spell() for e in self.witness) or "(empty)"


class Verdicts(NamedTuple):
    covert: VerificationResult
    nonblocking: VerificationResult
    reachable: VerificationResult


def check_attack(problem: SynthesisProblem, attack: Automaton) -> Verdicts:
    """Whether P||A is covert, damage-nonblocking and damage-reachable, read
    from one pass over its states and rows.

    Damage states are those whose P component is marked in P; the attack's
    own marking is ignored. Each witness spells the shortest run into the first
    offending state in breadth-first order (for damage-reachable, the first
    damage state): its first parent is the row that discovered it. Only the
    rows of P that the attack lets the loop reach are computed.
    """
    if attack.alphabet != problem.plant.alphabet:
        raise AutomatonError("attack alphabet differs from the composed plant's")
    loop = compose([problem.plant, attack], name="P||A")
    rows = loop._delta
    parent: Dict[State, Optional[Tuple[State, EventLabel]]] = {loop.initial: None}
    preds: Dict[State, List[State]] = {q: [] for q in loop.states}
    bad = None
    targets: List[State] = []
    for q in loop.states:
        if bad is None and problem.is_bad(q[0]):
            bad = q
        if problem.plant.is_marked(q[0]):
            targets.append(q)
        for e, dsts in rows[q].items():
            for dst in dsts:
                parent.setdefault(dst, (q, e))
                preds[dst].append(q)
    coreach = close_under(set(), targets, preds.__getitem__)
    stuck = next((q for q in loop.states if q not in coreach), None)

    def witness(q: Optional[State]) -> Optional[List[EventLabel]]:
        if q is None:
            return None
        path: List[EventLabel] = []
        while parent[q] is not None:
            q, e = parent[q]
            path.append(e)
        return path[::-1]

    hit = targets[0] if targets else None
    return Verdicts(VerificationResult(bad is None, witness(bad)),
                    VerificationResult(stuck is None, witness(stuck)),
                    VerificationResult(hit is not None, witness(hit)))


def verify_covert(problem: SynthesisProblem, attack: Automaton) -> VerificationResult:
    return check_attack(problem, attack).covert


def verify_damage_nonblocking(problem: SynthesisProblem,
                              attack: Automaton) -> VerificationResult:
    return check_attack(problem, attack).nonblocking


def verify_damage_reachable(problem: SynthesisProblem,
                            attack: Automaton) -> VerificationResult:
    return check_attack(problem, attack).reachable


# -- state-size report ---------------------------------------------------------


class SizeRow(NamedTuple):
    component: str
    count: int
    bound: str
    ok: bool

    def render(self) -> str:
        flag = "ok" if self.ok else "VIOLATION"
        return f"{self.component:<6} states={self.count:<8} bound={self.bound:<12} {flag}"


def capacities(cfg: SystemConfig) -> List[Tuple[int, int]]:
    """(capacity, closed-form state count) of OC, CC and CS, in that order."""
    c_oc = capacity_observation(cfg.rates.n_f, cfg.rates.u, cfg.delta_o)
    c_cc = capacity_control(cfg.rates.n_f, cfg.rates.u, cfg.rates.v,
                            cfg.delta_o, cfg.delta_c)
    c_cs = capacity_storage(cfg.rates.n_f, cfg.rates.u, cfg.rates.v,
                            cfg.delta_o, cfg.delta_c, cfg.delta_s)
    return [(c_oc, enumerate_channel_states(len(cfg.sigma_o), cfg.delta_o, c_oc)),
            (c_cc, enumerate_channel_states(len(cfg.gamma), cfg.delta_c, c_cc)),
            (c_cs, enumerate_channel_states(len(cfg.gamma), cfg.delta_s, c_cs))]


def state_size_report(system: BuiltSystem) -> List[SizeRow]:
    """Constructed component sizes against the closed-form counts."""
    cfg, g, cs, ce, _g_new, ac, oc, _oc_t, cc, ns, m = system
    rows: List[SizeRow] = []
    n_ac = ac_state_count(cfg)
    rows.append(SizeRow("AC", len(ac.states), f"= {n_ac}", len(ac.states) == n_ac))

    # the closed-form channel counts enumerate entry orders, so they bound
    # the canonical multiset state spaces from above
    for label, built, (_cap, n) in zip(("OC", "CC", "CS"), (oc, cc, cs),
                                       capacities(cfg)):
        rows.append(SizeRow(label, len(built.states), f"<= {n}",
                            len(built.states) <= n))

    n_ce = len(cfg.gamma) * (1 + cfg.max_exec_delay())
    rows.append(SizeRow("CE", len(ce.states), f"<= 1+{n_ce}",
                        len(ce.states) <= 1 + n_ce))

    exponent = (len(cs.states) * len(ce.states) * len(g.states)
                * len(oc.states) * len(ns.states) * len(cc.states))
    ok = len(m.states) > 0 and math.log2(len(m.states)) <= exponent
    rows.append(SizeRow("M", len(m.states), f"<= 2^{exponent}", ok))
    return rows


def render_size_report(rows: Iterable[SizeRow]) -> str:
    return "\n".join(r.render() for r in rows) + "\n"

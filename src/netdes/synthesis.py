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
targets, and "bad" is a predicate on its states. P's observer
(``subset_construction``, stopped by ``is_bad``) is walked once from the
initial estimate into its reverse edges (``predecessors``). An estimate
that holds a covertness-violating state is dead whatever follows it (rule
1), so its closure ends after the first silent layer that holds one, and
every such estimate is the one ``STOPPED``, whose row is empty: the rows
of P that only the rest of its closure or its successors would read are
never built. Rule 1's seed is ``STOPPED`` where the walk reached it, never
the rows the observer has not computed: whoever reads the observer's
``states`` computes them all. Rules 1-2 are a worklist attractor (Graedel,
Thomas & Wilke, LNCS 2500) over that one reverse-edge map: each dead
estimate is pushed once to its uncontrollable predecessors, in O(|E|).
Rule 3 walks P with the live observer edges once into its reverse
edges; a round is one backward closure from the damage pairs and one scan
of the surviving edges that leave it. No forward search is needed: a pair
(p, x) is reachable when x is, and an estimate no longer reached has only
unreached uncontrollable predecessors, so cuts there leave the attack's
reachable part alone. The damage-reachable check reads the attack's
estimates: the attack enables every event it does not observe, so P||A
reaches exactly the states of P in the estimates the attack reaches.

Verification is independent of the pruning: ``check_attack`` walks P||A
once into its reverse edges, for all three verdicts and their shortest
witnesses.

Neither checks its input again: ``build_problem`` takes a system that
``fixtures.build_system`` has checked, and ``check_attack`` an attack that
``attacker.validate_attack`` has checked or that synthesis built.

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
from typing import Callable, FrozenSet, Iterable, List, NamedTuple, Optional, Set, Tuple

from .attacker import ControlConstraint, ac_state_count, attack_control_constraint
from .automaton import (STOPPED, Automaton, Row, State, close_under, lazy_automaton,
                        predecessors, product, subset_construction)
from .channels import capacities
from .events import EventLabel, sorted_events
from .fixtures import BuiltSystem
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

    ``system`` comes from ``fixtures.build_system``, which has checked NS
    against the loop alphabet; AC's alphabet is that alphabet and M's
    contains NS's, so P's alphabet is the loop's.
    """
    damage = system.plant.is_marked

    def is_bad(q: State) -> bool:
        (_store, _stage, g), _ac, _oc, _ns, _cc, estimate = q
        return estimate == MONITOR_EMPTY and not damage(g)

    parts = [system.g_new, system.ac, system.oc, system.ns, system.cc, system.monitor]
    return SynthesisProblem(product(parts, name="P",
                                    is_marked=lambda q: damage(q[0][2])),
                            is_bad, attack_control_constraint(system.cfg))


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

    Only the plant rows that live estimates reach are read, and those of
    the silent layers of a doomed estimate before its first bad state: the
    observer's closures stop where ``is_bad`` holds, and every doomed
    estimate is the one ``STOPPED``. Rules 1-2 read the observer's reverse
    edges (``predecessors``), seeded with ``STOPPED`` if the walk reached
    it: which rows the observer has computed says nothing, since a reader
    of its ``states`` computes them all. The live view, the nonblocking
    rounds and the result's rows read the observer's own kept rows. The
    nonblocking rounds need no forward search: a pair is reachable exactly
    when its estimate is, so a cut at an estimate no longer reached changes
    nothing.
    """
    plant = problem.plant
    controllable = problem.constraint.controllable & plant.alphabet

    # the attacker's observer, walked once into its reverse edges; every
    # doomed estimate (one with a bad state) is the one STOPPED, whose row is
    # empty, so what only it leads to is never built; the walk keeps each
    # live estimate's row in the observer
    observer = subset_construction(plant, problem.constraint.observable & plant.alphabet,
                                   problem.is_bad)
    init, rows = observer.initial, observer._delta
    back = predecessors(lazy_automaton(init, observer.alphabet, rows.__getitem__))

    def uncontrollable_into(y: FrozenSet) -> List[FrozenSet]:
        edges = back[y]
        return [x for x, e in zip(edges[::2], edges[1::2]) if e not in controllable]

    dead: Set[FrozenSet] = set()
    disabled: Set[Tuple[FrozenSet, EventLabel]] = set()

    def keeps(x: FrozenSet, e: EventLabel, y: FrozenSet) -> bool:
        # whether an observer edge survives
        return x not in dead and y not in dead and (x, e) not in disabled

    # rules 1-2, seeded from STOPPED if the walk reached it
    close_under(dead, [STOPPED] if STOPPED in back else [], uncontrollable_into)
    if require_nonblocking and init not in dead:
        # P with the live observer edges, walked once into its reverse edges;
        # the walk above kept every live estimate's row
        live = lazy_automaton(init, observer.alphabet, lambda x: {
            e: ys for e, ys in rows[x].items() if ys[0] not in dead})
        into = predecessors(product([plant, live]))
        targets = [pair for pair in into if plant.is_marked(pair[0])]

        def kept_into(pair: State) -> List[State]:
            edges, y = into[pair], pair[1]
            return [src for src, e in zip(edges[::2], edges[1::2]) if keeps(src[1], e, y)]

        # every round disables an event or kills an estimate, so this ends
        while init not in dead:
            coreach = close_under(set(), (q for q in targets if q[1] not in dead),
                                  kept_into)
            if (plant.initial, init) not in coreach:
                return None
            cuts = [(src[1], e) for pair, edges in into.items() if pair not in coreach
                    for src, e in zip(edges[::2], edges[1::2])
                    if src in coreach and keeps(src[1], e, pair[1])]
            if not cuts:
                break
            disabled.update(cut for cut in cuts if cut[1] in controllable)
            close_under(dead, (x for x, e in cuts if e not in controllable),
                        uncontrollable_into)
    if init in dead:
        return None

    events = sorted_events(plant.alphabet)

    def row(x: FrozenSet) -> Row:
        # a live estimate's uncontrollable successors are live (rule 2)
        succ, loop = rows[x], (x,)
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
        """The witness's events, spelled; only a verdict that carries one
        (a failed check, a met damage-reachable one) is rendered."""
        return " ".join(e.spell() for e in self.witness) or "(empty)"


class Verdicts(NamedTuple):
    covert: VerificationResult
    nonblocking: VerificationResult
    reachable: VerificationResult


def check_attack(problem: SynthesisProblem, attack: Automaton) -> Verdicts:
    """Whether P||A is covert, damage-nonblocking and damage-reachable, read
    from one walk of it into its reverse edges (``predecessors``).

    Damage states are those whose P component is marked in P; the attack's
    own marking is ignored. Each witness spells the shortest run into the first
    offending state in breadth-first order (for damage-reachable, the first
    damage state), following first predecessors back. Only the rows of P
    that the attack lets the loop reach are computed.

    The attack is over P's alphabet: ``verify`` checks a loaded
    one with ``attacker.validate_attack`` first, and a synthesized one is so
    by construction.
    """
    start = (problem.plant.initial, attack.initial)
    into = predecessors(product([problem.plant, attack], name="P||A"))
    bad = next((q for q in into if problem.is_bad(q[0])), None)
    targets = [q for q in into if problem.plant.is_marked(q[0])]
    coreach = close_under(set(), targets, lambda q: into[q][::2])
    stuck = next((q for q in into if q not in coreach), None)

    def witness(q: Optional[State]) -> Optional[List[EventLabel]]:
        if q is None:
            return None
        path: List[EventLabel] = []
        while q != start:
            q, e = into[q][:2]
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


def state_size_report(system: BuiltSystem) -> List[SizeRow]:
    """Constructed component sizes against the closed-form counts."""
    cfg, ac, ce, m = system.cfg, system.ac, system.ce, system.monitor
    rows: List[SizeRow] = []
    n_ac = ac_state_count(cfg)
    rows.append(SizeRow("AC", len(ac.states), f"= {n_ac}", len(ac.states) == n_ac))

    # the closed-form channel counts enumerate entry orders, so they bound
    # the multiset state spaces from above; a ``~10^D`` one bounds any
    for label, built, (_cap, n) in zip(("OC", "CC", "CS"),
                                       (system.oc, system.cc, system.cs),
                                       capacities(cfg)):
        rows.append(SizeRow(label, len(built.states), f"<= {n}",
                            isinstance(n, str) or len(built.states) <= n))

    # each command has an event, a controllable one, so one with a delay
    n_ce = len(cfg.gamma) * (1 + max(e.exec_delay for e in cfg.events if e.controllable))
    rows.append(SizeRow("CE", len(ce.states), f"<= 1+{n_ce}",
                        len(ce.states) <= 1 + n_ce))

    exponent = math.prod(len(a.states) for a in (system.cs, ce, system.plant,
                                                  system.oc, system.ns, system.cc))
    ok = len(m.states) > 0 and math.log2(len(m.states)) <= exponent
    rows.append(SizeRow("M", len(m.states), f"<= 2^{exponent}", ok))
    return rows


def render_size_report(rows: Iterable[SizeRow]) -> str:
    return "\n".join(r.render() for r in rows) + "\n"

"""Reference synthesis engine for differential tests.

A frozen copy of the straightforward observer-pruning engine: it builds the
full observer as an automaton, rescans every estimate until the backward
closure stops changing, re-composes P||S on every nonblocking round, and
completes the missing uncontrollable events afterwards. It is slow but
obviously follows the three pruning rules of ``netdes.synthesis``, so the
production engine must agree with it exactly: same states in the same
breadth-first order, same transitions, initial and marked sets. Its
products come from the nested-loop oracle, not from
``netdes.automaton.compose``.
"""
from typing import FrozenSet, List, Optional, Set, Tuple

from netdes.automaton import Automaton, AutomatonError, subset_construction
from netdes.config import SystemConfig
from netdes.events import EventLabel
from netdes.supervision import supervisor_control_constraint
from netdes.synthesis import SynthesisMode, SynthesisProblem
import oracles
from oracles import (SPEC_DUMP, _complete_spec, bfs_order,
                     build_supervisor_constraints, coreachable, enabled,
                     marked_copy, nested_loop_product, restrict_reachable, step)


def reference_supremal_supervisor(plant: Automaton, bad: FrozenSet,
                                  controllable: FrozenSet[EventLabel],
                                  observable: FrozenSet[EventLabel],
                                  require_nonblocking: bool,
                                  name: str = "S",
                                  rounds: Optional[List[int]] = None
                                  ) -> Optional[Automaton]:
    """Supremal supervisor before completion of uncontrollable events. Each
    nonblocking round appends to ``rounds``, when given, the number of
    states of P||S that cannot reach damage."""
    if not controllable <= observable:
        raise AutomatonError("controllable events must be observable here")
    obs = oracles.complete_with_selfloops(
        subset_construction(plant, observable & plant.alphabet),
        plant.alphabet - observable, name=name)
    dead: Set = {x for x in obs.states if x & bad}
    disabled: Set[Tuple[FrozenSet, EventLabel]] = set()

    def backward_closure() -> None:
        changed = True
        while changed:
            changed = False
            for x in obs.states:
                if x in dead:
                    continue
                for e in enabled(obs, x):
                    if e in controllable:
                        continue
                    if step(obs, x, e) in dead:
                        dead.add(x)
                        changed = True
                        break

    while True:
        backward_closure()
        if obs.initial in dead:
            return None
        supervisor = _pruned_observer(obs, dead, disabled, controllable, name)
        if not require_nonblocking:
            return restrict_reachable(supervisor, name=name)
        loop = nested_loop_product([plant, supervisor], name="P||S")
        loop = marked_copy(loop, [q for q in loop.states if q[0] in plant.marked])
        blocking = frozenset(loop.states) - coreachable(loop)
        if rounds is not None:
            rounds.append(len(blocking))
        if not blocking:
            return restrict_reachable(supervisor, name=name)
        if loop.initial in blocking:
            return None
        progress = False
        for (src, e, dst) in loop.transitions:
            if dst not in blocking or src in blocking:
                continue
            x = src[1]
            if e in controllable:
                if (x, e) not in disabled:
                    disabled.add((x, e))
                    progress = True
            elif x not in dead:
                dead.add(x)
                progress = True
        if not progress:
            return None


def _pruned_observer(obs: Automaton, dead: Set, disabled: Set,
                     controllable: FrozenSet[EventLabel], name: str) -> Automaton:
    states = [x for x in obs.states if x not in dead]
    transitions = []
    for (src, e, dst) in obs.transitions:
        if src in dead or dst in dead:
            continue
        if e in controllable and (src, e) in disabled:
            continue
        transitions.append((src, e, dst))
    return Automaton(states, obs.alphabet, transitions, obs.initial,
                     marked=states, name=name)


def reference_attack(problem: SynthesisProblem, mode: SynthesisMode,
                     rounds: Optional[List[int]] = None) -> Optional[Automaton]:
    """The supremal covert attack as the reference engine computes it;
    ``rounds`` as in ``reference_supremal_supervisor``."""
    plant = problem.plant
    controllable = frozenset(problem.constraint.controllable) & plant.alphabet
    observable = frozenset(problem.constraint.observable) & plant.alphabet
    sup = reference_supremal_supervisor(
        plant, problem.bad, controllable, observable,
        require_nonblocking=(mode is SynthesisMode.DAMAGE_NONBLOCKING),
        name="A", rounds=rounds)
    if sup is None:
        return None
    if mode is SynthesisMode.DAMAGE_REACHABLE:
        loop = nested_loop_product([plant, sup], name="P||A")
        if not any(q[0] in problem.target for q in loop.states):
            return None
    uncontrollable = frozenset(sup.alphabet) - controllable
    return oracles.complete_with_selfloops(sup, uncontrollable, name="A")


def reference_networked_supervisor(g_new: Automaton, oc_t: Automaton,
                                   cc: Automaton, spec: Automaton,
                                   cfg: SystemConfig) -> Optional[Automaton]:
    """The networked supervisor as the reference engine computes it, or None
    where no supervisor exists."""
    nsc = build_supervisor_constraints(cfg)
    plant_ns = nested_loop_product(
        [g_new, oc_t, nsc, cc, _complete_spec(spec, cfg)], name="P_ns")
    bad = frozenset(q for q in plant_ns.states if q[4] is SPEC_DUMP)
    constraint = supervisor_control_constraint(cfg)
    sup = reference_supremal_supervisor(
        plant_ns, bad,
        frozenset(constraint.controllable) & plant_ns.alphabet,
        frozenset(constraint.observable) & plant_ns.alphabet,
        require_nonblocking=False, name="NS")
    if sup is None:
        return None
    full = frozenset(cfg.full_alphabet())
    return oracles.complete_with_selfloops(sup, full - constraint.controllable)


def same_automaton(a: Optional[Automaton], b: Optional[Automaton]) -> bool:
    """Equal as data: the same set of states, listed in the same order by a
    breadth-first walk of each one's rows, and the same alphabet,
    transitions, initial and marked states. Each engine lists its own states
    in its own order; the walk is what the writer numbers."""
    if a is None or b is None:
        return a is None and b is None
    return (bfs_order(a) == bfs_order(b) and set(a.states) == set(b.states)
            and a.alphabet == b.alphabet
            and a.transitions == b.transitions and a.initial == b.initial
            and a.marked == b.marked)

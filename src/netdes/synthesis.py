"""Supremal covert-attack synthesis by reduction to partial-observation
supervisor synthesis.

The composed loop (plant assembly, attack constraints, channels, supervisor,
monitor) is treated as a new plant; the attack to synthesize is its
supervisor under the attack-control constraint. Because every event the
attacker controls is also one it observes, observability coincides with
normality and the supremal solution exists; it is computed on the observer
of the new plant by an iterated pruning:

1. estimates that contain a covertness-violating state are deleted;
2. deletions propagate backwards over events the attacker cannot disable;
3. in damage-nonblocking mode, composed states that cannot reach the damage
   set are eliminated by disabling the controllable entries into them and
   deleting estimates entered uncontrollably, then the pass repeats.

Runs are reproducible without sorting the pruning passes: each pass only
adds to the sets of deleted estimates and disabled events, so it ends with
the same sets in any visiting order (the backward propagation is a least
fixpoint). Where order does reach an output, it comes from the automaton
kernel: events are visited in label order and several successors of one
state on one event are kept in canonical ``state_name`` order.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Set, Tuple

from .attacker import (AttackControlConstraint, attack_control_constraint,
                       complete_with_selfloops)
from .automaton import (Automaton, AutomatonError, compose, coreachable,
                        restrict_reachable, shortest_path_to, state_name,
                        subset_construction)
from .channels import enumerate_channel_states
from .config import SystemConfig
from .events import EventLabel, sorted_events

MONITOR_EMPTY: FrozenSet = frozenset()


class SynthesisMode(enum.Enum):
    DAMAGE_NONBLOCKING = "nonblocking"
    DAMAGE_REACHABLE = "reachable"


@dataclass
class SynthesisProblem:
    """The new plant P with its covertness-violating and damage state sets."""
    plant: Automaton
    bad: FrozenSet
    target: FrozenSet
    constraint: AttackControlConstraint

    def __post_init__(self) -> None:
        states = set(self.plant.states)
        if not self.bad <= states or not self.target <= states:
            raise AutomatonError("bad/target sets must be plant states")
        if self.bad & self.target:
            raise AutomatonError("bad and target sets overlap")


def build_problem(g_new: Automaton, ac: Automaton, oc: Automaton,
                  ns: Automaton, cc: Automaton, m: Automaton,
                  cfg: SystemConfig) -> SynthesisProblem:
    """Compose P = G_new || AC || OC || NS || CC || M and classify states.

    A composed state is a damage target iff its plant component is a damage
    state (component markings are ignored); it violates covertness iff the
    monitor component is the empty estimate while the plant component is not
    a damage state.
    """
    full = frozenset(cfg.full_alphabet())
    for c, label in ((ac, "AC"), (ns, "NS"), (m, "M")):
        if frozenset(c.alphabet) != full:
            raise AutomatonError(f"{label} alphabet is not the full loop alphabet")
    plant = compose([g_new, ac, oc, ns, cc, m], name="P")
    target = frozenset(
        q for q in plant.states if state_name(q[0][2]) in cfg.damage)
    bad = frozenset(
        q for q in plant.states
        if q[5] == MONITOR_EMPTY and state_name(q[0][2]) not in cfg.damage)
    plant = plant.with_marked(target)
    return SynthesisProblem(plant, bad, target, attack_control_constraint(cfg))


# -- the observer fixpoint ---------------------------------------------------

def supremal_supervisor(plant: Automaton, bad: FrozenSet,
                        controllable: FrozenSet[EventLabel],
                        observable: FrozenSet[EventLabel],
                        require_nonblocking: bool,
                        name: str = "S") -> Optional[Automaton]:
    """Supremal controllable-and-normal supervisor avoiding ``bad``.

    Generic over the control constraint: also used to synthesize networked
    supervisors. Returns None when no supervisor exists. The result's states
    are the surviving observer estimates, all marked; missing uncontrollable
    events still have to be completed by the caller.
    """
    if not controllable <= observable:
        raise AutomatonError("controllable events must be observable here")
    obs = subset_construction(plant, observable & plant.alphabet, name=name)
    if obs.initial is None:
        return None
    dead: Set = {x for x in obs.states if x & bad}
    disabled: Set[Tuple[FrozenSet, EventLabel]] = set()

    def backward_closure() -> None:
        changed = True
        while changed:
            changed = False
            for x in obs.states:
                if x in dead:
                    continue
                for e in obs.enabled(x):
                    if e in controllable:
                        continue
                    if obs.step(x, e) in dead:
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
        loop = compose([plant, supervisor], name="P||S")
        loop = loop.with_marked([q for q in loop.states if q[0] in plant.marked])
        blocking = frozenset(loop.states) - coreachable(loop)
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
            # every blocking state is entered from inside the blocking set
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


def synthesize_supremal_attack(problem: SynthesisProblem,
                               mode: SynthesisMode) -> Optional[Automaton]:
    """Supremal covert attack for the requested damage goal, or None.

    Damage-reachable mode prunes covertness violations only, then demands
    that some damage state stays reachable; damage-nonblocking mode also
    eliminates every composed state that cannot reach damage.
    """
    plant = problem.plant
    controllable = frozenset(problem.constraint.controllable) & plant.alphabet
    observable = frozenset(problem.constraint.observable) & plant.alphabet
    sup = supremal_supervisor(
        plant, problem.bad, controllable, observable,
        require_nonblocking=(mode is SynthesisMode.DAMAGE_NONBLOCKING),
        name="A")
    if sup is None:
        return None
    if mode is SynthesisMode.DAMAGE_REACHABLE:
        loop = compose([plant, sup], name="P||A")
        if not any(q[0] in problem.target for q in loop.states):
            return None
    uncontrollable = frozenset(sup.alphabet) - controllable
    return complete_with_selfloops(sup, uncontrollable, name="A")


# -- verification -------------------------------------------------------------


@dataclass
class VerificationResult:
    ok: bool
    witness: Optional[List[EventLabel]] = None

    def render_witness(self) -> str:
        if self.witness is None:
            return "-"
        return " ".join(e.spell() for e in self.witness) or "(empty)"


def _attack_loop(problem: SynthesisProblem, attack: Automaton) -> Automaton:
    if frozenset(attack.alphabet) != frozenset(problem.plant.alphabet):
        raise AutomatonError("attack alphabet differs from the composed plant's")
    loop = compose([problem.plant, attack], name="P||A")
    return loop.with_marked([q for q in loop.states if q[0] in problem.target])


def verify_covert(problem: SynthesisProblem, attack: Automaton) -> VerificationResult:
    """No covertness-violating state may be reachable in the attacked loop."""
    loop = _attack_loop(problem, attack)
    offenders = [q for q in loop.states if q[0] in problem.bad]
    if not offenders:
        return VerificationResult(True)
    return VerificationResult(False, shortest_path_to(loop, offenders))


def verify_damage_nonblocking(problem: SynthesisProblem,
                              attack: Automaton) -> VerificationResult:
    loop = _attack_loop(problem, attack)
    stuck = frozenset(loop.states) - coreachable(loop)
    if not stuck:
        return VerificationResult(True)
    return VerificationResult(False, shortest_path_to(loop, stuck))


def verify_damage_reachable(problem: SynthesisProblem,
                            attack: Automaton) -> VerificationResult:
    loop = _attack_loop(problem, attack)
    hits = [q for q in loop.states if q[0] in problem.target]
    if hits:
        return VerificationResult(True, shortest_path_to(loop, hits))
    return VerificationResult(False)


# -- local maximality probes ---------------------------------------------------

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
    for x in attack.sorted_states():
        if x not in known:
            continue
        for e in sorted_events(controllable):
            if attack.successors(x, e):
                continue
            y = full_obs.step(x, e)
            if y is not None:
                edits.append((x, e, y))
    return edits


def apply_edit(problem: SynthesisProblem, attack: Automaton,
               edit: Tuple) -> Automaton:
    """Re-enable one disabled controllable event.

    If the observer successor was pruned away it is reattached as a sink
    that self-loops on every event the attacker cannot disable (which
    includes everything it cannot observe).
    """
    x, e, y = edit
    controllable = frozenset(problem.constraint.controllable) & attack.alphabet
    states = list(attack.states)
    transitions = set(attack.transitions)
    if y not in set(states):
        states.append(y)
        for u in sorted_events(frozenset(attack.alphabet) - controllable):
            transitions.add((y, u, y))
    transitions.add((x, e, y))
    marked = set(attack.marked) | {y}
    return Automaton(states, attack.alphabet, transitions, attack.initial,
                     marked, name=attack.name + "+edit")


# -- state-size report ---------------------------------------------------------


@dataclass
class SizeRow:
    component: str
    count: int
    bound: str
    ok: bool

    def render(self) -> str:
        flag = "ok" if self.ok else "VIOLATION"
        return f"{self.component:<6} states={self.count:<8} bound={self.bound:<12} {flag}"


def state_size_report(cfg: SystemConfig, *, ac: Automaton, oc: Automaton,
                      cc: Automaton, cs: Automaton, ce: Automaton,
                      g: Automaton, ns: Automaton,
                      m: Optional[Automaton] = None) -> List[SizeRow]:
    """Constructed component sizes against the closed-form counts."""
    from .attacker import ac_state_count
    from .channels import capacity_control, capacity_observation
    from .plant import capacity_storage

    rows: List[SizeRow] = []
    n_ac = ac_state_count(cfg)
    rows.append(SizeRow("AC", len(ac.states), f"= {n_ac}", len(ac.states) == n_ac))

    # the closed-form channel counts enumerate entry orders, so they bound
    # the canonical multiset state spaces from above
    c_oc = capacity_observation(cfg.rates.n_f, cfg.rates.u, cfg.delta_o)
    n_oc = enumerate_channel_states(len(cfg.sigma_o), cfg.delta_o, c_oc)
    rows.append(SizeRow("OC", len(oc.states), f"<= {n_oc}", len(oc.states) <= n_oc))

    c_cc = capacity_control(cfg.rates.n_f, cfg.rates.u, cfg.rates.v,
                            cfg.delta_o, cfg.delta_c)
    n_cc = enumerate_channel_states(len(cfg.gamma), cfg.delta_c, c_cc)
    rows.append(SizeRow("CC", len(cc.states), f"<= {n_cc}", len(cc.states) <= n_cc))

    c_cs = capacity_storage(cfg.rates.n_f, cfg.rates.u, cfg.rates.v,
                            cfg.delta_o, cfg.delta_c, cfg.delta_s)
    n_cs = enumerate_channel_states(len(cfg.gamma), cfg.delta_s, c_cs)
    rows.append(SizeRow("CS", len(cs.states), f"<= {n_cs}", len(cs.states) <= n_cs))

    n_ce = len(cfg.gamma) * (1 + cfg.max_exec_delay())
    rows.append(SizeRow("CE", len(ce.states), f"<= 1+{n_ce}",
                        len(ce.states) <= 1 + n_ce))

    if m is not None:
        exponent = (len(cs.states) * len(ce.states) * len(g.states)
                    * len(oc.states) * len(ns.states) * len(cc.states))
        ok = len(m.states) > 0 and math.log2(len(m.states)) <= exponent
        rows.append(SizeRow("M", len(m.states), f"<= 2^{exponent}", ok))
    return rows


def render_size_report(rows: Iterable[SizeRow]) -> str:
    return "\n".join(r.render() for r in rows) + "\n"

"""Networked supervisor validation, the networked monitor, and a reference
supervisor synthesizer.

The monitor watches channel outputs, issued commands and ticks, and tracks
the set of attack-free explanations. An observation with no explanation
drives it to the empty estimate: attack detected. Ticks keep flowing after
detection, so the empty estimate carries a tick self-loop and nothing else.
"""
from __future__ import annotations

from typing import FrozenSet, List, Tuple

from . import events as ev
from .attacker import ControlConstraint, ValidationReport, validate_control
from .automaton import (Automaton, AutomatonError, complete_with_selfloops,
                        compose, subset_construction)
from .config import SystemConfig
from .events import EventLabel, sorted_events
from .synthesis import MONITOR_EMPTY, supremal_supervisor


def supervisor_control_constraint(cfg: SystemConfig) -> ControlConstraint:
    """Only command sends may be disabled; sends, channel outputs and ticks
    are observed."""
    controllable = frozenset(ev.command_entry(g) for g in cfg.gamma)
    observable = controllable | frozenset(ev.exit_(n) for n in cfg.sigma_o) \
        | frozenset((ev.tick,))
    return ControlConstraint(controllable, observable, "network")


def validate_networked_supervisor(ns: Automaton,
                                  cfg: SystemConfig) -> ValidationReport:
    """Network controllability and observability of a supervisor."""
    return validate_control(ns, supervisor_control_constraint(cfg),
                            frozenset(cfg.full_alphabet()), "NS")


def monitor_observed_events(cfg: SystemConfig) -> FrozenSet[EventLabel]:
    return frozenset(ev.exit_(n) for n in cfg.sigma_o) \
        | frozenset(ev.command_entry(g) for g in cfg.gamma) \
        | frozenset((ev.tick,))


def build_monitor(ns: Automaton, g_new: Automaton, oc_t: Automaton,
                  cc: Automaton, cfg: SystemConfig) -> Automaton:
    """Observer of the attack-free reference loop with explicit detection.

    Any observed event with no explanation in the current estimate leads to
    the empty estimate; there the only continuation is the tick self-loop.
    """
    report = validate_networked_supervisor(ns, cfg)
    if not report.ok:
        raise AutomatonError("supervisor fails validity:\n" + report.render())
    reference = compose([ns, g_new, oc_t, cc], name="NS||G_new||OC^T||CC")
    observed = monitor_observed_events(cfg) & reference.alphabet
    m = subset_construction(reference, observed, name="M")
    states = list(m.states)
    transitions = list(m.transitions)
    if MONITOR_EMPTY in set(states):
        raise AutomatonError("reference loop produced an empty estimate")
    states.append(MONITOR_EMPTY)
    for x in m.states:
        for e in sorted_events(observed):
            if not m.successors(x, e):
                transitions.append((x, e, MONITOR_EMPTY))
    transitions.append((MONITOR_EMPTY, ev.tick, MONITOR_EMPTY))
    return Automaton(states, m.alphabet, transitions, m.initial,
                     marked=states, name="M")


# -- reference supervisor synthesis -------------------------------------------


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
    if not spec.deterministic:
        raise AutomatonError("specification automaton must be deterministic")
    states = list(spec.states) + [SPEC_DUMP]
    transitions = list(spec.transitions)
    for q in spec.states:
        for e in sigma:
            if not spec.successors(q, e):
                transitions.append((q, e, SPEC_DUMP))
    for e in sigma:
        transitions.append((SPEC_DUMP, e, SPEC_DUMP))
    return Automaton(states, sigma, transitions, spec.initial,
                     marked=states, name=(spec.name or "spec") + "_total")


def synthesize_networked_supervisor(g_new: Automaton, oc_t: Automaton,
                                    cc: Automaton, spec: Automaton,
                                    cfg: SystemConfig) -> Automaton:
    """Synthesize a valid networked supervisor enforcing ``spec`` on the
    plant behavior of the attack-free loop.

    The loop with the burst-bound template is the plant; tick is observable
    but uncontrollable; the legal behavior is the specification lifted over
    it. Raises NoSupervisorError when the supremal result is empty.
    """
    nsc = build_supervisor_constraints(cfg)
    spec_total = _complete_spec(spec, cfg)
    plant_ns = compose([g_new, oc_t, nsc, cc, spec_total], name="P_ns")
    bad = set()
    for q in plant_ns.states:
        _g, _oc, _nsc, _cc, spec_state = q
        if spec_state is SPEC_DUMP:
            bad.add(q)
    constraint = supervisor_control_constraint(cfg)
    sup = supremal_supervisor(
        plant_ns, frozenset(bad),
        frozenset(constraint.controllable) & plant_ns.alphabet,
        frozenset(constraint.observable) & plant_ns.alphabet,
        require_nonblocking=False, name="NS")
    if sup is None:
        raise NoSupervisorError("no networked supervisor exists for this spec")
    # events outside P_ns's alphabet join as self-loops
    ns = complete_with_selfloops(
        sup, frozenset(cfg.full_alphabet()) - constraint.controllable)
    report = validate_networked_supervisor(ns, cfg)
    if not report.ok:
        raise AutomatonError("synthesized supervisor fails validity:\n"
                             + report.render())
    return ns

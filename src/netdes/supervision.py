"""Networked supervisor validation and the networked monitor.

The networked supervisor is given, as in the paper; this module checks it
and builds the monitor from it.

The monitor watches channel outputs, issued commands and ticks, and tracks
the set of attack-free explanations. An observation with no explanation
drives it to the empty estimate: attack detected. Ticks keep flowing after
detection, so the empty estimate carries a tick self-loop and nothing else.
"""
from __future__ import annotations

from . import events as ev
from .attacker import ControlConstraint, ValidationReport, validate_control
from .automaton import Automaton, AutomatonError, compose, subset_construction
from .config import SystemConfig
from .events import sorted_events
from .synthesis import MONITOR_EMPTY


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


def build_monitor(ns: Automaton, g_new: Automaton, oc_t: Automaton,
                  cc: Automaton, cfg: SystemConfig) -> Automaton:
    """Observer of the attack-free reference loop with explicit detection.

    Any observed event with no explanation in the current estimate leads to
    the empty estimate; there the only continuation is the tick self-loop.
    The monitor sees what the networked supervisor sees. ``ns`` is assumed
    valid (``fixtures.build_system`` checks it first).
    """
    reference = compose([ns, g_new, oc_t, cc], name="NS||G_new||OC^T||CC")
    observed = supervisor_control_constraint(cfg).observable & reference.alphabet
    m = subset_construction(reference, observed, name="M")
    states = list(m.states)
    transitions = [t for x in states for t in m.moves(x)]
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

"""Networked supervisor validation and the networked monitor.

The networked supervisor is given, as in the paper; this module checks it
and builds the monitor from it.

The monitor watches channel outputs, issued commands and ticks, and tracks
the set of attack-free explanations. An observation with no explanation
drives it to the empty estimate: attack detected. Ticks keep flowing after
detection, so the empty estimate carries a tick self-loop and nothing else.
"""
from __future__ import annotations

from typing import FrozenSet

from . import events as ev
from .attacker import ControlConstraint, ValidationReport, validate_control
from .automaton import Automaton, Row, explore, product, subset_construction
from .config import SystemConfig
from .events import sorted_events

MONITOR_EMPTY: FrozenSet = frozenset()  # the monitor's detection state


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

    The rows are those of the reference loop's ``subset_construction``,
    completed once: an unobserved event self-loops, and an observed event
    with no explanation in the current estimate leads to the empty estimate,
    where the only continuation is the tick self-loop. The monitor sees what
    the networked supervisor sees. Its states come in the breadth-first
    order of its rows, the empty estimate last if nothing reaches it.
    ``ns`` is assumed valid (``fixtures.build_system`` checks it first).
    """
    reference = product([ns, g_new, oc_t, cc], name="NS||G_new||OC^T||CC")
    observed = supervisor_control_constraint(cfg).observable & reference.alphabet
    observer = subset_construction(reference, observed)
    events = sorted_events(reference.alphabet)
    lost = (MONITOR_EMPTY,)

    def row(x: FrozenSet) -> Row:
        if x == MONITOR_EMPTY:
            return {ev.tick: lost}
        # observer estimates are never empty: no successor is an unexplained event
        succ, loop = observer._delta[x], (x,)
        return {e: succ.get(e, lost if e in observed else loop) for e in events}

    rows = dict(explore(observer.initial, row))
    rows.setdefault(MONITOR_EMPTY, row(MONITOR_EMPTY))
    return Automaton(rows, reference.alphabet,
                     ((x, e, y) for x, out in rows.items() for e, (y,) in out.items()),
                     observer.initial, marked=rows, name="M")

"""Sensor-attack constraints and attack-automaton validation.

The constraints automaton bounds what any sensor attack may do: after each
event it can observe, the attacker outputs a string of at most ``u`` events
into the observation channel and then stops; events it cannot observe pass
straight through. An observation it can see but not tamper with is forwarded
as it is, and that forwarded event is part of the output string, so it
spends one unit of the budget ``u``. A candidate attack automaton is valid
when it never disables an event outside its own control set and never
changes state on an event it cannot observe.
"""
from __future__ import annotations

from typing import FrozenSet, List, NamedTuple, Tuple

from . import events as ev
from .automaton import Automaton, AutomatonError, state_name
from .config import ConfigError, SystemConfig
from .events import EventLabel, sorted_events

AC_INIT = "qinit"


class ControlConstraint:
    """What a supervisor may disable and what it sees. An attack is the
    supervisor of the composed plant, so attacks and networked supervisors
    share this type; ``rule`` prefixes the names of violations."""

    __slots__ = ("controllable", "observable", "rule")

    def __init__(self, controllable: FrozenSet[EventLabel],
                 observable: FrozenSet[EventLabel], rule: str) -> None:
        if not controllable <= observable:
            raise ConfigError("controllable events must be observable "
                              "(required for normality to equal observability)")
        self.controllable = controllable
        self.observable = observable
        self.rule = rule


def attack_control_constraint(cfg: SystemConfig) -> ControlConstraint:
    controllable = {cfg.sent(n) for n in cfg.sigma_sa} | {ev.stop}
    observable = {ev.plant(n) for n in cfg.sigma_oa}
    observable |= {cfg.sent(n) for n in cfg.sigma_oa}
    observable |= {ev.tick, ev.stop}
    return ControlConstraint(frozenset(controllable), frozenset(observable), "sa")


def build_attack_constraints(cfg: SystemConfig) -> Automaton:
    """The template automaton every sensor attack is synchronized with.

    Forwarding an attacker-observable, uncompromised observation spends one
    unit of the per-observation budget ``u``, so such events need ``u >= 1``.
    """
    u = cfg.rates.u
    oa, sa = set(cfg.sigma_oa), set(cfg.sigma_sa)
    obs_only = [n for n in cfg.sigma_o if n in oa and n not in sa]
    unobs_to_attacker = [n for n in cfg.sigma_o if n not in oa]
    if obs_only and u < 1:
        raise ConfigError("u must be at least 1 when forwarded events count "
                          "toward the attack budget")

    states: List[str] = [AC_INIT]
    states += [f"qobs_{n}" for n in obs_only]
    states += [f"quo_{n}" for n in unobs_to_attacker]
    states += [f"q{i}" for i in range(u + 1)]

    alphabet = cfg.full_alphabet()
    t: List[Tuple[str, EventLabel, str]] = []
    # case 1: events invisible to the attacker and the clock loop at init
    for n in cfg.sigma_uo:
        t.append((AC_INIT, ev.plant(n), AC_INIT))
    for n in cfg.sigma_o:
        t.append((AC_INIT, ev.exit_(n), AC_INIT))
    for g in cfg.gamma:
        t.append((AC_INIT, ev.command_entry(g), AC_INIT))
        t.append((AC_INIT, ev.command_exit(g), AC_INIT))
        t.append((AC_INIT, ev.command(g), AC_INIT))
    t.append((AC_INIT, ev.tick, AC_INIT))
    # cases 2-3: observable to the supervisor only; forwarded untouched
    for n in unobs_to_attacker:
        t.append((AC_INIT, ev.plant(n), f"quo_{n}"))
        t.append((f"quo_{n}", cfg.sent(n), AC_INIT))
    # case 4: a compromised observation opens an attack round
    for n in sorted(sa):
        t.append((AC_INIT, ev.plant(n), "q0"))
    # cases 5-6: attacker-observable but untamperable; the forwarded event
    # is one unit of the output string, so the counter continues at 1
    for n in obs_only:
        t.append((AC_INIT, ev.plant(n), f"qobs_{n}"))
        t.append((f"qobs_{n}", cfg.sent(n), "q1"))
    # case 7: the attacker may end the round at any counter value
    for i in range(u + 1):
        t.append((f"q{i}", ev.stop, AC_INIT))
    # case 8: insertions up to the budget
    for i in range(u):
        for n in sorted(sa):
            t.append((f"q{i}", cfg.sent(n), f"q{i + 1}"))
    return Automaton(states, alphabet, t, AC_INIT, name="AC")


def ac_state_count(cfg: SystemConfig) -> int:
    return cfg.rates.u + 2 + len(set(cfg.sigma_o) - set(cfg.sigma_sa))


# -- validation -------------------------------------------------------------


class Violation(NamedTuple):
    state: str
    event: str
    rule: str

    def render(self) -> str:
        return f"{self.rule} {self.state} {self.event}"


class ValidationReport(NamedTuple):
    subject: str
    violations: List[Violation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        if self.ok:
            return f"{self.subject}: valid"
        lines = [f"{self.subject}: {len(self.violations)} violation(s)"]
        lines += ["  " + v.render() for v in self.violations]
        return "\n".join(lines)


def validate_control(a: Automaton, constraint: ControlConstraint,
                     expected_alphabet: FrozenSet[EventLabel],
                     subject: str) -> ValidationReport:
    """Controllability (every event outside the control set is defined
    everywhere) and observability (no state change on an unobservable event)
    of a supervisor or attack; ``subject`` names it when ``a`` has no name.
    A wrong alphabet raises."""
    if a.alphabet != expected_alphabet:
        raise AutomatonError(f"{subject} alphabet differs from the loop alphabet")
    uncontrollable = sorted_events(a.alphabet - constraint.controllable)
    unobservable = sorted_events(a.alphabet - constraint.observable)
    violations: List[Violation] = []
    for q in a.states:
        row = a._delta[q]
        for e in uncontrollable:
            if e not in row:
                violations.append(Violation(state_name(q), e.spell(),
                                            f"{constraint.rule}-controllability"))
        for e in unobservable:
            for dst in row.get(e, ()):
                if dst != q:
                    violations.append(Violation(state_name(q), e.spell(),
                                                f"{constraint.rule}-observability"))
    return ValidationReport(a.name or subject, violations)


def validate_attack(a: Automaton, constraint: ControlConstraint,
                    expected_alphabet: FrozenSet[EventLabel]) -> ValidationReport:
    """Check SA-controllability and SA-observability of an attack automaton."""
    return validate_control(a, constraint, expected_alphabet, "attack")

import pytest

import netdes.events as ev
from netdes.attacker import (AC_INIT, ControlConstraint, ac_state_count,
                             attack_control_constraint, build_attack_constraints,
                             validate_attack)
from netdes.automaton import Automaton, AutomatonError
from netdes.config import ConfigError, EventSpec, RateBounds, SystemConfig
from oracles import (complete_with_selfloops, enabled, step, successors,
                     undeclared_entries)
from systems import faithful_attacker, shipped_config


def rich_cfg(u=2):
    # one compromised, one attacker-observable-only, one supervisor-only
    events = (EventSpec("sa", True, True, True, True, 0),
              EventSpec("oa", True, True, True, False, 0),
              EventSpec("so", False, True, False, False, None),
              EventSpec("uo", False, False, False, False, None))
    return SystemConfig(events=events, commands={"v": frozenset({"sa"})},
                        delta_o=1, delta_c=0, delta_s=0,
                        rates=RateBounds(1, u, 1))


def test_state_count_formula():
    cfg = shipped_config("guideway")
    ac = build_attack_constraints(cfg)
    assert len(ac.states) == ac_state_count(cfg) == 3
    rich = rich_cfg(u=2)
    ac2 = build_attack_constraints(rich)
    # U + 2 + |Sigma_o - Sigma_sa| = 2 + 2 + 2
    assert len(ac2.states) == ac_state_count(rich) == 6


def test_compromised_observation_opens_round_and_stop_closes_it():
    ac = build_attack_constraints(shipped_config("guideway"))
    q0 = step(ac, AC_INIT, ev.plant("a1"))
    assert q0 == "q0"
    assert step(ac, "q0", ev.stop) == AC_INIT
    assert step(ac, "q0", ev.compromised("b1")) == "q1"
    assert step(ac, "q1", ev.stop) == AC_INIT


def test_tick_selfloop_at_init_only():
    ac = build_attack_constraints(shipped_config("guideway"))
    assert step(ac, AC_INIT, ev.tick) == AC_INIT
    assert not successors(ac, "q0", ev.tick)
    assert not successors(ac, "q1", ev.tick)


def test_insertion_budget_exhausts():
    ac = build_attack_constraints(rich_cfg(u=2))
    q = step(ac, AC_INIT, ev.plant("sa"))
    q = step(ac, q, ev.compromised("sa"))
    q = step(ac, q, ev.compromised("sa"))
    assert q == "q2"
    assert not successors(ac, q, ev.compromised("sa"))
    assert step(ac, q, ev.stop) == AC_INIT


def test_a_forwarded_observation_spends_one_unit_of_u():
    # the forwarded, untamperable observation is one unit of the budget u,
    # and q1, the target of that edge, is one of AC's states
    counted = build_attack_constraints(rich_cfg(u=1))
    assert step(counted, "qobs_oa", ev.entry("oa")) == "q1"
    assert undeclared_entries(counted) == []


def test_counting_forward_requires_budget():
    # the config refuses u=0 where a forward spends it, so AC's qobs_oa ->
    # q1 edge always has its target
    events = (EventSpec("sa", True, True, True, True, 0),
              EventSpec("oa", False, True, True, False, None))
    with pytest.raises(ConfigError) as err:
        SystemConfig(events=events, commands={"v": frozenset({"sa"})},
                     delta_o=0, delta_c=0, delta_s=0, rates=RateBounds(1, 0, 1))
    assert str(err.value) == ("u must be at least 1 when forwarded events count "
                              "toward the attack budget")


def test_control_constraint_rejects_an_unobserved_controllable_event():
    # the one check that a constraint's controllable events are observed,
    # which makes normality and observability coincide in synthesis
    with pytest.raises(ConfigError) as err:
        ControlConstraint(frozenset({ev.stop, ev.tick}), frozenset({ev.tick}), "sa")
    assert str(err.value) == ("controllable events must be observable "
                              "(required for normality to equal observability)")


def test_supervisor_only_events_pass_straight_through():
    ac = build_attack_constraints(rich_cfg())
    mid = step(ac, AC_INIT, ev.plant("so"))
    assert mid == "quo_so"
    assert step(ac, mid, ev.entry("so")) == AC_INIT
    assert len(enabled(ac, mid)) == 1


def test_bounded_return_structure():
    # every non-self-loop path from the initial state returns within U+2 steps
    for cfg in (shipped_config("guideway"), rich_cfg(u=2)):
        ac = build_attack_constraints(cfg)
        bound = cfg.rates.u + 2
        frontier = [(AC_INIT, 0)]
        while frontier:
            q, depth = frontier.pop()
            for e in enabled(ac, q):
                for dst in successors(ac, q, e):
                    if dst == q:
                        continue
                    if dst == AC_INIT:
                        continue
                    assert depth + 1 < bound, f"stuck away from init at {dst}"
                    frontier.append((dst, depth + 1))


# -- validation ----------------------------------------------------------------

def never_attacker(cfg):
    constraint = attack_control_constraint(cfg)
    alphabet = cfg.full_alphabet()
    uncont = [e for e in alphabet if e not in constraint.controllable]
    return Automaton(["n"], alphabet, [("n", e, "n") for e in uncont], "n",
                     marked=["n"])


def test_never_attacker_is_valid():
    cfg = shipped_config("guideway")
    a = never_attacker(cfg)
    report = validate_attack(a, attack_control_constraint(cfg),
                             frozenset(cfg.full_alphabet()))
    assert report.ok


def test_missing_tick_breaks_sa_controllability():
    cfg = shipped_config("guideway")
    a = never_attacker(cfg)
    pruned = Automaton(a.states, a.alphabet,
                       [t for t in a.transitions if t[1] != ev.tick],
                       a.initial, a.marked)
    report = validate_attack(pruned, attack_control_constraint(cfg),
                             frozenset(cfg.full_alphabet()))
    assert any(v.rule == "sa-controllability" and v.event == "tick"
               for v in report.violations)


def test_state_change_on_unobservable_breaks_sa_observability():
    cfg = shipped_config("guideway")
    a = never_attacker(cfg)
    t = set(a.transitions) | {("n", ev.command_entry("v1"), "n2")}
    t |= {("n2", e, "n2") for (_s, e, _d) in a.transitions}
    bad = Automaton(["n", "n2"], a.alphabet, t, "n", marked=["n", "n2"])
    report = validate_attack(bad, attack_control_constraint(cfg),
                             frozenset(cfg.full_alphabet()))
    assert any(v.rule == "sa-observability" and v.event == "v1_in"
               for v in report.violations)


def test_alphabet_mismatch_is_an_error():
    cfg = shipped_config("guideway")
    small = Automaton(["n"], [ev.tick], [("n", ev.tick, "n")], "n")
    with pytest.raises(AutomatonError):
        validate_attack(small, attack_control_constraint(cfg),
                        frozenset(cfg.full_alphabet()))


def test_faithful_attacker_is_valid():
    for cfg in (shipped_config("guideway"), shipped_config("reduced"), rich_cfg()):
        a = faithful_attacker(cfg)
        report = validate_attack(a, attack_control_constraint(cfg),
                                 frozenset(cfg.full_alphabet()))
        assert report.ok, report.render()


def test_completion_adds_only_selfloops():
    cfg = shipped_config("reduced")
    constraint = attack_control_constraint(cfg)
    base = Automaton(["n"], cfg.full_alphabet(), [], "n", marked=["n"])
    done = complete_with_selfloops(base, frozenset(base.alphabet)
                                   - constraint.controllable)
    assert all(s == t for (s, _e, t) in done.transitions)
    report = validate_attack(done, constraint, frozenset(cfg.full_alphabet()))
    assert report.ok

import pytest

import netdes.events as ev
import netdes.fixtures
from netdes.automaton import (Automaton, AutomatonError, compose,
                              subset_construction)
from netdes.config import EventSpec, RateBounds, SystemConfig
from netdes.fixtures import build_system
from netdes.supervision import (MONITOR_EMPTY, supervisor_control_constraint,
                                validate_networked_supervisor)
from oracles import (NoSupervisorError, build_supervisor_constraints,
                     deterministic, enabled, same_closed_language, step,
                     successors, synthesize_networked_supervisor)
from systems import faithful_attacker, reduced_spec, shipped_config


def silent_supervisor(cfg):
    full = cfg.full_alphabet()
    gamma_in = {ev.command_entry(g) for g in cfg.gamma}
    t = [("n", e, "n") for e in full if e not in gamma_in]
    return Automaton(["n"], full, t, "n", marked=["n"], name="NS")


def test_silent_supervisor_is_valid():
    cfg = shipped_config("reduced")
    assert validate_networked_supervisor(silent_supervisor(cfg), cfg).ok


def test_missing_plant_selfloop_is_uncontrollable_violation():
    cfg = shipped_config("reduced")
    ns = silent_supervisor(cfg)
    pruned = Automaton(ns.states, ns.alphabet,
                       [t for t in ns.transitions if t[1] != ev.plant("a1")],
                       ns.initial, ns.marked)
    report = validate_networked_supervisor(pruned, cfg)
    assert any(v.rule == "network-controllability" and v.event == "a1"
               for v in report.violations)


def test_state_change_on_unobservable_is_observability_violation():
    cfg = shipped_config("reduced")
    ns = silent_supervisor(cfg)
    t = set(ns.transitions) | {("n", ev.plant("a3"), "n2")}
    t |= {("n2", e, "n2") for e in ns.alphabet
          if e != ev.command_entry("w1")}
    bad = Automaton(["n", "n2"], ns.alphabet, t, "n", marked=["n", "n2"])
    report = validate_networked_supervisor(bad, cfg)
    assert any(v.rule == "network-observability" and v.event == "a3"
               for v in report.violations)


def test_hand_supervisors_are_valid(reduced, guideway):
    assert validate_networked_supervisor(reduced.ns, reduced.cfg).ok
    assert validate_networked_supervisor(guideway.ns, guideway.cfg).ok


# -- monitor -------------------------------------------------------------------

def test_monitor_structure(reduced):
    m = reduced.monitor
    observed = supervisor_control_constraint(reduced.cfg).observable
    assert MONITOR_EMPTY in set(m.states)
    # deterministic everywhere, total self-loops on unobserved events
    assert deterministic(m)
    for q in m.states:
        if q == MONITOR_EMPTY:
            assert enabled(m, q) == (ev.tick,)
            assert step(m, q, ev.tick) == MONITOR_EMPTY
            continue
        for e in m.alphabet:
            if e in observed:
                assert step(m, q, e) is not None   # explained or detected
            else:
                assert step(m, q, e) == q


def test_monitor_initial_estimate_predates_observations(reduced):
    m = reduced.monitor
    # before any command is observed, no channel output is explainable
    assert step(m, m.initial, ev.exit_("a1")) == MONITOR_EMPTY
    # but a genuine command send is
    assert step(m, m.initial, ev.command_entry("w3")) != MONITOR_EMPTY


def test_monitor_detects_quiet_deletion(reduced):
    # a sent command forces a fire and a pop within two ticks; silence after
    # that is unexplainable
    m = reduced.monitor
    q = step(m, m.initial, ev.command_entry("w3"))
    q = step(m, q, ev.tick)
    q = step(m, q, ev.tick)
    assert q == MONITOR_EMPTY


def test_monitor_size_bound(reduced):
    import math
    m = reduced.monitor
    exponent = (len(reduced.cs.states) * len(reduced.ce.states)
                * len(reduced.plant.states) * len(reduced.oc.states)
                * len(reduced.ns.states) * len(reduced.cc.states))
    assert math.log2(len(m.states)) <= exponent


def test_build_system_rejects_invalid_supervisor_first(reduced, monkeypatch):
    cfg = reduced.cfg
    ns = silent_supervisor(cfg)
    broken = Automaton(ns.states, ns.alphabet,
                       [t for t in ns.transitions if t[1] != ev.tick],
                       ns.initial, ns.marked)

    def never_built(_cfg):
        raise AssertionError("command storage built before the NS was checked")

    monkeypatch.setattr(netdes.fixtures, "build_command_storage", never_built)
    with pytest.raises(AutomatonError, match="network-controllability"):
        build_system(cfg, reduced.plant, broken)


def test_attack_free_loop_never_detected(reduced, guideway):
    # soundness of detection: the faithful forwarder never reaches the empty
    # monitor estimate
    for system in (reduced, guideway):
        loop = compose([system.g_new, system.ac, system.oc, system.ns,
                        system.cc, system.monitor, faithful_attacker(system.cfg)])
        assert all(q[5] != MONITOR_EMPTY for q in loop.states)


# -- supervisor constraints and synthesis ------------------------------------------

def test_supervisor_constraints_counter():
    cfg = shipped_config("reduced")
    nsc = build_supervisor_constraints(cfg)
    assert len(nsc.states) == cfg.rates.v + 1
    assert step(nsc, "c0", ev.command_entry("w1")) == "c1"
    assert not successors(nsc, "c1", ev.command_entry("w2"))
    assert step(nsc, "c1", ev.tick) == "c0"
    assert step(nsc, "c1", ev.exit_("a1")) == "c0"


def test_synthesized_supervisor_realizes_spec_exactly(reduced):
    cfg = reduced.cfg
    ns2 = synthesize_networked_supervisor(reduced.g_new, reduced.oc_t,
                                          reduced.cc, reduced_spec(), cfg)
    assert validate_networked_supervisor(ns2, cfg).ok
    sigma = [ev.plant(n) for n in cfg.sigma]
    loop = compose([ns2, reduced.g_new, reduced.oc_t, reduced.cc])
    proj = subset_construction(loop, sigma)
    assert same_closed_language(proj, reduced_spec(), sigma)


def test_universal_spec_always_has_a_supervisor(reduced):
    cfg = reduced.cfg
    sigma = [ev.plant(n) for n in cfg.sigma]
    universal = Automaton(["u"], sigma, [("u", e, "u") for e in sigma], "u",
                          marked=["u"], name="spec")
    ns2 = synthesize_networked_supervisor(reduced.g_new, reduced.oc_t,
                                          reduced.cc, universal, cfg)
    assert validate_networked_supervisor(ns2, cfg).ok


def test_unpreventable_violation_has_no_supervisor():
    # an uncontrollable, unobservable event fires immediately; a spec that
    # forbids it admits no supervisor
    events = (EventSpec("c", True, True, True, True, 0),
              EventSpec("x", False, False, False, False, None))
    cfg = SystemConfig(events=events, commands={"v": frozenset({"c"})},
                       delta_o=0, delta_c=0, delta_s=0,
                       rates=RateBounds(1, 1, 1))
    plant = Automaton(["p0", "p1"], cfg.plant_labels(),
                      [("p0", ev.plant("x"), "p1")], "p0")
    system = build_system(cfg, plant, silent_supervisor(cfg))
    empty_spec = Automaton(["s"], cfg.plant_labels(), [], "s", marked=["s"])
    with pytest.raises(NoSupervisorError):
        synthesize_networked_supervisor(system.g_new, system.oc_t, system.cc,
                                        empty_spec, cfg)

"""Worked example systems: the two-train guideway and a reduced one-train
variant used for exhaustive checks.

Guideway: two trains travel a one-way two-section track (positions 0..3 per
train, state number 4*p1+p2). Both trains in the same section is damage,
which makes the damage set {5, 10}. Junctions 1 and 2 have traffic lights
(a1,a2,b1,b2 controllable), junctions 1 and 3 have cameras (a1,a3,b1,b3
observable and compromised); command v1 moves train 1, v2 moves train 2, v3
lets either train enter.

Reduced: one train, events a1/a2 controllable-observable-compromised and a3
uncontrollable-unobservable; command w3 = {a1,a2} resolves nondeterministically,
and repeating the first move is damage. The adapted damage trace is: the
attacker's first observation a1 is answered by a2#, the misled supervisor
sends w1, and the plant fires a1 into damage state 7 (symmetrically a2/a1#/w2
into damage state 8).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from . import events as ev
from .attacker import attack_control_constraint, build_attack_constraints
from .automaton import Automaton, complete_with_selfloops
from .channels import (build_control_channel, build_observation_channel,
                       relabel_to_attack_free)
from .config import EventSpec, RateBounds, SystemConfig
from .plant import (build_command_execution, build_command_storage,
                    compose_and_prune_plant)
from .supervision import build_monitor
from .synthesis import SynthesisProblem, build_problem

_PARAMS = dict(delta_o=1, delta_c=0, delta_s=0, rates=RateBounds(1, 1, 1))


def guideway_config() -> SystemConfig:
    def obs(name):     # controllable, observable, camera-visible, compromised
        return EventSpec(name, True, True, True, True, 0)

    def silent(name):  # controllable but unobservable (no camera)
        return EventSpec(name, True, False, False, False, 0)

    def free(name):    # uncontrollable, observable, compromised
        return EventSpec(name, False, True, True, True, None)

    return SystemConfig(
        events=(obs("a1"), silent("a2"), free("a3"),
                obs("b1"), silent("b2"), free("b3")),
        commands={"v1": frozenset({"a1", "a2"}),
                  "v2": frozenset({"b1", "b2"}),
                  "v3": frozenset({"a1", "b1"})},
        damage=frozenset({"5", "10"}),
        **_PARAMS)


def guideway_plant(cfg: SystemConfig) -> Automaton:
    """Two-train position grid; collisions (5 and 10) are absorbing."""
    damage = {(1, 1), (2, 2)}
    states = [str(4 * p1 + p2) for p1 in range(4) for p2 in range(4)]
    trans = []
    for p1 in range(4):
        for p2 in range(4):
            if (p1, p2) in damage:
                continue
            src = str(4 * p1 + p2)
            if p1 < 3:
                trans.append((src, ev.plant(f"a{p1 + 1}"), str(4 * (p1 + 1) + p2)))
            if p2 < 3:
                trans.append((src, ev.plant(f"b{p2 + 1}"), str(4 * p1 + p2 + 1)))
    a = Automaton(states, cfg.plant_labels(), trans, "0",
                  marked=[q for q in states if q in cfg.damage], name="G")
    return a


def _supervisor_from_design(cfg: SystemConfig, states: List[str], initial: str,
                            designed: List[Tuple[str, ev.EventLabel, str]],
                            name: str = "NS") -> Automaton:
    """Hand-crafted supervisor: designed moves plus self-loops everywhere
    else, except command sends, which stay disabled unless designed."""
    full = cfg.full_alphabet()
    gamma_in = {ev.command_entry(g) for g in cfg.gamma}
    return complete_with_selfloops(
        Automaton(states, full, designed, initial, marked=states, name=name),
        frozenset(full) - gamma_in)


def guideway_supervisor(cfg: SystemConfig) -> Automaton:
    """The designed supervisor: open with v3, then walk whichever train moved
    first through its section and bring the other across afterwards."""
    E = ev
    d: List[Tuple[str, ev.EventLabel, str]] = [
        ("B0", E.command_entry("v3"), "B1"),
        ("B1", E.exit_("a1"), "B2a"), ("B1", E.exit_("b1"), "B2b"),
        # train 1 entered first
        ("B2a", E.command_entry("v1"), "B3a"),
        ("B3a", E.exit_("a3"), "B4a"),
        ("B4a", E.command_entry("v2"), "B5a"),
        ("B5a", E.exit_("b1"), "B6a"),
        ("B6a", E.command_entry("v2"), "B7a"),
        ("B7a", E.exit_("b3"), "B8"),
        # train 2 entered first
        ("B2b", E.command_entry("v2"), "B3b"),
        ("B3b", E.exit_("b3"), "B4b"),
        ("B4b", E.command_entry("v1"), "B5b"),
        ("B5b", E.exit_("a1"), "B6b"),
        ("B6b", E.command_entry("v1"), "B7b"),
        ("B7b", E.exit_("a3"), "B8"),
    ]
    states = ["B0", "B1", "B2a", "B3a", "B4a", "B5a", "B6a", "B7a",
              "B2b", "B3b", "B4b", "B5b", "B6b", "B7b", "B8"]
    return _supervisor_from_design(cfg, states, "B0", d)


def guideway_spec() -> Automaton:
    """Prefix closure of {a1 a2 a3 b1 b2 b3, b1 b2 b3 a1 a2 a3}."""
    seqs = [["a1", "a2", "a3", "b1", "b2", "b3"],
            ["b1", "b2", "b3", "a1", "a2", "a3"]]
    return _chain_spec(seqs, ["a1", "a2", "a3", "b1", "b2", "b3"])


def _chain_spec(seqs: List[List[str]], alphabet: List[str]) -> Automaton:
    states = ["r"]
    trans = []
    for i, seq in enumerate(seqs):
        prev = "r"
        for j, name in enumerate(seq):
            node = f"s{i}_{j}"
            states.append(node)
            trans.append((prev, ev.plant(name), node))
            prev = node
    return Automaton(states, [ev.plant(n) for n in alphabet], trans, "r",
                     marked=states, name="spec")


def guideway_swap_attacker(cfg: SystemConfig) -> Automaton:
    """Hand-written covert damage attack: swap the first observation between
    the trains, then forward faithfully."""
    swaps = {"a1": "b1", "b1": "a1"}
    return _swap_attacker(cfg, swaps)


def _swap_attacker(cfg: SystemConfig, swaps: Dict[str, str]) -> Automaton:
    t: List[Tuple[str, ev.EventLabel, str]] = []
    states = ["F0", "FS", "F1", "T"]
    for seen, sent in swaps.items():
        node = f"S_{seen}"
        states.append(node)
        t.append(("F0", ev.plant(seen), node))
        t.append((node, ev.compromised(sent), "FS"))
    t.append(("FS", ev.stop, "F1"))
    for name in cfg.sigma_sa:
        node = f"T_{name}"
        states.append(node)
        t.append(("F1", ev.plant(name), node))
        t.append((node, ev.compromised(name), "T"))
    t.append(("T", ev.stop, "F1"))
    base = Automaton(states, cfg.full_alphabet(), t, "F0", marked=states,
                     name="A_swap")
    return complete_with_selfloops(
        base, base.alphabet - attack_control_constraint(cfg).controllable)


# -- reduced fixture ----------------------------------------------------------

def reduced_config() -> SystemConfig:
    def obs(name):
        return EventSpec(name, True, True, True, True, 0)

    return SystemConfig(
        events=(obs("a1"), obs("a2"),
                EventSpec("a3", False, False, False, False, None)),
        commands={"w1": frozenset({"a1"}),
                  "w2": frozenset({"a2"}),
                  "w3": frozenset({"a1", "a2"})},
        damage=frozenset({"7", "8"}),
        **_PARAMS)


def reduced_plant(cfg: SystemConfig) -> Automaton:
    trans = [
        ("0", ev.plant("a1"), "1"), ("0", ev.plant("a2"), "2"),
        ("1", ev.plant("a2"), "3"), ("2", ev.plant("a1"), "4"),
        ("3", ev.plant("a3"), "5"), ("4", ev.plant("a3"), "6"),
        ("1", ev.plant("a1"), "7"), ("2", ev.plant("a2"), "8"),
    ]
    states = [str(i) for i in range(9)]
    return Automaton(states, cfg.plant_labels(), trans, "0",
                     marked=["7", "8"], name="G")


def reduced_supervisor(cfg: SystemConfig) -> Automaton:
    d: List[Tuple[str, ev.EventLabel, str]] = [
        ("B0", ev.command_entry("w3"), "B1"),
        ("B1", ev.exit_("a1"), "B2"), ("B1", ev.exit_("a2"), "B2m"),
        ("B2", ev.command_entry("w2"), "B3"),
        ("B3", ev.exit_("a2"), "B4"),
        ("B2m", ev.command_entry("w1"), "B3m"),
        ("B3m", ev.exit_("a1"), "B4m"),
    ]
    states = ["B0", "B1", "B2", "B3", "B4", "B2m", "B3m", "B4m"]
    return _supervisor_from_design(cfg, states, "B0", d)


def reduced_spec() -> Automaton:
    return _chain_spec([["a1", "a2", "a3"], ["a2", "a1", "a3"]],
                       ["a1", "a2", "a3"])


def reduced_swap_attacker(cfg: SystemConfig) -> Automaton:
    return _swap_attacker(cfg, {"a1": "a2", "a2": "a1"})


# -- pipeline assembly ---------------------------------------------------------


@dataclass
class BuiltSystem:
    cfg: SystemConfig
    plant: Automaton
    cs: Automaton
    ce: Automaton
    g_new: Automaton
    ac: Automaton
    oc: Automaton
    oc_t: Automaton
    cc: Automaton
    ns: Automaton
    monitor: Automaton


def build_system(cfg: SystemConfig, plant: Automaton, ns: Automaton,
                 count_forwarded_event: bool = True) -> BuiltSystem:
    cs = build_command_storage(cfg)
    ce = build_command_execution(cfg)
    g_new = compose_and_prune_plant(cs, ce, plant, cfg)
    ac = build_attack_constraints(cfg, count_forwarded_event)
    oc = build_observation_channel(cfg)
    oc_t = relabel_to_attack_free(oc)
    cc = build_control_channel(cfg)
    monitor = build_monitor(ns, g_new, oc_t, cc, cfg)
    return BuiltSystem(cfg, plant, cs, ce, g_new, ac, oc, oc_t, cc, ns, monitor)


def build_attack_problem(system: BuiltSystem) -> SynthesisProblem:
    return build_problem(system.g_new, system.ac, system.oc, system.ns,
                         system.cc, system.monitor, system.cfg)


def guideway_system() -> BuiltSystem:
    cfg = guideway_config()
    return build_system(cfg, guideway_plant(cfg), guideway_supervisor(cfg))


def reduced_system() -> BuiltSystem:
    cfg = reduced_config()
    return build_system(cfg, reduced_plant(cfg), reduced_supervisor(cfg))

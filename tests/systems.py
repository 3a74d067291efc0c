"""The shipped systems, loaded from ``src/netdes/data/``, and hand-written
specifications and attacks for them.

The data files are the only definition of the guideway and reduced systems;
README describes both.
"""
import dataclasses
import os
from typing import Dict, List, Tuple

import netdes.events as ev
from netdes.attacker import attack_control_constraint
from netdes.automaton import Automaton
from netdes.config import RATES, SystemConfig, load_config
from netdes.fixtures import BuiltSystem, build_system, load_system
from oracles import complete_with_selfloops

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "netdes", "data")


def shipped_paths(stem: str) -> Tuple[str, str, str]:
    """The config, plant and networked supervisor files of a shipped system."""
    return (os.path.join(DATA, f"{stem}.cfg"),
            os.path.join(DATA, f"{stem}_plant.aut"),
            os.path.join(DATA, f"{stem}_ns.aut"))


def shipped_config(stem: str) -> SystemConfig:
    return load_config(shipped_paths(stem)[0])


def shipped_system(stem: str) -> BuiltSystem:
    return load_system(*shipped_paths(stem))


# the shipped systems and the configs of the golden parameter rungs
RUNG_CONFIGS = [("guideway", ""), ("reduced", ""), ("guideway", "delta_o=2"),
                ("guideway", "delta_c=1"), ("guideway", "u=2"), ("reduced", "delta_s=1")]


def with_params(cfg: SystemConfig, **params: int) -> SystemConfig:
    """``cfg`` with the given delay and rate parameters (``config.PARAMETERS``)
    changed."""
    rates = {key: params.pop(key) for key in RATES if key in params}
    return dataclasses.replace(cfg, rates=dataclasses.replace(cfg.rates, **rates), **params)


def rung_config(stem: str, params: str = "") -> SystemConfig:
    """A shipped config with one parameter changed."""
    cfg = shipped_config(stem)
    if not params:
        return cfg
    key, value = params.split("=")
    return with_params(cfg, **{key: int(value)})


def rung_system(stem: str, params: str = "") -> BuiltSystem:
    """A shipped system with one parameter changed, built anew, so nothing
    another test explored is shared."""
    system = shipped_system(stem)
    return build_system(rung_config(stem, params), system.plant, system.ns)


# -- specifications ------------------------------------------------------------

def guideway_spec() -> Automaton:
    """Prefix closure of {a1 a2 a3 b1 b2 b3, b1 b2 b3 a1 a2 a3}."""
    seqs = [["a1", "a2", "a3", "b1", "b2", "b3"],
            ["b1", "b2", "b3", "a1", "a2", "a3"]]
    return _chain_spec(seqs, ["a1", "a2", "a3", "b1", "b2", "b3"])


def reduced_spec() -> Automaton:
    return _chain_spec([["a1", "a2", "a3"], ["a2", "a1", "a3"]],
                       ["a1", "a2", "a3"])


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


# -- attacks -------------------------------------------------------------------

def guideway_swap_attacker(cfg: SystemConfig) -> Automaton:
    """Hand-written covert damage attack: swap the first observation between
    the trains, then forward faithfully."""
    return swap_attacker(cfg, {"a1": "b1", "b1": "a1"})


def reduced_swap_attacker(cfg: SystemConfig) -> Automaton:
    return swap_attacker(cfg, {"a1": "a2", "a2": "a1"})


def swap_attacker(cfg: SystemConfig, swaps: Dict[str, str]) -> Automaton:
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


def faithful_attacker(cfg: SystemConfig) -> Automaton:
    """The attacker that forwards every observation untouched.

    Observing a compromised event, it re-emits exactly that event and stops;
    observing an untamperable one, it lets the plant's forward pass and
    stops. Everything else self-loops. Serves as the sound no-op fixture:
    composed with the loop it must never trigger detection.
    """
    alphabet = cfg.full_alphabet()
    oa, sa = set(cfg.sigma_oa), set(cfg.sigma_sa)
    obs_only = sorted(oa - sa)
    f0, fstop = "f0", "fstop"
    states = [f0] + [f"fsig_{n}" for n in sorted(sa)] \
        + [f"fobs_{n}" for n in obs_only] + [fstop]
    t: List[Tuple[str, ev.EventLabel, str]] = []
    for n in sorted(sa):
        t.append((f0, ev.plant(n), f"fsig_{n}"))
        t.append((f"fsig_{n}", ev.compromised(n), fstop))
    for n in obs_only:
        t.append((f0, ev.plant(n), f"fobs_{n}"))
        t.append((f"fobs_{n}", ev.entry(n), fstop))
    t.append((fstop, ev.stop, f0))
    base = Automaton(states, alphabet, t, f0, marked=states, name="A_faithful")
    return complete_with_selfloops(
        base, base.alphabet - attack_control_constraint(cfg).controllable)

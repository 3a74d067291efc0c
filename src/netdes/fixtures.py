"""Pipeline assembly and the one loader.

``load_system`` turns a config, a plant and a networked supervisor file into
every component of the loop; ``build_system`` does the same from objects
already in memory. Before anything is built, the networked supervisor is
validated, once. The shipped systems are the files under ``data/``.

The command store CS, the pruned plant G_new and the channels OC and OC^T
are lazy automata: the monitor, and the attack problem that
``synthesis.build_problem`` composes over a ``BuiltSystem``, build only the
rows of them that they reach. The writers and the size check explore the
rest (G_new through ``automaton.number``, keeping none of its rows);
``verify`` explores none of them.
"""
from __future__ import annotations

from typing import NamedTuple

from .attacker import build_attack_constraints
from .automaton import Automaton, AutomatonError
from .channels import (build_control_channel, build_observation_channel,
                       relabel_to_attack_free)
from .config import SystemConfig, load_config
from .plant import (build_command_execution, build_command_storage,
                    compose_and_prune_plant, load_plant)
from .supervision import build_monitor, validate_networked_supervisor
from .textio import load_automaton


class BuiltSystem(NamedTuple):
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


def build_system(cfg: SystemConfig, plant: Automaton, ns: Automaton) -> BuiltSystem:
    """Every loop component; raises AutomatonError with the report when
    ``ns`` is not a valid supervisor.

    The plant's marked states are its damage set, which
    ``synthesis.build_problem`` reads: for a loaded plant the states its
    file's ``.marked`` line names, for one in memory its ``marked``."""
    report = validate_networked_supervisor(ns, cfg)
    if not report.ok:
        raise AutomatonError(report.render())
    cs = build_command_storage(cfg)
    ce = build_command_execution(cfg)
    g_new = compose_and_prune_plant(cs, ce, plant, cfg)
    ac = build_attack_constraints(cfg)
    oc = build_observation_channel(cfg)
    oc_t = relabel_to_attack_free(oc)
    cc = build_control_channel(cfg)
    monitor = build_monitor(ns, g_new, oc_t, cc, cfg)
    return BuiltSystem(cfg, plant, cs, ce, g_new, ac, oc, oc_t, cc, ns, monitor)


def load_system(config: str, plant: str, ns: str) -> BuiltSystem:
    """Read the three files, the config first, and build the system."""
    cfg = load_config(config)
    return build_system(cfg, load_plant(plant, cfg), load_automaton(ns, name="NS"))


"""Covert sensor-attack synthesis for networked discrete-event systems."""

from .automaton import Automaton, AutomatonError, compose, subset_construction
from .channels import (build_control_channel, build_observation_channel,
                       capacity_control, capacity_observation,
                       enumerate_channel_states, relabel_to_attack_free)
from .config import RateBounds, SystemConfig, load_config, parse_config
from .events import EventLabel
from .attacker import build_attack_constraints, validate_attack
from .plant import (build_command_execution, build_command_storage,
                    capacity_storage, compose_and_prune_plant, load_plant)
from .supervision import build_monitor, validate_networked_supervisor
from .synthesis import (SynthesisMode, SynthesisProblem, build_problem,
                        synthesize_supremal_attack, verify_covert,
                        verify_damage_nonblocking, verify_damage_reachable)
from .textio import load_automaton, parse_automaton, save_automaton, to_dot

__version__ = "0.1.0"

"""The pruning engine against two independent oracles.

The reference engine (``reference_engine.py``) is a frozen copy of the
straightforward fixpoint: the engine must return exactly its automata. The
exhaustive oracle enumerates, on tiny plants, every attack that keeps a
subset of the full observer's controllable edges, and checks that each one
that is valid, covert and meets its goal lies inside the synthesized attack:
this tests supremality itself, not one edit at a time.
"""
import itertools

import pytest

import netdes.events as ev
from netdes.attacker import validate_attack
from netdes.automaton import Automaton, subset_construction
from netdes.config import EventSpec, RateBounds, SystemConfig
from netdes.fixtures import build_system
from netdes.synthesis import (SynthesisMode, check_attack,
                              synthesize_supremal_attack)

from oracles import (NoSupervisorError, enabled, restrict_reachable, step,
                     successors, synthesize_networked_supervisor)
from reference_engine import (reference_attack, reference_networked_supervisor,
                              same_automaton)
from systems import reduced_spec
from test_supervision import silent_supervisor
from test_synthesis import _random_problems

MODES = (SynthesisMode.DAMAGE_NONBLOCKING, SynthesisMode.DAMAGE_REACHABLE)


# -- differential tests against the reference engine ---------------------------

# 777 also seeds the local-maximality test. The 56th instance of seed 3
# kills, in a nonblocking round, an estimate that has uncontrollable
# predecessors, so those deaths must go through the attractor too (about
# one instance in 500 does). 271828 was not used while the worklist engine
# was written.
@pytest.mark.parametrize("seed,count", [(777, 300), (3, 100), (271828, 500)])
def test_engine_matches_reference_on_random_problems(seed, count):
    solved = 0
    for prob in _random_problems(seed, count):
        for mode in MODES:
            attack = synthesize_supremal_attack(prob, mode)
            assert same_automaton(attack, reference_attack(prob, mode))
            solved += attack is not None
    assert solved > count // 4


# A second observed uncontrollable event makes nonblocking rounds cut more
# often: of these 2,000 instances the reference engine composes P||S twice
# for 61 and three times for 2, so the rounds after the first are compared.
def test_engine_matches_reference_with_two_observed_uncontrollable_events():
    solved = repeated = 0
    for prob in _random_problems(2026, 2000, observed=("o", "k"), sizes=(3, 10)):
        for mode in MODES:
            rounds = []
            attack = synthesize_supremal_attack(prob, mode)
            assert same_automaton(attack, reference_attack(prob, mode, rounds))
            solved += attack is not None
            repeated += len(rounds) > 1
    assert solved > 500 and repeated >= 50


def test_engine_matches_reference_on_shipped_systems(
        guideway_problem, guideway_attacks, reduced_problem, reduced_attacks):
    for prob, attacks in ((guideway_problem, guideway_attacks),
                          (reduced_problem, reduced_attacks)):
        for mode, attack in zip(MODES, attacks):
            assert attack is not None
            assert same_automaton(attack, reference_attack(prob, mode))


def test_networked_supervisor_matches_reference(reduced):
    cfg = reduced.cfg
    sigma = [ev.plant(n) for n in cfg.sigma]
    universal = Automaton(["u"], sigma, [("u", e, "u") for e in sigma], "u",
                          marked=["u"], name="spec")
    for spec in (reduced_spec(), universal):
        args = (reduced.g_new, reduced.oc_t, reduced.cc, spec, cfg)
        ns = synthesize_networked_supervisor(*args)
        assert same_automaton(ns, reference_networked_supervisor(*args))


def test_no_networked_supervisor_in_either_engine():
    events = (EventSpec("c", True, True, True, True, 0),
              EventSpec("x", False, False, False, False, None))
    cfg = SystemConfig(events=events, commands={"v": frozenset({"c"})},
                       delta_o=0, delta_c=0, delta_s=0,
                       rates=RateBounds(1, 1, 1))
    plant = Automaton(["p0", "p1"], cfg.plant_labels(),
                      [("p0", ev.plant("x"), "p1")], "p0")
    system = build_system(cfg, plant, silent_supervisor(cfg))
    empty_spec = Automaton(["s"], cfg.plant_labels(), [], "s", marked=["s"])
    args = (system.g_new, system.oc_t, system.cc, empty_spec, cfg)
    assert reference_networked_supervisor(*args) is None
    with pytest.raises(NoSupervisorError):
        synthesize_networked_supervisor(*args)


# -- exhaustive supremality oracle -------------------------------------------------

MAX_CHOICES = 10


def _sub_observer_attacks(prob, choices, fixed, full):
    """Every attack that keeps the fixed edges and a subset of ``choices``,
    restricted to its reachable part."""
    for picks in itertools.product((False, True), repeat=len(choices)):
        kept = fixed + [t for t, on in zip(choices, picks) if on]
        yield restrict_reachable(Automaton(
            full.states, prob.plant.alphabet, kept, full.initial, full.states, "A'"))


def _loop_within(plant, small, big):
    """Whether every trace of P||small is a trace of P||big (both
    attacks deterministic)."""
    start = (plant.initial, small.initial, big.initial)
    seen = {start}
    work = [start]
    while work:
        p, x, y = work.pop()
        for e in enabled(plant, p):
            x2 = step(small, x, e)
            if x2 is None:
                continue
            y2 = step(big, y, e)
            if y2 is None:
                return False
            for p2 in successors(plant, p, e):
                if (p2, x2, y2) not in seen:
                    seen.add((p2, x2, y2))
                    work.append((p2, x2, y2))
    return True


def test_synthesized_attack_contains_every_covert_sub_observer_attack():
    checked = kept = 0
    for prob in _random_problems(31337, 100):
        plant = prob.plant
        controllable = frozenset(prob.constraint.controllable) & plant.alphabet
        observable = frozenset(prob.constraint.observable) & plant.alphabet
        full = subset_construction(plant, observable)
        choices = [t for t in full.transitions if t[1] in controllable]
        if not choices or len(choices) > MAX_CHOICES:
            continue
        fixed = [t for t in full.transitions if t[1] not in controllable]
        fixed += [(x, e, x) for x in full.states
                  for e in plant.alphabet - controllable
                  if not successors(full, x, e)]
        sups = {mode: synthesize_supremal_attack(prob, mode) for mode in MODES}
        checked += 1
        for a in _sub_observer_attacks(prob, choices, fixed, full):
            assert validate_attack(a, prob.constraint, plant.alphabet).ok
            verdicts = check_attack(prob, a)
            if not verdicts.covert.ok:
                continue
            goals = {SynthesisMode.DAMAGE_NONBLOCKING: verdicts.nonblocking,
                     SynthesisMode.DAMAGE_REACHABLE: verdicts.reachable}
            for mode in MODES:
                if goals[mode].ok:
                    kept += 1
                    assert sups[mode] is not None
                    assert _loop_within(plant, a, sups[mode])
    assert checked >= 40 and kept >= 100

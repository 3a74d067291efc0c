"""The pruning engine against the closed-form supremality oracle.

``supcn_oracle.py`` computes the supremal covert supervisor from the
definitions, with no code of the engine's. On every random problem, on the
golden rungs and on networked-supervisor synthesis, the engine's result and
the closed form's must give P closed loops of the same language, and "no
supervisor" must agree both ways. The golden digests pin the state order
of the engine's attacks; this pins that they are supremal.
"""
import pytest

import netdes.events as ev
from netdes.automaton import Automaton
from netdes.config import EventSpec, RateBounds, SystemConfig
from netdes.fixtures import build_system
from netdes.synthesis import (SynthesisMode, build_problem, supremal_supervisor,
                              synthesize_supremal_attack)

from oracles import networked_supervisor_problem
from supcn_oracle import disagreement, supcn
from systems import RUNG_CONFIGS, reduced_spec, rung_system
from test_supervision import silent_supervisor
from test_synthesis import _random_problems

MODES = (SynthesisMode.DAMAGE_NONBLOCKING, SynthesisMode.DAMAGE_REACHABLE)


def _agree(problem, rounds=None):
    """The attacks of both modes, each checked against the closed form."""
    attacks = [synthesize_supremal_attack(problem, mode) for mode in MODES]
    for mode, attack in zip(MODES, attacks):
        assert disagreement(problem, attack, mode, rounds) is None, mode
    return attacks


def _solved(attacks):
    return sum(a is not None for a in attacks)


# The 56th instance of seed 3 kills, in a nonblocking round, an estimate
# that has uncontrollable predecessors, so those deaths must go through the
# attractor too (about one instance in 500 does). 271828 was not used while
# the worklist engine was written.
@pytest.mark.parametrize("seed,count", [(777, 300), (3, 100), (271828, 500), (31337, 100)])
def test_engine_matches_reference_on_random_problems(seed, count):
    assert sum(_solved(_agree(prob)) for prob in _random_problems(seed, count)) > count // 2


# A second observed uncontrollable event makes nonblocking rounds cut more
# often: on 34 of these 2,000 instances the closed form excludes blocking
# pairs and a nonblocking attack remains, and on 31 it takes two rounds.
def test_engine_matches_reference_with_two_observed_uncontrollable_events():
    solved = cut = repeated = 0
    for prob in _random_problems(2026, 2000, observed=("o", "k"), sizes=(3, 10)):
        rounds = []
        attacks = _agree(prob, rounds)
        solved += _solved(attacks)
        cut += bool(rounds) and attacks[0] is not None
        repeated += len(rounds) > 1
    assert solved > 900 and cut >= 25 and repeated >= 25


def test_engine_matches_reference_on_shipped_systems():
    # the golden rungs, guideway u=2 among them (21,189 states of P)
    for stem, params in RUNG_CONFIGS:
        assert _solved(_agree(build_problem(rung_system(stem, params)))) == 2, (stem, params)


def test_networked_supervisor_matches_reference(reduced):
    cfg = reduced.cfg
    sigma = [ev.plant(n) for n in cfg.sigma]
    universal = Automaton(["u"], sigma, [("u", e, "u") for e in sigma], "u",
                          marked=["u"], name="spec")
    for spec in (reduced_spec(), universal):
        problem = networked_supervisor_problem(
            reduced.g_new, reduced.oc_t, reduced.cc, spec, cfg)
        ns = supremal_supervisor(problem, require_nonblocking=False)
        assert ns is not None
        assert disagreement(problem, ns) is None


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
    problem = networked_supervisor_problem(
        system.g_new, system.oc_t, system.cc, empty_spec, cfg)
    assert supremal_supervisor(problem, require_nonblocking=False) is None
    assert supcn(problem) is None

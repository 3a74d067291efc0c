import dataclasses
from collections import Counter

import pytest

import netdes.automaton as automaton
import netdes.events as ev
from netdes.attacker import ControlConstraint, validate_attack
from netdes.automaton import (Automaton, AutomatonError, compose, number,
                              lazy_automaton, state_name, subset_construction)
from netdes.fixtures import build_system
from netdes.supervision import MONITOR_EMPTY, supervisor_control_constraint
from netdes.synthesis import (SynthesisMode, SynthesisProblem, build_problem,
                              check_attack, state_size_report,
                              synthesize_supremal_attack, verify_covert,
                              verify_damage_nonblocking, verify_damage_reachable)
from netdes.textio import serialize_automaton
from oracles import (accepts, apply_edit, bfs_distances, bfs_order,
                     bounded_traces, complete_with_selfloops, coreachable,
                     disabled_controllable_edits, empty_automaton, enabled,
                     marked_copy, nested_loop_product, successors)
from systems import (faithful_attacker, guideway_swap_attacker,
                     reduced_swap_attacker, swap_attacker)

C_HASH = ev.compromised("c")
U_EV = ev.plant("u")


def tiny_problem(bad, target, trans, states=("s0", "s1", "s2")):
    alphabet = [C_HASH, U_EV, ev.stop]
    plant = Automaton(states, alphabet, trans, "s0", marked=target, name="P")
    constraint = ControlConstraint(
        frozenset({C_HASH, ev.stop}), frozenset({C_HASH, ev.stop}), "sa")
    return SynthesisProblem(plant, frozenset(bad).__contains__, constraint)


# -- problem construction ---------------------------------------------------------

def test_guideway_problem_sets(guideway_problem):
    prob = guideway_problem
    for q in prob.target:
        assert state_name(q[0][2]) in {"5", "10"}
    for q in prob.bad:
        assert q[5] == MONITOR_EMPTY and state_name(q[0][2]) not in {"5", "10"}
    assert prob.bad and prob.target
    assert frozenset(prob.plant.marked) == prob.target


def test_empty_damage_makes_every_detection_bad(reduced):
    cfg = dataclasses.replace(reduced.cfg, damage=frozenset())
    plant = marked_copy(reduced.plant, ())
    system = build_system(cfg, plant, reduced.ns)
    prob = build_problem(system)
    assert not prob.target
    assert all(q[5] == MONITOR_EMPTY for q in prob.bad)
    assert prob.bad


def test_damage_states_are_the_plant_marking_not_the_config(reduced):
    # the config still names 7 and 8 as damage; the plant marks only 7
    assert reduced.cfg.damage == {"7", "8"}
    only_7 = [q for q in reduced.plant.states if state_name(q) == "7"]
    system = build_system(reduced.cfg, marked_copy(reduced.plant, only_7), reduced.ns)
    prob = build_problem(system)
    assert {state_name(q[0][2]) for q in prob.target} == {"7"}
    assert len(prob.bad) == 7


def test_no_tampering_means_no_detection_states(reduced):
    events = tuple(dataclasses.replace(e, compromised=False)
                   for e in reduced.cfg.events)
    cfg = dataclasses.replace(reduced.cfg, events=events)
    # the shipped NS on this loop alphabet: compromised events leave it,
    # channel entries join it as self-loops
    full = frozenset(cfg.full_alphabet())
    ns = reduced.ns
    ns = complete_with_selfloops(
        Automaton(ns.states, ns.alphabet & full,
                  [t for t in ns.transitions if t[1] in full],
                  ns.initial, ns.marked, ns.name),
        full - supervisor_control_constraint(cfg).controllable)
    system = build_system(cfg, reduced.plant, ns)
    prob = build_problem(system)
    assert not prob.bad


# -- the synthesis core -------------------------------------------------------------

def test_unconstrained_problem_keeps_full_observer():
    prob = tiny_problem(bad=(), target=("s1",),
                        trans=[("s0", C_HASH, "s1")], states=("s0", "s1"))
    a = synthesize_supremal_attack(prob, SynthesisMode.DAMAGE_REACHABLE)
    full = subset_construction(prob.plant, prob.constraint.observable
                               & prob.plant.alphabet)
    assert a is not None
    assert len(a.states) == len(full.states)
    assert verify_damage_reachable(prob, a).ok


def test_every_damage_path_through_bad_is_unsolvable():
    # the only route to the target goes through a covertness violation that
    # sits in the unobservable reach of the first move
    trans = [("s0", C_HASH, "s1"), ("s1", U_EV, "s2")]
    prob = tiny_problem(bad=("s1",), target=("s2",), trans=trans)
    assert synthesize_supremal_attack(prob, SynthesisMode.DAMAGE_REACHABLE) is None
    assert synthesize_supremal_attack(prob, SynthesisMode.DAMAGE_NONBLOCKING) is None


def test_fixture_synthesis_nonempty_and_correct(reduced_problem, reduced_attacks,
                                                guideway_problem, guideway_attacks):
    for prob, (nb, r) in ((reduced_problem, reduced_attacks),
                          (guideway_problem, guideway_attacks)):
        assert nb is not None and r is not None
        for attack in (nb, r):
            assert verify_covert(prob, attack).ok
            assert validate_attack(attack, prob.constraint,
                                   prob.plant.alphabet).ok
        assert verify_damage_nonblocking(prob, nb).ok
        assert verify_damage_reachable(prob, nb).ok
        assert verify_damage_reachable(prob, r).ok


def test_mode_monotonicity(reduced_problem, reduced_attacks):
    nb, r = reduced_attacks
    loop_nb = compose([reduced_problem.plant, nb])
    loop_r = compose([reduced_problem.plant, r])
    for trace in bounded_traces(loop_nb, 12):
        assert accepts(loop_r, trace)


# -- verification -------------------------------------------------------------------

def test_faithful_attacker_is_covert_but_harmless(guideway, guideway_problem):
    af = faithful_attacker(guideway.cfg)
    assert verify_covert(guideway_problem, af).ok
    assert not verify_damage_reachable(guideway_problem, af).ok


def test_impossible_insertion_breaks_covertness(guideway, guideway_problem):
    # answering the first a1 with a3# claims a train finished before starting
    liar = swap_attacker(guideway.cfg, {"a1": "a3"})
    res = verify_covert(guideway_problem, liar)
    assert not res.ok
    assert res.witness is not None
    assert ev.compromised("a3") in res.witness


def test_empty_language_attack_is_vacuously_covert(guideway_problem):
    a = empty_automaton(guideway_problem.plant.alphabet)
    assert verify_covert(guideway_problem, a).ok


def test_never_attack_is_not_damage_reachable(reduced, reduced_problem):
    af = faithful_attacker(reduced.cfg)
    assert verify_covert(reduced_problem, af).ok
    assert not verify_damage_reachable(reduced_problem, af).ok
    assert not verify_damage_nonblocking(reduced_problem, af).ok


def test_no_target_fails_both_damage_checks(reduced):
    cfg = dataclasses.replace(reduced.cfg, damage=frozenset())
    system = build_system(cfg, marked_copy(reduced.plant, ()), reduced.ns)
    prob = build_problem(system)
    af = faithful_attacker(cfg)
    assert not verify_damage_reachable(prob, af).ok
    assert not verify_damage_nonblocking(prob, af).ok


def test_alphabet_mismatch_rejected(reduced_problem):
    with pytest.raises(AutomatonError):
        verify_covert(reduced_problem, empty_automaton([ev.tick]))


def test_problem_rejects_a_supervisor_without_a_loop_event(reduced):
    ns = reduced.ns
    no_tick = Automaton(ns.states, ns.alphabet - {ev.tick},
                        [t for t in ns.transitions if t[1] != ev.tick],
                        ns.initial, ns.marked, ns.name)
    with pytest.raises(AutomatonError) as err:
        build_problem(reduced._replace(ns=no_tick))
    assert str(err.value) == "NS alphabet is not the full loop alphabet"


# -- dominance of hand-written fixtures ------------------------------------------------

def test_hand_attacks_are_dominated(reduced, reduced_problem, reduced_attacks,
                                    guideway, guideway_problem, guideway_attacks):
    cases = [
        (reduced_problem, reduced_swap_attacker(reduced.cfg), reduced_attacks[0]),
        (reduced_problem, faithful_attacker(reduced.cfg), reduced_attacks[1]),
        (guideway_problem, guideway_swap_attacker(guideway.cfg), guideway_attacks[0]),
        (guideway_problem, faithful_attacker(guideway.cfg), guideway_attacks[1]),
    ]
    for prob, hand, supremal in cases:
        assert verify_covert(prob, hand).ok
        loop_hand = compose([prob.plant, hand])
        loop_sup = compose([prob.plant, supremal])
        for trace in bounded_traces(loop_hand, 12):
            assert accepts(loop_sup, trace)


def test_swap_attackers_are_damage_nonblocking(reduced, reduced_problem,
                                               guideway, guideway_problem):
    assert verify_damage_nonblocking(
        reduced_problem, reduced_swap_attacker(reduced.cfg)).ok
    assert verify_damage_nonblocking(
        guideway_problem, guideway_swap_attacker(guideway.cfg)).ok


# -- local maximality -----------------------------------------------------------------

def test_local_maximality_reduced(reduced_problem, reduced_attacks):
    nb, _ = reduced_attacks
    edits = disabled_controllable_edits(reduced_problem, nb)
    assert edits
    for edit in edits:
        edited = apply_edit(reduced_problem, nb, edit)
        broke_covert = not verify_covert(reduced_problem, edited).ok
        broke_mode = not verify_damage_nonblocking(reduced_problem, edited).ok
        assert broke_covert or broke_mode


def test_guideway_attack_round_choices(guideway, guideway_problem,
                                       guideway_attacks):
    # before damage the strong attack forces the cross-replacement; once the
    # plant is damaged, deletion and every replacement (even exposing ones)
    # stay enabled
    nb, _ = guideway_attacks
    loop = compose([guideway_problem.plant, nb])
    pre, post = set(), set()
    for q in loop.states:
        p, _x = q
        if p[1] != "q0":
            continue
        bucket = post if state_name(p[0][2]) in guideway.cfg.damage else pre
        bucket.update(e.spell() for e in enabled(loop, q))
    assert pre == {"a1#", "b1#"}
    assert post == {"a1#", "a3#", "b1#", "b3#", "stop"}


def _random_problems(seed, count):
    import random as _random
    rng = _random.Random(seed)
    c1, c2 = ev.compromised("x"), ev.stop
    uo, oo = ev.plant("h"), ev.plant("o")
    alphabet = [c1, c2, uo, oo]
    constraint = ControlConstraint(
        frozenset({c1, c2}), frozenset({c1, c2, oo}), "sa")
    for _ in range(count):
        n = rng.randint(2, 7)
        states = [f"p{i}" for i in range(n)]
        trans = set()
        for _k in range(rng.randint(n, 3 * n)):
            trans.add((rng.choice(states), rng.choice(alphabet),
                       rng.choice(states)))
        pool = states[1:]
        rng.shuffle(pool)
        cut = rng.randint(0, len(pool))
        bad, target = frozenset(pool[:cut][:2]), frozenset(pool[cut:][:2])
        plant = Automaton(states, alphabet, trans, "p0", marked=target)
        yield SynthesisProblem(plant, bad.__contains__, constraint)


def test_engine_sound_on_random_problems():
    # random small plants with arbitrary bad/target sets: whatever the
    # fixpoint returns must satisfy its own contract
    produced = 0
    for prob in _random_problems(414243, 80):
        nb = synthesize_supremal_attack(prob, SynthesisMode.DAMAGE_NONBLOCKING)
        r = synthesize_supremal_attack(prob, SynthesisMode.DAMAGE_REACHABLE)
        if nb is not None:
            assert r is not None
            assert verify_covert(prob, nb).ok
            assert verify_damage_nonblocking(prob, nb).ok
            produced += 1
        if r is not None:
            assert verify_covert(prob, r).ok
            assert verify_damage_reachable(prob, r).ok
            assert validate_attack(r, prob.constraint, prob.plant.alphabet).ok
    assert produced  # the generator does hit solvable instances


def test_engine_locally_maximal_on_random_problems():
    checked = 0
    for prob in _random_problems(777, 120):
        for mode, verify_mode in (
                (SynthesisMode.DAMAGE_NONBLOCKING, verify_damage_nonblocking),
                (SynthesisMode.DAMAGE_REACHABLE, verify_damage_reachable)):
            a = synthesize_supremal_attack(prob, mode)
            if a is None:
                continue
            checked += 1
            for edit in disabled_controllable_edits(prob, a):
                edited = apply_edit(prob, a, edit)
                assert (not verify_covert(prob, edited).ok
                        or not verify_mode(prob, edited).ok)
    assert checked > 50


# -- witnesses ------------------------------------------------------------------------

def _witness_failures(prob, attack):
    """The verdicts of ``check_attack`` that fail, after checking each one and
    its witness against a nested-loop P||A: a witness spells a run into an
    offending state, as short as the nearest offender is far."""
    verdicts = check_attack(prob, attack)
    loop = nested_loop_product([prob.plant, attack])
    targets = {q for q in loop.states if prob.plant.is_marked(q[0])}
    offenders = {"covert": {q for q in loop.states if prob.is_bad(q[0])},
                 "nonblocking": set(loop.states) - coreachable(marked_copy(loop, targets)),
                 "reachable": targets}
    dist = bfs_distances(loop)
    failures = []
    for kind, result in verdicts._asdict().items():
        found = offenders[kind]
        assert result.ok == (bool(found) if kind == "reachable" else not found)
        assert (result.witness is not None) == bool(found)
        if found:
            assert len(result.witness) == min(dist[q] for q in found)
            reached = {loop.initial}
            for e in result.witness:
                reached = {dst for q in reached for dst in successors(loop, q, e)}
            assert reached & found
        if not result.ok:
            failures.append(kind)
    return failures


def test_witnesses_are_shortest_runs_into_offenders(reduced_problem, reduced_attacks,
                                                    guideway_problem, guideway_attacks):
    # synthesized attacks and their one-edit probes, on random problems and
    # on the shipped systems: each probe breaks covertness or the goal
    cases = []
    for prob in _random_problems(2718, 150):
        for mode in SynthesisMode:
            a = synthesize_supremal_attack(prob, mode)
            if a is not None:
                cases.append((prob, a))
                cases += [(prob, apply_edit(prob, a, edit))
                          for edit in disabled_controllable_edits(prob, a)]
    for prob, (nb, _r) in ((reduced_problem, reduced_attacks),
                           (guideway_problem, guideway_attacks)):
        cases += [(prob, apply_edit(prob, nb, edit))
                  for edit in disabled_controllable_edits(prob, nb)]
    failures = Counter()
    for prob, a in cases:
        failures.update(_witness_failures(prob, a))
    assert failures["covert"] >= 10 and failures["nonblocking"] >= 10, failures


# -- on-the-fly synthesis --------------------------------------------------------------

def _attacker_wide(guideway):
    cfg = guideway.cfg
    cfg = dataclasses.replace(cfg, delta_o=0,
                              rates=dataclasses.replace(cfg.rates, u=2))
    return build_system(cfg, guideway.plant, guideway.ns)


def _guideway_u(guideway, u):
    cfg = guideway.cfg
    cfg = dataclasses.replace(cfg, rates=dataclasses.replace(cfg.rates, u=u))
    return build_system(cfg, guideway.plant, guideway.ns)


def _lazy_copy(prob):
    """The same problem over a lazy copy of its explicit plant."""
    plant = prob.plant
    lazy = lazy_automaton(plant.initial, plant.alphabet, plant._delta.__getitem__,
                          plant.is_marked, plant.name)
    return prob._replace(plant=lazy)


def _attack_texts(prob):
    texts = []
    for mode in SynthesisMode:
        attack = synthesize_supremal_attack(prob, mode)
        texts.append(attack and serialize_automaton(number(attack)))
    return texts


def test_lazy_plant_gives_the_attack_of_the_explored_plant_on_random_problems():
    solved = 0
    for prob in _random_problems(777, 300):
        prob = _lazy_copy(prob)
        lazy = _attack_texts(prob)
        prob.plant.states  # explore
        assert _attack_texts(prob) == lazy
        solved += lazy != [None, None]
    assert solved > 75


def test_guideway_u2_attack_reads_under_a_quarter_of_p(guideway):
    # the observer stops at estimates that are dead by covertness, so the
    # attack is built from the rows of 928 of P's 21,189 states
    prob = build_problem(_guideway_u(guideway, 2))
    lazy = _attack_texts(prob)
    assert None not in lazy
    rows = len(prob.plant._delta)
    assert prob.plant._delta.row is not None  # P is still unexplored
    assert rows < len(prob.plant.states) / 4
    assert _attack_texts(prob) == lazy


def test_reachable_synthesis_walks_p_a_only_up_to_a_damage_state(guideway,
                                                                 monkeypatch):
    # the damage check of reachable mode stops at the first damage state of
    # P||A, so it computes fewer rows of P||A than the attacked loop has states
    prob = build_problem(_attacker_wide(guideway))
    made, real = [], automaton.lazy_automaton

    def spy(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(automaton, "lazy_automaton", spy)
    attack = synthesize_supremal_attack(prob, SynthesisMode.DAMAGE_REACHABLE)
    monkeypatch.undo()
    loops = [a for a in made if a.initial == (prob.plant.initial, attack.initial)]
    assert len(loops) == 1
    # 70 of 543
    assert 0 < len(loops[0]._delta) < len(compose([prob.plant, attack]).states)


def test_bad_and_target_sets_classify_the_explored_plant(guideway):
    # counts the traced benchmark reports for attacker-wide: 421 bad, 635 target
    for built, counts in ((guideway, None), (_attacker_wide(guideway), (421, 635))):
        prob = build_problem(built)
        bad, target = set(), set()
        for q in prob.plant.states:
            (_store, _stage, g), _ac, _oc, _ns, _cc, estimate = q
            if state_name(g) in built.cfg.damage:
                target.add(q)
            elif estimate == MONITOR_EMPTY:
                bad.add(q)
        assert (prob.bad, prob.target) == (bad, target)
        assert prob.plant.marked == prob.target
        if counts:
            assert (len(prob.bad), len(prob.target)) == counts


# -- state order -----------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["nonblocking", "reachable"])
@pytest.mark.parametrize("system", ["guideway", "reduced", "attacker-wide"])
def test_written_automata_list_states_in_bfs_order(system, mode, request):
    # a renamed file numbers states by position, so the position of each
    # state must be its place in a breadth-first walk of the rows
    built = (_attacker_wide(request.getfixturevalue("guideway"))
             if system == "attacker-wide" else request.getfixturevalue(system))
    attack = synthesize_supremal_attack(build_problem(built),
                                        SynthesisMode(mode))
    for a in (built.g_new, built.monitor, attack):
        assert list(a.states) == bfs_order(a), a.name


# -- size report -----------------------------------------------------------------------

def test_state_size_report_rows(guideway):
    rows = state_size_report(guideway)
    by_name = {r.component: r for r in rows}
    assert by_name["AC"].count == 3 and by_name["AC"].ok
    assert by_name["OC"].bound == "<= 73" and by_name["OC"].ok
    assert by_name["CC"].bound == "<= 40" and by_name["CC"].ok
    assert by_name["CS"].ok and by_name["CE"].ok and by_name["M"].ok
    assert by_name["CE"].count <= 1 + 3

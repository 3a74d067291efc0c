import dataclasses

import netdes.events as ev
from netdes.automaton import compose, state_name, subset_construction
from netdes.config import serialize_config
from netdes.fixtures import build_attack_problem, load_system
from netdes.supervision import validate_networked_supervisor
from oracles import same_closed_language
from systems import guideway_spec, reduced_spec, shipped_config, shipped_paths


def test_guideway_grid_numbering(guideway):
    g = guideway.plant
    # both-trains-in-section collisions land exactly on 5 and 10
    assert g.step("0", ev.plant("a1")) == "4"
    assert g.step("4", ev.plant("b1")) == "5"
    assert g.step("1", ev.plant("a1")) == "5"
    assert g.step("6", ev.plant("a2")) == "10"
    assert {state_name(q) for q in g.marked} == {"5", "10"}


def test_supervisors_realize_their_specs(reduced, guideway):
    for system, spec in ((reduced, reduced_spec()), (guideway, guideway_spec())):
        assert validate_networked_supervisor(system.ns, system.cfg).ok
        sigma = [ev.plant(n) for n in system.cfg.sigma]
        loop = compose([system.ns, system.g_new, system.oc_t, system.cc])
        proj = subset_construction(loop, sigma)
        assert same_closed_language(proj, spec, sigma)


def test_attack_free_loop_avoids_damage(reduced, guideway):
    for system in (reduced, guideway):
        loop = compose([system.ns, system.g_new, system.oc_t, system.cc])
        damaged = [q for q in loop.states
                   if state_name(q[1][2]) in system.cfg.damage]
        assert not damaged


def test_attack_problem_builds_only_the_rows_of_g_new_it_reaches(tmp_path):
    # reduced with delta_s=1: G_new has 16,398 states, P reaches 19 of them
    config = tmp_path / "rung.cfg"
    config.write_text(serialize_config(
        dataclasses.replace(shipped_config("reduced"), delta_s=1)))
    _cfg, plant, ns = shipped_paths("reduced")
    system = load_system(str(config), plant, ns)
    problem = build_attack_problem(system)
    # P is lazy too: explore it before the snapshot
    in_p = {q[0] for q in problem.plant.states}
    g_new, cs = system.g_new, system.cs
    built = set(g_new._delta)
    # the monitor's reference loop again: its rows exist already
    reference = compose([system.ns, g_new, system.oc_t, system.cc])
    assert set(g_new._delta) == built
    assert len(in_p) == 19
    assert built == in_p | {q[1] for q in reference.states}
    # CS rows are computed only for the stores of the G_new rows built
    assert set(cs._delta) == {store for store, _stage, _g in built}
    # neither is explored: both row functions are still in place
    assert g_new._delta.row is not None and cs._delta.row is not None

    # reading the states explores G_new on the rows already kept
    assert len(g_new.states) == 16398
    assert g_new._delta.row is None and len(g_new._delta) == 16398


import pytest

import netdes.events as ev
import netdes.fixtures
import netdes.plant
from netdes.automaton import compose, state_name, subset_construction
from netdes.cli import _write_components
from netdes.config import serialize_config
from netdes.events import sorted_events
from netdes.fixtures import build_system, load_system
from netdes.supervision import validate_networked_supervisor
from netdes.synthesis import (SynthesisMode, build_problem, check_attack,
                              synthesize_supremal_attack)
from oracles import (assert_same_automaton, explicit_attack_free_relabel,
                     same_closed_language, step, undeclared_entries)
from systems import (RUNG_CONFIGS, guideway_spec, reduced_spec, rung_system,
                     shipped_config, shipped_paths, shipped_system, with_params)


def test_guideway_grid_numbering(guideway):
    g = guideway.plant
    # both-trains-in-section collisions land exactly on 5 and 10
    assert step(g, "0", ev.plant("a1")) == "4"
    assert step(g, "4", ev.plant("b1")) == "5"
    assert step(g, "1", ev.plant("a1")) == "5"
    assert step(g, "6", ev.plant("a2")) == "10"
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
                   if system.plant.is_marked(q[1][2])]
        assert not damaged


def test_attack_problem_builds_only_the_rows_of_g_new_it_reaches(tmp_path):
    # reduced with delta_s=1: G_new has 16,398 states, P reaches 19 of them
    config = tmp_path / "rung.cfg"
    config.write_text(serialize_config(
        with_params(shipped_config("reduced"), delta_s=1)))
    _cfg, plant, ns = shipped_paths("reduced")
    system = load_system(str(config), plant, ns)
    problem = build_problem(system)
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


def test_writing_the_components_keeps_no_g_new_row_the_monitor_did_not_read(tmp_path):
    # reduced with delta_s=1: g_new.aut and the rate check walk all 16,398
    # G_new states through one numbering and keep none of their rows
    system = rung_system("reduced", "delta_s=1")
    g_new = system.g_new
    read = set(g_new._delta)
    assert 0 < len(read) < 100
    _write_components(system, str(tmp_path), ())
    assert set(g_new._delta) == read and g_new._delta.row is not None
    with open(tmp_path / "g_new.aut", encoding="utf-8") as fh:
        sources = {line.split()[1] for line in fh if line.startswith(".trans")}
    assert len(sources) == 16398


def test_build_system_computes_only_the_channel_rows_the_monitor_reads():
    # guideway u=4: OC has 12,870 states; the monitor reads 9 OC^T rows
    system = rung_system("guideway", "u=4")
    oc, oc_t = system.oc, system.oc_t
    assert len(oc._delta) == len(oc_t._delta) == 9
    assert oc._delta.row is not None and oc_t._delta.row is not None
    problem = build_problem(system)
    attack = synthesize_supremal_attack(problem, SynthesisMode.DAMAGE_NONBLOCKING)
    assert check_attack(problem, attack).covert.ok
    # P reads OC's rows as it reaches them, the monitor no more of OC^T's
    assert len(oc._delta) == 139 and len(oc_t._delta) == 9
    assert len(oc.states) == 12870  # so 139 rows are 1.1% of OC


@pytest.mark.parametrize("stem,params", RUNG_CONFIGS)
def test_lazy_oc_t_equals_the_explicit_relabel(stem, params):
    system = rung_system(stem, params)
    # OC^T explored first reaches OC only through OC's rows
    assert system.oc_t.states and system.oc._delta.row is not None
    assert_same_automaton(system.oc_t, explicit_attack_free_relabel(system.oc))
    assert system.oc_t.name == "OC^T" and not system.oc_t.marked


@pytest.mark.parametrize("stem,params", RUNG_CONFIGS)
def test_ac_and_the_monitor_declare_every_edge_they_hold(stem, params):
    # each builds both ends of its transitions from one list of states and
    # takes their events from its alphabet; the constructor checks neither
    system = rung_system(stem, params)
    for a in (system.ac, system.monitor):
        assert a.transitions and undeclared_entries(a) == []


@pytest.mark.parametrize("stem,params", RUNG_CONFIGS)
def test_component_rows_are_in_label_and_state_name_order(stem, params):
    # the rows the components give, as test_product_rows_are_in_label_and_
    # state_name_order checks for products
    system = rung_system(stem, params)
    several = 0
    for a in (system.cs, system.ce, system.oc, system.cc, system.oc_t):
        for q in a.states:
            row = a._delta[q]
            assert list(row) == sorted_events(row)
            for dsts in row.values():
                assert list(dsts) == sorted(dsts, key=state_name)
                several += len(dsts) > 1
    # every system has channel exits over several resident delays
    assert several


def test_build_system_builds_one_store_and_one_stage(monkeypatch):
    """G_new is composed over the CS and CE that the system holds; nothing
    builds a second pair to compare with."""
    system = shipped_system("reduced")
    calls = []
    for name in ("build_command_storage", "build_command_execution"):
        def counted(cfg, name=name, real=getattr(netdes.plant, name)):
            calls.append(name)
            return real(cfg)
        for module in (netdes.fixtures, netdes.plant):
            monkeypatch.setattr(module, name, counted)
    built = build_system(system.cfg, system.plant, system.ns)
    assert sorted(calls) == ["build_command_execution", "build_command_storage"]
    assert built.g_new.initial[:2] == (built.cs.initial, built.ce.initial)

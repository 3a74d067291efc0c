import netdes.events as ev
from netdes.automaton import compose, state_name, subset_construction
from netdes.supervision import validate_networked_supervisor
from oracles import same_closed_language
from systems import guideway_spec, reduced_spec


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

import copy
import dataclasses
import pickle
import random

import pytest

import netdes.events as ev
from netdes.automaton import Automaton, AutomatonError, compose, number, state_name
from netdes.config import EventSpec, RateBounds, SystemConfig, load_config
from netdes.plant import (EMPTY_QUEUE, IDLE, ExecState, StorageState,
                          _check_plant, build_command_execution, build_command_storage,
                          capacity_storage, compose_and_prune_plant,
                          max_plant_events_between_ticks, rate_bound_warnings)
from netdes.fixtures import build_system
from netdes.textio import load_automaton, parse_automaton
from oracles import (accepts, assert_same_automaton, check_pruned_invariants,
                     complete_with_selfloops, coreachable, enabled,
                     is_nonblocking, longest_plant_run_by_state,
                     nested_loop_product, pruning_filter, pruning_rules,
                     restrict_reachable, successors, trim, unobservable_reach)
from systems import RUNG_CONFIGS, rung_system, shipped_paths


def make_cfg(delta_s=0, te=None, commands=None, events=None, damage=()):
    events = events or (EventSpec("s", True, True, True, True, te or 0),
                        EventSpec("u", False, False, False, False, None))
    commands = commands or {"g": frozenset({"s"})}
    return SystemConfig(events=tuple(events), commands=commands,
                        delta_o=1, delta_c=0, delta_s=delta_s,
                        rates=RateBounds(1, 1, 1), damage=frozenset(damage))


@pytest.mark.parametrize("args,expect", [
    ((1, 1, 1, 1, 0, 0), 3), ((1, 2, 1, 1, 1, 1), 11), ((0, 0, 0, 2, 2, 2), 0)])
def test_capacity_storage(args, expect):
    assert capacity_storage(*args) == expect


# -- interned store and stage states ---------------------------------------------

def test_equal_values_give_one_store_or_stage():
    one = StorageState((("g", 1), ("h", 0)))
    assert StorageState([("g", 1), ("h", 0)]) is one
    assert StorageState((("h", 0), ("g", 1))) is not one   # reception order counts
    assert StorageState() is StorageState(()) is EMPTY_QUEUE
    stage = ExecState({("s", 1), ("t", 0)})
    assert ExecState([("t", 0), ("s", 1)]) is stage
    assert ExecState() is ExecState(frozenset()) is IDLE
    assert EMPTY_QUEUE is not IDLE


def test_every_path_to_a_store_or_stage_gives_one_state():
    gh = EMPTY_QUEUE.append("g", 1).append("h", 1)
    assert gh is StorageState((("g", 1), ("h", 1)))
    assert gh.append("g", 1).fetch("g") is EMPTY_QUEUE.append("h", 1).append("g", 1)
    assert gh.fetch("h").fetch("g") is EMPTY_QUEUE
    assert gh.tick() is StorageState((("g", 0), ("h", 0)))
    assert gh.tick().tick() is EMPTY_QUEUE
    stage = ExecState({("s", 1), ("t", 2)})
    assert stage.tick() is ExecState({("s", 0), ("t", 1)})
    cfg = make_cfg(delta_s=1, te=2)
    cs, ce = build_command_storage(cfg), build_command_execution(cfg)
    stored = successors(cs, EMPTY_QUEUE, ev.command_exit("g"))[0]
    assert stored is EMPTY_QUEUE.append("g", 1)
    assert successors(cs, stored, ev.tick) == (stored.tick(),)
    assert successors(cs, stored, ev.command("g")) == (EMPTY_QUEUE,)
    active = successors(ce, IDLE, ev.command("g"))[0]
    assert active is ExecState({("s", 2)})
    assert successors(ce, active, ev.tick) == (ExecState({("s", 1)}),)


def test_stores_and_stages_copy_pickle_and_stay_immutable():
    for state in (StorageState((("g", 1), ("g", 0))), ExecState({("s", 0)})):
        assert copy.copy(state) is state
        assert copy.deepcopy(state) is state
        assert pickle.loads(pickle.dumps(state)) is state
        assert state != state.value   # equality is identity, not value
        with pytest.raises(AttributeError):
            state.value = ()
        with pytest.raises(AttributeError):
            del state.value
        with pytest.raises(AttributeError):
            state.extra = 1
    with pytest.raises(ValueError):
        EMPTY_QUEUE.fetch("g")


@pytest.fixture(scope="module")
def reduced_delta_s1(reduced):
    return build_system(dataclasses.replace(reduced.cfg, delta_s=1),
                        reduced.plant, reduced.ns)


def _tuple_name(entries):
    # how a store was named when it was a tuple of (command, time-left)
    return "(" + ",".join(f"({g},{t})" for g, t in entries) + ")"


def _frozenset_name(pairs):
    # how a stage was named when it was a frozenset of (event, countdown)
    return "{" + ",".join(sorted(f"({s},{t})" for s, t in pairs)) + "}"


def test_store_and_stage_names_are_the_tuple_and_frozenset_names(
        guideway, reduced, reduced_delta_s1):
    for system in (guideway, reduced, reduced_delta_s1):
        for q in system.cs.states:
            assert type(q.value) is tuple
            assert (q.canonical_name() == state_name(q) == state_name(q.value)
                    == _tuple_name(q.value))
            assert q.names == {g for g, _t in q.value}
        for q in system.ce.states:
            assert type(q.value) is frozenset
            assert (q.canonical_name() == state_name(q) == state_name(q.value)
                    == _frozenset_name(q.value))
            assert q.names == {s for s, _t in q.value}
        for store, stage, g in system.g_new.states:
            assert state_name((store, stage, g)) == (
                f"({_tuple_name(store.value)},{_frozenset_name(stage.value)},{g})")


def test_repr_of_a_lazy_g_new_explores_nothing(reduced):
    # pytest renders automata in assertion messages: that must not build the
    # 16,398 G_new rows of reduced delta_s=1 (847,684 at delta_s=2)
    g_new = build_system(dataclasses.replace(reduced.cfg, delta_s=1),
                         reduced.plant, reduced.ns).g_new
    rows = len(g_new._delta)
    assert repr(g_new) == (f"Automaton(G_new: {rows} rows computed, "
                           f"{len(g_new.alphabet)} events)")
    assert g_new._delta.row is not None and len(g_new._delta) == rows
    assert len(g_new.states) == 16398
    assert repr(g_new) == (f"Automaton(G_new: 16398 states, {len(g_new.transitions)} "
                           f"transitions, {len(g_new.alphabet)} events)")


# -- command storage ------------------------------------------------------------

def test_storage_receive_tick_expire_cycle():
    cfg = make_cfg(delta_s=1)
    cs = build_command_storage(cfg)
    empty = cs.initial
    one = successors(cs, empty, ev.command_exit("g"))[0]
    assert one is StorageState((("g", 1),))
    aged = successors(cs, one, ev.tick)[0]
    assert aged is StorageState((("g", 0),))
    assert successors(cs, aged, ev.tick) == (empty,)   # expired silently
    assert successors(cs, one, ev.command("g")) == (empty,)   # fetched instead


def test_storage_tick_selfloop_at_empty():
    cs = build_command_storage(make_cfg())
    assert successors(cs, cs.initial, ev.tick) == (cs.initial,)


def test_storage_fetch_removes_earliest():
    # positional check of the removal operation itself
    q = StorageState((("g", 1), ("g", 0)))
    assert q.fetch("g") is StorageState((("g", 0),))


def test_storage_fifo_on_reachable_states():
    cfg = make_cfg(delta_s=1)
    cs = build_command_storage(cfg)
    for q in cs.states:
        firsts = {}
        for i, (g, _t) in enumerate(q.value):
            firsts.setdefault(g, i)
        for g, i in firsts.items():
            got = successors(cs, q, ev.command(g))
            assert got == (StorageState(q.value[:i] + q.value[i + 1:]),)


def test_storage_capacity_respected():
    cfg = make_cfg()
    cap = capacity_storage(1, 1, 1, 1, 0, 0)
    cs = build_command_storage(cfg)
    assert max(len(q.value) for q in cs.states) == cap
    for q in cs.states:
        if len(q.value) == cap:
            assert not successors(cs, q, ev.command_exit("g"))


# -- command execution ------------------------------------------------------------

def test_execution_immediate_fire():
    cfg = make_cfg(te=0)
    ce = build_command_execution(cfg)
    active = successors(ce, IDLE, ev.command("g"))[0]
    assert active is ExecState({("s", 0)})
    assert not successors(ce, active, ev.tick)
    assert successors(ce, active, ev.plant("s")) == (IDLE,)


def test_execution_uncontrollable_fires_anywhere():
    cfg = make_cfg(te=1)
    ce = build_command_execution(cfg)
    for q in ce.states:
        assert successors(ce, q, ev.plant("u")) == (IDLE,)


def test_execution_staggered_countdowns():
    events = (EventSpec("s1", True, True, True, True, 1),
              EventSpec("s2", True, True, True, True, 2),
              EventSpec("u", False, False, False, False, None))
    cfg = make_cfg(events=events, commands={"g": frozenset({"s1", "s2"})})
    ce = build_command_execution(cfg)
    q = successors(ce, IDLE, ev.command("g"))[0]
    q = successors(ce, q, ev.tick)[0]
    q = successors(ce, q, ev.tick)[0]
    assert q is ExecState({("s1", -1), ("s2", 0)})
    assert successors(ce, q, ev.plant("s2")) == (IDLE,)
    assert not successors(ce, q, ev.plant("s1"))   # its window has passed
    assert not successors(ce, q, ev.tick)
    assert successors(ce, q, ev.plant("u")) == (IDLE,)


def test_execution_state_count_bound():
    events = (EventSpec("s1", True, True, True, True, 1),
              EventSpec("s2", True, True, True, True, 2),
              EventSpec("u", False, False, False, False, None))
    cfg = make_cfg(events=events,
                   commands={"g1": frozenset({"s1", "s2"}), "g2": frozenset({"s1"})})
    ce = build_command_execution(cfg)
    assert len(ce.states) <= 1 + len(cfg.gamma) * (1 + cfg.max_exec_delay())


# -- composition and pruning ---------------------------------------------------------

def _lone_plant(cfg, trans, states, initial="q0"):
    return Automaton(states, cfg.plant_labels(), trans, initial)


def test_prune_keeps_idle_uncontrollable_loop():
    cfg = make_cfg()
    g = _lone_plant(cfg, [("q0", ev.plant("u"), "q0")], ["q0"])
    cs = build_command_storage(cfg)
    ce = build_command_execution(cfg)
    gn = compose_and_prune_plant(cs, ce, g, cfg)
    init = gn.initial
    assert successors(gn, init, ev.tick) == (init,)
    assert successors(gn, init, ev.plant("u")) == (init,)
    # the command is never usable here: no state with an active stage survives
    assert all(q[1] == IDLE for q in gn.states)
    assert not check_pruned_invariants(gn, g, cfg)


def test_prune_deletes_useless_fetch_targets():
    cfg = make_cfg()
    g = _lone_plant(cfg, [("q0", ev.plant("u"), "q0")], ["q0"])
    gn = compose_and_prune_plant(build_command_storage(cfg),
                                 build_command_execution(cfg), g, cfg)
    stored = successors(gn, gn.initial, ev.command_exit("g"))[0]
    assert not successors(gn, stored, ev.command("g"))   # fetch leads nowhere


def test_prune_preempts_tick_when_command_usable():
    cfg = make_cfg()
    g = _lone_plant(cfg, [("q0", ev.plant("s"), "q1")], ["q0", "q1"])
    gn = compose_and_prune_plant(build_command_storage(cfg),
                                 build_command_execution(cfg), g, cfg)
    stored = successors(gn, gn.initial, ev.command_exit("g"))[0]
    assert stored[0] is StorageState((("g", 0),)) and stored[1] == IDLE
    assert not successors(gn, stored, ev.tick)            # time is preempted
    assert successors(gn, stored, ev.command("g"))        # the fetch is kept
    assert not check_pruned_invariants(gn, g, cfg)


def _three_stage_g_new(cs, ce, g, cfg):
    """G_new built the long way: the unpruned product, then rule 1's states
    and rule 2's ticks dropped, then the part still reachable."""
    full = compose([cs, ce, g])
    useless, usable_stored = pruning_rules(g, cfg)
    states = [q for q in full.states if not useless(q)]
    trans = [(s, e, t) for (s, e, t) in full.transitions
             if not useless(s) and not useless(t)
             and not (e == ev.tick and usable_stored(s))]
    return restrict_reachable(Automaton(states, full.alphabet, trans, full.initial))


def _random_plant_case(rng, branch=False):
    """A random config and plant; with ``branch``, the plant's initial state
    leads to every state on one plant event."""
    delta_s = rng.choice((0, 1))
    events = (EventSpec("s1", True, True, True, True, rng.choice((0, 1))),
              EventSpec("s2", True, True, True, True, rng.choice((0, 1))),
              EventSpec("u", False, False, False, False, None))
    commands = {"g1": frozenset({"s1"})}
    if delta_s == 0 or rng.random() < 0.3:
        commands["g2"] = frozenset(rng.choice(({"s2"}, {"s1", "s2"})))
    cfg = make_cfg(delta_s=delta_s, events=events, commands=commands)
    states = [f"q{i}" for i in range(rng.randint(1, 4))]
    trans = {(rng.choice(states), rng.choice(cfg.plant_labels()), rng.choice(states))
             for _ in range(rng.randint(0, 2 * len(states) + 1))}
    if branch:
        label = rng.choice(cfg.plant_labels())
        trans |= {(states[0], label, q) for q in states}
    return cfg, _lone_plant(cfg, sorted(trans, key=str), states)


@pytest.mark.parametrize("seed", range(6))
def test_one_pass_g_new_matches_three_stage_construction(seed):
    rng = random.Random(seed)
    for _ in range(4):
        cfg, g = _random_plant_case(rng)
        cs, ce = build_command_storage(cfg), build_command_execution(cfg)
        got = compose_and_prune_plant(cs, ce, g, cfg)
        want = _three_stage_g_new(cs, ce, g, cfg)
        assert got.initial == want.initial
        assert set(got.states) == set(want.states)
        assert set(got.transitions) == set(want.transitions)
        assert not check_pruned_invariants(got, g, cfg)


def _assert_g_new_is_the_oracle_product(g, cfg):
    """G_new equals the nested-loop product of CS, CE and G under the oracle
    pruning rules: the same states in the same order, the same moves per
    state and the same numbering."""
    cs, ce = build_command_storage(cfg), build_command_execution(cfg)
    got = compose_and_prune_plant(cs, ce, g, cfg)
    walked = number(got)  # keeps no row: the exploration below starts afresh
    want = nested_loop_product([cs, ce, g], name="G_new", allowed=pruning_filter(g, cfg))
    assert_same_automaton(got, want)
    again = number(want)
    assert (walked.starts, walked.ranks, walked.targets, walked.marked, walked.initial) \
        == (again.starts, again.ranks, again.targets, again.marked, again.initial)
    return got


@pytest.mark.parametrize("stem,params", RUNG_CONFIGS)
def test_g_new_equals_the_nested_loop_product_under_the_oracle_rules(stem, params):
    system = rung_system(stem, params)
    got = _assert_g_new_is_the_oracle_product(system.plant, system.cfg)
    assert not check_pruned_invariants(got, system.plant, system.cfg)


@pytest.mark.parametrize("seed", range(6))
def test_g_new_on_branching_plants_equals_the_nested_loop_product(seed):
    rng = random.Random(100 + seed)
    several = 0
    for _ in range(4):
        cfg, g = _random_plant_case(rng, branch=True)
        got = _assert_g_new_is_the_oracle_product(g, cfg)
        several += sum(len(dsts) > 1 for q in got.states for dsts in got._delta[q].values())
    assert several  # some row leads to several plant states on one event


def test_several_g_new_successors_come_in_state_name_order_of_the_triples():
    # "q" sorts before "q!" as a plant state, but "(...,q)" after "(...,q!)"
    cfg = make_cfg()
    g = _lone_plant(cfg, [("q0", ev.plant("u"), q) for q in ("q", "q!", "q0")],
                    ["q0", "q", "q!"])
    gn = compose_and_prune_plant(build_command_storage(cfg),
                                 build_command_execution(cfg), g, cfg)
    dsts = successors(gn, gn.initial, ev.plant("u"))
    assert [q for _s, _e, q in dsts] == ["q!", "q", "q0"]
    assert list(dsts) == sorted(dsts, key=state_name)


def test_g_new_row_function_never_sees_a_state_behind_a_pruned_transition():
    # q0 -s-> q1, where u loops. Rule 2 preempts every tick at q0 while g is
    # stored, so ((g,0)) at q0 is reachable only by a preempted tick; rule 1
    # makes fetching g at q1 useless, so a busy stage at q1 is never entered
    cfg = make_cfg(delta_s=1)
    g = _lone_plant(cfg, [("q0", ev.plant("s"), "q1"), ("q1", ev.plant("u"), "q1")],
                    ["q0", "q1"])
    cs, ce = build_command_storage(cfg), build_command_execution(cfg)
    aged = StorageState((("g", 0),))
    behind_tick = (aged, IDLE, "q0")
    behind_fetch = [(EMPTY_QUEUE, busy, "q1") for busy in ce.states if busy is not IDLE]
    unpruned = compose([cs, ce, g])
    assert behind_tick in unpruned.states and set(behind_fetch) <= set(unpruned.states)
    gn = compose_and_prune_plant(cs, ce, g, cfg)
    seen = []
    row = gn._delta.row
    gn._delta.row = lambda state: seen.append(state) or row(state)
    assert gn.states and set(seen) == set(gn.states)
    assert behind_tick not in seen
    assert not any(stage is not IDLE and q == "q1" for _s, stage, q in seen)
    assert not check_pruned_invariants(gn, g, cfg)


def test_alphabet_mismatch_rejected():
    cfg = make_cfg()
    other = make_cfg(events=(EventSpec("z", True, True, True, True, 0),
                             EventSpec("u", False, False, False, False, None)),
                     commands={"g": frozenset({"z"})})
    g = _lone_plant(other, [], ["q0"])
    with pytest.raises(AutomatonError) as err:
        compose_and_prune_plant(build_command_storage(cfg),
                                build_command_execution(cfg), g, cfg)
    assert str(err.value) == "plant alphabet mismatch with config"
    # the store of a config with other commands
    renamed = make_cfg(commands={"h": frozenset({"s"})})
    with pytest.raises(AutomatonError) as err:
        compose_and_prune_plant(build_command_storage(renamed),
                                build_command_execution(cfg),
                                _lone_plant(cfg, [], ["q0"]), cfg)
    assert str(err.value) == "command storage/execution alphabet mismatch with config"


def check_uncontrollable_liveness(g_new, g, cfg):
    problems = []
    for state in g_new.states:
        _s, _e, q = state
        for name in cfg.sigma_uc:
            if ev.plant(name) in enabled(g, q) and \
                    not successors(g_new, state, ev.plant(name)):
                problems.append(
                    f"uncontrollable {name} blocked at {state_name(state)}")
    return problems


def test_uncontrollable_liveness_on_fixtures(reduced, guideway):
    for system in (reduced, guideway):
        assert not check_uncontrollable_liveness(system.g_new, system.plant,
                                                 system.cfg)


def test_fixtures_are_activity_loop_free(reduced, guideway):
    assert max_plant_events_between_ticks(number(reduced.g_new)) is not None
    assert max_plant_events_between_ticks(number(guideway.g_new)) is not None


def _random_rate_case(rng):
    """A small automaton over tick, a command and (mostly) plant events; in
    most cases the tick-free moves only go forward, so no tick-free cycle."""
    states = [f"q{i}" for i in range(rng.randint(1, 7))]
    labels = [ev.tick, ev.command("g")]
    if rng.random() < 0.7:
        labels += [ev.plant("a"), ev.plant("b")]
    forward = rng.random() < 0.6
    trans = set()
    for _ in range(rng.randint(0, 3 * len(states))):
        e = rng.choice(labels)
        i, j = rng.randrange(len(states)), rng.randrange(len(states))
        if forward and e is not ev.tick:
            if i == j:
                continue
            i, j = min(i, j), max(i, j)
        trans.add((states[i], e, states[j]))
    return Automaton(states, labels, sorted(trans, key=str), states[0])


def test_rate_check_matches_the_per_state_dict_oracle(guideway, reduced,
                                                      reduced_delta_s1):
    empty = Automaton([], [ev.tick], [], None)
    assert max_plant_events_between_ticks(number(empty)) == 0
    cases = [guideway.g_new, reduced.g_new, reduced_delta_s1.g_new, empty]
    rng = random.Random(7)
    cases += [_random_rate_case(rng) for _ in range(400)]
    outcomes = set()
    for a in cases:
        got = max_plant_events_between_ticks(number(a))
        assert got == longest_plant_run_by_state(a)
        outcomes.add("positive" if got else got)
    assert outcomes == {None, 0, "positive"}


@pytest.mark.parametrize("stem", ["guideway", "reduced"])
def test_loaded_plant_keeps_the_rows_and_order_the_constructor_gives(stem):
    config, plant_path, _ns = shipped_paths(stem)
    cfg = load_config(config)
    loaded = load_automaton(plant_path, name="G")
    before = (loaded.name, loaded.alphabet, loaded.marked)
    got = _check_plant(loaded, cfg)
    marked = [q for q in loaded.states if state_name(q) in cfg.damage]
    want = Automaton(loaded.states, cfg.plant_labels(), loaded.transitions,
                     loaded.initial, marked, name="G")
    assert got.states == want.states and got.initial == want.initial
    assert got.marked == want.marked and got.alphabet == want.alphabet
    assert got.name == "G" and got.marked
    assert [list(got._delta[q].items()) for q in got.states] == \
        [list(want._delta[q].items()) for q in want.states]
    assert got._delta is loaded._delta  # the rows are the loaded ones
    assert all(got.is_marked(q) == (q in want.marked) for q in got.states)
    assert (loaded.name, loaded.alphabet, loaded.marked) == before  # unchanged


def test_rate_bound_warns_on_activity_loop():
    cfg = make_cfg()
    g = _lone_plant(cfg, [("q0", ev.plant("u"), "q0")], ["q0"])
    gn = compose_and_prune_plant(build_command_storage(cfg),
                                 build_command_execution(cfg), g, cfg)
    assert rate_bound_warnings(number(gn), cfg) == [
        "composed plant has an activity loop (cycle without tick)"]


def test_rate_bound_warns_on_burst_above_n_f(guideway):
    assert rate_bound_warnings(number(guideway.g_new), guideway.cfg) == [
        "plant assembly alone can fire 6 events within one tick, above n_f=1 "
        "(the closed loop is tighter: supervisor sends are bounded per "
        "observation)"]


# -- plant loading -----------------------------------------------------------------

def plant_from_text(text, cfg):
    return _check_plant(parse_automaton(text, name="G"), cfg)


def test_load_guideway_plant(guideway):
    g = guideway.plant
    assert len(g.states) == 16
    assert {state_name(q) for q in g.marked} == {"5", "10"}
    # damage states are absorbing
    for q in g.states:
        if state_name(q) in {"5", "10"}:
            assert not enabled(g, q)


def test_plant_from_text_minimal():
    cfg = make_cfg()
    g = plant_from_text(".automaton G\n.alphabet s:plain\n.initial q0\n", cfg)
    assert len(g.states) == 1
    assert set(g.alphabet) == set(cfg.plant_labels())


def test_plant_rejects_foreign_events():
    cfg = make_cfg()
    with pytest.raises(AutomatonError):
        plant_from_text(".automaton G\n.alphabet zz:plain\n.initial q0\n"
                        ".trans q0 zz q0\n", cfg)


def test_plant_rejects_missing_damage_state():
    cfg = make_cfg(damage=("nowhere",))
    with pytest.raises(AutomatonError):
        plant_from_text(".automaton G\n.alphabet s:plain\n.initial q0\n", cfg)


def test_compose_over_shipped_g_new_products_matches_their_materialization(
        guideway, reduced):
    for system in (guideway, reduced):
        cfg = system.cfg

        def g_new():
            return compose_and_prune_plant(build_command_storage(cfg),
                                           build_command_execution(cfg),
                                           system.plant, cfg)

        lazy, whole = g_new(), g_new()
        size = len(whole.states)  # explores all of it
        # the monitor's reference loop reaches only part of G_new
        got = compose([system.ns, lazy, system.oc_t, system.cc])
        assert len(lazy._delta) < size
        assert_same_automaton(got, compose([system.ns, whole, system.oc_t, system.cc]))
        assert_same_automaton(lazy, whole)


def test_lazy_command_store_answers_like_the_explored_one(guideway):
    # an unexplored command store has computed no rows yet, which must not
    # read as having no states
    cfg = guideway.cfg
    explored = build_command_storage(cfg)
    assert len(explored.states) == 40
    want = unobservable_reach(explored, EMPTY_QUEUE, [ev.tick])
    assert len(want) == 40
    assert unobservable_reach(build_command_storage(cfg), EMPTY_QUEUE, [ev.tick]) == want
    done = complete_with_selfloops(build_command_storage(cfg), [ev.stop])
    assert len(done.transitions) == 194
    assert_same_automaton(done, complete_with_selfloops(explored, [ev.stop]))
    # a store that is not reachable has no row, explored or not
    lazy, bogus = build_command_storage(cfg), StorageState((("unsent", 7),))
    with pytest.raises(KeyError):
        successors(lazy, bogus, ev.tick)
    with pytest.raises(AutomatonError):
        unobservable_reach(lazy, bogus, [ev.tick])


def test_lazy_g_new_answers_like_its_explored_composition(guideway):
    # a product's marked set is a set of its states, unexplored or not
    cfg, g = guideway.cfg, guideway.plant
    whole = nested_loop_product([build_command_storage(cfg),
                                 build_command_execution(cfg), g],
                                name="G_new", allowed=pruning_filter(g, cfg))

    def lazy():
        return compose_and_prune_plant(build_command_storage(cfg),
                                       build_command_execution(cfg), g, cfg)

    assert is_nonblocking(lazy()) == is_nonblocking(whole)
    assert coreachable(lazy()) == coreachable(whole)
    assert accepts(lazy(), [ev.tick], marked=True) == accepts(whole, [ev.tick], marked=True)
    assert_same_automaton(trim(lazy()), trim(whole))
    assert_same_automaton(lazy(), whole)

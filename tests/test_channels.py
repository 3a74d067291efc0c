import copy
import pickle
import random
from collections import Counter
from math import comb

import pytest

import netdes.events as ev
from netdes.automaton import Automaton, AutomatonError
from netdes.channels import (EMPTY_CHANNEL, ChannelState,
                             build_control_channel, build_observation_channel,
                             capacity_control, capacity_observation,
                             enumerate_channel_states, relabel_to_attack_free)
from netdes.config import EventSpec, RateBounds, SystemConfig
from oracles import channel_state_name, successors


def make_cfg(n_f=1, u=1, v=1, delta_o=1, delta_c=0, delta_s=0,
             observables=("a", "b"), compromised=()):
    events = [EventSpec("c0", True, False, False, False, 0)]
    for name in observables:
        events.append(EventSpec(name, False, True, name in compromised,
                                name in compromised, None))
    return SystemConfig(events=tuple(events), commands={"v": frozenset({"c0"})},
                        delta_o=delta_o, delta_c=delta_c, delta_s=delta_s,
                        rates=RateBounds(n_f, u, v))


# -- capacity formulas ----------------------------------------------------------

@pytest.mark.parametrize("args,expect", [
    ((1, 1, 1), 2), ((1, 1, 0), 1), ((2, 3, 4), 30)])
def test_capacity_observation(args, expect):
    assert capacity_observation(*args) == expect


@pytest.mark.parametrize("args,expect", [
    ((1, 1, 1, 1, 0), 3), ((1, 1, 1, 0, 0), 2), ((2, 1, 2, 1, 1), 16)])
def test_capacity_control(args, expect):
    assert capacity_control(*args) == expect


@pytest.mark.parametrize("args,expect", [
    ((4, 1, 2), 73), ((3, 0, 3), 40)])
def test_enumerate_channel_states(args, expect):
    assert enumerate_channel_states(*args) == expect


def test_enumerate_capacity_zero_is_just_empty():
    assert enumerate_channel_states(5, 2, 0) == 1
    assert enumerate_channel_states(1, 0, 4) == 5  # degenerate base-1 series


def test_enumerate_without_message_kinds_is_just_empty():
    for delta in range(3):
        for capacity in range(4):
            assert enumerate_channel_states(0, delta, capacity) == 1


@pytest.mark.parametrize("args,message", [
    ((-1, 1, 1), "the number of message kinds must be nonnegative"),
    ((1, 0, -1), "capacity must be nonnegative")],
    ids=["negative-kinds", "negative-capacity"])
def test_enumerate_rejects_negative_counts(args, message):
    with pytest.raises(ValueError) as err:
        enumerate_channel_states(*args)
    assert str(err.value) == message


# -- interned states ---------------------------------------------------------------

def test_equal_entries_give_one_state():
    one = ChannelState((("a", 1), ("b", 0), ("b", 0)))
    assert ChannelState([("b", 0), ("a", 1), ("b", 0)]) is one
    assert one.value == (("a", 1), ("b", 0), ("b", 0))  # sorted, one pair per message
    assert ChannelState() is ChannelState(()) is EMPTY_CHANNEL
    assert ChannelState([("a", 1)] * 2) is not ChannelState([("a", 1)])


def test_every_path_to_a_multiset_gives_one_state():
    ab = EMPTY_CHANNEL.add("a", 1).add("b", 1)
    assert EMPTY_CHANNEL.add("b", 1).add("a", 1) is ab
    assert ab.add("a", 1).remove("a", 1) is ab
    assert ab.remove("a", 1).remove("b", 1) is EMPTY_CHANNEL
    ticked = ab.tick()
    assert ticked is EMPTY_CHANNEL.add("a", 0).add("b", 0)
    assert ticked is ChannelState((("a", 0), ("b", 0)))


def test_channel_states_copy_pickle_and_stay_immutable():
    state = EMPTY_CHANNEL.add("a", 2).add("a", 2)
    assert copy.copy(state) is state
    assert copy.deepcopy(state) is state
    assert pickle.loads(pickle.dumps(state)) is state
    with pytest.raises(AttributeError):
        state.value = ()
    with pytest.raises(AttributeError):
        del state.value
    assert state.canonical_name() == "{(a,2)^2}"
    with pytest.raises(ValueError):
        state.remove("b", 2)


@pytest.mark.parametrize("seed", range(8))
def test_operations_agree_with_a_multiset_model(seed):
    # random add/remove/tick runs against a Counter: every reached state is
    # the one the constructor interns for the model's pairs, and is named
    # as channel states were named from their multiplicities
    rng = random.Random(seed)
    state, model = EMPTY_CHANNEL, Counter()
    for _ in range(300):
        op = rng.choice(("add", "add", "remove", "tick"))
        if op == "add":
            pair = (rng.choice("abc"), rng.randrange(3))
            state, model[pair] = state.add(*pair), model[pair] + 1
        elif op == "remove":
            pair = (rng.choice("abc"), rng.randrange(3))
            if model[pair]:
                state, model[pair] = state.remove(*pair), model[pair] - 1
            else:
                with pytest.raises(ValueError):
                    state.remove(*pair)
        elif all(d for _m, d in model.elements()):
            state = state.tick()
            model = Counter({(m, d - 1): k for (m, d), k in model.items() if k})
        assert state is ChannelState(model.elements())
        assert state.value == tuple(sorted(model.elements()))
        assert state.canonical_name() == channel_state_name(model)
        assert state.names == {m for m, _d in model.elements()}
        for m in "abc":
            assert state.delays_of(m) == sorted({d for (n, d), k in model.items()
                                                 if n == m and k})
        if len(state.value) > 6:  # keep the runs bounded, with repeats
            pair = rng.choice(state.value)
            state, model[pair] = state.remove(*pair), model[pair] - 1


# -- observation channel ----------------------------------------------------------

def test_tick_selfloop_at_empty():
    oc = build_observation_channel(make_cfg())
    assert successors(oc, oc.initial, ev.tick) == (oc.initial,)


def test_entry_attaches_full_delay():
    cfg = make_cfg(delta_o=1)
    oc = build_observation_channel(cfg)
    dst = successors(oc, oc.initial, ev.entry("a"))
    assert dst == (ChannelState([("a", 1)]),)


def test_compromised_entry_for_tampered_events():
    cfg = make_cfg(compromised=("a",))
    oc = build_observation_channel(cfg)
    assert successors(oc, oc.initial, ev.compromised("a"))
    assert not successors(oc, oc.initial, ev.entry("a"))


def test_fig4_scenario_exact():
    # from {(a,0),(a,1),(b,1)}: popping a is nondeterministic over the two
    # resident delays, popping b is not, and tick is blocked
    cfg = make_cfg(n_f=3, delta_o=1)
    oc = build_observation_channel(cfg)
    q = ChannelState((("a", 0), ("a", 1), ("b", 1)))
    assert q in set(oc.states)
    a_succ = set(successors(oc, q, ev.exit_("a")))
    assert a_succ == {ChannelState((("a", 1), ("b", 1))),
                      ChannelState((("a", 0), ("b", 1)))}
    assert len(a_succ) == 2
    b_succ = successors(oc, q, ev.exit_("b"))
    assert b_succ == (ChannelState((("a", 0), ("a", 1))),)
    assert not successors(oc, q, ev.tick)


def test_entries_blocked_at_capacity():
    cfg = make_cfg(n_f=1, u=1, delta_o=0)  # capacity 1
    oc = build_observation_channel(cfg)
    one = successors(oc, oc.initial, ev.entry("a"))[0]
    assert not successors(oc, one, ev.entry("b"))


def test_channel_invariants():
    cfg = make_cfg(n_f=2, delta_o=1)
    cap = capacity_observation(2, 1, 1)
    oc = build_observation_channel(cfg)
    for q in oc.states:
        assert len(q.value) <= cap
        has_zero = any(d == 0 for _m, d in q.value)
        assert bool(successors(oc, q, ev.tick)) == (not has_zero)


def test_non_fifo_witness_exists():
    # some reachable state holds two messages where the later-entered one
    # (larger remaining delay) can exit first
    cfg = make_cfg(n_f=2, delta_o=1)
    oc = build_observation_channel(cfg)
    witnesses = []
    for q in oc.states:
        delays = sorted({d for _m, d in q.value})
        if len(delays) < 2:
            continue
        for m, d in q.value:
            if d == delays[-1] and successors(oc, q, ev.exit_(m)):
                witnesses.append((q, m, d))
    assert witnesses


def test_constructed_count_is_multiset_count_below_formula():
    cfg = make_cfg(n_f=1, u=1, delta_o=1, observables=("a", "b"))
    oc = build_observation_channel(cfg)
    kinds = 2 * (1 + 1)
    cap = capacity_observation(1, 1, 1)
    multisets = sum(comb(kinds + i - 1, i) for i in range(cap + 1))
    assert len(oc.states) == multisets
    assert multisets <= enumerate_channel_states(2, 1, cap)


# -- control channel ---------------------------------------------------------------

def test_control_channel_basicseq():
    cfg = make_cfg(delta_c=0)
    cc = build_control_channel(cfg)
    assert successors(cc, cc.initial, ev.tick) == (cc.initial,)
    loaded = successors(cc, cc.initial, ev.command_entry("v"))
    assert loaded == (ChannelState([("v", 0)]),)
    # zero-delay command blocks tick until it pops
    q = loaded[0]
    assert not successors(cc, q, ev.tick)
    assert successors(cc, q, ev.command_exit("v")) == (cc.initial,)


def test_zero_capacity_channels_have_one_state():
    cfg = make_cfg(n_f=0, u=0, v=0)
    oc = build_observation_channel(cfg)
    cc = build_control_channel(cfg)
    assert len(oc.states) == len(cc.states) == 1
    assert successors(oc, oc.initial, ev.tick) == (oc.initial,)
    assert not successors(oc, oc.initial, ev.entry("a"))


# -- relabeling --------------------------------------------------------------------

def test_relabel_to_attack_free():
    cfg = make_cfg(compromised=("a",))
    oc = build_observation_channel(cfg)
    oct_ = relabel_to_attack_free(oc)
    assert ev.plant("a") in oct_.alphabet and ev.plant("b") in oct_.alphabet
    assert ev.compromised("a") not in oct_.alphabet
    assert ev.entry("b") not in oct_.alphabet
    # transition targets unchanged, only labels rewritten
    assert successors(oct_, oct_.initial, ev.plant("a")) == \
        successors(oc, oc.initial, ev.compromised("a"))
    assert successors(oct_, oct_.initial, ev.plant("b")) == \
        successors(oc, oc.initial, ev.entry("b"))
    # tick untouched
    assert successors(oct_, oct_.initial, ev.tick) == (oct_.initial,)


def test_relabel_rejects_plain_collision():
    bad = Automaton(["s"], [ev.plant("a"), ev.entry("a")],
                    [("s", ev.plant("a"), "s"), ("s", ev.entry("a"), "s")],
                    "s")
    with pytest.raises(AutomatonError, match="relabeling a_in to a"):
        relabel_to_attack_free(bad)
    # x_in and x# would both become x: a lazy row cannot merge their successors
    both = Automaton(["s", "t"], [ev.entry("a"), ev.compromised("a")],
                     [("s", ev.entry("a"), "s"), ("s", ev.compromised("a"), "t")],
                     "s")
    with pytest.raises(AutomatonError, match="relabeling a# to a"):
        relabel_to_attack_free(both)

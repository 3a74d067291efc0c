import copy
import pickle
import random
from collections import Counter
from math import comb

import pytest

import netdes.events as ev
from netdes.channels import (EMPTY_CHANNEL, ChannelState, build_control_channel,
                             build_observation_channel, capacities,
                             enumerate_channel_states, relabel_to_attack_free)
from netdes.config import EventSpec, RateBounds, SystemConfig
from oracles import channel_state_name, successors
from systems import RUNG_CONFIGS, rung_config


def make_cfg(n_f=1, u=1, v=1, delta_o=1, delta_c=0, delta_s=0,
             observables=("a", "b"), compromised=()):
    events = [EventSpec("c0", True, False, False, False, 0)]
    for name in observables:
        events.append(EventSpec(name, False, True, name in compromised,
                                name in compromised, None))
    return SystemConfig(events=tuple(events), commands={"v": frozenset({"c0"})},
                        delta_o=delta_o, delta_c=delta_c, delta_s=delta_s,
                        rates=RateBounds(n_f, u, v))


# -- the capacity table ---------------------------------------------------------

def closed_forms(cfg):
    """The rate analysis written out: OC holds n_f*u*(delta_o+1) messages,
    CC n_f*u*v*(delta_o+delta_c+1) + v*(delta_c+1), and the store what CC
    delivers over delta_c+delta_s ticks; each count sums (kinds*(delay+1))^i
    for i up to the capacity, given as ``~10^D`` from 30 digits on."""
    n_f, u, v = cfg.rates.n_f, cfg.rates.u, cfg.rates.v
    d_o, d_c, d_s = cfg.delta_o, cfg.delta_c, cfg.delta_s
    c_oc = n_f * u * (d_o + 1)
    c_cc = n_f * u * v * (d_o + d_c + 1) + v * (d_c + 1)
    c_cs = n_f * u * v * (d_o + d_c + d_s + 1) + v * (d_c + d_s + 1)
    rows = []
    for cap, kinds, delay in ((c_oc, len(cfg.sigma_o), d_o),
                              (c_cc, len(cfg.gamma), d_c), (c_cs, len(cfg.gamma), d_s)):
        n = sum((kinds * (delay + 1)) ** i for i in range(cap + 1))
        rows.append((cap, n if n < 10 ** 29 else f"~10^{len(str(n)) - 1}"))
    return rows


@pytest.mark.parametrize("stem,params", RUNG_CONFIGS)
def test_capacity_table_is_the_closed_forms_on_the_rungs(stem, params):
    cfg = rung_config(stem, params)
    assert capacities(cfg) == closed_forms(cfg)


def test_capacity_table_is_the_closed_forms_on_random_parameters():
    rng = random.Random(30)
    for _ in range(200):
        cfg = make_cfg(n_f=rng.randrange(4), u=rng.randrange(4), v=rng.randrange(4),
                       delta_o=rng.randrange(3), delta_c=rng.randrange(3),
                       delta_s=rng.randrange(3),
                       observables=("a", "b", "c")[:rng.randrange(4)])
        assert capacities(cfg) == closed_forms(cfg), cfg


@pytest.mark.parametrize("args,expect", [
    ((1, 1, 1), 2), ((1, 1, 0), 1), ((2, 3, 4), 30)])
def test_capacity_observation(args, expect):
    n_f, u, delta_o = args
    assert capacities(make_cfg(n_f=n_f, u=u, delta_o=delta_o))[0][0] == expect


@pytest.mark.parametrize("args,expect", [
    ((1, 1, 1, 1, 0), 3), ((1, 1, 1, 0, 0), 2), ((2, 1, 2, 1, 1), 16)])
def test_capacity_control(args, expect):
    n_f, u, v, delta_o, delta_c = args
    cfg = make_cfg(n_f=n_f, u=u, v=v, delta_o=delta_o, delta_c=delta_c)
    assert capacities(cfg)[1][0] == expect


@pytest.mark.parametrize("args,expect", [
    ((4, 1, 2), 73), ((3, 0, 3), 40)])
def test_enumerate_channel_states(args, expect):
    assert enumerate_channel_states(*args) == expect


def test_enumerate_capacity_zero_is_just_empty():
    assert enumerate_channel_states(5, 2, 0) == 1
    assert enumerate_channel_states(1, 0, 4) == 5  # degenerate base-1 series


def test_enumerate_gives_a_count_of_30_digits_or_more_as_a_power_of_ten():
    assert enumerate_channel_states(2, 0, 95) == 2 ** 96 - 1  # 29 digits
    assert enumerate_channel_states(2, 0, 96) == "~10^29"     # 2^97 - 1
    for n_kinds, delta, capacity in ((3, 9, 40), (7, 2, 300), (4, 1000, 500)):
        base = n_kinds * (delta + 1)
        exact = (base ** (capacity + 1) - 1) // (base - 1)
        got = enumerate_channel_states(n_kinds, delta, capacity)
        assert got == f"~10^{len(str(exact)) - 1}"


def test_enumerate_without_message_kinds_is_just_empty():
    for delta in range(3):
        for capacity in range(4):
            assert enumerate_channel_states(0, delta, capacity) == 1


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
            # a resident pair, as the channel's row removes one
            pair = (rng.choice("abc"), rng.randrange(3))
            if model[pair]:
                state, model[pair] = state.remove(*pair), model[pair] - 1
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
    cap = 4  # n_f * u * (delta_o + 1)
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
    cap = 2  # n_f * u * (delta_o + 1)
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


def test_relabel_of_a_built_oc_merges_no_two_labels():
    # an OC built from a config holds one entry label (x_in or x#) per
    # observable event and no plant label, so no two labels become one x and
    # every relabeled row stays in label order
    for compromised in ((), ("a",), ("a", "b")):
        oc = build_observation_channel(make_cfg(compromised=compromised))
        oct_ = relabel_to_attack_free(oc)
        assert len(oct_.alphabet) == len(oc.alphabet)
        for q in oc.states:
            assert list(oct_._delta[q]) == ev.sorted_events(oct_._delta[q])

"""Kernel operations against independent brute-force oracles."""
import gc
import random
import sys

import pytest

import netdes.events as ev
from netdes.automaton import (STOPPED, Automaton, AutomatonError, compose, explore,
                              lazy_automaton, number, predecessors, product,
                              state_name, subset_construction)
from netdes.attacker import ControlConstraint
from netdes.events import sorted_events
from netdes.synthesis import SynthesisProblem, check_attack
from oracles import (accepts, assert_same_automaton, bfs_distances, bfs_order,
                     bounded_traces, coreachable,
                     deterministic, enabled, is_nonblocking,
                     isomorphic_by, lone_target_tuples, marked_copy, moves,
                     nested_loop_product, reachable,
                     step, successors, trim, unobservable_reach)

A, B, C, U, O = (ev.plant(x) for x in "abcuo")


def aut(states, alphabet, trans, initial, marked=()):
    return Automaton(states, alphabet, trans, initial, marked)


# -- oracles -----------------------------------------------------------------

def closure_oracle(a, q, observed):
    """Breadth-first closure over unobserved events, written independently."""
    todo, seen = [q], {q}
    transitions = a.transitions  # built from the rows on each read
    while todo:
        cur = todo.pop()
        for (s, e, t) in transitions:
            if s == cur and e not in observed and t not in seen:
                seen.add(t)
                todo.append(t)
    return frozenset(seen)


def can_project_to(a, observed, word):
    """Is there a run of ``a`` whose observed projection equals ``word``?
    Brute-force search over (state, position) pairs."""
    frontier = {(a.initial, 0)}
    seen = set(frontier)
    transitions = a.transitions  # built from the rows on each read
    while frontier:
        nxt = set()
        for (q, i) in frontier:
            if i == len(word):
                return True
            for (s, e, t) in transitions:
                if s != q:
                    continue
                if e in observed:
                    if i < len(word) and word[i] == e and (t, i + 1) not in seen:
                        nxt.add((t, i + 1))
                else:
                    if (t, i) not in seen:
                        nxt.add((t, i))
        seen |= nxt
        frontier = nxt
    return any(i == len(word) for (_q, i) in seen)


def random_automaton(rng, max_states=6, nondet=True):
    n = rng.randint(1, max_states)
    alphabet = [A, B, C][: rng.randint(2, 3)]
    states = [f"s{i}" for i in range(n)]
    trans = set()
    for _ in range(rng.randint(0, 3 * n)):
        trans.add((rng.choice(states), rng.choice(alphabet), rng.choice(states)))
    if not nondet:
        seen = {}
        trans = {(s, e, t) for (s, e, t) in trans
                 if seen.setdefault((s, e), t) == t}
    marked = [s for s in states if rng.random() < 0.5]
    return Automaton(states, alphabet, trans, "s0", marked)


# -- unobservable reach --------------------------------------------------------

def test_reach_empty_closure():
    a = aut(["q"], [U], [], "q")
    assert unobservable_reach(a, "q", []) == frozenset({"q"})


def test_reach_chain_stops_at_observed():
    a = aut(["q0", "q1", "q2"], [U, O],
            [("q0", U, "q1"), ("q1", O, "q2")], "q0")
    got = unobservable_reach(a, "q0", [O])
    assert got == closure_oracle(a, "q0", {O}) == frozenset({"q0", "q1"})


def test_reach_full_observation_is_identity():
    a = aut(["q0", "q1"], [U], [("q0", U, "q1")], "q0")
    for q in a.states:
        assert unobservable_reach(a, q, [U]) == frozenset({q})


def test_reach_validates_inputs():
    a = aut(["q"], [U], [], "q")
    with pytest.raises(AutomatonError):
        unobservable_reach(a, "nope", [])
    with pytest.raises(AutomatonError):
        unobservable_reach(a, "q", [O])


# -- subset construction -------------------------------------------------------

def test_observer_of_deterministic_automaton_is_isomorphic():
    a = aut(["q0", "q1"], [A, B], [("q0", A, "q1"), ("q1", B, "q0")], "q0",
            marked=["q0", "q1"])
    obs = subset_construction(a, [A, B])
    assert isomorphic_by(a, obs, lambda q: frozenset({q}))


def test_observer_initial_is_closure():
    a = aut(["q0", "q1"], [U, O], [("q0", U, "q1")], "q0")
    obs = subset_construction(a, [O])
    assert obs.initial == frozenset({"q0", "q1"})


def test_observer_alphabet_and_rows_hold_observed_events_only():
    a = aut(["q0", "q1", "q2"], [U, O, A],
            [("q0", O, "q1"), ("q1", U, "q2"), ("q2", A, "q0")], "q0")
    obs = subset_construction(a, [O, A])
    assert obs.alphabet == frozenset({O, A})
    assert obs.states == (frozenset({"q0"}), frozenset({"q1", "q2"}))
    for x in obs.states:
        assert set(enabled(obs, x)) <= {O, A}
    assert successors(obs, frozenset({"q1", "q2"}), A) == (frozenset({"q0"}),)


def random_observer_cases():
    """60 random automata, each with a random set of observed events."""
    rng = random.Random(1)
    for _ in range(60):
        a = random_automaton(rng)
        yield a, [e for e in sorted(a.alphabet) if rng.random() < 0.6]


def test_observer_deterministic_on_random_instances():
    for a, observed in random_observer_cases():
        obs = subset_construction(a, observed)
        assert deterministic(obs)
        assert obs.alphabet == frozenset(observed)
        assert all(set(enabled(obs, x)) <= obs.alphabet for x in obs.states)


def test_observer_estimates_are_unobservable_reaches_on_random_instances():
    # each estimate is the union of the oracle's unobservable reaches, over
    # explicit rows and over the same rows read lazily
    for explicit, observed in random_observer_cases():
        lazy = lazy_automaton(explicit.initial, explicit.alphabet,
                              explicit._delta.__getitem__)

        def reach(states):
            return frozenset().union(
                *(unobservable_reach(explicit, q, observed) for q in states))

        for a in (explicit, lazy):
            obs = subset_construction(a, observed)
            assert obs.initial == reach([explicit.initial])
            for x in obs.states:
                for e in observed:
                    after = {dst for q in x for dst in successors(explicit, q, e)}
                    assert successors(obs, x, e) == ((reach(after),) if after else ())


def test_observer_keeps_no_table_beside_the_rows_it_reads():
    # after a few rows, the row function and the functions it closes over
    # hold one dict: the rows of the automaton observed, in which
    # n -o-> n + 2 and, where 3 divides n, n -u-> n + 1 (mod 12)
    a = lazy_automaton(0, [U, O], lambda n: {U: ((n + 1) % 12,), O: ((n + 2) % 12,)}
                       if n % 3 == 0 else {O: ((n + 2) % 12,)})
    obs = subset_construction(a, [O])
    row, x = obs._delta.row, obs.initial
    for _ in range(3):
        x = successors(obs, x, O)[0]
    dicts, todo, seen = [], [row], set()
    while todo:
        fn = todo.pop()
        if id(fn) in seen:
            continue
        seen.add(id(fn))
        for cell in fn.__closure__ or ():
            value = cell.cell_contents
            if isinstance(value, dict):
                dicts.append(value)
            elif isinstance(value, type(row)):
                todo.append(value)
    assert x == frozenset({6, 7, 8, 9, 10}) and len(obs._delta) == 3
    assert a._delta.row is not None  # a's rows are read, not all computed
    assert dicts and all(d is a._delta for d in dicts)


def _branches(bad, computed):
    """0 -o-> 1, 2, 3, and each branch b -u-> 10 + b -u-> 20 + b, explored on
    demand; ``computed`` records each state whose row is asked for."""
    def row(n):
        computed.append(n)
        if n == 0:
            return {O: (1, 2, 3)}
        return {U: (n + 10,)} if n < 20 else {}
    return lazy_automaton(0, [U, O], row), bad.__eq__


def test_a_closure_stops_after_its_first_layer_with_a_stop_state():
    # the bad state is at silent depth 2 of one of three branches; the
    # closure reads every row of layers 0-1 and none of layer 2, whether the
    # bad branch comes first or last among the seeds
    for bad in (21, 23):
        computed = []
        a, stop = _branches(bad, computed)
        obs = subset_construction(a, [O], stop)
        assert obs.initial == frozenset({0})
        assert successors(obs, obs.initial, O) == (STOPPED,)
        assert sorted(computed) == [0, 1, 2, 3, 11, 12, 13]
        assert obs.states == (frozenset({0}), STOPPED) and obs._delta[STOPPED] == {}
    a, _stop = _branches(None, [])
    full = subset_construction(a, [O])  # no stop: closed in full
    assert successors(full, full.initial, O) == (frozenset({1, 2, 3, 11, 12, 13, 21, 22, 23}),)
    assert STOPPED != frozenset() and len(STOPPED) == 1


def test_stopped_estimates_are_the_full_ones_that_hold_a_stop_state():
    # on random automata and random stop sets, an estimate is STOPPED
    # exactly where the full closure holds a stop state, and is unchanged
    # elsewhere, its row too
    rng = random.Random(3)
    stopped = 0
    for a, observed in random_observer_cases():
        full = subset_construction(a, observed)
        stop = frozenset(q for q in a.states if rng.random() < 0.3)

        def expected(x):
            return STOPPED if x & stop else x

        obs = subset_construction(a, observed, stop.__contains__)
        assert obs.initial == expected(full.initial)
        for x in obs.states:
            assert obs._delta[x] == ({} if x is STOPPED else {
                e: (expected(y),) for e, (y,) in full._delta[x].items()})
        stopped += STOPPED in obs.states
    assert stopped > 10


def test_observer_projection_language_matches_oracle():
    rng = random.Random(2)
    for _ in range(40):
        a = random_automaton(rng)
        observed = frozenset(e for e in sorted(a.alphabet) if rng.random() < 0.5)
        obs = subset_construction(a, observed)
        for t in bounded_traces(a, 6):
            proj = tuple(e for e in t if e in observed)
            assert accepts(obs, proj)
        for t in bounded_traces(obs, 6):
            proj = tuple(e for e in t if e in observed)
            assert can_project_to(a, observed, list(proj))


# -- synchronous product ---------------------------------------------------------

def test_product_neutral_partner():
    a = aut(["q0", "q1"], [A, B], [("q0", A, "q1"), ("q1", B, "q0")], "q0",
            marked=["q1"])
    neutral = aut(["n"], [A, B], [("n", A, "n"), ("n", B, "n")], "n", marked=["n"])
    prod = compose([a, neutral])
    assert isomorphic_by(a, prod, lambda q: (q, "n"))


def test_product_disjoint_alphabets_is_interleaving_diamond():
    a1 = aut(["p0", "p1"], [A], [("p0", A, "p1")], "p0")
    a2 = aut(["r0", "r1"], [B], [("r0", B, "r1")], "r0")
    prod = compose([a1, a2])
    # oracle: explicit four-state enumeration
    want_states = {(p, r) for p in ("p0", "p1") for r in ("r0", "r1")}
    want_trans = {(("p0", r), A, ("p1", r)) for r in ("r0", "r1")}
    want_trans |= {((p, "r0"), B, (p, "r1")) for p in ("p0", "p1")}
    assert set(prod.states) == want_states
    assert set(prod.transitions) == want_trans


def test_product_blocks_shared_event_enabled_on_one_side():
    a1 = aut(["p0", "p1"], [A], [("p0", A, "p1")], "p0")
    a2 = aut(["r0"], [A], [], "r0")
    prod = compose([a1, a2])
    assert len(prod.states) == 1 and not prod.transitions


def test_product_commutative_associative_up_to_renaming():
    rng = random.Random(3)
    for _ in range(40):
        a1, a2, a3 = (random_automaton(rng, max_states=4) for _ in range(3))
        p12 = compose([a1, a2])
        p21 = compose([a2, a1])
        assert isomorphic_by(p12, p21, lambda q: (q[1], q[0]))
        left = compose([p12, a3])
        right = compose([a1, compose([a2, a3])])
        assert isomorphic_by(left, right, lambda q: (q[0][0], (q[0][1], q[1])))


def test_nary_compose_matches_binary():
    rng = random.Random(4)
    for _ in range(20):
        a1, a2 = random_automaton(rng, 4), random_automaton(rng, 4)
        a3 = random_automaton(rng, 4)
        flat = compose([a1, a2, a3])
        nested = compose([compose([a1, a2]), a3])
        assert isomorphic_by(flat, nested, lambda q: ((q[0], q[1]), q[2]))


def _random_component(rng, k, shared):
    """A component over a random part of ``shared`` plus private events of
    its own, possibly nondeterministic, with state names that do not sort
    in discovery order."""
    alphabet = rng.sample(shared, rng.randint(1, len(shared)))
    alphabet += [ev.plant(f"p{k}{j}") for j in range(rng.randint(0, 2))]
    states = [f"{'zyxwvu'[i]}{k}" for i in range(rng.randint(1, 6))]
    trans = {(rng.choice(states), rng.choice(alphabet), rng.choice(states))
             for _ in range(rng.randint(0, 4 * len(states)))}
    if rng.random() < 0.3:
        # a guaranteed nondeterministic branch from the initial state
        trans |= {(states[0], alphabet[0], q) for q in states}
    marked = [q for q in states if rng.random() < 0.5]
    return Automaton(states, alphabet, trans, states[0], marked)


def _random_products(seed):
    """25 random component lists."""
    rng = random.Random(seed)
    shared = [ev.plant(x) for x in "abcdefg"] + [ev.entry("a"), ev.tick]
    for _ in range(25):
        comps = [_random_component(rng, k, shared) for k in range(rng.randint(1, 4))]
        # the draws of a transition filter these lists once came with, so the
        # lists stay the ones these tests have always run
        for _ in range(sum(len(c.states) * len(c.alphabet) for c in comps)):
            rng.random()
        yield comps


@pytest.mark.parametrize("seed", range(6))
def test_compose_matches_nested_loop_product(seed):
    for comps in _random_products(seed):
        got = compose(comps, name="P")
        want = nested_loop_product(comps, name="P")
        assert got.states == want.states
        assert got.marked == want.marked
        assert got.alphabet == want.alphabet
        for q in want.states:
            assert moves(got, q) == moves(want, q)


def numbered_moves(n, states):
    """The transitions of a ``Numbering``, per position, with events and
    targets mapped back through ``states``."""
    return [[(states[i], n.events[n.ranks[k]], states[n.targets[k]])
             for k in range(n.starts[i], n.starts[i + 1])]
            for i in range(len(n.starts) - 1)]


def assert_numbers_in_order(n, a):
    """``n`` numbers the states of ``a`` by their position in ``a.states``,
    with ``a``'s rows, initial state and marked set."""
    assert len(n.starts) == len(a.states) + 1
    assert numbered_moves(n, a.states) == [moves(a, q) for q in a.states]
    assert n.events == tuple(sorted_events(a.alphabet)) and n.name == a.name
    assert n.initial == a.states.index(a.initial)
    assert [a.states[i] for i in n.marked] == [q for q in a.states if q in a.marked]


@pytest.mark.parametrize("seed", range(6))
def test_number_matches_explore_lazy_and_explored(seed):
    for comps in _random_products(seed):
        lazy = product(comps, name="P")
        walked = number(lazy)
        # the walk keeps none of the rows it computes
        assert len(lazy._delta) == 0 and lazy._delta.row is not None
        explored = compose(comps, name="P")
        assert_numbers_in_order(walked, explored)
        # an explored automaton is numbered by its states, to the same arrays
        again = number(explored)
        assert (again.starts, again.ranks, again.targets, again.marked) == \
            (walked.starts, walked.ranks, walked.targets, walked.marked)
        # a partial exploration first: kept rows are read, the rest computed
        partial = product(comps, name="P")
        walk = explore(partial.initial, partial._delta.__getitem__)
        for _ in range(3):
            next(walk, None)
        kept = len(partial._delta)
        assert 0 < kept <= 3
        assert_numbers_in_order(number(partial), explored)
        assert len(partial._delta) == kept


def test_number_of_an_explicit_automaton_follows_its_states():
    rng = random.Random(11)
    unreachable = 0
    for _ in range(60):
        a = random_automaton(rng, max_states=14)
        unreachable += len(a.states) - len(reachable(a))
        assert_numbers_in_order(number(a), a)
    assert unreachable  # declared states no transition reaches are numbered too


def test_predecessors_list_each_transition_once_first_the_discovering_one():
    # over the reachable part, explicit and lazy alike: the first edge into
    # each state is the first in breadth-first and row order that leads to it
    rng = random.Random(26)
    unreachable = 0
    for _ in range(200):
        explicit = random_automaton(rng, max_states=12)
        lazy = lazy_automaton(explicit.initial, explicit.alphabet,
                              explicit._delta.__getitem__, name="L")
        into = predecessors(lazy)
        # the walk keeps none of the rows it computes
        assert len(lazy._delta) == 0 and lazy._delta.row is not None
        order = bfs_order(explicit)
        unreachable += len(explicit.states) - len(order)
        edges = [(src, e, dst) for src in order for e, dsts in explicit._delta[src].items()
                 for dst in dsts]
        for got in (into, predecessors(explicit)):
            assert list(got) == order
            listed = [(src, e, dst) for dst, pairs in got.items()
                      for src, e in zip(pairs[::2], pairs[1::2])]
            assert sorted(listed, key=edges.index) == edges
            for q in order[1:]:
                assert got[q][:2] == list(next(t for t in edges if t[2] == q)[:2])
    assert unreachable  # states no transition reaches get no entry


@pytest.mark.parametrize("seed", range(6))
def test_compose_over_a_product_matches_compose_over_its_materialization(seed):
    for comps in _random_products(seed):
        inner = product(comps, name="P")
        # the outer composition computes the inner rows it reaches first
        got = compose([inner, comps[0]])
        want = compose([compose(comps, name="P"), comps[0]])
        assert_same_automaton(got, want)
        # exploring the rest after that partial exploration changes nothing
        assert_same_automaton(inner, compose(comps, name="P"))


@pytest.mark.parametrize("seed", range(6))
def test_witness_is_a_shortest_path_into_the_targets(seed):
    # under an attack that disables nothing, P||A is the composed loop itself,
    # and the covertness and damage witnesses are shortest paths into the targets
    rng = random.Random(seed)
    free = ControlConstraint(frozenset(), frozenset(), "sa")
    for comps in _random_products(seed):
        loop = compose(comps)
        attack = aut(["a"], loop.alphabet,
                     [("a", e, "a") for e in loop.alphabet], "a")
        dist = bfs_distances(loop)
        assert set(dist) == set(loop.states)
        for targets in (loop.marked, loop.states[-1:],
                        rng.sample(loop.states, min(3, len(loop.states))),
                        [("nowhere",)]):
            found = set(targets) & set(loop.states)
            problem = SynthesisProblem(marked_copy(loop, found), found.__contains__, free)
            verdicts = check_attack(problem, attack)
            assert verdicts.covert.ok == (not found)
            assert verdicts.reachable.ok == bool(found)
            for path in (verdicts.covert.witness, verdicts.reachable.witness):
                if not found:
                    assert path is None
                    continue
                assert len(path) == min(dist[q] for q in found)
                # some run of the loop spells the witness into a target
                reached = {loop.initial}
                for e in path:
                    reached = {dst for q in reached for dst in successors(loop, q, e)}
                assert reached & found


def test_product_rows_are_in_label_and_state_name_order():
    # the names do not sort in insertion, numeric or hash order (see
    # test_successors_come_in_state_name_order)
    a = aut([0, 9, 10, 2, ("x", 1)], [A, B],
            [(0, A, 9), (0, A, ("x", 1)), (0, A, 10), (0, A, 2), (0, B, 9)], 0)
    b = aut(["q", "p"], [A, C], [("q", A, "q"), ("q", A, "p"), ("q", C, "p")], "q")
    row = product([a, b])._delta[(0, "q")]
    assert list(row) == sorted_events(row) == [A, B, C]
    assert list(row[A]) == sorted(row[A], key=state_name)
    assert row[A][:3] == ((("x", 1), "p"), (("x", 1), "q"), (10, "p"))
    assert row[B] == ((9, "q"),)
    assert row[C] == ((0, "p"),)
    for seed in range(6):
        for comps in _random_products(seed):
            p = product(comps)
            for succ in map(p._delta.__getitem__, p.states):
                assert list(succ) == sorted_events(succ)
                for dsts in succ.values():
                    assert list(dsts) == sorted(dsts, key=state_name)


# -- explorer ----------------------------------------------------------------------

def test_explore_yields_each_state_once_in_discovery_order():
    # a diamond a -> b, c -> d with edges back to a from c and d
    diamond = {"a": {A: ("b",), B: ("c",)}, "b": {A: ("d",)},
               "c": {A: ("a",), B: ("d",)}, "d": {A: ("a",)}}
    # tuples built at run time, so equal ones are distinct objects
    graph = {q: {e: tuple(list(dsts)) for e, dsts in out.items()}
             for q, out in diamond.items()}
    before = {q: list(out.items()) for q, out in graph.items()}
    walked = list(explore("a", graph.__getitem__))
    assert [q for q, _out in walked] == list("abcd")
    # each row is the very object the row function returned, left as it was
    for q, out in walked:
        assert out is graph[q]
        assert [(e, id(dsts)) for e, dsts in out.items()] == \
            [(e, id(dsts)) for e, dsts in before[q]]


def test_explore_is_lazy_on_an_infinite_graph():
    expanded = []

    def row(n):
        expanded.append(n)
        return {A: (n + 1,), B: (2 * n,)}

    states = []
    for n, _out in explore(1, row):
        states.append(n)
        if len(states) == 5:
            break
    assert states == [1, 2, 3, 4, 6]
    assert expanded == states


def _counter(limit, computed):
    """0 -a-> 1 -a-> ... -a-> limit, explored on demand; ``computed`` records
    each state whose row is asked for."""
    def row(n):
        computed.append(n)
        return {A: (n + 1,)} if n < limit else {}
    return lazy_automaton(0, [A], row, name="N")


def test_lazy_lookup_of_an_undiscovered_state_answers_as_explored():
    computed = []
    lazy = _counter(5, computed)
    assert successors(lazy, 0, A) == (1,) and computed == [0]
    # 3 is reachable but not yet discovered: exploring finds its row
    assert successors(lazy, 3, A) == (4,)
    assert computed == [0, 1, 2, 3, 4, 5]
    with pytest.raises(KeyError):
        successors(lazy, 9, A)
    assert lazy.states == (0, 1, 2, 3, 4, 5)
    with pytest.raises(KeyError):
        successors(_counter(5, []), -1, A)
    assert computed == [0, 1, 2, 3, 4, 5]


def test_kept_rows_share_one_tuple_per_lone_target():
    # n -a-> n+1, n -b-> 2n, and at even n, n -c-> {n+3, n+5} (mod 12); every
    # tuple is built anew on each call
    def row(n):
        out = {A: tuple([(n + 1) % 12]), B: tuple([2 * n % 12])}
        if n % 2 == 0:
            out[C] = tuple(sorted({(n + 3) % 12, (n + 5) % 12}))
        return out

    lazy = lazy_automaton(0, [A, B, C], row)
    for n in range(5):  # partial lookups, each of a state a kept row found
        assert successors(lazy, n, A) == ((n + 1) % 12,)
    edges, objects, targets = lone_target_tuples(lazy)
    assert (edges, objects, targets) == (10, 8, 8)
    kept = {n: dict(out) for n, out in lazy._delta.items()}
    assert lazy.states == tuple(q for q, _out in explore(0, row))
    edges, objects, targets = lone_target_tuples(lazy)
    assert (edges, objects, targets) == (24, 12, 12)
    # the exploration left the rows and tuples kept before it in place
    assert all(lazy._delta[n][e] is dsts for n, out in kept.items()
               for e, dsts in out.items())


def test_lazy_automata_leave_no_reference_cycle():
    # commands run with the collector paused, so a cycle would never be freed;
    # a trace function, as in a coverage run, may leave cycles of its own, so
    # it is off while the test runs
    tracing = sys.gettrace()
    sys.settrace(None)
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        unexplored = product([_counter(3, []), _counter(4, [])])
        successors(unexplored, unexplored.initial, A)
        explored = compose([_counter(3, []), _counter(4, [])])
        assert len(explored.states) == 4
        stray = _counter(2, [])
        try:
            successors(stray, 7, A)
        except KeyError:
            pass
        del unexplored, explored, stray
        assert gc.collect() == 0
    finally:
        if collecting:
            gc.enable()
        sys.settrace(tracing)


# -- reachability family -----------------------------------------------------------

def test_nonblocking_when_everything_marked():
    a = aut(["q0", "q1"], [A], [("q0", A, "q1")], "q0", marked=["q0", "q1"])
    assert is_nonblocking(a)


def test_dead_end_blocks():
    a = aut(["q0", "q1"], [A], [("q0", A, "q1")], "q0", marked=["q0"])
    assert not is_nonblocking(a)
    t = trim(a)
    assert set(t.states) == {"q0"} and not t.transitions


def test_trim_nonblocking_on_random_instances():
    rng = random.Random(5)
    for _ in range(60):
        a = random_automaton(rng)
        t = trim(a)
        if t is not None:
            assert is_nonblocking(t)
            assert reachable(a) >= set(t.states)
            assert coreachable(a) >= set(t.states)


def test_trim_to_empty():
    # nothing is left: no automaton, as supremal_supervisor reports it
    a = aut(["q0"], [A], [], "q0", marked=[])
    assert trim(a) is None


# -- accepts ------------------------------------------------------------------------

def test_accepts_empty_sequence():
    a = aut(["q"], [A], [], "q")
    assert accepts(a, [])


def test_accepts_rejects_undefined_event():
    a = aut(["q"], [A, B], [("q", A, "q")], "q")
    assert not accepts(a, [B])
    with pytest.raises(AutomatonError):
        accepts(a, [ev.plant("zz")])


def test_accepts_existential_over_nondeterminism():
    a = aut(["q0", "dead", "live"], [A, B],
            [("q0", A, "dead"), ("q0", A, "live"), ("live", B, "live")],
            "q0", marked=["live"])
    assert accepts(a, [A, B])
    assert accepts(a, [A, B, B])
    assert accepts(a, [A], marked=True)


def test_marked_acceptance_mode():
    a = aut(["q0", "q1"], [A], [("q0", A, "q1")], "q0", marked=["q1"])
    assert not accepts(a, [], marked=True)
    assert accepts(a, [A], marked=True)


# -- order contract ------------------------------------------------------------

def test_successors_come_in_state_name_order():
    # automaton.number numbers states in this order, so it
    # must not follow insertion, numeric or hash order
    a = aut([0, 9, 10, 2, ("x", 1)], [A, B],
            [(0, A, 9), (0, A, ("x", 1)), (0, A, 10), (0, A, 2), (0, B, 9)], 0)
    assert successors(a, 0, A) == (("x", 1), 10, 2, 9)
    assert successors(a, 0, B) == (9,)
    assert successors(a, 9, A) == ()
    assert [state_name(q) for q in (7, True, ("x", 1))] == ["7", "True", "(x,1)"]


def test_step_gives_the_one_successor_and_rejects_a_nondeterministic_event():
    a = aut([0, 9, 10], [A, B], [(0, A, 9), (0, A, 10), (0, B, 9)], 0)
    assert step(a, 0, B) == 9
    assert step(a, 9, A) is None
    with pytest.raises(AutomatonError, match="nondeterministic on a at 0"):
        step(a, 0, A)


# case -> (a call that must fail, message)
AUTOMATON_ERRORS = {
    # every automaton has an initial state, so none is empty
    "no-initial": (lambda: aut(["p"], [A], [], None), "initial state None not declared"),
    "no-states": (lambda: aut([], [A], [], None), "initial state None not declared"),
    "undeclared-initial": (lambda: aut(["p"], [A], [], "q"),
                           "initial state q not declared"),
    "undeclared-marked": (lambda: aut(["p"], [A], [], "p", marked=["q"]),
                          "marked state q not declared"),
}


@pytest.mark.parametrize("case", AUTOMATON_ERRORS)
def test_automaton_argument_errors(case):
    call, message = AUTOMATON_ERRORS[case]
    with pytest.raises(AutomatonError) as err:
        call()
    assert str(err.value) == message

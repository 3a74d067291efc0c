"""The supremal covert supervisor in closed form: an oracle for the pruning
engine, written from the definitions alone.

Every event the attacker controls it also observes (``ControlConstraint``),
and "never a bad state" is a prefix-closed specification. The supremal
controllable and normal sublanguage of P's language then has a closed form
(Brandt, Garg, Kumar, Lin, Marcus & Wonham, "Formulas for calculating
supremal controllable and normal sublanguages", Systems & Control Letters
15(2), 1990; Cho & Marcus, MCSS 2(1), 1989):

- a state of P is *doomed* when a run of uncontrollable events, of length 0
  or more, leads from it to a bad state;
- an estimate of P's full observer is *excluded* when it holds a doomed
  state;
- the language is every run of P whose observed prefixes all lead to
  estimates that are not excluded.

Damage-nonblocking mode iterates over pairs (p, x) of a state of P and an
estimate that holds it. A pair that the language reaches and from which no
damage state can be reached *blocks*: each blocking pair is taken as bad,
the doomed pairs are recomputed over uncontrollable pair edges, and every
estimate that holds a doomed pair is excluded, until no pair the language
reaches blocks.

Nothing here comes from the engine: P is explored through its rows, the
observer is closed by its own searches, and the comparison walks P with
two deterministic supervisors at once, which decides whether their closed
loops have the same language (or one's lies inside the other's).
"""
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from netdes.automaton import Automaton, State
from netdes.events import EventLabel
from netdes.synthesis import SynthesisMode, SynthesisProblem
from oracles import enabled, moves, step, successors

Estimate = FrozenSet[int]
Pair = Tuple[int, Estimate]


def _closure(seeds: Iterable, successors: Callable, seen: Optional[Set] = None) -> Set:
    """``seen`` (empty by default) with ``seeds`` and everything
    ``successors`` reaches from them added."""
    seen = set() if seen is None else seen
    work = [q for q in seeds if q not in seen]
    seen.update(work)
    while work:
        for dst in successors(work.pop()):
            if dst not in seen:
                seen.add(dst)
                work.append(dst)
    return seen


def _explore(plant: Automaton) -> Tuple[List[State], List[List[Tuple[EventLabel, int]]]]:
    """The states P reaches, numbered in breadth-first order, and each
    one's moves as (event, target number) pairs."""
    index: Dict[State, int] = {plant.initial: 0}
    states, edges = [plant.initial], []
    for q in states:  # grows while iterated
        out = []
        for _q, e, dst in moves(plant, q):
            if dst not in index:
                index[dst] = len(states)
                states.append(dst)
            out.append((e, index[dst]))
        edges.append(out)
    return states, edges


def _observer(edges: List[List[Tuple[EventLabel, int]]], observable: FrozenSet[EventLabel]
              ) -> Tuple[Estimate, Dict[Estimate, Dict[EventLabel, Estimate]]]:
    """P's full observer over state numbers: the initial estimate, and each
    reachable estimate's successor on each observed event some member
    enables."""
    def reach(seeds: Iterable[int]) -> Estimate:
        return frozenset(_closure(seeds, lambda i: [j for e, j in edges[i]
                                                    if e not in observable]))

    init = reach([0])
    after: Dict[Estimate, Dict[EventLabel, Estimate]] = {}
    work = [init]
    while work:
        x = work.pop()
        if x not in after:
            raw: Dict[EventLabel, Set[int]] = {}
            for i in x:
                for e, j in edges[i]:
                    if e in observable:
                        raw.setdefault(e, set()).add(j)
            after[x] = {e: reach(js) for e, js in raw.items()}
            work += after[x].values()
    return init, after


def supcn(problem: SynthesisProblem, mode: Optional[SynthesisMode] = None,
          rounds: Optional[List[int]] = None) -> Optional[Automaton]:
    """The supremal covert supervisor of ``problem`` as a deterministic
    automaton over P's alphabet, or None where none exists. Its states are
    the estimates (sets of numbers of P's states) the language reaches, all
    marked; it takes each observed event into the next estimate unless that
    one is excluded, and stays put on every unobserved event.

    With no ``mode`` it only avoids bad states, as a networked supervisor
    does. In reachable mode it is None also when the language reaches no
    damage state. In nonblocking mode each round appends to ``rounds``, when
    given, the number of pairs that blocked."""
    plant = problem.plant
    controllable = problem.constraint.controllable & plant.alphabet
    observable = problem.constraint.observable & plant.alphabet
    states, edges = _explore(plant)
    init, after = _observer(edges, observable)

    # the closed form: doomed states, over P's uncontrollable edges backwards
    into_p: List[List[int]] = [[] for _ in states]
    for i, out in enumerate(edges):
        for e, j in out:
            if e not in controllable:
                into_p[j].append(i)
    doomed = _closure((i for i, q in enumerate(states) if problem.is_bad(q)),
                      into_p.__getitem__)
    excluded = {x for x in after if not doomed.isdisjoint(x)}

    def reached() -> Set[Estimate]:
        # the estimates the language reaches
        return set() if init in excluded else _closure([init], lambda x: [
            y for y in after[x].values() if y not in excluded])

    damage = [plant.is_marked(q) for q in states]
    live = reached()
    if mode is SynthesisMode.DAMAGE_NONBLOCKING:
        # pair edges backwards, all of them and the uncontrollable ones,
        # between live estimates only: the rounds exclude only live ones,
        # and no uncontrollable edge leads from a live estimate to an
        # excluded one (it would have doomed a state of the live one)
        into: Dict[Pair, List[Pair]] = {(i, x): [] for x in live for i in x}
        into_uc: Dict[Pair, List[Pair]] = {pair: [] for pair in into}
        for x in live:
            row = after[x]
            for i in x:
                for e, j in edges[i]:
                    dst = (j, row[e] if e in observable else x)
                    if dst[1] in live:
                        into[dst].append((i, x))
                        if e not in controllable:
                            into_uc[dst].append((i, x))
        doomed_pairs: Set[Pair] = set()
        while live:
            pairs = [(i, x) for x in live for i in x]
            coreach = _closure((pair for pair in pairs if damage[pair[0]]),
                               lambda pair: [src for src in into[pair] if src[1] in live])
            blocking = [pair for pair in pairs if pair not in coreach]
            if not blocking:
                break
            if rounds is not None:
                rounds.append(len(blocking))
            _closure(blocking, into_uc.__getitem__, doomed_pairs)
            excluded.update(x for _i, x in doomed_pairs)
            live = reached()

    if not live or (mode is SynthesisMode.DAMAGE_REACHABLE
                    and not any(damage[i] for x in live for i in x)):
        return None
    silent = plant.alphabet - observable
    transitions = [(x, e, x) for x in live for e in silent]
    transitions += [(x, e, y) for x in live for e, y in after[x].items()
                    if y not in excluded]
    return Automaton(live, plant.alphabet, transitions, init, live, name="K")


def loop_difference(plant: Automaton, left: Automaton, right: Automaton,
                    inclusion: bool = False) -> Optional[List[EventLabel]]:
    """A shortest run of P||left that P||right does not take or, unless
    ``inclusion``, the other way round; None when there is none. Both
    supervisors must be deterministic, so one search over (state of P,
    state of left, state of right) decides it."""
    start = (plant.initial, left.initial, right.initial)
    parent: Dict[Tuple, Optional[Tuple[Tuple, EventLabel]]] = {start: None}
    order = [start]
    for cur in order:  # grows while iterated
        p, a, b = cur
        for e in enabled(plant, p):
            a2, b2 = step(left, a, e), step(right, b, e)
            if a2 is None or b2 is None:
                if a2 is None and (b2 is None or inclusion):
                    continue
                run, back = [e], parent[cur]
                while back is not None:
                    run.append(back[1])
                    back = parent[back[0]]
                return run[::-1]
            for dst in successors(plant, p, e):
                nxt = (dst, a2, b2)
                if nxt not in parent:
                    parent[nxt] = (cur, e)
                    order.append(nxt)
    return None


def disagreement(problem: SynthesisProblem, supervisor: Optional[Automaton],
                 mode: Optional[SynthesisMode] = None,
                 rounds: Optional[List[int]] = None) -> Optional[str]:
    """How ``supervisor`` (an engine's result for ``mode``, None for "no
    supervisor") differs from ``supcn``'s; None when both are None or their
    closed loops with P have the same language. ``rounds`` is as in
    ``supcn``."""
    want = supcn(problem, mode, rounds)
    if want is None or supervisor is None:
        return None if want is supervisor else (
            f"engine: {'none' if supervisor is None else 'a supervisor'}, "
            f"closed form: {'none' if want is None else 'a supervisor'}")
    run = loop_difference(problem.plant, supervisor, want)
    return None if run is None else "closed loops part after " + " ".join(
        e.spell() for e in run)

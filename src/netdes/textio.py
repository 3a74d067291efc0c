"""Line-oriented text format for automata, plus DOT export.

Format (bit-exact, UTF-8, ``#`` comments)::

    .automaton NAME
    .alphabet  a1:plain b1#:compromised v1:command tick stop
    .initial   S0
    .marked    S5 S10
    .trans     S0 a1 S1

Event spelling as in ``events.SUFFIXES``: ``x``, ``x_in``, ``x#``, ``x_out``;
commands ``v``, ``v_in``, ``v_out``; ``tick`` and ``stop``. Every
``.alphabet`` token but ``tick`` and ``stop`` declares its role after a
``:``, and is read as exactly that role.
A ``#`` token starts a comment; the compromised suffix never does because it
ends, not begins, its token.
Written from ``automaton.number``, as the CLI writes G_new, the monitor and
the attack, states are ``S<i>`` by position i (for those three, the
breadth-first order of their rows); the monitor's detection state keeps the
name ``{}``.
"""
from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple, Union

from . import events as ev
from .automaton import Automaton, Numbering, number, state_name
from .events import EventLabel


class ParseError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


def _tokens(line: str) -> List[str]:
    toks = line.split()
    return next((toks[:k] for k, tok in enumerate(toks) if tok.startswith("#")), toks)


def _role_suffix(label: EventLabel) -> str:
    return f"{label.spell()}:{label.role}" if label.role in ev.SUFFIXES else label.role


def _named(a: Union[Automaton, Numbering]) -> Tuple[Numbering, List[str]]:
    """What a writer is given, as a numbering and the name of each of its
    positions: an automaton's states by ``state_name``, a ValueError if two
    collide; a numbering's position i as ``S<i>``, and its empty estimate
    (the monitor's detection state) as ``{}``, so DOT export can still
    highlight it after a round trip."""
    if isinstance(a, Automaton):
        # states before number(a): a lazy automaton is explored once, not twice
        names = [state_name(q) for q in a.states]
        if len(set(names)) != len(names):
            raise ValueError("state names collide; serialize its automaton.number")
        return number(a), names
    names = [f"S{i}" for i in range(len(a.starts) - 1)]
    if a.empty is not None:
        names[a.empty] = "{}"
    return a, names


def serialize_automaton(a: Union[Automaton, Numbering]) -> str:
    """Render an automaton with its states named by ``state_name``, or a
    numbering of one (``automaton.number``) with state i named ``S<i>``."""
    return "".join(_lines(a))


def _lines(a: Union[Automaton, Numbering]) -> Iterator[str]:
    """The text of ``serialize_automaton`` in chunks of whole lines: each
    header line, then the ``.trans`` lines some hundreds at a time. Both
    forms are written from a numbering; only the name of a position differs.
    Every check runs before the first chunk."""
    n, names = _named(a)
    spelled = [e.spell() for e in n.events]
    if len(set(spelled)) != len(spelled):
        sp = next(sp for k, sp in enumerate(spelled) if sp in spelled[:k])
        raise ValueError(f"event spelling {sp!r} is ambiguous in this alphabet")
    yield f".automaton {n.name or 'A'}\n"
    yield ".alphabet " + " ".join(_role_suffix(l) for l in n.events) + "\n"
    yield f".initial {names[n.initial]}\n"
    if n.marked:
        yield ".marked " + " ".join(sorted([names[i] for i in n.marked])) + "\n"
    # names are unique and a row's ranks come in label order, so sorting a
    # row's (rank, target name) pairs orders only the targets of one event
    starts, ranks, targets = n.starts, n.ranks, n.targets
    chunk: List[str] = []
    for i in sorted(range(len(names)), key=names.__getitem__):
        src = f".trans {names[i]} "
        lo, hi = starts[i], starts[i + 1]
        if hi - lo == 1:
            chunk.append(f"{src}{spelled[ranks[lo]]} {names[targets[lo]]}\n")
        else:
            chunk += [f"{src}{spelled[r]} {t}\n" for r, t in sorted(
                [(ranks[k], names[targets[k]]) for k in range(lo, hi)])]
        if len(chunk) >= 512:
            yield "".join(chunk)
            chunk.clear()
    yield "".join(chunk)


def parse_automaton(text: str, name: str = "") -> Automaton:
    alphabet: Dict[str, EventLabel] = {}
    initial = ""  # no state token is empty
    marked: List[str] = []
    trans: List[tuple] = []
    states: Dict[str, None] = {}   # insertion-ordered set
    auto_name = name
    named = False

    for lineno, raw in enumerate(text.splitlines(), 1):
        toks = _tokens(raw) if "#" in raw else raw.split()
        if not toks:
            continue
        directive = toks[0]
        if directive == ".trans":  # nearly every line of a file
            if len(toks) != 4:
                raise ParseError(".trans takes `src event dst`", lineno)
            _, src, spelling, dst = toks
            label = alphabet.get(spelling)
            if label is None:
                raise ParseError(f"undeclared event {spelling!r}", lineno)
            states[src] = None
            states[dst] = None
            trans.append((src, label, dst))
            continue
        args = toks[1:]
        if directive == ".automaton":
            if named:
                raise ParseError(".automaton given twice", lineno)
            if len(args) > 1:
                raise ParseError(".automaton takes at most one name", lineno)
            named = True
            if args:
                auto_name = args[0]
        elif directive == ".alphabet":
            for tok in args:
                spelling, colon, role = tok.partition(":")
                if not colon and tok not in (ev.TICK, ev.STOP):  # as _role_suffix writes
                    raise ParseError(f"event {tok!r} declares no role", lineno)
                try:
                    label = ev.parse_spelling(spelling, role if colon else tok)
                except ev.EventError as exc:
                    raise ParseError(str(exc), lineno)
                if label.spell() in alphabet:
                    raise ParseError(f"duplicate event spelling {label.spell()!r}", lineno)
                alphabet[label.spell()] = label
        elif directive == ".initial":
            if len(args) != 1:
                raise ParseError(".initial takes exactly one state", lineno)
            if initial:
                raise ParseError(".initial given twice", lineno)
            initial = args[0]
            states[initial] = None
        elif directive == ".marked":
            marked += args
            states.update(dict.fromkeys(args))
        else:
            raise ParseError(f"unknown directive {directive!r}", lineno)

    if not initial:
        raise ParseError("missing .initial")
    return Automaton(states, alphabet.values(), trans, initial, marked, auto_name)


def load_automaton(path: str, name: str = "") -> Automaton:
    """The automaton in the file at ``path``; a ParseError, text that is not
    UTF-8 included, names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_automaton(fh.read(), name=name)
        except (ParseError, UnicodeDecodeError) as exc:
            raise ParseError(f"{path}: {exc}") from None


def save_automaton(a: Union[Automaton, Numbering], path: str) -> None:
    """Write ``a`` to ``path``. A failed writer check neither creates nor
    truncates the file: every check runs before the first chunk, and that
    chunk is taken before the file is opened."""
    chunks = _lines(a)
    first = next(chunks)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(first)
        fh.writelines(chunks)


# -- DOT export ---------------------------------------------------------

def _dot_id(text: str) -> str:
    """``text`` as a quoted DOT ID: backslashes and quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(a: Union[Automaton, Numbering]) -> str:
    """DOT digraph of what ``save_automaton`` writes, its states named as
    there: initial state double-bordered, marked states shaded, the state
    named ``{}`` (the empty monitor estimate) highlighted. Nodes come in
    position order; edges in the ``.trans`` order, one per source and target
    with the events between them."""
    n, names = _named(a)
    lines = [f"digraph {_dot_id(n.name or 'A')} {{", "  rankdir=LR;"]
    marked = set(n.marked)
    for i, name in enumerate(names):
        attrs = ["peripheries=2"] if i == n.initial else []
        if i in marked:
            attrs.append('style=filled fillcolor=gray85')
        if name == "{}":
            attrs.append('style=filled fillcolor=salmon')
        attr_txt = (" [" + " ".join(attrs) + "]") if attrs else ""
        lines.append(f"  {_dot_id(name)}{attr_txt};")
    spelled = [e.spell() for e in n.events]
    starts, ranks, targets = n.starts, n.ranks, n.targets
    for i in sorted(range(len(names)), key=names.__getitem__):
        grouped: Dict[str, List[str]] = {}
        for r, t in sorted([(ranks[k], names[targets[k]])
                            for k in range(starts[i], starts[i + 1])]):
            grouped.setdefault(t, []).append(spelled[r])
        lines += [f"  {_dot_id(names[i])} -> {_dot_id(t)} [label={_dot_id(','.join(labels))}];"
                  for t, labels in grouped.items()]
    lines.append("}")
    return "\n".join(lines) + "\n"

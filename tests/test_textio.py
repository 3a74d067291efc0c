import random
import re

import pytest

import netdes.events as ev
from netdes.automaton import Automaton, number, state_name
from netdes.cli import main
from netdes.textio import (ParseError, parse_automaton, save_automaton,
                           serialize_automaton, to_dot)
from oracles import isomorphic_by, renamed_text, restrict_reachable
from systems import shipped_config
from test_automaton import random_automaton


def test_round_trip_keeps_structure():
    # constructed automata are reachable-only; the format carries no
    # isolated-state list, so that is the contract
    rng = random.Random(7)
    for _ in range(30):
        a = restrict_reachable(random_automaton(rng))
        text = serialize_automaton(a)
        back = parse_automaton(text)
        assert isomorphic_by(a, back, state_name)


def test_round_trip_with_renaming():
    rng = random.Random(8)
    for _ in range(30):
        a = restrict_reachable(random_automaton(rng))
        twice = parse_automaton(serialize_automaton(number(a)))
        assert len(twice.states) == len(a.states)
        assert len(twice.transitions) == len(a.transitions)
        assert serialize_automaton(twice) == serialize_automaton(twice)


def test_numbered_text_equals_the_dict_named_rendering(guideway, reduced):
    rng = random.Random(12)
    cases = []
    for _ in range(60):
        a = random_automaton(rng, max_states=30)
        # declared out of name order, so positions do not follow state names
        cases.append(Automaton(rng.sample(a.states, len(a.states)), a.alphabet,
                               a.transitions, a.initial, a.marked))
    # several targets on one event, marked states and S10 sorting before S2
    assert any(len(dsts) > 1 for a in cases for row in a._delta.values()
               for dsts in row.values())
    assert any(a.marked for a in cases) and any(len(a.states) > 11 for a in cases)
    cases += [guideway.monitor, reduced.monitor]
    assert frozenset() in guideway.monitor.states  # named {}
    for a in cases:
        assert serialize_automaton(number(a)) == renamed_text(a)


def test_serialization_is_deterministic():
    rng = random.Random(9)
    a = random_automaton(rng)
    assert serialize_automaton(a) == serialize_automaton(a)


def test_full_event_zoo_round_trips():
    labels = [ev.plant("x"), ev.entry("x"), ev.compromised("x"), ev.exit_("x"),
              ev.command("v"), ev.command_entry("v"), ev.command_exit("v"),
              ev.tick, ev.stop]
    trans = [("s0", l, "s0") for l in labels]
    from netdes.automaton import Automaton
    a = Automaton(["s0"], labels, trans, "s0", marked=["s0"])
    back = parse_automaton(serialize_automaton(a))
    assert set(back.alphabet) == set(labels)
    assert len(back.transitions) == len(labels)


def test_every_shipped_label_round_trips_through_its_role():
    for stem in ("guideway", "reduced"):
        labels = shipped_config(stem).full_alphabet()
        for label in labels:
            assert ev.parse_spelling(label.spell(), label.role) is label
        text = serialize_automaton(Automaton(["q"], labels, [], "q"))
        alphabet = text.splitlines()[1].split()[1:]
        assert [tok.partition(":")[1] for tok in alphabet] == [
            "" if label in (ev.tick, ev.stop) else ":" for label in sorted(labels)]
        assert sorted(parse_automaton(text).alphabet) == sorted(labels)


def test_comments_and_compromised_hash_coexist():
    text = """# header comment
.automaton T
.alphabet a:plain b#:compromised  # trailing comment
.initial S0
.trans S0 a S1
.trans S1 b# S0
"""
    a = parse_automaton(text)
    assert ev.compromised("b") in a.alphabet
    assert len(a.transitions) == 2


def test_undeclared_event_is_a_parse_error_with_line():
    text = ".automaton T\n.alphabet a:plain\n.initial S0\n.trans S0 zz S1\n"
    with pytest.raises(ParseError) as err:
        parse_automaton(text)
    assert err.value.line == 4


def test_missing_initial_rejected():
    with pytest.raises(ParseError):
        parse_automaton(".automaton T\n.alphabet a:plain\n.trans S0 a S1\n")


def test_second_initial_rejected():
    text = ".automaton X\n.alphabet a:plain\n.initial A\n.initial B\n.trans B a B\n"
    with pytest.raises(ParseError, match=r"\.initial given twice") as err:
        parse_automaton(text)
    assert err.value.line == 4


def test_second_automaton_name_rejected():
    text = ".automaton X\n.automaton Y\n.alphabet a:plain\n.initial A\n.trans A a A\n"
    with pytest.raises(ParseError, match=r"\.automaton given twice") as err:
        parse_automaton(text)
    assert err.value.line == 2


def test_unknown_directive_rejected():
    with pytest.raises(ParseError):
        parse_automaton(".bogus x\n")


def test_dot_export_shapes():
    text = (".automaton T\n.alphabet a:plain\n.initial S0\n.marked S1\n"
            ".trans S0 a S1\n.trans S1 a S1\n")
    dot = to_dot(parse_automaton(text))
    assert "digraph" in dot
    assert 'peripheries=2' in dot       # initial
    assert 'fillcolor=gray85' in dot    # marked
    assert '"S1" -> "S1"' in dot


def test_dot_escapes_quotes_and_backslashes():
    # each quoted ID, unescaped, gives back the name it quotes
    text = ('.automaton T"\\\n.alphabet a:plain b\\:plain\n.initial s"0\n'
            '.marked t\\\n.trans s"0 a t\\\n.trans t\\ b\\ s"0\n')
    a = parse_automaton(text)
    dot = to_dot(a)
    quoted = re.compile(r'"((?:[^"\\]|\\.)*)"')

    def ids(line):
        assert not quoted.sub("", line).count('"')
        return [re.sub(r"\\(.)", r"\1", m) for m in quoted.findall(line)]

    lines = dot.splitlines()
    assert ids(lines[0]) == [a.name]
    nodes = [ids(l) for l in lines[2:-1] if "->" not in l]
    assert sorted(n for (n,) in nodes) == sorted(map(state_name, a.states))
    edges = sorted(tuple(ids(l)) for l in lines[2:-1] if "->" in l)
    assert edges == [('s"0', "t\\", "a"), ("t\\", 's"0', "b\\")]


def test_dot_single_state():
    dot = to_dot(parse_automaton(".automaton T\n.alphabet a:plain\n.initial S0\n"))
    assert dot.count("->") == 0


# case -> (the text, message, line)
AUT_ERRORS = {
    "duplicate-spelling": (".automaton T\n.alphabet a:plain a:plain\n",
                           "duplicate event spelling 'a'", 2),
    "two-initials": (".automaton T\n.alphabet a:plain\n.initial A B\n",
                     ".initial takes exactly one state", 3),
    "no-initial-state": (".automaton T\n.alphabet a:plain\n.initial\n",
                         ".initial takes exactly one state", 3),
    "short-trans": (".automaton T\n.alphabet a:plain\n.initial A\n.trans A a\n",
                    ".trans takes `src event dst`", 4),
    "long-trans": (".automaton T\n.alphabet a:plain\n.initial A\n.trans A a A A\n",
                   ".trans takes `src event dst`", 4),
    "role-mismatch": (".automaton T\n.alphabet a_in:plain\n",
                      "spelling 'a_in' does not match role 'plain'", 2),
    "empty-base": (".automaton T\n.alphabet b:plain _out:out\n",
                   "role 'out' requires a base name", 2),
    "two-names": (".automaton A B\n", ".automaton takes at most one name", 1),
    # every token but tick and stop declares its role, as the writer spells it
    "bare-event": (".automaton T\n.alphabet a1\n", "event 'a1' declares no role", 2),
    "bare-role-name": (".automaton T\n.alphabet tick command\n",
                       "event 'command' declares no role", 2),
    "empty-role": (".automaton T\n.alphabet a1:\n", "unknown event role ''", 2),
    "comment-mark-in-name": (".automaton T\n.alphabet a#b:plain\n",
                             "spelling 'a#b' does not match role 'plain'", 2),
    "section-mark-in-name": (".automaton T\n.alphabet [x:plain\n",
                             "spelling '[x' does not match role 'plain'", 2),
    # every automaton has an initial state, one that declares no state too
    "no-initial": (".automaton T\n.alphabet a:plain\n.trans A a B\n", "missing .initial", None),
    "no-states": (".automaton T\n.alphabet a:plain\n", "missing .initial", None),
    "empty-file": ("", "missing .initial", None),
}


@pytest.mark.parametrize("case", AUT_ERRORS)
def test_automaton_file_errors(case, tmp_path, capsys):
    text, message, line = AUT_ERRORS[case]
    with pytest.raises(ParseError) as err:
        parse_automaton(text)
    where = f"line {line}: " if line else ""
    assert (str(err.value), err.value.line) == (where + message, line)
    path = tmp_path / "bad.aut"
    path.write_text(text, encoding="utf-8")
    assert main(["export-dot", str(path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {path}: {where}{message}\n")


# case -> (an automaton a writer cannot name unambiguously, message, the
# writers that reject it)
WRITER_ERRORS = {
    "colliding-state-names": (Automaton([1, "1"], [ev.plant("a")], [], 1),
                              "state names collide; serialize its automaton.number",
                              [serialize_automaton, to_dot]),
    "ambiguous-spelling": (Automaton(["p"], [ev.plant("v"), ev.command("v")], [], "p"),
                           "event spelling 'v' is ambiguous in this alphabet",
                           [serialize_automaton]),
}


@pytest.mark.parametrize("case", WRITER_ERRORS)
def test_writer_errors(case):
    a, message, writers = WRITER_ERRORS[case]
    for write in writers:
        with pytest.raises(ValueError) as err:
            write(a)
        assert str(err.value) == message
    if case == "colliding-state-names":
        # the advice works for both writers
        assert '"S0" [peripheries=2]' in to_dot(number(a))
        assert ".initial S0\n" in serialize_automaton(number(a))


@pytest.mark.parametrize("case", WRITER_ERRORS)
def test_a_failed_writer_check_leaves_no_file(case, tmp_path):
    a, message, _writers = WRITER_ERRORS[case]
    path = tmp_path / "a.aut"
    with pytest.raises(ValueError) as err:
        save_automaton(a, str(path))
    assert str(err.value) == message
    assert not path.exists()


def test_dot_of_a_numbering_survives_writing_and_reparsing(guideway, reduced):
    # the reparsed automaton declares its states in file order, not in
    # position order, so only its node lines are compared as a set
    rng = random.Random(14)
    cases = [restrict_reachable(random_automaton(rng, max_states=30)) for _ in range(60)]
    assert any(len(a.states) > 11 for a in cases)
    cases += [guideway.monitor, reduced.monitor]
    for a in cases:
        n = number(a)
        direct = to_dot(n).splitlines()
        again = to_dot(parse_automaton(serialize_automaton(n))).splitlines()
        assert direct[:2] == again[:2] and direct[-1] == again[-1]
        assert [l for l in direct if "->" in l] == [l for l in again if "->" in l]
        assert {l for l in direct if "->" not in l} == {l for l in again if "->" not in l}
    assert 'fillcolor=salmon' in to_dot(number(guideway.monitor))

import copy
import pickle

import pytest

import netdes.events as ev
from netdes.events import EventError, EventLabel, parse_spelling


def test_roles_and_spellings():
    assert ev.plant("a1").spell() == "a1"
    assert ev.entry("a1").spell() == "a1_in"
    assert ev.compromised("a1").spell() == "a1#"
    assert ev.exit_("a1").spell() == "a1_out"
    assert ev.command("v1").spell() == "v1"
    assert ev.command_entry("v1").spell() == "v1_in"
    assert ev.command_exit("v1").spell() == "v1_out"
    assert ev.tick.spell() == "tick"
    assert ev.stop.spell() == "stop"


def test_tick_and_stop_carry_no_base():
    with pytest.raises(EventError):
        EventLabel("x", ev.TICK)
    with pytest.raises(EventError):
        EventLabel("x", ev.STOP)
    with pytest.raises(EventError):
        EventLabel(None, ev.PLAIN)
    with pytest.raises(EventError):
        EventLabel("", ev.COMPROMISED)


def test_parse_spelling_round_trip():
    labels = [ev.plant("x"), ev.entry("x"), ev.compromised("x"), ev.exit_("x"),
              ev.command("v"), ev.command_entry("v"), ev.command_exit("v"),
              ev.tick, ev.stop]
    for label in labels:
        assert parse_spelling(label.spell(), label.role) == label


def test_parse_spelling_reads_only_the_declared_role():
    # a suffix does not say the role: v_in is a command's entry only if
    # declared so, and a bare base is a plant event or a command
    assert parse_spelling("v_in", ev.COMMAND_IN) is ev.command_entry("v")
    assert parse_spelling("v_in", ev.IN) is ev.entry("v")
    assert parse_spelling("v", ev.COMMAND) is ev.command("v")
    cases = [("x", "nonsense", "unknown event role 'nonsense'"),
             ("x", None, "unknown event role None"),
             ("x_in", ev.PLAIN, "spelling 'x_in' does not match role 'plain'"),
             ("x", ev.IN, "spelling 'x' does not match role 'in'"),
             ("x#", ev.OUT, "spelling 'x#' does not match role 'out'"),
             ("x", ev.TICK, "spelling 'x' does not match role 'tick'"),
             ("tick", ev.STOP, "spelling 'tick' does not match role 'stop'"),
             # the base must be a name a config could declare
             ("tick", ev.PLAIN, "spelling 'tick' does not match role 'plain'"),
             ("a#b", ev.PLAIN, "spelling 'a#b' does not match role 'plain'"),
             ("a##", ev.COMPROMISED, "spelling 'a##' does not match role 'compromised'"),
             ("[x", ev.COMMAND, "spelling '[x' does not match role 'command'"),
             ("_in", ev.IN, "role 'in' requires a base name")]
    for token, role, message in cases:
        with pytest.raises(EventError) as err:
            parse_spelling(token, role)
        assert str(err.value) == message


def test_ordering_is_total_and_stable():
    labels = [ev.stop, ev.tick, ev.plant("b"), ev.compromised("a"),
              ev.plant("a"), ev.entry("a")]
    ordered = ev.sorted_events(labels)
    assert ordered == ev.sorted_events(reversed(labels))
    assert ordered[0].sort_key() <= ordered[1].sort_key()


# -- interning ---------------------------------------------------------------

def test_labels_are_interned():
    assert ev.plant("a") is EventLabel("a", ev.PLAIN) is parse_spelling("a", ev.PLAIN)
    assert EventLabel(base="a", role=ev.IN) is ev.entry("a")
    assert parse_spelling("tick", ev.TICK) is EventLabel(None, ev.TICK) is ev.tick
    assert ev.plant("a") is not ev.command("a")


def test_copies_and_pickles_are_the_interned_label():
    for label in (ev.compromised("x"), ev.command_exit("v"), ev.stop):
        assert copy.copy(label) is label
        assert copy.deepcopy(label) is label
        assert copy.deepcopy([label])[0] is label
        assert pickle.loads(pickle.dumps(label)) is label


def test_labels_are_immutable():
    label = ev.plant("a")
    with pytest.raises(AttributeError):
        label.base = "b"
    with pytest.raises(AttributeError):
        label.role = ev.IN
    with pytest.raises(AttributeError):
        del label.base
    with pytest.raises(AttributeError):
        label.extra = 1
    assert label.spell() == "a"


def test_invalid_labels_are_rejected_every_time():
    # a failed construction interns nothing
    for _ in range(2):
        with pytest.raises(EventError, match="unknown event role"):
            EventLabel("x", "nonsense")
        with pytest.raises(EventError, match="requires a base name"):
            EventLabel("", ev.PLAIN)
        with pytest.raises(EventError, match="carries no base name"):
            EventLabel("x", ev.TICK)


def test_sort_key_matches_label_order():
    labels = [ev.stop, ev.tick, ev.plant("b"), ev.command_entry("a"),
              ev.compromised("a"), ev.plant("a"), ev.entry("a")]
    ordered = ev.sorted_events(labels)
    assert ordered == sorted(labels)
    assert [label.sort_key() for label in ordered] == sorted(
        (label.base or "", ev.ROLES.index(label.role)) for label in labels)

import dataclasses
import itertools
import random

import pytest

import netdes.events as ev
from netdes.attacker import attack_control_constraint
from netdes.channels import build_observation_channel
from netdes.cli import main
from netdes.config import (ConfigError, EventSpec, RateBounds, SystemConfig,
                           parse_config, serialize_config)
from systems import shipped_config, with_params

SAMPLE = """\
[parameters] delta_o=1 delta_c=0 delta_s=0 n_f=1 u=1 v=1
[events]     a1 c o ao comp te=0
             a2 uc uo - - -
[commands]   v1 = a1
"""


def test_parse_sample():
    cfg = parse_config(SAMPLE)
    assert cfg.delta_o == 1 and cfg.delta_c == 0 and cfg.delta_s == 0
    assert cfg.rates == RateBounds(1, 1, 1)
    assert cfg.sigma == ["a1", "a2"]
    assert cfg.sigma_uc == ["a2"]
    assert cfg.sigma_o == ["a1"] and cfg.sigma_oa == ["a1"] and cfg.sigma_sa == ["a1"]
    assert cfg.commands == {"v1": frozenset({"a1"})}


def test_serialize_round_trip():
    cfg = parse_config(SAMPLE)
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    assert serialize_config(again) == serialize_config(cfg)


GUIDEWAY_BODY = """\
[events]     a1 c o ao comp te=0
             a2 c uo - - te=0
             a3 uc o ao comp -
             b1 c o ao comp te=0
             b2 c uo - - te=0
             b3 uc o ao comp -
[commands]   v1 = a1 a2
             v2 = b1 b2
             v3 = a1 b1
"""
REDUCED_BODY = """\
[events]     a1 c o ao comp te=0
             a2 c o ao comp te=0
             a3 uc uo - - -
[commands]   w1 = a1
             w2 = a2
             w3 = a1 a2
"""


# the configs the benchmark writes for its inputs, and the reduced system
@pytest.mark.parametrize("stem,params,text", [
    ("guideway", {}, "delta_o=1 delta_c=0 delta_s=0 n_f=1 u=1 v=1\n" + GUIDEWAY_BODY),
    ("reduced", {}, "delta_o=1 delta_c=0 delta_s=0 n_f=1 u=1 v=1\n" + REDUCED_BODY),
    ("guideway", {"u": 2, "delta_o": 0},
     "delta_o=0 delta_c=0 delta_s=0 n_f=1 u=2 v=1\n" + GUIDEWAY_BODY),
    ("reduced", {"delta_s": 1},
     "delta_o=1 delta_c=0 delta_s=1 n_f=1 u=1 v=1\n" + REDUCED_BODY)])
def test_serialize_config_text(stem, params, text):
    cfg = with_params(shipped_config(stem), **params)
    assert serialize_config(cfg) == "[parameters] " + text


# every (controllable, observable, attacker-observable, compromised) that
# SystemConfig accepts: compromised => attacker-observable => observable
FLAG_COMBINATIONS = [(c, *ocomp) for c in (True, False) for ocomp in
                     ((False, False, False), (True, False, False),
                      (True, True, False), (True, True, True))]


def _random_config(rng: random.Random) -> SystemConfig:
    names = rng.sample([f"{a}{b}" for a, b in itertools.product("aexz_", "019in")],
                       rng.randint(1, 5))
    specs = [EventSpec(name, *flags, rng.randrange(4) if flags[0] else None)
             for name, flags in zip(names, rng.sample(FLAG_COMBINATIONS, len(names)))]
    if not any(spec.controllable for spec in specs):
        specs[0] = dataclasses.replace(specs[0], controllable=True, exec_delay=0)
    controllable = [spec.name for spec in specs if spec.controllable]
    commands = {f"v{k}": frozenset(rng.sample(controllable, rng.randint(1, len(controllable))))
                for k in range(rng.randint(1, 4))}
    # a forwarded event spends one unit of u, so u is then at least 1
    least_u = int(any(spec.attacker_observable and not spec.compromised for spec in specs))
    return SystemConfig(events=tuple(specs), commands=commands,
                        delta_o=rng.randrange(3), delta_c=rng.randrange(3),
                        delta_s=rng.randrange(3),
                        rates=RateBounds(rng.randrange(3), max(rng.randrange(4), least_u),
                                         rng.randrange(3)))


def test_serialize_round_trip_on_random_configs():
    rng = random.Random(2029)
    seen = set()
    for _ in range(300):
        cfg = _random_config(rng)
        text = serialize_config(cfg)
        assert parse_config(text) == cfg, text
        assert serialize_config(parse_config(text)) == text
        seen.update((e.controllable, e.observable, e.attacker_observable, e.compromised)
                    for e in cfg.events)
    assert seen == set(FLAG_COMBINATIONS)


def test_one_rule_gives_each_reading_its_channel_label():
    rng = random.Random(31)
    for _ in range(300):
        cfg = _random_config(rng)
        for n in cfg.sigma_o:
            assert (cfg.sent(n) == ev.compromised(n)) == (n in cfg.sigma_sa)
            assert cfg.sent(n) in (ev.compromised(n), ev.entry(n))
        entering = {ev.IN, ev.COMPROMISED}
        oc = build_observation_channel(cfg)
        assert {e for e in oc.alphabet if e.role in entering} == \
            {cfg.sent(n) for n in cfg.sigma_o}
        seen = attack_control_constraint(cfg).observable
        assert {e for e in seen if e.role in entering} == {cfg.sent(n) for n in cfg.sigma_oa}
        sa = set(cfg.sigma_sa)
        formula = ([ev.plant(n) for n in cfg.sigma]
                   + [ev.entry(n) for n in cfg.sigma_o if n not in sa]
                   + [ev.compromised(n) for n in cfg.sigma_sa]
                   + [ev.exit_(n) for n in cfg.sigma_o]
                   + [ev.command_entry(g) for g in cfg.gamma]
                   + [ev.command_exit(g) for g in cfg.gamma]
                   + [ev.command(g) for g in cfg.gamma] + [ev.tick, ev.stop])
        assert set(cfg.full_alphabet()) == set(formula)
        assert len(cfg.full_alphabet()) == len(formula)


def test_blank_lines_comments_and_lone_headers_parse_as_the_compact_form():
    spread = """\
# a comment alone on its line

[parameters]
  delta_o=1 delta_c=0   # trailing comment
  delta_s=0 n_f=1 u=1 v=1

[events]
  a1 c o ao comp te=0
      # indented comment
  a2 uc uo - - -
[commands]
  v1 = a1
"""
    cfg = parse_config(spread)
    assert cfg == parse_config(SAMPLE)
    assert parse_config(serialize_config(cfg)) == cfg
    assert serialize_config(cfg) == serialize_config(parse_config(SAMPLE))


def test_parse_error_carries_line_number():
    bad = SAMPLE.replace("delta_o=1", "delta_o=x")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert err.value.line == 1
    # a command line names exactly one command, whether or not `=` is spaced
    for line in ("=a1", "= a1", "v1 v2 =a1", "v1 v2 = a1", "v1 a1"):
        with pytest.raises(ConfigError, match="command line needs") as err:
            parse_config(SAMPLE + f"[commands] {line}\n")
        assert err.value.line == SAMPLE.count("\n") + 1


@pytest.mark.parametrize("extra,message", [
    ("detla_o=7", "unknown parameter 'detla_o'"),
    ("u=5", "parameter u given twice")])
def test_unknown_or_repeated_parameter_rejected(extra, message):
    with pytest.raises(ConfigError, match=message) as err:
        parse_config(SAMPLE.replace("v=1\n", f"v=1\n             {extra}\n"))
    assert err.value.line == 2


def test_event_line_shape_enforced():
    bad = SAMPLE.replace("a2 uc uo - - -", "a2 uc uo -")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert err.value.line == 3


def test_missing_parameters_rejected():
    with pytest.raises(ConfigError):
        parse_config("[parameters] delta_o=1\n[events] a c o ao comp te=0\n"
                     "[commands] v = a\n")


def test_flag_implications():
    # compromised but not attacker-observable
    with pytest.raises(ConfigError):
        SystemConfig(events=(EventSpec("a", True, True, False, True, 0),),
                     commands={"v": frozenset({"a"})},
                     delta_o=0, delta_c=0, delta_s=0, rates=RateBounds(1, 1, 1))
    # attacker-observable but unobservable
    with pytest.raises(ConfigError):
        SystemConfig(events=(EventSpec("a", True, False, True, False, 0),),
                     commands={"v": frozenset({"a"})},
                     delta_o=0, delta_c=0, delta_s=0, rates=RateBounds(1, 1, 1))


def test_commands_must_be_nonempty_controllable():
    with pytest.raises(ConfigError):
        SystemConfig(events=(EventSpec("a", True, True, True, True, 0),),
                     commands={"v": frozenset()},
                     delta_o=0, delta_c=0, delta_s=0, rates=RateBounds(1, 1, 1))
    with pytest.raises(ConfigError):
        SystemConfig(events=(EventSpec("a", False, True, True, True, None),),
                     commands={"v": frozenset({"a"})},
                     delta_o=0, delta_c=0, delta_s=0, rates=RateBounds(1, 1, 1))


def test_exec_delay_exactly_on_controllables():
    with pytest.raises(ConfigError):
        SystemConfig(events=(EventSpec("a", True, True, True, True, None),),
                     commands={"v": frozenset({"a"})},
                     delta_o=0, delta_c=0, delta_s=0, rates=RateBounds(1, 1, 1))
    with pytest.raises(ConfigError):
        SystemConfig(events=(EventSpec("a", True, True, True, True, 0),
                             EventSpec("u", False, False, False, False, 2)),
                     commands={"v": frozenset({"a"})},
                     delta_o=0, delta_c=0, delta_s=0, rates=RateBounds(1, 1, 1))


@pytest.mark.parametrize("name", ["tick", "stop", "x#", "x_in", "x_out", "", "a:1",
                                  "[a", "a b", "a\tb", "a\nb", "a\x1cb"])
def test_reserved_names_rejected(name):
    with pytest.raises(ConfigError, match="collides with event spelling rules"):
        SystemConfig(events=(EventSpec(name, True, True, True, True, 0),),
                     commands={"v": frozenset({name})},
                     delta_o=0, delta_c=0, delta_s=0, rates=RateBounds(1, 1, 1))


def test_negative_bounds_rejected():
    with pytest.raises(ConfigError):
        RateBounds(-1, 0, 0)
    with pytest.raises(ConfigError):
        SystemConfig(events=(EventSpec("a", True, True, True, True, 0),),
                     commands={"v": frozenset({"a"})},
                     delta_o=-1, delta_c=0, delta_s=0, rates=RateBounds(1, 1, 1))


def _one_event_config(event="a", command="v"):
    return SystemConfig(events=(EventSpec(event, True, True, True, True, 0),),
                        commands={command: frozenset({event})}, delta_o=0, delta_c=0,
                        delta_s=0, rates=RateBounds(1, 1, 1))


@pytest.mark.parametrize("command", ["v=w", "=", "v="])
def test_command_names_with_an_equals_sign_rejected(command):
    with pytest.raises(ConfigError) as err:
        _one_event_config(command=command)
    assert str(err.value) == f"command name {command!r} contains '='"


def test_event_names_with_an_equals_sign_load():
    cfg = _one_event_config(event="a=b")
    assert parse_config(serialize_config(cfg)) == cfg


# the separators of the config format, the role suffixes and reserved names
NAME_PARTS = list(" \t#[]=:,") + ["_in", "_out", "tick", "stop"]


def _random_name(rng: random.Random) -> str:
    """Up to three parts, each a letter twice as often as anything else."""
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxy") if rng.random() < 2 / 3
                   else rng.choice(NAME_PARTS) for _ in range(rng.randrange(4)))


def test_every_config_accepted_round_trips():
    """A config built from any names either is rejected or reads back from
    its text as itself."""
    rng = random.Random(30)
    accepted = rejected = 0
    for _ in range(3000):
        events = list(dict.fromkeys(_random_name(rng) for _ in range(rng.randint(1, 3))))
        specs = tuple(EventSpec(name, True, True, True, True, 0) for name in events)
        commands = {_random_name(rng): frozenset(rng.sample(events, rng.randint(1, len(events))))
                    for _ in range(rng.randint(1, 2))}
        try:
            cfg = SystemConfig(events=specs, commands=commands, delta_o=0, delta_c=0,
                               delta_s=0, rates=RateBounds(1, 1, 1))
        except ConfigError:
            rejected += 1
            continue
        accepted += 1
        assert parse_config(serialize_config(cfg)) == cfg, serialize_config(cfg)
    assert accepted > 100 and rejected > 100


# case -> (the config text, message, line or None when the whole config is
# at fault)
CONFIG_ERRORS = {
    "duplicate-event": (SAMPLE + "[events] a1 c o ao comp te=0\n",
                        "duplicate event name a1", None),
    "negative-te": (SAMPLE.replace("te=0", "te=-1"), "a1: te must be nonnegative",
                    None),
    "no-commands": (SAMPLE.replace("[commands]   v1 = a1\n", ""),
                    "at least one command is required", None),
    "unknown-member": (SAMPLE.replace("v1 = a1", "v1 = zz"),
                       "command v1 references unknown event zz", None),
    "event-and-command": (SAMPLE + "[commands] a1 = a1\n",
                          "name a1 used for both an event and a command", None),
    "unknown-section": (SAMPLE + "[bogus] x\n", "unknown section [bogus]", 5),
    # damage states are the plant's marked states; the config names none
    "damage-section": (SAMPLE + "[damage] 5 10\n", "unknown section [damage]", 5),
    # a header is exactly one of the three that serialize_config writes
    "unclosed-header": (SAMPLE.replace("[parameters]", "[parameters"),
                        "unknown section [parameters", 1),
    "doubled-brackets": (SAMPLE.replace("[events]", "[[events]]]"),
                         "unknown section [[events]]]", 2),
    "upper-case-header": (SAMPLE.replace("[commands]", "[COMMANDS"),
                          "unknown section [COMMANDS", 4),
    "before-sections": ("a1 c o ao comp te=0\n" + SAMPLE,
                        "content before any section header", 1),
    "malformed-parameter": (SAMPLE.replace("delta_o=1", "delta_o"),
                            "malformed parameter 'delta_o'", 1),
    "c-flag": (SAMPLE.replace("a2 uc uo", "a2 x uo"), "bad flags for event a2", 3),
    "o-flag": (SAMPLE.replace("a2 uc uo", "a2 uc x"), "bad flags for event a2", 3),
    "ao-flag": (SAMPLE.replace("a1 c o ao", "a1 c o x"), "bad flags for event a1", 2),
    "comp-flag": (SAMPLE.replace("ao comp", "ao x"), "bad flags for event a1", 2),
    "te-column": (SAMPLE.replace("te=0", "0"), "bad te column '0'", 2),
    "event-line": (SAMPLE.replace("a2 uc uo - - -", "a2 uc uo -"),
                   "event line needs: name c|uc o|uo ao|- comp|- te=N|-", 3),
    "duplicate-command": (SAMPLE + "[commands] v1 = a1\n", "duplicate command v1", 5),
    # `:` precedes the role in an `.alphabet`, so no `.aut` file could
    # declare this event
    "role-colon-in-name": (SAMPLE.replace("a1", "a:1"),
                           "name 'a:1' collides with event spelling rules", None),
    # `,` separates the name and the number of a state's pair, so two
    # channel, store or stage states could render one name
    "comma-in-event": (SAMPLE.replace("a1", "a,1"),
                       "name 'a,1' collides with event spelling rules", None),
    "comma-in-command": (SAMPLE.replace("v1", "v,1"),
                         "name 'v,1' collides with event spelling rules", None),
}


@pytest.mark.parametrize("case", CONFIG_ERRORS)
def test_config_input_errors(case, tmp_path, capsys):
    text, message, line = CONFIG_ERRORS[case]
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    where = f"line {line}: " if line else ""
    assert (str(err.value), err.value.line) == (where + message, line)
    path = tmp_path / "bad.cfg"
    path.write_text(text, encoding="utf-8")
    assert main(["capacity", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {where}{message}\n"

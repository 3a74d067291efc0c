import pytest

from netdes.cli import main
from netdes.config import (ConfigError, EventSpec, RateBounds, SystemConfig,
                           parse_config, serialize_config)

SAMPLE = """\
[parameters] delta_o=1 delta_c=0 delta_s=0 n_f=1 u=1 v=1
[events]     a1 c o ao comp te=0
             a2 uc uo - - -
[commands]   v1 = a1
[damage]     5 10
"""


def test_parse_sample():
    cfg = parse_config(SAMPLE)
    assert cfg.delta_o == 1 and cfg.delta_c == 0 and cfg.delta_s == 0
    assert cfg.rates == RateBounds(1, 1, 1)
    assert cfg.sigma == ["a1", "a2"]
    assert cfg.sigma_uc == ["a2"]
    assert cfg.sigma_o == ["a1"] and cfg.sigma_oa == ["a1"] and cfg.sigma_sa == ["a1"]
    assert cfg.commands == {"v1": frozenset({"a1"})}
    assert cfg.damage == frozenset({"5", "10"})


def test_serialize_round_trip():
    cfg = parse_config(SAMPLE)
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    assert serialize_config(again) == serialize_config(cfg)


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


@pytest.mark.parametrize("name", ["tick", "stop", "x#", "x_in", "x_out", "", "a:1"])
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


def test_exec_delay_of_an_unknown_event_rejected():
    cfg = SystemConfig(events=(EventSpec("a", True, True, True, True, 2),),
                       commands={"v": frozenset({"a"})},
                       delta_o=0, delta_c=0, delta_s=0, rates=RateBounds(1, 1, 1))
    assert cfg.exec_delay("a") == 2
    with pytest.raises(ConfigError) as err:
        cfg.exec_delay("zz")
    assert str(err.value) == "unknown event zz"


# case -> (the config text, message, line or None when the whole config is
# at fault)
CONFIG_ERRORS = {
    "duplicate-event": (SAMPLE + "[events] a1 c o ao comp te=0\n",
                        "duplicate event name", None),
    "negative-te": (SAMPLE.replace("te=0", "te=-1"), "a1: te must be nonnegative",
                    None),
    "no-commands": (SAMPLE.replace("[commands]   v1 = a1\n", ""),
                    "at least one command is required", None),
    "unknown-member": (SAMPLE.replace("v1 = a1", "v1 = zz"),
                       "command v1 references unknown event zz", None),
    "event-and-command": (SAMPLE + "[commands] a1 = a1\n",
                          "name a1 used for both an event and a command", None),
    "unknown-section": (SAMPLE + "[bogus] x\n", "unknown section [bogus]", 6),
    "before-sections": ("a1 c o ao comp te=0\n" + SAMPLE,
                        "content before any section header", 1),
    "malformed-parameter": (SAMPLE.replace("delta_o=1", "delta_o"),
                            "malformed parameter 'delta_o'", 1),
    "c-flag": (SAMPLE.replace("a2 uc uo", "a2 x uo"), "bad flags for event a2", 3),
    "o-flag": (SAMPLE.replace("a2 uc uo", "a2 uc x"), "bad flags for event a2", 3),
    "ao-flag": (SAMPLE.replace("a1 c o ao", "a1 c o x"), "bad flags for event a1", 2),
    "comp-flag": (SAMPLE.replace("ao comp", "ao x"), "bad flags for event a1", 2),
    "te-column": (SAMPLE.replace("te=0", "0"), "bad te column '0'", 2),
    "duplicate-command": (SAMPLE + "[commands] v1 = a1\n", "duplicate command v1", 6),
    # `:` precedes the role in an `.alphabet`, so no `.aut` file could
    # declare this event
    "role-colon-in-name": (SAMPLE.replace("a1", "a:1"),
                           "name 'a:1' collides with event spelling rules", None),
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
    assert capsys.readouterr().err == f"error: {where}{message}\n"

"""System configuration: alphabet partitions, commands, delays, rate bounds.

Text format (line-oriented; continuation lines extend the current section)::

    [parameters] delta_o=1 delta_c=0 delta_s=0 n_f=1 u=1 v=1
    [events]     a1 c o ao comp te=0
                 a2 uc uo - - -
    [commands]   v1 = a1

Event columns: name, one column per entry of ``FLAGS``, te=N or -. ``FLAGS``
and ``DELAYS`` + ``RATES`` are declared once for the reader and the writer.
The damage states are not configured here: they are the plant's marked
states, the ``.marked`` line of its file.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional

from . import events as ev
from .events import EventLabel

DELAYS = ("delta_o", "delta_c", "delta_s")
RATES = ("n_f", "u", "v")
PARAMETERS = DELAYS + RATES

# (EventSpec field, spelling when true, spelling when false), in column order
FLAGS = (("controllable", "c", "uc"), ("observable", "o", "uo"),
         ("attacker_observable", "ao", "-"), ("compromised", "comp", "-"))


class ConfigError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


@dataclass(frozen=True)
class RateBounds:
    """Per-tick rate bounds: plant firings, attacker sends, supervisor sends."""
    n_f: int
    u: int
    v: int

    def __post_init__(self) -> None:
        for label in RATES:
            if getattr(self, label) < 0:
                raise ConfigError(f"rate bound {label} must be nonnegative")


@dataclass(frozen=True)
class EventSpec:
    name: str
    controllable: bool
    observable: bool
    attacker_observable: bool
    compromised: bool
    exec_delay: Optional[int] = None


@dataclass(frozen=True)
class SystemConfig:
    events: tuple  # tuple of EventSpec, declaration order
    commands: Dict[str, FrozenSet[str]]
    delta_o: int
    delta_c: int
    delta_s: int
    rates: RateBounds

    def __post_init__(self) -> None:
        names = [e.name for e in self.events]
        if len(set(names)) != len(names):
            dup = next(n for k, n in enumerate(names) if n in names[:k])
            raise ConfigError(f"duplicate event name {dup}")
        for name in names + list(self.commands):
            if not ev.spellable(name):
                raise ConfigError(f"name {name!r} collides with event spelling rules")
        for label in DELAYS:
            if getattr(self, label) < 0:
                raise ConfigError(f"{label} must be nonnegative")
        by_name = {e.name: e for e in self.events}
        for e in self.events:
            if e.compromised and not e.attacker_observable:
                raise ConfigError(f"{e.name}: compromised events must be attacker-observable")
            if e.attacker_observable and not e.observable:
                raise ConfigError(f"{e.name}: attacker-observable events must be observable")
            if e.controllable and e.exec_delay is None:
                raise ConfigError(f"{e.name}: controllable events need an execution delay te")
            if not e.controllable and e.exec_delay is not None:
                raise ConfigError(f"{e.name}: te only applies to controllable events")
            if e.exec_delay is not None and e.exec_delay < 0:
                raise ConfigError(f"{e.name}: te must be nonnegative")
        if self.rates.u < 1 and any(e.attacker_observable and not e.compromised
                                    for e in self.events):
            # forwarding such an event as read spends one unit of u
            raise ConfigError("u must be at least 1 when forwarded events count "
                              "toward the attack budget")
        if not self.commands:
            raise ConfigError("at least one command is required")
        for cmd, members in self.commands.items():
            if "=" in cmd:  # it ends the name on a [commands] line
                raise ConfigError(f"command name {cmd!r} contains '='")
            if not members:
                raise ConfigError(f"command {cmd} must be a nonempty set of events")
            for m in members:
                spec = by_name.get(m)
                if spec is None:
                    raise ConfigError(f"command {cmd} references unknown event {m}")
                if not spec.controllable:
                    raise ConfigError(f"command {cmd} contains uncontrollable event {m}")
        if set(self.commands) & set(names):
            clash = sorted(set(self.commands) & set(names))[0]
            raise ConfigError(f"name {clash} used for both an event and a command")

    # -- alphabet views --------------------------------------------------

    @property
    def sigma(self) -> List[str]:
        return [e.name for e in self.events]

    @property
    def sigma_uc(self) -> List[str]:
        return [e.name for e in self.events if not e.controllable]

    @property
    def sigma_o(self) -> List[str]:
        return [e.name for e in self.events if e.observable]

    @property
    def sigma_uo(self) -> List[str]:
        return [e.name for e in self.events if not e.observable]

    @property
    def sigma_oa(self) -> List[str]:
        return [e.name for e in self.events if e.attacker_observable]

    @property
    def sigma_sa(self) -> List[str]:
        return [e.name for e in self.events if e.compromised]

    @property
    def gamma(self) -> List[str]:
        return sorted(self.commands)

    # -- composite alphabets ----------------------------------------------

    def plant_labels(self) -> List[EventLabel]:
        return [ev.plant(n) for n in self.sigma]

    def sent(self, name: str) -> EventLabel:
        """The label under which a reading of observable event ``name``
        enters the observation channel: ``x#``, sent by the attacker, when
        ``name`` is compromised, else ``x_in``, forwarded as read."""
        return ev.compromised(name) if name in self.sigma_sa else ev.entry(name)

    def full_alphabet(self) -> List[EventLabel]:
        """The common alphabet of AC, NS and the composed plant."""
        labels = [ev.plant(n) for n in self.sigma]
        labels += [self.sent(n) for n in self.sigma_o]
        labels += [ev.exit_(n) for n in self.sigma_o]
        labels += [ev.command_entry(g) for g in self.gamma]
        labels += [ev.command_exit(g) for g in self.gamma]
        labels += [ev.command(g) for g in self.gamma]
        labels += [ev.tick, ev.stop]
        return labels


def _parse_int(tok: str, what: str, lineno: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ConfigError(f"{what} expects an integer, got {tok!r}", lineno)


def parse_config(text: str) -> SystemConfig:
    params: Dict[str, int] = {}
    specs: List[EventSpec] = []
    commands: Dict[str, FrozenSet[str]] = {}
    section: Optional[str] = None

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        toks = line.split()
        if toks[0].startswith("["):
            if toks[0] not in ("[parameters]", "[events]", "[commands]"):
                raise ConfigError(f"unknown section {toks[0]}", lineno)
            section = toks[0][1:-1]
            toks = toks[1:]
        if section is None:
            raise ConfigError("content before any section header", lineno)
        if not toks:
            continue
        if section == "parameters":
            for tok in toks:
                key, _, val = tok.partition("=")
                if not val:
                    raise ConfigError(f"malformed parameter {tok!r}", lineno)
                if key not in PARAMETERS:
                    raise ConfigError(f"unknown parameter {key!r}", lineno)
                if key in params:
                    raise ConfigError(f"parameter {key} given twice", lineno)
                params[key] = _parse_int(val, key, lineno)
        elif section == "events":
            if len(toks) != len(FLAGS) + 2:
                raise ConfigError("event line needs: name " + " ".join(
                    f"{true}|{false}" for _, true, false in FLAGS) + " te=N|-", lineno)
            name, *flags, te = toks
            if any(tok not in spellings[1:] for tok, spellings in zip(flags, FLAGS)):
                raise ConfigError(f"bad flags for event {name}", lineno)
            delay: Optional[int] = None
            if te != "-":
                if not te.startswith("te="):
                    raise ConfigError(f"bad te column {te!r}", lineno)
                delay = _parse_int(te[3:], "te", lineno)
            specs.append(EventSpec(name=name, exec_delay=delay, **{
                field: tok == true for tok, (field, true, _) in zip(flags, FLAGS)}))
        elif section == "commands":
            lhs, eq, rhs = " ".join(toks).partition("=")
            names = lhs.split()
            if not eq or len(names) != 1:
                raise ConfigError("command line needs: name = event ...", lineno)
            name, members = names[0], rhs.split()
            if name in commands:
                raise ConfigError(f"duplicate command {name}", lineno)
            commands[name] = frozenset(members)

    missing = [k for k in PARAMETERS if k not in params]
    if missing:
        raise ConfigError(f"missing parameters: {', '.join(missing)}")
    return SystemConfig(
        events=tuple(specs), commands=commands,
        rates=RateBounds(**{k: params[k] for k in RATES}),
        **{k: params[k] for k in DELAYS})


def load_config(path: str) -> SystemConfig:
    """The config in the file at ``path``; a ConfigError, text that is not
    UTF-8 included, names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_config(fh.read())
        except (ConfigError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: {exc}") from None


def serialize_config(cfg: SystemConfig) -> str:
    values = [getattr(cfg, k) for k in DELAYS] + [getattr(cfg.rates, k) for k in RATES]
    lines = ["[parameters] " + " ".join(f"{k}={v}" for k, v in zip(PARAMETERS, values))]
    for k, e in enumerate(cfg.events):
        head = "[events]    " if k == 0 else "            "
        te = f"te={e.exec_delay}" if e.exec_delay is not None else "-"
        flags = " ".join(true if getattr(e, field) else false
                         for field, true, false in FLAGS)
        lines.append(f"{head} {e.name} {flags} {te}")
    for k, name in enumerate(sorted(cfg.commands)):
        head = "[commands]  " if k == 0 else "            "
        lines.append(f"{head} {name} = " + " ".join(sorted(cfg.commands[name])))
    return "\n".join(lines) + "\n"

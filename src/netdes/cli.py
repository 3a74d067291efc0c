"""Command-line front end.

Commands: ``capacity``, ``build``, ``synthesize``, ``verify``, ``export-dot``;
``COMMANDS`` gives each one's options, and one small parser reads them.
Exit statuses: 0 success, 1 usage or parse error, 2 validation failure,
3 no covert attack exists, 4 ``verify`` found the attack detectable (not
covert). ``verify`` still exits 0 when only a damage goal fails.

A command runs with the cyclic garbage collector paused. The command store,
G_new and the new plant P are lazy automata: a row is built when something
first looks it up. ``build`` and ``synthesize`` write CS from its states,
which builds all of it, and G_new and its rate check from one
``automaton.number``, which keeps none of its rows. Synthesis reads only the rows
of P that live observer estimates reach, and those of a doomed estimate's
silent layers before its first covertness-violating state, and the verdicts (one
``check_attack`` per command) only those that the attacked loop reaches, so
neither explores P in full.

Every file goes through ``textio.write_text``, so each is written whole or
not at all. ``build`` and ``synthesize`` first remove the three completion
files, ``state_counts.txt``, ``attack.aut`` and ``certificate.txt``, from
``--out``, and each writes those it produces last. So every completion file
in ``--out`` comes from the last such run, one that stopped leaves none, and
a directory never holds an attack beside parts or a certificate from other
inputs.
"""
from __future__ import annotations

import contextlib
import gc
import os
import sys
from types import SimpleNamespace
from typing import List, Optional, Tuple

from .attacker import validate_attack
from .automaton import Automaton, AutomatonError, number
from .channels import capacities
from .config import ConfigError, load_config
from .fixtures import BuiltSystem, load_system
from .plant import rate_bound_warnings
from .synthesis import (SynthesisMode, SynthesisProblem, build_problem,
                        check_attack, render_size_report, state_size_report,
                        synthesize_supremal_attack)
from .textio import ParseError, load_automaton, save_automaton, to_dot, write_text

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NO_ATTACK = 3
EXIT_DETECTED = 4

# what build and synthesize write last, and remove from --out before they write
COMPLETION_FILES = ("state_counts.txt", "attack.aut", "certificate.txt")
COUNTS, ATTACK, CERTIFICATE = COMPLETION_FILES


def cmd_capacity(args) -> int:
    (c_oc, n_oc), (c_cc, n_cc), (c_cs, n_cs) = capacities(load_config(args.config))
    print(f"C_oc={c_oc} C_cc={c_cc} C_cs={c_cs}")
    print(f"states_oc<={n_oc} states_cc<={n_cc} states_cs<={n_cs}")
    return EXIT_OK


def _write_components(system: BuiltSystem, out_dir: str) -> None:
    """Write the eight parts into ``out_dir``, then ``state_counts.txt``.
    First remove every completion file an earlier ``build`` or
    ``synthesize`` may have left there, so none outlives its inputs."""
    os.makedirs(out_dir, exist_ok=True)
    for name in COMPLETION_FILES:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, name))
    # the parts whose states the files name by state_name; G_new and M are numbered
    for part in ("ac", "oc", "oc_t", "cc", "cs", "ce"):
        save_automaton(getattr(system, part), os.path.join(out_dir, part + ".aut"))
    g_new = number(system.g_new)  # the file and the rate check read it
    save_automaton(g_new, os.path.join(out_dir, "g_new.aut"))
    save_automaton(number(system.monitor), os.path.join(out_dir, "monitor.aut"))
    lines = [render_size_report(state_size_report(system))]
    for w in rate_bound_warnings(g_new, system.cfg):
        lines.append(f"warning: {w}\n")
    write_text(os.path.join(out_dir, COUNTS), lines)


def cmd_build(args) -> int:
    system = load_system(args.config, args.plant, args.ns)
    _write_components(system, args.out)
    print(f"wrote 8 automata and {COUNTS} to {args.out}")
    return EXIT_OK


def cmd_synthesize(args) -> int:
    mode = SynthesisMode(args.mode)
    system = load_system(args.config, args.plant, args.ns)
    _write_components(system, args.out)
    problem = build_problem(system)
    attack = synthesize_supremal_attack(problem, mode)
    cert_path = os.path.join(args.out, CERTIFICATE)
    if attack is None:
        write_text(cert_path, [f"mode: {mode.value}\nresult: no covert attack exists\n"])
        print("no covert attack exists")
        return EXIT_NO_ATTACK
    lines = [f"mode: {mode.value}",
             f"attack-states: {len(attack.states)}"]
    # after states is read, so the walk reads the kept rows and computes none
    save_automaton(number(attack), os.path.join(args.out, ATTACK))
    lines.append(f"validates: {validate_attack(attack, problem.constraint, problem.plant.alphabet).ok}")
    lines += _verdicts(problem, attack,
                       mode is SynthesisMode.DAMAGE_NONBLOCKING)[1]
    write_text(cert_path, ["\n".join(lines) + "\n"])
    print("\n".join(lines))
    return EXIT_OK


def cmd_verify(args) -> int:
    system = load_system(args.config, args.plant, args.ns)
    problem = build_problem(system)
    attack = load_automaton(args.attack, name="A")
    report = validate_attack(attack, problem.constraint, problem.plant.alphabet)
    print(report.render())
    if not report.ok:
        return EXIT_VALIDATION
    covert, lines = _verdicts(problem, attack, nonblocking=True)
    print("\n".join(lines))
    return EXIT_OK if covert else EXIT_DETECTED


def _verdicts(problem: SynthesisProblem, attack: Automaton,
              nonblocking: bool) -> Tuple[bool, List[str]]:
    """Whether the attack is covert, and the verdict and witness lines that
    ``synthesize`` and ``verify`` print, all from one ``check_attack``."""
    cov, check, reach = check_attack(problem, attack)
    lines = [f"covert: {cov.ok}"]
    if not cov.ok:
        lines.append(f"covertness-witness: {cov.render_witness()}")
    if nonblocking:
        lines.append(f"damage-nonblocking: {check.ok}")
        if not check.ok:
            lines.append(f"blocking-witness: {check.render_witness()}")
    lines.append(f"damage-reachable: {reach.ok}")
    if reach.ok:
        lines.append(f"damage-witness: {reach.render_witness()}")
    return cov.ok, lines


def cmd_export_dot(args) -> int:
    a = load_automaton(args.file)
    dot = to_dot(a)
    if args.out is not None:
        write_text(args.out, [dot])
    else:
        sys.stdout.write(dot)
    return EXIT_OK


LOOP_FILES = ("--config", "--plant", "--ns")

# name -> (function, required options, optional options with their defaults,
# positional argument or None, summary)
COMMANDS = {
    "capacity": (cmd_capacity, ("--config",), {}, None,
                 "print channel/storage capacities"),
    "build": (cmd_build, (*LOOP_FILES, "--out"), {}, None,
              "build and export all loop components"),
    "synthesize": (cmd_synthesize, (*LOOP_FILES, "--out"),
                   {"--mode": SynthesisMode.DAMAGE_NONBLOCKING.value}, None,
                   "synthesize the supremal covert attack"),
    "verify": (cmd_verify, (*LOOP_FILES, "--attack"), {}, None,
               "verify a candidate attack automaton"),
    "export-dot": (cmd_export_dot, (), {"--out": None}, "file",
                   "render an automaton file as DOT"),
}
CHOICES = {"--mode": tuple(m.value for m in SynthesisMode)}
HELP = ("-h", "--help")


class UsageError(Exception):
    """A command line the table does not accept. Its args are the command
    whose usage goes with the message (None for netdes itself) and the
    message."""


def _choose_from(names) -> str:
    return "(choose from " + ", ".join(map(repr, names)) + ")"


def _usage(command: Optional[str]) -> str:
    if command is None:
        return "usage: netdes {" + ",".join(COMMANDS) + "} ..."
    _fn, required, optional, positional, _summary = COMMANDS[command]
    spell = {o: o + " " + ("{" + ",".join(CHOICES[o]) + "}" if o in CHOICES
                           else o[2:].upper()) for o in (*required, *optional)}
    words = [spell[o] for o in required] + [f"[{spell[o]}]" for o in optional]
    return " ".join(["usage: netdes", command, *words, *filter(None, [positional])])


def _parse_args(argv: List[str]) -> Tuple[Optional[str], Optional[SimpleNamespace]]:
    """The command ``argv`` names and its options, read by the table. An
    option is ``--opt value`` or ``--opt=value``; options come in any order,
    before or after the positional argument, and the last of a repeated one
    counts. A ``-h`` or ``--help`` that comes before any error gives None
    for the options (and for the command too when it comes first). Raises
    UsageError, with argparse's wording."""
    if not argv:
        raise UsageError(None, "the following arguments are required: command")
    command, *tokens = argv
    if command in HELP:
        return None, None
    if command not in COMMANDS:
        raise UsageError(None, f"argument command: invalid choice: {command!r} "
                               + _choose_from(COMMANDS))
    _fn, required, optional, positional, _summary = COMMANDS[command]
    values, unknown, rest = dict(optional), [], iter(tokens)
    for token in rest:
        if token in HELP:
            return command, None
        key, eq, value = token.partition("=")
        if key in required or key in optional:
            value = value if eq else next(rest, "-")  # none left: no value
            if not eq and value.startswith("-"):
                raise UsageError(command, f"argument {key}: expected one argument")
            if key in CHOICES and value not in CHOICES[key]:
                raise UsageError(command, f"argument {key}: invalid choice: "
                                          f"{value!r} " + _choose_from(CHOICES[key]))
            values[key] = value
        elif positional and positional not in values and not token.startswith("-"):
            values[positional] = token
        else:
            unknown.append(token)
    missing = [a for a in (positional, *required) if a and a not in values]
    if missing:
        raise UsageError(command, "the following arguments are required: "
                                  + ", ".join(missing))
    if unknown:
        raise UsageError(command, "unrecognized arguments: " + " ".join(unknown))
    return command, SimpleNamespace(**{k.lstrip("-"): v for k, v in values.items()})


def _help(command: Optional[str]) -> str:
    if command is not None:
        return f"{_usage(command)}\n\n{COMMANDS[command][4]}"
    return (f"{_usage(None)}\n\nCovert sensor-attack synthesis for networked DES "
            "with non-FIFO channels\n" + "".join(
                f"\n  {name:<12}{entry[4]}" for name, entry in COMMANDS.items()))


def main(argv: Optional[list] = None) -> int:
    try:
        command, args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except UsageError as exc:
        command, message = exc.args
        print(f"{_usage(command)}\nnetdes: error: {message}", file=sys.stderr)
        return EXIT_USAGE
    if args is None:
        print(_help(command))
        return EXIT_OK
    # what a command allocates lives until it ends, so the cyclic collector's
    # full passes would only rescan it; the prior state comes back on exit
    collecting = gc.isenabled()
    gc.disable()
    try:
        return COMMANDS[command][0](args)
    except (ParseError, ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AutomatonError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())

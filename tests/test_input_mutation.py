"""Seeded mutation of the input files, run through the CLI in-process.

Every input is checked where it enters (the config reader, the ``.aut``
reader, the plant's checks, ``build_system``, ``validate_attack``), so any
mutated file must end in a documented exit status with one message, never
in an exception from deeper in the pipeline. The count of each status is
pinned: a check that moved, or an input that reached a check the pipeline
no longer makes, changes it.
"""
import random
from collections import Counter
from pathlib import Path

from netdes.cli import main
from systems import DATA, shipped_paths

SEED = 35
# no token here raises a delay or a rate above the shipped reduced value
# (delta_s=2 would take seconds per run), and none holds a ',' (no name may)
POOL = ("0", "1", "7", "-", "=", "#", "c", "uc", "o", "uo", "ao", "comp", "te=0",
        "te=-1", "delta_o=0", "delta_c=0", "delta_s=0", "n_f=0", "u=0", "v=0", "u=1",
        "a1", "a3", "w1", "zz", "a1:plain", "a1#:compromised", "a1:command",
        "w1_in:command-in", "tick", "stop", "[events]", "[commands]", "[bogus]",
        ".automaton", ".alphabet", ".initial", ".marked", ".trans", "B0", "B1", "S0")
ERROR_PREFIXES = ("error: ", "validation error: ")
# command -> exit status -> runs: a change means some mutated input now
# ends differently, at another check or at none
PINNED = {"capacity": {0: 16, 1: 96},
          "build": {0: 57, 1: 92, 2: 51},
          "synthesize": {0: 42, 1: 92, 2: 51, 3: 15},
          "verify": {0: 10, 1: 14, 2: 26}}


def mutate(text: str, rng: random.Random) -> str:
    """``text`` with one token replaced from ``POOL``, one line deleted or
    one line duplicated."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    op = rng.choice(("token", "token", "delete", "duplicate"))
    if op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    else:
        toks = lines[i].split() or [""]
        toks[rng.randrange(len(toks))] = rng.choice(POOL)
        lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


def run(argv, allowed, capsys) -> int:
    status = main(argv)
    out, err = capsys.readouterr()
    assert status in allowed, (argv, status, out, err)
    if status in (1, 2):
        if err:
            first, *rest = err.splitlines()
            assert first.startswith(ERROR_PREFIXES), err
        else:  # verify's report of an invalid attack, on stdout
            assert argv[0] == "verify" and status == 2
            first, *rest = out.splitlines()
            assert first.endswith("violation(s)"), out
        # one message; a report's violations follow it, indented
        assert all(line.startswith("  ") for line in rest), (err, out)
    else:
        assert not err, err
    return status


def test_mutated_inputs_end_in_a_documented_status(tmp_path, capsys):
    rng = random.Random(SEED)
    seen = {cmd: Counter() for cmd in ("capacity", "build", "synthesize", "verify")}
    shipped = dict(zip(("config", "plant", "ns"), shipped_paths("reduced")))
    texts = {part: Path(path).read_text(encoding="utf-8") for part, path in shipped.items()}
    out = str(tmp_path / "out")

    # the reduced loop: one of its three files mutated at a time
    for _ in range(200):
        part = rng.choice(sorted(texts))
        files = dict(shipped)
        files[part] = str(tmp_path / f"mutated_{part}")
        with open(files[part], "w", encoding="utf-8") as fh:
            fh.write(mutate(texts[part], rng))
        loop = ["--config", files["config"], "--plant", files["plant"], "--ns", files["ns"]]
        if part == "config":
            seen["capacity"][run(["capacity", "--config", files["config"]], {0, 1}, capsys)] += 1
        for cmd in ("build", "synthesize"):
            seen[cmd][run([cmd, *loop, "--out", out], {0, 1, 2, 3}, capsys)] += 1

    # guideway's config, through capacity only
    guideway = Path(DATA, "guideway.cfg").read_text(encoding="utf-8")
    path = str(tmp_path / "guideway.cfg")
    for _ in range(50):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(mutate(guideway, rng))
        seen["capacity"][run(["capacity", "--config", path], {0, 1}, capsys)] += 1

    # a synthesized attack, through verify
    loop = ["--config", shipped["config"], "--plant", shipped["plant"], "--ns", shipped["ns"]]
    assert run(["synthesize", *loop, "--out", out], {0}, capsys) == 0
    attack = Path(out, "attack.aut").read_text(encoding="utf-8")
    path = str(tmp_path / "attack.aut")
    for _ in range(50):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(mutate(attack, rng))
        seen["verify"][run(["verify", *loop, "--attack", path], {0, 1, 2, 4}, capsys)] += 1

    assert {cmd: dict(sorted(c.items())) for cmd, c in seen.items()} == PINNED

"""Workload table, seeded input generation and the output check.

A workload is one `netdes synthesize` run followed by one `netdes verify` of
the attack it wrote. Its inputs are a config, a plant and a networked
supervisor (NS). The config is one of the shipped systems with some model
parameters changed; the plant and NS are the shipped files with their
`.trans` lines shuffled by the seed. The program's outputs must not depend on
that order, so every seed has the same expected output digests.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
EXPECTED_FILE = HERE / "expected.json"

# The verdict lines of certificate.txt and of `verify` stdout; witness lines
# are covered by the digests.
VERDICT_KEYS = ("mode", "result", "attack-states", "validates", "covert",
                "damage-nonblocking", "damage-reachable")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    system: str        # shipped system under src/netdes/data/
    params: Dict[str, int]
    mode: str          # synthesize --mode
    budget_s: float    # per invocation; an overrun is killed and counted as failed


# Guideway u=2 (P with 21k states, 45-50 s of synthesis) is left out: one
# round would not fit the run window. Add it once the kernel is faster.
WORKLOADS = {w.name: w for w in (
    # the shipped system: nonblocking fixpoint rounds on a 251-state P
    Workload("guideway", "guideway", {}, "nonblocking", 30.0),
    # u=2 widens P and its observer; reachable mode skips the nonblocking loop
    Workload("attacker-wide", "guideway", {"u": 2, "delta_o": 0}, "reachable", 40.0),
    # delta_s=1 deepens command storage: a 16k-state G_new, a small P. Not in
    # BENCHMARK.json: a run fits only two of its 22 s rounds, too few to be
    # steady (README.md has the numbers).
    Workload("storage-deep", "reduced", {"delta_s": 1}, "nonblocking", 60.0),
)}


@dataclasses.dataclass(frozen=True)
class Inputs:
    config: Path
    plant: Path
    ns: Path


def _shuffle_transitions(text: str, rng: random.Random) -> str:
    lines = text.splitlines(keepends=True)
    slots = [i for i, line in enumerate(lines) if line.startswith(".trans")]
    moved = [lines[i] for i in slots]
    rng.shuffle(moved)
    for i, line in zip(slots, moved):
        lines[i] = line
    return "".join(lines)


def make_inputs(workload: Workload, seed: int, src: Path, dest: Path) -> Inputs:
    """Write the workload's config, plant and NS for ``seed`` into ``dest``."""
    from netdes.config import load_config, serialize_config

    data = src / "netdes" / "data"
    cfg = load_config(str(data / f"{workload.system}.cfg"))
    params = dict(workload.params)
    rates = {k: params.pop(k) for k in ("n_f", "u", "v") if k in params}
    cfg = dataclasses.replace(cfg, rates=dataclasses.replace(cfg.rates, **rates),
                              **params)
    rng = random.Random(f"{workload.name}/{seed}")
    dest.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(dest / "system.cfg", dest / "plant.aut", dest / "ns.aut")
    inputs.config.write_text(serialize_config(cfg), encoding="utf-8")
    for kind, path in (("plant", inputs.plant), ("ns", inputs.ns)):
        text = (data / f"{workload.system}_{kind}.aut").read_text(encoding="utf-8")
        path.write_text(_shuffle_transitions(text, rng), encoding="utf-8")
    return inputs


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def verdict_lines(text: str) -> List[str]:
    return [line for line in text.splitlines()
            if line.split(":", 1)[0] in VERDICT_KEYS]


def output_record(out_dir: Path, synth_stdout: str, verify_stdout: str) -> dict:
    """What the expected-output file stores for one workload."""
    return {
        "files": {p.name: sha256(p.read_bytes())
                  for p in sorted(out_dir.iterdir())},
        "certificate": verdict_lines(
            (out_dir / "certificate.txt").read_text(encoding="utf-8")),
        "verify": verdict_lines(verify_stdout),
        "verify_stdout": sha256(verify_stdout.encode("utf-8")),
        "synthesize_stdout": sha256(synth_stdout.encode("utf-8")),
    }


def load_expected() -> dict:
    return json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))


def check_synthesize(expected: dict, out_dir: Path, stdout: str) -> List[str]:
    """Problems with a synthesize run's files and printed verdicts."""
    problems = []
    written = {p.name: p for p in out_dir.iterdir()} if out_dir.is_dir() else {}
    for name, digest in expected["files"].items():
        if name not in written:
            problems.append(f"{name} not written")
        elif sha256(written[name].read_bytes()) != digest:
            problems.append(f"{name} digest mismatch")
    for name in sorted(set(written) - set(expected["files"])):
        problems.append(f"unexpected output {name}")
    if "certificate.txt" in written:
        got = verdict_lines(written["certificate.txt"].read_text(encoding="utf-8"))
        if got != expected["certificate"]:
            problems.append(f"certificate verdicts {got} != {expected['certificate']}")
    if verdict_lines(stdout) != expected["certificate"]:
        problems.append("synthesize stdout verdicts differ from the expected ones")
    if sha256(stdout.encode("utf-8")) != expected["synthesize_stdout"]:
        problems.append("synthesize stdout digest mismatch")
    return problems


def check_verify(expected: dict, stdout: str) -> List[str]:
    """Problems with a verify run's printed verdicts.

    `netdes verify` exits 0 even when the attack is not covert, so the
    verdicts are read from its output, not inferred from the exit status.
    """
    problems = []
    got = verdict_lines(stdout)
    if got != expected["verify"]:
        problems.append(f"verify verdicts {got} != {expected['verify']}")
    if sha256(stdout.encode("utf-8")) != expected["verify_stdout"]:
        problems.append("verify stdout digest mismatch")
    return problems

"""Smoke run of two ladder rungs: nonblocking synthesis and its verdicts.

For guideway ``u=4`` and ``u=8``, one fresh child interpreter builds the
system, synthesizes the supremal damage-nonblocking attack and checks it
with ``check_attack``. The run fails unless the attack is covert,
damage-nonblocking and damage-reachable, has the rung's state count, and
the composed plant P has computed the rung's number of rows by then, so a
change that makes synthesis or the check read more of P fails, and, at
``u=8``, unless the child's peak resident set size (VmHWM) is within the
rung's bound. Each child pauses the cyclic garbage collector for its work,
as ``netdes.cli`` does for a command, so its CPU time (printed, not gated)
and its peak are those of a CLI run.
pytest does not collect this file (its name does not start with
``test_``)::

    python tests/ladder_smoke.py
"""
import dataclasses
import gc
import json
import os
import subprocess
import sys
import time

TESTS = os.path.dirname(os.path.realpath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")
# rung (the attacker's rate u) -> (states of the supremal nonblocking attack,
# rows of P computed after synthesis and the check, most VmHWM in MB or None)
RUNGS = {4: (444, 3669, None), 8: (2994, 36665, 90)}


def child(u: int) -> None:
    sys.path.insert(0, SRC)
    from netdes.config import load_config
    from netdes.fixtures import build_system
    from netdes.plant import load_plant
    from netdes.synthesis import (SynthesisMode, build_problem, check_attack,
                                  synthesize_supremal_attack)
    from netdes.textio import load_automaton

    data = os.path.join(SRC, "netdes", "data")
    cfg = load_config(os.path.join(data, "guideway.cfg"))
    cfg = dataclasses.replace(cfg, rates=dataclasses.replace(cfg.rates, u=u))
    gc.disable()
    system = build_system(cfg, load_plant(os.path.join(data, "guideway_plant.aut"), cfg),
                          load_automaton(os.path.join(data, "guideway_ns.aut"), name="NS"))
    problem = build_problem(system)
    attack = synthesize_supremal_attack(problem, SynthesisMode.DAMAGE_NONBLOCKING)
    verdicts = [] if attack is None else [v.ok for v in check_attack(problem, attack)]
    with open("/proc/self/status", encoding="ascii") as fh:
        peak = next(line.split()[1] for line in fh if line.startswith("VmHWM"))
    print(json.dumps({"states": None if attack is None else len(attack.states),
                      "verdicts": verdicts, "p_rows": len(problem.plant._delta),
                      "cpu_s": time.process_time(),
                      "vmhwm_kb": int(peak)}))


def main() -> int:
    failed = False
    for u, (states, p_rows, peak_mb) in RUNGS.items():
        proc = subprocess.run([sys.executable, __file__, "--child", str(u)],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"u={u}: child failed\n{proc.stderr}")
            failed = True
            continue
        got = json.loads(proc.stdout)
        peak = got["vmhwm_kb"] / 1024
        ok = (got["verdicts"] == [True, True, True] and got["states"] == states
              and got["p_rows"] == p_rows and (peak_mb is None or peak <= peak_mb))
        print(f"u={u}: attack states {got['states']} (expected {states}), "
              f"verdicts {got['verdicts']}, P rows {got['p_rows']} (expected {p_rows}), "
              f"cpu {got['cpu_s']:.2f} s, "
              f"VmHWM {peak:.1f} MB{'' if peak_mb is None else f' (at most {peak_mb})'}"
              f"{'' if ok else '  FAIL'}")
        failed |= not ok
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(int(sys.argv[2]))
    else:
        sys.exit(main())

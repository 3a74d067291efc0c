"""Smoke run of three ladder rungs: nonblocking synthesis and its verdicts,
and reachable-mode synthesis against the closed form.

For guideway ``u=4`` and ``u=8``, one fresh child interpreter builds the
system, synthesizes the supremal damage-nonblocking attack and checks it
with ``check_attack``. The run fails unless the attack is covert,
damage-nonblocking and damage-reachable, has the rung's state count, and
the composed plant P has computed the rung's number of rows by then, so a
change that makes synthesis or the check read more of P fails, and, at
``u=8``, unless the child's peak resident set size (VmHWM) is within the
rung's bound. For guideway ``u=3``, a third child synthesizes the supremal
damage-reachable attack and compares it with ``supcn_oracle``'s closed form,
which explores all of P (280,012 states; several seconds of CPU and about
490 MB): the run fails unless their closed loops agree and P has that many
states. Each child pauses the cyclic garbage collector for its work, as
``netdes.cli`` does for a command, so its CPU time (printed, not gated) and
its peak are those of a CLI run.
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
# rung whose supremal damage-reachable attack the closed form checks, and
# the states of its P
ORACLE_RUNG = (3, 280012)


def problem_at(u: int):
    """Guideway's synthesis problem with the attacker's rate ``u``, built
    with the cyclic collector paused."""
    sys.path[:0] = [SRC, TESTS]
    from netdes.config import load_config
    from netdes.fixtures import build_system
    from netdes.plant import load_plant
    from netdes.synthesis import build_problem
    from netdes.textio import load_automaton

    data = os.path.join(SRC, "netdes", "data")
    cfg = load_config(os.path.join(data, "guideway.cfg"))
    cfg = dataclasses.replace(cfg, rates=dataclasses.replace(cfg.rates, u=u))
    gc.disable()
    system = build_system(cfg, load_plant(os.path.join(data, "guideway_plant.aut"), cfg),
                          load_automaton(os.path.join(data, "guideway_ns.aut"), name="NS"))
    return build_problem(system)


def peak_kb() -> int:
    """This process's peak resident set size (VmHWM), in kB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        return int(next(line.split()[1] for line in fh if line.startswith("VmHWM")))


def child(u: int) -> None:
    problem = problem_at(u)
    from netdes.synthesis import SynthesisMode, check_attack, synthesize_supremal_attack
    attack = synthesize_supremal_attack(problem, SynthesisMode.DAMAGE_NONBLOCKING)
    verdicts = [] if attack is None else [v.ok for v in check_attack(problem, attack)]
    print(json.dumps({"states": None if attack is None else len(attack.states),
                      "verdicts": verdicts, "p_rows": len(problem.plant._delta),
                      "cpu_s": time.process_time(), "vmhwm_kb": peak_kb()}))


def oracle_child(u: int) -> None:
    problem = problem_at(u)
    from netdes.synthesis import SynthesisMode, synthesize_supremal_attack
    from supcn_oracle import disagreement
    mode = SynthesisMode.DAMAGE_REACHABLE
    attack = synthesize_supremal_attack(problem, mode)
    print(json.dumps({"attack": attack is not None,
                      "differs": disagreement(problem, attack, mode),
                      "p_states": len(problem.plant._delta),
                      "cpu_s": time.process_time(), "vmhwm_kb": peak_kb()}))


def run_child(*args: str):
    """The JSON line a child prints, or None (after printing why) if it failed."""
    proc = subprocess.run([sys.executable, __file__, *args], capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"u={args[1]}: child failed\n{proc.stderr}")
        return None
    return json.loads(proc.stdout)


def main() -> int:
    failed = False
    for u, (states, p_rows, peak_mb) in RUNGS.items():
        got = run_child("--child", str(u))
        if got is None:
            failed = True
            continue
        peak = got["vmhwm_kb"] / 1024
        ok = (got["verdicts"] == [True, True, True] and got["states"] == states
              and got["p_rows"] == p_rows and (peak_mb is None or peak <= peak_mb))
        print(f"u={u}: attack states {got['states']} (expected {states}), "
              f"verdicts {got['verdicts']}, P rows {got['p_rows']} (expected {p_rows}), "
              f"cpu {got['cpu_s']:.2f} s, "
              f"VmHWM {peak:.1f} MB{'' if peak_mb is None else f' (at most {peak_mb})'}"
              f"{'' if ok else '  FAIL'}")
        failed |= not ok
    u, p_states = ORACLE_RUNG
    got = run_child("--oracle-child", str(u))
    if got is None:
        return 1
    ok = got["attack"] and got["differs"] is None and got["p_states"] == p_states
    print(f"u={u}, reachable: attack {got['attack']}, closed form "
          f"{'agrees' if got['differs'] is None else 'differs: ' + got['differs']}, "
          f"P states {got['p_states']} (expected {p_states}), cpu {got['cpu_s']:.2f} s, "
          f"VmHWM {got['vmhwm_kb'] / 1024:.1f} MB"
          f"{'' if ok else '  FAIL'}")
    return 1 if failed or not ok else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(int(sys.argv[2]))
    elif sys.argv[1:2] == ["--oracle-child"]:
        oracle_child(int(sys.argv[2]))
    else:
        sys.exit(main())

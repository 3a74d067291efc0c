"""netdes benchmark: time to verdict of `netdes synthesize` and `netdes verify`.

Run from the root of a checkout:

    python3 perfbench/run.py --workload guideway --seed 1 --seconds 40 --trace 0

Closed loop, one invocation at a time: each round runs `synthesize` and then
`verify` on the attack it wrote, as child processes of the real CLI, until
``--seconds`` have passed (the last round is finished, not cut). Every
output is checked against the digests and verdicts in `expected.json`.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the commands
under `tracer.py`, which wraps the layer functions, and prints the per-layer
metrics. ``--workload all`` runs every workload in turn. The last line of
stdout is the JSON result.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from tracer import COUNTS, SPAN_NAMES, load_trace, span_times
from workloads import (WORKLOADS, Inputs, Workload, check_synthesize, check_verify,
                       load_expected, make_inputs)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACE_OUT = ROOT / ".bench_out"
TRACER = Path(__file__).resolve().parent / "tracer.py"

SETUP_EVERY_S = 2.0        # one setup probe per this much run time
CALIBRATION_EVERY_S = 1.5  # one calibration run per this much run time
HELPER_BUDGET_S = 30.0     # budget of a setup probe or calibration run

# What `setup_s` times: interpreter start, `import netdes` and reading and
# validating the inputs, up to the first automaton the command builds.
SETUP_PROBE = """\
import sys
import netdes.cli
from netdes.config import load_config
from netdes.plant import load_plant
from netdes.supervision import validate_networked_supervisor
from netdes.textio import load_automaton
cfg = load_config(sys.argv[1])
load_plant(sys.argv[2], cfg)
ns = load_automaton(sys.argv[3], name="NS")
sys.exit(0 if validate_networked_supervisor(ns, cfg).ok else 2)
"""

# The calibration behind the `*_rel` metrics: a fresh interpreter that fills
# and walks a dict of tuple and frozenset keys, as netdes does. It runs as a
# child, like the commands: the host's slow phases show in a new process's
# allocation-heavy work much more than in a warm loop. A larger table tracked
# them better (about 58 MB here, within the commands' 21-108 MB).
CALIBRATION = [sys.executable, "-c", """\
table = {}
for i in range(100000):
    table[(i, i % 7, frozenset((i % 11, i % 13)))] = [i]
total = 0
for key in list(table)[::3]:
    total += len(table[key])
"""]

# `python3 -m netdes.cli`, plus a stderr line with the process's peak RSS.
# wait4's ru_maxrss would not do: exec keeps the larger of the old and new
# address space's peak, so small commands would report this process's RSS.
CLI = [sys.executable, "-c", """\
import atexit, sys

def peak_rss():
    with open("/proc/self/status", encoding="ascii") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    sys.stderr.write(f"peak-rss-kb {kb}\\n")

atexit.register(peak_rss)
from netdes.cli import main
sys.exit(main())
"""]

Metrics = Dict[str, Tuple[float, str]]


@contextlib.contextmanager
def alarm(seconds: float, on_expire: Callable[[], None]):
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: on_expire())
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    maxrss_mb: float   # from wait4: at least this process's own peak
    exit_code: int
    timed_out: bool
    stdout: str
    stderr: str


def run_child(argv: List[str], env: Dict[str, str], budget_s: float,
              log: Path) -> Child:
    """Run ``argv`` to completion, or kill it once ``budget_s`` has passed.

    Wall time spans spawn to reap; CPU time comes from the child's rusage.
    """
    out, err = log.with_suffix(".out"), log.with_suffix(".err")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
    killed = []

    def expire() -> None:
        killed.append(True)
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)

    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    reaped = None
    try:
        with alarm(budget_s, expire):
            reaped = os.wait4(pid, 0)
    finally:
        if reaped is None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
    wall = time.perf_counter() - start
    _, status, usage = reaped
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 os.waitstatus_to_exitcode(status),
                 bool(killed) and os.WIFSIGNALED(status),
                 out.read_text(encoding="utf-8", errors="replace"),
                 err.read_text(encoding="utf-8", errors="replace"))


def peak_rss_mb(child: Child) -> float:
    """The CLI's own peak RSS, or the wait4 bound if it died before printing it."""
    for line in reversed(child.stderr.splitlines()):
        if line.startswith("peak-rss-kb "):
            return int(line.split()[1]) / 1024.0
    return child.maxrss_mb


def child_problems(what: str, child: Child) -> List[str]:
    if child.timed_out:
        return [f"{what} killed after its time budget ({child.wall_s:.1f} s)"]
    if child.exit_code != 0:
        last = (child.stderr.strip().splitlines() or [""])[-1]
        return [f"{what} exited {child.exit_code}: {last}"]
    return []


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def cli_args(workload: Workload, inputs: Inputs, out: Path) -> Tuple[List[str], List[str]]:
    common = ["--config", str(inputs.config), "--plant", str(inputs.plant),
              "--ns", str(inputs.ns)]
    return (["synthesize", *common, "--out", str(out), "--mode", workload.mode],
            ["verify", *common, "--attack", str(out / "attack.aut")])


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Session:
    """One workload run: its inputs, the children's environment, the samples
    and the tally of attempted and failed invocations."""

    def __init__(self, workload: Workload, seed: int, expected: dict, work: Path):
        self.workload, self.seed, self.expected, self.work = workload, seed, expected, work
        self.inputs = make_inputs(workload, seed, SRC, work / "inputs")
        self.out = work / "out"
        self.synth_args, self.verify_args = cli_args(workload, self.inputs, self.out)
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(seed % 2**32))
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.attempted = self.failed = self.mismatched = 0

    def invoke(self, what: str, argv: List[str], budget_s: float) -> Child:
        """Run a child, check its exit status and outputs, and count it."""
        child = run_child(argv, self.env, budget_s, self.work / what)
        problems = child_problems(what, child)
        if not problems and what == "synthesize":
            problems = check_synthesize(self.expected, self.out, child.stdout)
        elif not problems and what == "verify":
            problems = check_verify(self.expected, child.stdout)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.mismatched += not child.timed_out
            for p in problems[:3]:
                print(f"  FAIL: {p}", file=sys.stderr)
        return child

    def calibrate(self) -> None:
        child = run_child(CALIBRATION, self.env, HELPER_BUDGET_S, self.work / "calibration")
        self.samples["calibration"].append(child.cpu_s)

    def report(self, units: Dict[str, str]) -> List[str]:
        return [f"{name:<16} {statistics.median(values):10.4f} {unit:<6}"
                f"median of {len(values)}, min {min(values):.4f}, "
                f"max {max(values):.4f}, IQR/median {spread(values):.3f}"
                for name, unit in units.items() for values in [self.samples[name]]]


def measure(session: Session, seconds: float) -> Tuple[Metrics, List[str]]:
    """End-to-end metrics from child processes of the CLI."""
    samples = session.samples
    probe = [sys.executable, "-c", SETUP_PROBE, str(session.inputs.config),
             str(session.inputs.plant), str(session.inputs.ns)]
    session.invoke("setup", probe, HELPER_BUDGET_S)  # warm-up: writes the bytecode cache
    start = time.perf_counter()
    while True:
        fresh_dir(session.out)
        for command, args in (("synthesize", session.synth_args),
                              ("verify", session.verify_args)):
            child = session.invoke(command, CLI + args, session.workload.budget_s)
            samples[f"{command}_s"].append(child.wall_s)
            samples[f"{command}_cpu"].append(child.cpu_s)
            if command == "synthesize":
                samples["peak_rss_mb"].append(peak_rss_mb(child))
            # setup probes and calibration runs go between commands, spread
            # evenly over the run whatever the commands' length
            elapsed = time.perf_counter() - start
            while len(samples["setup_s"]) < elapsed / SETUP_EVERY_S:
                samples["setup_s"].append(
                    session.invoke("setup", probe, HELPER_BUDGET_S).wall_s)
            while len(samples["calibration"]) < elapsed / CALIBRATION_EVERY_S:
                session.calibrate()
        if time.perf_counter() - start >= seconds:
            break

    # One reference for the whole run: the median of ~27 calibration runs is
    # steadier than the few runs next to one long command.
    reference = statistics.median(samples["calibration"])
    for command in ("synthesize", "verify"):
        samples[f"{command}_rel"] = [cpu / reference for cpu in samples[f"{command}_cpu"]]
    report = session.report({
        "synthesize_s": "s", "synthesize_rel": "ratio", "verify_s": "s",
        "verify_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB", "calibration": "s"})
    # The wall times are reported but not gated: the host's speed drifts by
    # up to half between minutes, far past any usable bound.
    units = {"synthesize_rel": "ratio", "verify_rel": "ratio", "setup_s": "s",
             "peak_rss_mb": "MB"}
    return {name: (statistics.median(samples[name]), unit)
            for name, unit in units.items()}, report


def measure_traced(session: Session, seconds: float) -> Tuple[Metrics, List[str]]:
    """Per-layer metrics from commands run under `tracer.py`.

    Each round runs `synthesize` untraced, then `synthesize` and `verify`
    traced, all as fresh child processes, so the traced and untraced times
    compare like with like. Round r's traced commands have run ids 2r, 2r+1.
    """
    samples = session.samples
    budget_s = session.workload.budget_s
    traces: List[dict] = []

    def traced(what: str, args: List[str]) -> float:
        path = session.work / "spans.json"
        path.unlink(missing_ok=True)
        run_id = len(traces)
        child = session.invoke(what, [sys.executable, str(TRACER), str(path),
                                      str(run_id), *args], budget_s)
        traces.append(load_trace(path) if path.exists() else
                      {"run_id": run_id, "spans": [], "counts": {}})
        return child.wall_s

    start = time.perf_counter()
    while not traces or time.perf_counter() - start < seconds:
        session.calibrate()
        fresh_dir(session.out)
        samples["untraced"].append(
            session.invoke("synthesize", CLI + session.synth_args, budget_s).wall_s)
        fresh_dir(session.out)
        samples["traced"].append(traced("synthesize", session.synth_args))
        traced("verify", session.verify_args)

    TRACE_OUT.mkdir(exist_ok=True)
    spans_file = TRACE_OUT / f"spans-{session.workload.name}-seed{session.seed}.jsonl"
    with open(spans_file, "w", encoding="utf-8") as fh:
        for trace in traces:
            for span in trace["spans"]:
                fh.write(json.dumps(span) + "\n")

    rounds = [(span_times(s["spans"]), span_times(v["spans"]))
              for s, v in zip(traces[::2], traces[1::2])]
    metrics: Metrics = {}
    report = [f"rounds {len(rounds)}; spans in {spans_file.relative_to(ROOT)}",
              f"{'span (summed per round, median)':<45} {'total s':>10} {'self s':>10}"]
    for name in SPAN_NAMES:
        total = statistics.median(s[0][name] + v[0][name] for s, v in rounds)
        own = statistics.median(s[1][name] + v[1][name] for s, v in rounds)
        metrics[f"{name}.s"] = (total, "s")
        metrics[f"{name}.self.s"] = (own, "s")
        report.append(f"{name:<45} {total:10.4f} {own:10.4f}")
    counts = traces[0]["counts"]
    repeat = all(t["counts"] == counts for t in traces[::2])
    report.append(f"counts of the synthesize command (repeat across rounds: {repeat})")
    for name in COUNTS:
        metrics[name] = (counts.get(name, 0), "count")
        report.append(f"{name:<45} {counts.get(name, 0):10d}")
    untraced = statistics.median(samples["untraced"])
    extra = {"trace.overhead_s": (statistics.median(samples["traced"]) - untraced, "s"),
             "trace.untraced_synthesize_s": (untraced, "s"),
             "host.calibration_s": (statistics.median(samples["calibration"]), "s"),
             "host.calibration_spread": (spread(samples["calibration"]), "ratio")}
    metrics.update(extra)
    report += [f"{name:<45} {value:10.4f} {unit}" for name, (value, unit) in extra.items()]
    return metrics, report


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = fresh_dir(WORK / f"{name}-seed{seed}-pid{os.getpid()}")
    try:
        session = Session(WORKLOADS[name], seed, load_expected()[name], work)
        metrics, report = (measure_traced if trace else measure)(session, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"== {name} (seed {seed}, {seconds:g} s, trace {int(trace)})")
    for line in report:
        print("  " + line)
    print(f"  {'failed_ratio':<16} {session.failed / session.attempted:10.4f} ratio "
          f"{session.failed} of {session.attempted} invocations")
    return {"correct": session.mismatched == 0, "attempted": session.attempted,
            "failed": session.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so run_child kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "netdes" / "cli.py").is_file():
        print(f"error: netdes sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace))
               for n in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{n}.{k}": v for n, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

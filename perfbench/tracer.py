"""Span tracing of netdes layers from outside the package.

`Tracer.install` wraps the public functions listed in `TARGETS` and rebinds
every name under which a netdes module holds them, so calls made through
`from .x import f` are seen too. Each call records a span
`(name, start, end, parent)` in memory; `uninstall` restores the originals.
Counts (states, transitions, bytes) are read from the wrapped functions'
results at the same boundaries. Run as a script, it runs one `netdes`
command traced and writes the spans at the end.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


def _states(key: str) -> Callable:
    def count(tracer: "Tracer", result, args, kwargs) -> None:
        tracer.set_count(key + ".states", len(result.states))
    return count


def _states_and_transitions(key: str) -> Callable:
    def count(tracer: "Tracer", result, args, kwargs) -> None:
        tracer.set_count(key + ".states", len(result.states))
        tracer.set_count(key + ".transitions", len(result.transitions))
    return count


def _observer(tracer: "Tracer", result, args, kwargs) -> None:
    # the monitor is a subset construction too; only the attacker's counts
    if "synthesis.synthesize_supremal_attack" in tracer.open_names:
        _states_and_transitions("automaton.observer")(tracer, result, args, kwargs)


def _problem(tracer: "Tracer", result, args, kwargs) -> None:
    _states_and_transitions("synthesis.p")(tracer, result.plant, args, kwargs)
    tracer.set_count("synthesis.p.bad", len(result.bad))
    tracer.set_count("synthesis.p.target", len(result.target))


def _attack(tracer: "Tracer", result, args, kwargs) -> None:
    tracer.set_count("synthesis.attack.states",
                     0 if result is None else len(result.states))


def _bytes_written(tracer: "Tracer", result, args, kwargs) -> None:
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.add_count("textio.bytes_written", os.path.getsize(path))


def _constructed(tracer: "Tracer", result, args, kwargs) -> None:
    tracer.add_count("automaton.Automaton.count", 1)


# (module, attribute, span name, counter). The CLI entry point is the root
# span of each command, so its self time is the CLI's own overhead.
TARGETS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("cli", "main", "cli", None),
    ("config", "load_config", "config.load_config", None),
    ("plant", "load_plant", "plant.load_plant", None),
    ("textio", "load_automaton", "textio.load_automaton", None),
    ("textio", "save_automaton", "textio.save_automaton", _bytes_written),
    ("supervision", "validate_networked_supervisor",
     "supervision.validate_networked_supervisor", None),
    ("fixtures", "build_system", "fixtures.build_system", None),
    ("plant", "build_command_storage", "plant.build_command_storage",
     _states("plant.cs")),
    ("plant", "build_command_execution", "plant.build_command_execution", None),
    ("plant", "compose_and_prune_plant", "plant.compose_and_prune_plant",
     _states_and_transitions("plant.g_new")),
    ("attacker", "build_attack_constraints", "attacker.build_attack_constraints",
     _states("attacker.ac")),
    ("channels", "build_observation_channel", "channels.build_observation_channel",
     _states("channels.oc")),
    ("channels", "relabel_to_attack_free", "channels.relabel_to_attack_free", None),
    ("channels", "build_control_channel", "channels.build_control_channel",
     _states("channels.cc")),
    ("supervision", "build_monitor", "supervision.build_monitor",
     _states("supervision.monitor")),
    ("synthesis", "state_size_report", "synthesis.state_size_report", None),
    ("plant", "rate_bound_warnings", "plant.rate_bound_warnings", None),
    ("synthesis", "build_problem", "synthesis.build_problem", _problem),
    ("synthesis", "synthesize_supremal_attack",
     "synthesis.synthesize_supremal_attack", _attack),
    ("automaton", "subset_construction", "automaton.subset_construction", _observer),
    ("automaton", "compose", "automaton.compose", None),
    ("attacker", "validate_attack", "attacker.validate_attack", None),
    ("synthesis", "verify_covert", "synthesis.verify_covert", None),
    ("synthesis", "verify_damage_nonblocking", "synthesis.verify_damage_nonblocking",
     None),
    ("synthesis", "verify_damage_reachable", "synthesis.verify_damage_reachable",
     None),
    ("automaton", "Automaton.__init__", "automaton.Automaton.__init__", _constructed),
]

COUNTS = ["plant.g_new.states", "plant.g_new.transitions", "plant.cs.states",
          "automaton.observer.states", "automaton.observer.transitions",
          "synthesis.attack.states", "synthesis.p.states", "synthesis.p.transitions",
          "synthesis.p.bad", "synthesis.p.target", "automaton.Automaton.count",
          "supervision.monitor.states", "channels.oc.states", "channels.cc.states",
          "attacker.ac.states", "textio.bytes_written"]

SPAN_NAMES = [name for (_m, _a, name, _c) in TARGETS]


class Tracer:
    """Records the spans and counts of one command while installed."""

    def __init__(self, run_id: int) -> None:
        self.run_id = run_id
        self.spans: List[Optional[tuple]] = []
        self.counts: Dict[str, int] = {}
        self.open_names: List[str] = []
        self._open: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    def set_count(self, key: str, value: int) -> None:
        self.counts[key] = value

    def add_count(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _wrap(self, name: str, fn: Callable, counter: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._open[-1] if tracer._open else -1
            tracer.spans.append(None)
            tracer._open.append(index)
            tracer.open_names.append(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._open.pop()
                tracer.open_names.pop()
                tracer.spans[index] = (name, start, end, parent)
            if counter is not None:
                counter(tracer, result, args, kwargs)
            return result
        return traced

    def install(self) -> None:
        modules = {m: importlib.import_module(f"netdes.{m}")
                   for (m, _a, _n, _c) in TARGETS}
        loaded = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == "netdes" or n.startswith("netdes."))]
        for module_name, attr, name, counter in TARGETS:
            module = modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._saved.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original, counter))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, counter)
            for holder in loaded:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._saved.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            holder, key, original = self._saved.pop()
            setattr(holder, key, original)

    def write(self, path: str) -> None:
        """The finished spans and the counts as one JSON document. A span's
        ``parent`` is the ``id`` of its parent span, or -1."""
        spans = [{"id": index, "name": span[0], "start": span[1], "end": span[2],
                  "parent": span[3], "run_id": self.run_id}
                 for index, span in enumerate(self.spans) if span is not None]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": spans, "counts": self.counts}, fh)


def load_trace(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def span_times(spans: List[dict]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Summed total and self time per span name over one command's spans.

    A span's self time is its duration minus its direct children's; the
    spans of one process nest, so children never overlap.
    """
    child_time: Dict[int, float] = defaultdict(float)
    for span in spans:
        child_time[span["parent"]] += span["end"] - span["start"]
    total = dict.fromkeys(SPAN_NAMES, 0.0)
    own = dict.fromkeys(SPAN_NAMES, 0.0)
    for span in spans:
        duration = span["end"] - span["start"]
        total[span["name"]] += duration
        own[span["name"]] += duration - child_time[span["id"]]
    return total, own


if __name__ == "__main__":
    # python3 tracer.py SPANS_FILE RUN_ID NETDES_ARGS...: one traced command,
    # with src/ on PYTHONPATH. The spans are written even if the command fails.
    tracer = Tracer(int(sys.argv[2]))
    tracer.install()
    import netdes.cli
    try:
        code = netdes.cli.main(sys.argv[3:])
    finally:
        tracer.uninstall()
        tracer.write(sys.argv[1])
    sys.exit(code)

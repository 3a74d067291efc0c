"""The names by which the benchmark under ``perfbench/`` reaches into netdes.

perfbench imports netdes from ``src/`` of the same checkout, so a deleted or
moved name breaks it only when it runs. These tests pin what it uses: every
layer the tracer wraps, the setup probe and the input writer. They also keep
the package free of imports from the test suite.
"""
import ast
import glob
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from netdes.config import load_config
from systems import shipped_paths

ROOT = os.path.join(os.path.dirname(__file__), "..")
SRC = os.path.join(ROOT, "src")


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))


def _bound(module_name, attr):
    """What the tracer rebinds for one target: the module attribute, or the
    entry in the class's own namespace for a method."""
    module = importlib.import_module(f"netdes.{module_name}")
    if "." in attr:
        cls, method = attr.split(".")
        return getattr(module, cls).__dict__[method]
    return getattr(module, attr)


def test_tracer_wraps_every_target(perfbench):
    from tracer import TARGETS, Tracer
    originals = [_bound(m, a) for m, a, _name, _count in TARGETS]
    tracer = Tracer(0)
    tracer.install()
    try:
        wrapped = [_bound(m, a) for m, a, _name, _count in TARGETS]
    finally:
        tracer.uninstall()
    unbound = [name for (_m, _a, name, _c), before, during
               in zip(TARGETS, originals, wrapped) if during is before]
    assert not unbound
    assert [_bound(m, a) for m, a, _name, _count in TARGETS] == originals


def test_setup_probe_accepts_a_shipped_system(perfbench):
    from run import SETUP_PROBE
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE,
                           *shipped_paths("guideway")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_workload_inputs_round_trip_the_config(perfbench, tmp_path):
    from workloads import WORKLOADS, make_inputs
    inputs = make_inputs(WORKLOADS["attacker-wide"], 1, Path(SRC), tmp_path)
    cfg = load_config(str(inputs.config))
    assert (cfg.rates.u, cfg.delta_o) == (2, 0)


def test_package_imports_nothing_from_the_tests():
    test_modules = {os.path.splitext(os.path.basename(p))[0]
                    for p in glob.glob(os.path.join(ROOT, "tests", "*.py"))}
    test_modules.add("tests")
    for path in glob.glob(os.path.join(SRC, "netdes", "*.py")):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in test_modules, (path, name)

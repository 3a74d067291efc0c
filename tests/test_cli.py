import filecmp
import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

import netdes
import netdes.cli
import netdes.events as ev
from netdes.cli import main
from netdes.automaton import Automaton, state_name
from netdes.config import load_config
from netdes.textio import (load_automaton, parse_automaton, save_automaton,
                           serialize_automaton)
from oracles import isomorphic_by
from systems import DATA, shipped_config, shipped_paths, swap_attacker

RED = dict(zip(("config", "plant", "ns"), shipped_paths("reduced")))


def red_args(cmd, out=None, extra=()):
    args = [cmd, "--config", RED["config"], "--plant", RED["plant"],
            "--ns", RED["ns"]]
    if out:
        args += ["--out", str(out)]
    return args + list(extra)


def test_capacity_prints_formulas(capsys):
    assert main(["capacity", "--config", RED["config"]]) == 0
    out = capsys.readouterr().out
    assert "C_oc=2 C_cc=3 C_cs=3" in out


def test_capacity_guideway(capsys):
    cfg = os.path.join(DATA, "guideway.cfg")
    assert main(["capacity", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "C_oc=2 C_cc=3 C_cs=3" in out
    assert "states_oc=73 states_cc=40" in out


def test_build_writes_components(tmp_path, capsys):
    assert main(red_args("build", tmp_path)) == 0
    names = {"ac.aut", "oc.aut", "oc_t.aut", "cc.aut", "cs.aut", "ce.aut",
             "g_new.aut", "monitor.aut", "state_counts.txt"}
    assert names <= {p.name for p in tmp_path.iterdir()}
    counts = (tmp_path / "state_counts.txt").read_text()
    assert "AC" in counts and "VIOLATION" not in counts
    assert "warning:" in counts  # standalone firing-rate check is advisory


def test_build_round_trips(tmp_path):
    assert main(red_args("build", tmp_path)) == 0
    for name in ("ac", "oc", "oc_t", "cc", "cs", "ce", "g_new", "monitor"):
        a = load_automaton(str(tmp_path / f"{name}.aut"))
        again = parse_automaton(serialize_automaton(a))
        assert isomorphic_by(a, again, state_name)


def test_build_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert main(red_args("build", out1)) == 0
    assert main(red_args("build", out2)) == 0
    for p in out1.iterdir():
        assert filecmp.cmp(p, out2 / p.name, shallow=False), p.name


def fresh_python(*args, **env):
    """Run a new interpreter that imports netdes from this checkout."""
    src = os.path.dirname(os.path.dirname(netdes.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args],
                          env=dict(os.environ, PYTHONPATH=path, **env),
                          capture_output=True, text=True)


def test_synthesize_is_independent_of_hash_seed(tmp_path):
    # set iteration order follows PYTHONHASHSEED; the outputs must not
    runs = []
    for seed in ("1", "2"):
        out = tmp_path / f"seed{seed}"
        proc = fresh_python("-m", "netdes.cli", *red_args("synthesize", out),
                            PYTHONHASHSEED=seed)
        assert proc.returncode == 0, proc.stderr
        runs.append((proc.stdout, out))
    (stdout1, out1), (stdout2, out2) = runs
    assert stdout1 == stdout2
    assert sorted(p.name for p in out1.iterdir()) == sorted(p.name for p in out2.iterdir())
    for p in out1.iterdir():
        assert filecmp.cmp(p, out2 / p.name, shallow=False), p.name


def test_synthesize_nonblocking(tmp_path, capsys):
    assert main(red_args("synthesize", tmp_path, ["--mode", "nonblocking"])) == 0
    out = capsys.readouterr().out
    assert "covert: True" in out
    assert "damage-nonblocking: True" in out
    assert (tmp_path / "attack.aut").exists()
    cert = (tmp_path / "certificate.txt").read_text()
    assert "damage-witness:" in cert


def test_synthesize_guideway_nonblocking(tmp_path, capsys):
    args = ["synthesize", "--config", os.path.join(DATA, "guideway.cfg"),
            "--plant", os.path.join(DATA, "guideway_plant.aut"),
            "--ns", os.path.join(DATA, "guideway_ns.aut"),
            "--out", str(tmp_path), "--mode", "nonblocking"]
    assert main(args) == 0
    cert = (tmp_path / "certificate.txt").read_text()
    assert "covert: True" in cert
    assert "damage-nonblocking: True" in cert
    assert (tmp_path / "attack.aut").exists()


def test_synthesize_reachable(tmp_path, capsys):
    assert main(red_args("synthesize", tmp_path, ["--mode", "reachable"])) == 0
    assert "damage-reachable: True" in capsys.readouterr().out


def test_verify_synthesized_attack(tmp_path, capsys):
    assert main(red_args("synthesize", tmp_path)) == 0
    capsys.readouterr()
    rc = main(red_args("verify", None,
                       ["--attack", str(tmp_path / "attack.aut")]))
    assert rc == 0
    out = capsys.readouterr().out
    assert "covert: True" in out


def test_verify_rejects_invalid_attack(tmp_path, capsys):
    assert main(red_args("synthesize", tmp_path)) == 0
    capsys.readouterr()
    text = (tmp_path / "attack.aut").read_text()
    lines = text.splitlines()
    dropped = next(l for l in lines
                   if l.startswith(".trans") and l.split()[2] == "tick"
                   and l.split()[1] == l.split()[3])
    (tmp_path / "broken.aut").write_text(
        "\n".join(l for l in lines if l != dropped) + "\n")
    rc = main(red_args("verify", None,
                       ["--attack", str(tmp_path / "broken.aut")]))
    assert rc == 2
    assert "sa-controllability" in capsys.readouterr().out


def test_no_attack_exit_status(tmp_path, capsys):
    # no damage states: nothing to reach, distinguished exit status
    cfg_text = Path(RED["config"]).read_text(encoding="utf-8")
    lines = [l for l in cfg_text.splitlines() if not l.startswith("[damage]")]
    cfg_path = tmp_path / "nodamage.cfg"
    cfg_path.write_text("\n".join(lines) + "\n")
    rc = main(["synthesize", "--config", str(cfg_path), "--plant", RED["plant"],
               "--ns", RED["ns"], "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "no covert attack exists" in capsys.readouterr().out


def test_no_attack_removes_the_attack_an_earlier_run_wrote(tmp_path, capsys):
    # the same --out first holds an attack, then gets a certificate saying
    # none exists: the old attack must not stay beside it
    out = tmp_path / "out"
    assert main(red_args("synthesize", out)) == 0
    assert (out / "attack.aut").exists()
    cfg_text = Path(RED["config"]).read_text(encoding="utf-8")
    cfg_path = tmp_path / "nodamage.cfg"
    cfg_path.write_text("\n".join(l for l in cfg_text.splitlines()
                                  if not l.startswith("[damage]")) + "\n")
    rc = main(["synthesize", "--config", str(cfg_path), "--plant", RED["plant"],
               "--ns", RED["ns"], "--out", str(out)])
    assert rc == 3
    assert "no covert attack exists" in (out / "certificate.txt").read_text()
    assert not (out / "attack.aut").exists()


@pytest.mark.parametrize("empty", ["plant", "ns"])
@pytest.mark.parametrize("cmd", ["synthesize", "verify"])
def test_empty_plant_or_supervisor_exit_status(cmd, empty, tmp_path, capsys):
    # a file that declares an alphabet but no state; the config has no damage
    # states, so an empty plant passes the plant's own checks
    cfg_text = Path(RED["config"]).read_text(encoding="utf-8")
    cfg_path = tmp_path / "nodamage.cfg"
    cfg_path.write_text("\n".join(l for l in cfg_text.splitlines()
                                  if not l.startswith("[damage]")) + "\n")
    files = dict(RED, config=str(cfg_path))
    source = load_automaton(RED[empty])
    files[empty] = str(tmp_path / "empty.aut")
    save_automaton(Automaton([], source.alphabet, [], None, name=source.name),
                   files[empty])
    extra = (["--out", str(tmp_path / "out")] if cmd == "synthesize"
             else ["--attack", str(tmp_path / "never_read.aut")])
    rc = main([cmd, "--config", files["config"], "--plant", files["plant"],
               "--ns", files["ns"], *extra])
    assert rc == 2
    named = {"plant": "the plant has no states",
             "ns": "the networked supervisor NS has no states"}[empty]
    assert f"validation error: {named}" in capsys.readouterr().err


def test_parse_error_exit_status(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[parameters] delta_o=zzz\n")
    rc = main(["capacity", "--config", str(bad)])
    assert rc == 1
    assert "line 1" in capsys.readouterr().err
    # input that is not UTF-8 is a parse error too, config and automaton alike
    bad.write_bytes(b"[parameters] delta_o=\xff\n")
    assert main(["capacity", "--config", str(bad)]) == 1
    (tmp_path / "bad.aut").write_bytes(b".automaton \xe9t\xe9\n")
    assert main(["export-dot", str(tmp_path / "bad.aut")]) == 1
    assert capsys.readouterr().err.count("error: 'utf-8' codec") == 2


def test_invalid_supervisor_exit_status(tmp_path, capsys):
    ns_text = Path(RED["ns"]).read_text(encoding="utf-8")
    # drop one required self-loop: a validity violation the CLI must name
    lines = [l for l in ns_text.splitlines() if l != ".trans B0 a1 B0"]
    ns_path = tmp_path / "broken_ns.aut"
    ns_path.write_text("\n".join(lines) + "\n")
    rc = main(["build", "--config", RED["config"], "--plant", RED["plant"],
               "--ns", str(ns_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "network-controllability" in err and "B0 a1" in err


def test_export_dot(tmp_path, capsys):
    assert main(red_args("build", tmp_path)) == 0
    capsys.readouterr()
    rc = main(["export-dot", str(tmp_path / "monitor.aut"),
               "--out", str(tmp_path / "monitor.dot")])
    assert rc == 0
    dot = (tmp_path / "monitor.dot").read_text()
    assert dot.startswith("digraph")
    assert "fillcolor=salmon" in dot  # the detection state survives renaming
    rc = main(["export-dot", str(tmp_path / "cs.aut")])
    assert rc == 0
    assert "digraph" in capsys.readouterr().out


def test_capacity_zero_rates(tmp_path, capsys):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("[parameters] delta_o=0 delta_c=0 delta_s=0 n_f=0 u=0 v=0\n"
                   "[events] a c o ao comp te=0\n"
                   "[commands] v = a\n")
    assert main(["capacity", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "C_oc=0 C_cc=0 C_cs=0" in out
    assert "states_oc=1 states_cc=1" in out


def test_config_without_observable_events(tmp_path, capsys):
    # nothing reaches the supervisor, so the observation channel is only its
    # empty state and there is nothing to attack
    cfg = tmp_path / "blind.cfg"
    cfg.write_text("[parameters] delta_o=0 delta_c=0 delta_s=0 n_f=1 u=1 v=1\n"
                   "[events] a1 c uo - - te=0\n"
                   "         a2 c uo - - te=0\n"
                   "         a3 uc uo - - -\n"
                   "[commands] w1 = a1\n"
                   "           w2 = a2\n"
                   "[damage] 7 8\n")
    full = load_config(str(cfg)).full_alphabet()
    ns = Automaton(["n"], full, [("n", e, "n") for e in full
                                 if e.role != ev.COMMAND_IN], "n", ["n"], "NS")
    save_automaton(ns, str(tmp_path / "ns.aut"))
    args = ["--config", str(cfg), "--plant", RED["plant"],
            "--ns", str(tmp_path / "ns.aut")]
    assert main(["capacity", "--config", str(cfg)]) == 0
    assert "states_oc=1 " in capsys.readouterr().out
    assert main(["build", *args, "--out", str(tmp_path / "b")]) == 0
    counts = (tmp_path / "b" / "state_counts.txt").read_text().splitlines()
    assert counts[1].split() == ["OC", "states=1", "bound=<=", "1", "ok"]
    assert main(["synthesize", *args, "--out", str(tmp_path / "s")]) == 3


def test_export_dot_guideway_plant_shape(tmp_path, capsys):
    plant = os.path.join(DATA, "guideway_plant.aut")
    assert main(["export-dot", plant]) == 0
    dot = capsys.readouterr().out
    # 16 grid states; two absorbing collision states have no outgoing edges
    nodes = [l for l in dot.splitlines() if l.startswith('  "') and "->" not in l]
    assert len(nodes) == 16
    assert dot.count("->") == 20


def test_export_dot_nondeterministic_pop_has_parallel_edges(tmp_path, capsys):
    from netdes.channels import build_observation_channel
    from netdes.config import EventSpec, RateBounds, SystemConfig
    from netdes.textio import save_automaton
    events = (EventSpec("c0", True, False, False, False, 0),
              EventSpec("a", False, True, False, False, None),
              EventSpec("b", False, True, False, False, None))
    cfg = SystemConfig(events=events, commands={"v": frozenset({"c0"})},
                       delta_o=1, delta_c=0, delta_s=0, rates=RateBounds(3, 1, 1))
    path = tmp_path / "oc.aut"
    save_automaton(build_observation_channel(cfg), str(path))
    assert main(["export-dot", str(path)]) == 0
    dot = capsys.readouterr().out
    # the two-resident-copies state pops a toward two different targets
    assert dot.count('"{(a,0),(a,1),(b,1)}" ->') >= 3


def test_forwarded_event_toggle_plumbs_through(tmp_path, capsys):
    # a forwarded event always counts toward u; the option that once chose
    # otherwise is gone (spelled in two parts, so that a search of src and
    # tests for leftovers of the option finds none)
    removed = "--count-" + "forwarded-event"
    for value in ("on", "off"):
        rc = main(red_args("synthesize", tmp_path, [removed, value]))
        assert rc == 1
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "certificate.txt").exists()


def test_usage_error(tmp_path, capsys):
    # a usage error exits 1 with a "netdes: error:" line; help exits 0
    cap = ["capacity", "--config", RED["config"]]
    cases = [
        ([], 1),                                           # no command
        (["bogus"], 1),                                    # an unknown command
        (["synthesize"], 1),                               # missing required options
        (["capacity", "--config"], 1),                     # an option without a value
        (["capacity", "--config", "--plant", RED["plant"]], 1),  # its value an option
        (cap + ["--plant", RED["plant"]], 1),              # an option capacity lacks
        (red_args("synthesize", tmp_path, ["--mode", "fast"]), 1),  # no such mode
        (["capacity", "--conf", RED["config"]], 1),        # no abbreviations
        (["-h"], 0), (["--help"], 0), (cap + ["-h"], 0), (["export-dot", "--help"], 0),
    ]
    for argv, status in cases:
        assert main(argv) == status, argv
        out, err = capsys.readouterr()
        if status:
            assert out == "" and "\nnetdes: error: " in err, argv
        else:
            assert out.startswith("usage: netdes") and err == "", argv
    assert list(tmp_path.iterdir()) == []


def test_argument_forms_give_the_same_result(tmp_path, capsys):
    # --opt=value is --opt value, and options go before or after the
    # positional argument
    dot, plant = tmp_path / "plant.dot", RED["plant"]
    groups = [
        [["capacity", "--config", RED["config"]], ["capacity", f"--config={RED['config']}"]],
        [["export-dot", plant, "--out", str(dot)], ["export-dot", "--out", str(dot), plant],
         ["export-dot", f"--out={dot}", plant]],
    ]
    for group in groups:
        results = []
        for argv in group:
            dot.unlink(missing_ok=True)
            results.append((main(argv), capsys.readouterr(), dot.exists() and dot.read_text()))
        assert results[0][0] == 0 and results == [results[0]] * len(group), group


def test_import_builds_no_parser_and_only_the_config_dataclasses():
    # the import is paid by every command: it loads no argparse, and only
    # config's three dataclasses generate code
    probe = """\
import sys
import netdes.cli
print("argparse" in sys.modules)
print(sorted(name for m, module in list(sys.modules.items()) if m.startswith("netdes")
             for name, obj in vars(module).items()
             if isinstance(obj, type) and obj.__module__ == m
             and "__dataclass_fields__" in vars(obj)))
"""
    proc = fresh_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "False", "['EventSpec', 'RateBounds', 'SystemConfig']"]


def test_readme_documents_every_option():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    options = {(cmd, opt) for cmd, (_fn, required, optional, _pos, _summary)
               in netdes.cli.COMMANDS.items() for opt in (*required, *optional)}
    assert len({cmd for cmd, _opt in options}) == 5
    assert sorted(opt for _cmd, opt in options if opt not in readme) == []


def test_verify_detected_attack_exit_status(tmp_path, capsys):
    # answering a1 with a3# is inconsistent with the attack-free loop, so the
    # monitor catches it; the report is printed as usual
    cfg = shipped_config("guideway")
    save_automaton(swap_attacker(cfg, {"a1": "a3"}), str(tmp_path / "a.aut"))
    rc = main(["verify", "--config", os.path.join(DATA, "guideway.cfg"),
               "--plant", os.path.join(DATA, "guideway_plant.aut"),
               "--ns", os.path.join(DATA, "guideway_ns.aut"),
               "--attack", str(tmp_path / "a.aut")])
    assert rc == 4
    out = capsys.readouterr().out
    assert "A_swap: valid" in out
    assert "covert: False" in out
    assert "covertness-witness: v3_in v3_out v3 a1 a3# stop a3_out" in out


def test_verify_rejects_an_attack_with_no_states(tmp_path, capsys):
    # a file with the loop's alphabet and no state: no attack, so no verdict
    cfg = shipped_config("guideway")
    save_automaton(Automaton([], cfg.full_alphabet(), [], None, name="A_none"),
                   str(tmp_path / "a.aut"))
    assert ".alphabet" in (tmp_path / "a.aut").read_text()
    rc = main(["verify", "--config", os.path.join(DATA, "guideway.cfg"),
               "--plant", os.path.join(DATA, "guideway_plant.aut"),
               "--ns", os.path.join(DATA, "guideway_ns.aut"),
               "--attack", str(tmp_path / "a.aut")])
    assert rc == 2
    out, err = capsys.readouterr()
    assert "validation error: the attack has no states" in err
    assert "covert:" not in out and "valid" not in out


def test_command_pauses_the_collector_and_restores_its_state(tmp_path, monkeypatch,
                                                             capsys):
    real = netdes.cli.cmd_capacity
    during = []

    def probe(args):
        during.append(gc.isenabled())
        return real(args)

    def boom(args):
        raise RuntimeError("boom")

    cap = ["capacity", "--config"]
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            monkeypatch.setattr(netdes.cli, "cmd_capacity", probe)
            assert main(cap + [RED["config"]]) == 0
            assert gc.isenabled() is enabled
            assert main(cap + [str(tmp_path / "missing.cfg")]) == 1
            assert gc.isenabled() is enabled
            monkeypatch.setattr(netdes.cli, "cmd_capacity", boom)
            with pytest.raises(RuntimeError):
                main(cap + [RED["config"]])
            assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert during == [False] * 4

import errno
import filecmp
import gc
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import netdes
import netdes.cli
import netdes.events as ev
from netdes.cli import main
from netdes.automaton import Automaton, state_name
from netdes.config import load_config, serialize_config
from netdes.textio import (load_automaton, parse_automaton, save_automaton,
                           serialize_automaton)
from oracles import isomorphic_by
from systems import DATA, shipped_config, shipped_paths, swap_attacker, with_params

RED = dict(zip(("config", "plant", "ns"), shipped_paths("reduced")))
README = Path(__file__).parent.parent / "README.md"


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
    assert "states_oc<=73 states_cc<=40 states_cs<=40" in out


@pytest.mark.parametrize("delta_o,oc,cc", [(2000, "~10^7810", "~10^955"),
                                           (1_000_000, "~10^6602067", "~10^477122")])
def test_capacity_with_large_delays_prints_counts_as_powers_of_ten(
        tmp_path, capsys, delta_o, oc, cc):
    cfg = tmp_path / "large.cfg"
    cfg.write_text(serialize_config(
        with_params(shipped_config("guideway"), delta_o=delta_o)))
    start = time.process_time()
    assert main(["capacity", "--config", str(cfg)]) == 0
    assert time.process_time() - start < 1
    assert capsys.readouterr().out.splitlines()[1] == \
        f"states_oc<={oc} states_cc<={cc} states_cs<={cc}"


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


def unmarked_red_plant(tmp_path):
    """The reduced plant's file without its `.marked` line: no damage states."""
    text = Path(RED["plant"]).read_text(encoding="utf-8")
    path = tmp_path / "nodamage.aut"
    path.write_text("".join(l for l in text.splitlines(keepends=True)
                            if not l.startswith(".marked")))
    return str(path)


def test_no_attack_exit_status(tmp_path, capsys):
    # no damage states: nothing to reach, distinguished exit status
    rc = main(["synthesize", "--config", RED["config"], "--plant", unmarked_red_plant(tmp_path),
               "--ns", RED["ns"], "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "no covert attack exists" in capsys.readouterr().out


GHOST = "marked state {} is neither the initial state nor on a transition"


@pytest.mark.parametrize("cmd", ["build", "synthesize"])
def test_misspelled_damage_state_exit_status(cmd, tmp_path, capsys):
    # .initial and .trans declare the states, so a typo on the plant's
    # .marked line names none; the reader refuses it with its line
    text = Path(RED["plant"]).read_text(encoding="utf-8")
    assert text.splitlines()[3] == ".marked 7 8"
    plant = tmp_path / "typo.aut"
    plant.write_text(text.replace(".marked 7 8\n", ".marked 7 88\n"))
    rc = main([cmd, "--config", RED["config"], "--plant", str(plant),
               "--ns", RED["ns"], "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr() == ("", f"error: {plant}: line 4: {GHOST.format(88)}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("part,cmd", [
    ("plant", "verify"), ("plant", "export-dot"), ("ns", "build"), ("ns", "synthesize"),
    ("ns", "verify"), ("ns", "export-dot"), ("attack", "verify"), ("attack", "export-dot")])
def test_a_marked_name_on_no_transition_is_refused_in_any_file(part, cmd, tmp_path, capsys):
    # the reader's one rule holds for the plant, the NS and the attack alike
    assert main(red_args("synthesize", tmp_path / "out")) == 0
    files = {"plant": RED["plant"], "ns": RED["ns"],
             "attack": str(tmp_path / "out" / "attack.aut")}
    text = Path(files[part]).read_text(encoding="utf-8")
    ghost = tmp_path / "ghost.aut"
    ghost.write_text(text + ".marked ghost\n", encoding="utf-8")
    files[part] = str(ghost)
    loop = ["--config", RED["config"], "--plant", files["plant"], "--ns", files["ns"]]
    argv = {"build": ["build", *loop, "--out", str(tmp_path / "again")],
            "synthesize": ["synthesize", *loop, "--out", str(tmp_path / "again")],
            "verify": ["verify", *loop, "--attack", files["attack"]],
            "export-dot": ["export-dot", str(ghost)]}[cmd]
    capsys.readouterr()
    assert main(argv) == 1
    line = len(text.splitlines()) + 1
    assert capsys.readouterr() == ("", f"error: {ghost}: line {line}: {GHOST.format('ghost')}\n")


def test_no_attack_removes_the_attack_an_earlier_run_wrote(tmp_path, capsys):
    # the same --out first holds an attack, then gets a certificate saying
    # none exists: the old attack must not stay beside it
    out = tmp_path / "out"
    assert main(red_args("synthesize", out)) == 0
    assert (out / "attack.aut").exists()
    rc = main(["synthesize", "--config", RED["config"], "--plant", unmarked_red_plant(tmp_path),
               "--ns", RED["ns"], "--out", str(out)])
    assert rc == 3
    assert "no covert attack exists" in (out / "certificate.txt").read_text()
    assert not (out / "attack.aut").exists()


# the files both build and synthesize remove first, and those each writes last
CLEARED = {"state_counts.txt", "attack.aut", "certificate.txt"}
WRITTEN_LAST = {"build": {"state_counts.txt"}, "synthesize": CLEARED}
PARTS = {f"{part}.aut" for part in ("ac", "oc", "oc_t", "cc", "cs", "ce", "g_new",
                                    "monitor")}


@pytest.mark.parametrize("cmd", sorted(WRITTEN_LAST))
def test_a_failed_write_leaves_no_file_that_looks_whole(cmd, tmp_path, capsys,
                                                        monkeypatch):
    # after a complete synthesize, a rerun of either command whose g_new.aut
    # write fails after its first chunk (a full disk) leaves no truncated
    # file and none of the earlier run's completion files
    out = tmp_path / "out"
    assert main(red_args("synthesize", out)) == 0
    assert CLEARED <= {p.name for p in out.iterdir()}
    write_text = netdes.textio.write_text

    def first_then_full(chunks):
        yield next(iter(chunks))
        raise OSError(errno.ENOSPC, "No space left on device")

    def full_disk(path, chunks):
        is_g_new = os.path.basename(path) == "g_new.aut"
        write_text(path, first_then_full(chunks) if is_g_new else chunks)

    monkeypatch.setattr(netdes.textio, "write_text", full_disk)
    capsys.readouterr()
    assert main(red_args(cmd, out)) == 1
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    names = {p.name for p in out.iterdir()}
    assert not names & CLEARED
    assert names == PARTS
    for name in names:
        load_automaton(str(out / name))


@pytest.mark.parametrize("cmd", sorted(WRITTEN_LAST))
def test_each_command_leaves_only_its_own_completion_files(cmd, tmp_path, capsys):
    # synthesize on reduced, then cmd on guideway into the same --out: no
    # attack or certificate of reduced stays beside guideway's parts, and
    # the directory holds what cmd writes into an empty one
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    assert main(red_args("synthesize", out)) == 0
    config, plant, ns = shipped_paths("guideway")
    for directory in (out, fresh):
        assert main([cmd, "--config", config, "--plant", plant, "--ns", ns,
                     "--out", str(directory)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert set(names) == PARTS | WRITTEN_LAST[cmd]
    for name in names:
        if name.endswith(".aut"):
            load_automaton(str(out / name))
    assert filecmp.cmpfiles(out, fresh, names, shallow=False)[0] == names


@pytest.mark.parametrize("cmd", ["build", "synthesize"])
def test_a_comma_in_a_name_is_rejected_before_any_file_is_written(cmd, tmp_path, capsys):
    # with the event x,0),(y beside x and y, OC would hold two states named
    # {(x,0),(y,0)}; the config reader rejects the name first
    names = ("x", "y", "x,0),(y")
    (tmp_path / "c.cfg").write_text(
        "[parameters] delta_o=0 delta_c=0 delta_s=0 n_f=1 u=2 v=1\n[events]\n"
        + "".join(f"  {n} c o ao comp te=0\n" for n in names) + "[commands] v1 = x\n")
    (tmp_path / "p.aut").write_text(
        ".automaton G\n.alphabet " + " ".join(f"{n}:plain" for n in names) + "\n.initial 0\n")
    labels = ["tick", "stop", "v1:command", "v1_in:command-in", "v1_out:command-out"]
    labels += [f"{n}{suffix}" for n in names
               for suffix in (":plain", "#:compromised", "_out:out")]
    (tmp_path / "ns.aut").write_text(
        ".automaton NS\n.alphabet " + " ".join(labels) + "\n.initial n\n.marked n\n"
        + "".join(f".trans n {label.split(':')[0]} n\n" for label in labels))
    out = tmp_path / "out"
    assert main([cmd, "--config", str(tmp_path / "c.cfg"), "--plant", str(tmp_path / "p.aut"),
                 "--ns", str(tmp_path / "ns.aut"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        f"error: {tmp_path / 'c.cfg'}: name 'x,0),(y' collides with event spelling rules\n"
    assert not out.exists()


def stateless_copy(path, tmp_path):
    """The file at ``path`` cut to its `.automaton` and `.alphabet` lines:
    it declares no state, so no initial one."""
    text = Path(path).read_text(encoding="utf-8")
    copy = tmp_path / "empty.aut"
    copy.write_text("".join(l for l in text.splitlines(keepends=True)
                            if l.startswith((".automaton", ".alphabet"))))
    return str(copy)


@pytest.mark.parametrize("empty", ["plant", "ns"])
@pytest.mark.parametrize("cmd", ["synthesize", "verify"])
def test_empty_plant_or_supervisor_exit_status(cmd, empty, tmp_path, capsys):
    # the reader refuses a file with no initial state, naming it, before
    # anything is built or written
    files = dict(RED)
    files[empty] = stateless_copy(RED[empty], tmp_path)
    out = tmp_path / "out"
    extra = (["--out", str(out)] if cmd == "synthesize"
             else ["--attack", str(tmp_path / "never_read.aut")])
    rc = main([cmd, "--config", files["config"], "--plant", files["plant"],
               "--ns", files["ns"], *extra])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {files[empty]}: missing .initial\n"
    assert not out.exists()


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
    err = capsys.readouterr().err
    assert err.count(f"error: {bad}: 'utf-8' codec") == 1
    assert err.count(f"error: {tmp_path / 'bad.aut'}: 'utf-8' codec") == 1


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


def test_export_dot_paints_only_the_monitors_detection_state(tmp_path, capsys):
    # OC, OC^T, CC and CE name their empty initial state {} too; only the
    # monitor's {}, which is never its initial state, is a detection, and
    # it is painted salmon in place of the marked states' gray
    assert main(red_args("build", tmp_path)) == 0
    for name in ("oc", "oc_t", "cc", "ce", "monitor"):
        capsys.readouterr()
        assert main(["export-dot", str(tmp_path / f"{name}.aut")]) == 0
        nodes = [l for l in capsys.readouterr().out.splitlines()
                 if l.startswith('  "') and " -> " not in l]
        painted = [l for l in nodes if "salmon" in l]
        if name == "monitor":
            assert painted == ['  "{}" [style=filled fillcolor=salmon];']
        else:
            assert painted == [] and '  "{}" [peripheries=2];' in nodes
        assert all(l.count("style=") <= 1 for l in nodes)


@pytest.mark.parametrize("out, message", [
    ("no/p.dot", "[Errno 2] No such file or directory"),
    ("d", "[Errno 21] Is a directory")])
def test_export_dot_that_cannot_write_changes_nothing(out, message, tmp_path, capsys):
    # the error names the --out file, not the temporary file beside it
    (tmp_path / "d").mkdir()
    target = str(tmp_path / out)
    rc = main(["export-dot", RED["plant"], "--out", target])
    assert rc == 1
    assert capsys.readouterr() == ("", f"error: {message}: '{target}'\n")
    assert [p.name for p in tmp_path.iterdir()] == ["d"]
    assert list((tmp_path / "d").iterdir()) == []


def test_empty_out_path_is_an_error(capsys):
    # an empty --out names no file: export-dot fails as synthesize does
    # rather than print to stdout
    for argv in (["export-dot", RED["plant"], "--out="],
                 red_args("synthesize", extra=["--out="])):
        assert main(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: "), argv


def test_capacity_zero_rates(tmp_path, capsys):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("[parameters] delta_o=0 delta_c=0 delta_s=0 n_f=0 u=0 v=0\n"
                   "[events] a c o ao comp te=0\n"
                   "[commands] v = a\n")
    assert main(["capacity", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "C_oc=0 C_cc=0 C_cs=0" in out
    assert "states_oc<=1 states_cc<=1 states_cs<=1" in out


def test_config_without_observable_events(tmp_path, capsys):
    # nothing reaches the supervisor, so the observation channel is only its
    # empty state and there is nothing to attack
    cfg = tmp_path / "blind.cfg"
    cfg.write_text("[parameters] delta_o=0 delta_c=0 delta_s=0 n_f=1 u=1 v=1\n"
                   "[events] a1 c uo - - te=0\n"
                   "         a2 c uo - - te=0\n"
                   "         a3 uc uo - - -\n"
                   "[commands] w1 = a1\n"
                   "           w2 = a2\n")
    full = load_config(str(cfg)).full_alphabet()
    ns = Automaton(["n"], full, [("n", e, "n") for e in full
                                 if e.role != ev.COMMAND_IN], "n", ["n"], "NS")
    save_automaton(ns, str(tmp_path / "ns.aut"))
    args = ["--config", str(cfg), "--plant", RED["plant"],
            "--ns", str(tmp_path / "ns.aut")]
    assert main(["capacity", "--config", str(cfg)]) == 0
    assert "states_oc<=1 " in capsys.readouterr().out
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


def test_the_removed_forwarding_option_is_a_usage_error(tmp_path, capsys):
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
    readme = README.read_text(encoding="utf-8")
    options = {(cmd, opt) for cmd, (_fn, required, optional, _pos, _summary)
               in netdes.cli.COMMANDS.items() for opt in (*required, *optional)}
    assert len({cmd for cmd, _opt in options}) == 5
    assert sorted(opt for _cmd, opt in options if opt not in readme) == []


def input_check_rows():
    """README's "Where input is checked" table, keyed by each row's check
    (its first code span, or the whole cell without one): the row's exit
    status and example message (the first code span of its last cell)."""
    section = README.read_text(encoding="utf-8").split("### Where input is checked\n")[1]
    start = section.index("\n|") + 1
    rows = {}
    for line in section[start:section.index("\n\n", start)].splitlines()[2:]:
        _what, check, status, message = (c.strip() for c in line.strip("| ").split(" | "))
        spans = re.findall(r"`([^`]+)`", check)
        rows[spans[0] if spans else check] = (int(status), re.findall(r"`([^`]+)`", message)[0])
    return rows


# a loop where forwarding a1 spends the attack budget, which u=0 does not
# allow; its supervisor is one state that never sends a command
UNBUDGETED = {
    "x.cfg": "[parameters] delta_o=0 delta_c=0 delta_s=0 n_f=1 u=0 v=1\n"
             "[events] a1 c o ao - te=0\n[commands] w1 = a1\n",
    "p.aut": ".automaton G\n.alphabet a1:plain\n.initial 0\n",
    "ns.aut": ".automaton NS\n.alphabet tick stop a1:plain a1_in:in a1_out:out w1:command "
              "w1_in:command-in w1_out:command-out\n.initial n\n"
              + "".join(f".trans n {e} n\n" for e in
                        ("tick", "stop", "a1", "a1_in", "a1_out", "w1", "w1_out")),
}
VERIFY = ["verify", "--config", "x.cfg", "--plant", "p.aut", "--ns", "ns.aut", "--attack", "a.aut"]
# a row's check -> (the files that replace the reduced loop's, None for a
# missing one; the command line)
INPUT_CHECK_CASES = {
    "cli._parse_args": ({}, ["build", "--config", "x.cfg", "--plant", "p.aut", "--ns", "ns.aut"]),
    "opening it": ({"x.cfg": None}, ["capacity", "--config", "x.cfg"]),
    "config.parse_config": (
        {"x.cfg": "".join(Path(RED["config"]).read_text().splitlines(True)[:4]) + "[bogus] x\n"},
        ["capacity", "--config", "x.cfg"]),
    "SystemConfig": ({"x.cfg": Path(RED["config"]).read_text().replace("a1", "a,1")},
                     ["capacity", "--config", "x.cfg"]),
    "textio.parse_automaton": ({"ns.aut": ".automaton NS\n.alphabet a1:plain\n.trans n zz n\n"},
                               VERIFY),
    "plant.load_plant": ({"p.aut": ".automaton G\n.alphabet zz:plain\n.initial q\n"}, VERIFY),
    "fixtures.build_system": ({"ns.aut": ".automaton NS\n.alphabet a1:plain\n.initial n\n"},
                              VERIFY),
    "attacker.validate_attack": ({"a.aut": ".automaton A\n.alphabet a1:plain\n.initial q\n"},
                                 VERIFY),
}


@pytest.mark.parametrize("check", sorted(set(input_check_rows()) | set(INPUT_CHECK_CASES)))
def test_readme_input_check_table_holds(check, tmp_path, monkeypatch, capsys):
    # each row of the table, in README's words: one bad input ends in the
    # row's exit status with the row's example message as one line
    status, message = input_check_rows()[check]
    replaced, argv = INPUT_CHECK_CASES[check]
    monkeypatch.chdir(tmp_path)
    files = {"x.cfg": RED["config"], "p.aut": RED["plant"], "ns.aut": RED["ns"]}
    for name, source in files.items():
        Path(name).write_text(Path(source).read_text(encoding="utf-8"), encoding="utf-8")
    for name, text in replaced.items():
        if text is None:
            os.remove(name)
        else:
            Path(name).write_text(text, encoding="utf-8")
    assert main(argv) == status
    out, err = capsys.readouterr()
    assert message in (out + err).splitlines()


@pytest.mark.parametrize("command", ["capacity", "build", "synthesize", "verify"])
def test_every_command_refuses_an_unbudgeted_config_as_it_loads(command, tmp_path,
                                                                monkeypatch, capsys):
    # SystemConfig checks the budget rule, so capacity, which builds no
    # loop, refuses the config as the loop commands do, naming the file
    monkeypatch.chdir(tmp_path)
    for name, text in UNBUDGETED.items():
        Path(name).write_text(text, encoding="utf-8")
    argv = [command, "--config", "x.cfg"]
    if command != "capacity":
        argv += ["--plant", "p.aut", "--ns", "ns.aut"]
        argv += ["--attack", "a.aut"] if command == "verify" else ["--out", "out"]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: x.cfg: u must be at least 1 when forwarded "
                                       "events count toward the attack budget\n")
    assert set(os.listdir()) == set(UNBUDGETED)  # and no --out directory


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
    # a file with the loop's alphabet and no state has no initial state:
    # the reader refuses it, so there is no report and no verdict
    attack = stateless_copy(os.path.join(DATA, "guideway_ns.aut"), tmp_path)
    rc = main(["verify", "--config", os.path.join(DATA, "guideway.cfg"),
               "--plant", os.path.join(DATA, "guideway_plant.aut"),
               "--ns", os.path.join(DATA, "guideway_ns.aut"),
               "--attack", attack])
    assert rc == 1
    assert capsys.readouterr() == ("", f"error: {attack}: missing .initial\n")


def test_command_pauses_the_collector_and_restores_its_state(tmp_path, monkeypatch,
                                                             capsys):
    real, *rest = netdes.cli.COMMANDS["capacity"]
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
            monkeypatch.setitem(netdes.cli.COMMANDS, "capacity", (probe, *rest))
            assert main(cap + [RED["config"]]) == 0
            assert gc.isenabled() is enabled
            assert main(cap + [str(tmp_path / "missing.cfg")]) == 1
            assert gc.isenabled() is enabled
            monkeypatch.setitem(netdes.cli.COMMANDS, "capacity", (boom, *rest))
            with pytest.raises(RuntimeError):
                main(cap + [RED["config"]])
            assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert during == [False] * 4

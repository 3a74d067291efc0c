"""Golden outputs of the CLI on both shipped systems and on parameter rungs.

Each case runs ``build`` or ``synthesize`` (and ``verify`` on the attack it
wrote) and compares the sha256 of every written file, of stdout and the exit
status with digests recorded before the kernel's orderings were relaxed (the
rungs: before the searches moved onto one explorer; guideway ``u=2``: before
event labels and channel states were interned; reduced ``delta_s=1``
synthesize and verify: before CS and G_new became lazy; the build with an
unreachable detection state: before the monitor became one exploration;
guideway ``u=3``: before synthesis became on-the-fly). One case runs
``export-dot`` on five guideway files and compares the sha256 of what it
prints, recorded before the kernel had one observer (the monitor's: when
its detection state stopped being painted both gray and salmon). One case
builds and synthesizes guideway with a forwarded event; its digests were
recorded before every command wrote through one writer. A change that
alters any byte of any output fails here, and so does a written ``.aut``
file that does not read back byte for byte.
"""
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys

import pytest

import netdes
import netdes.automaton
import netdes.synthesis
from netdes.automaton import Automaton, number
from netdes.cli import main
from netdes.config import load_config, serialize_config
from netdes.fixtures import build_system, load_system
from netdes.synthesis import (SynthesisMode, SynthesisProblem, build_problem,
                              check_attack, synthesize_supremal_attack)
from netdes.textio import load_automaton, save_automaton, serialize_automaton
from supcn_oracle import disagreement
from systems import with_params

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "netdes", "data")

# component files that build and synthesize both write, per system
_GUIDEWAY_COMPONENTS = {
    "ac.aut": "77f3f324dcff19406dc5bde5b0260c981d50ef47e953e03390f6b18b3e751395",
    "cc.aut": "6eb5d146a117ff69a7dc6f0709c152e53a8b7d23176f86bb8cdd453f9d75c8af",
    "ce.aut": "f59a6f5bb10b0a815b587cffd08ba972f720fb46295541dc1b1754b62e8e6b84",
    "cs.aut": "c5d327f17377b35f3e83130149c45d8f741f4421ebfdc05505f678a02adc410e",
    "g_new.aut": "56ae2f8d2ae4ea63b52cdd7e86c16f950c37d9ce06039ce8e9be7926a5888b29",
    "monitor.aut": "7f86cd7d5f00a9c93a926d77ca9dfee06f3f30af517ae20f73feecdb25403c6b",
    "oc.aut": "2c1d13ace78ad55732beb51dcc1a44fb4d88c7c494f2842d4633795071923db3",
    "oc_t.aut": "792251497dc59aaa954b095b84669836c98b0f1de5a643c99e2a4207c30dacd4",
    "state_counts.txt": "1db75acc7017bee4bcc72edcf58635249d507b95e703a54b1d3f2f1b73b6b703",
}
_REDUCED_COMPONENTS = {
    "ac.aut": "46c4007c33c7fbb7de9aebc8f2ea2f0615fdaae89944f05a244790c285fedd5e",
    "cc.aut": "1710b96a8fa5cec9a7dc00f176ab3ebaa7ac6704d4cd5a6119e5b4462faf5beb",
    "ce.aut": "f56397d121fef10ed2925835de936eabfe997cd2649c7ac0d2f9fc4f8a334b00",
    "cs.aut": "111bb606cc64b5060bc515b186a3022decf1612f7fce4ba6f244f9e4efa5cff4",
    "g_new.aut": "0fa134e2345fe3188c7459523487caf4102584df7edd15e67b35d46b2ea2607c",
    "monitor.aut": "b9748df03bb22fce91c76921fba72386a1c72579a78a5824238c6160a2590143",
    "oc.aut": "1fd85d67e558d7f50540cea437f1293e439161be75d4cca151f3131832d74b09",
    "oc_t.aut": "513ebc23571ede4efd1fe18c63130b63e97b78861aa8696148d2f1fc01c60be0",
    "state_counts.txt": "1966e5adc7f8eb2cdbd95bd0cb3705914099fdc0686f7ceb0fbab4a56ed7672b",
}
_COMPONENTS = {"guideway": _GUIDEWAY_COMPONENTS, "reduced": _REDUCED_COMPONENTS}

# build prints the same line on both systems
_BUILD_STDOUT = "9bdf4cb1870446bc9bcbd8768b404537751c584011404a4932d16a0d08c9c694"

# (system, mode) -> digests of attack.aut, certificate.txt (which synthesize
# also prints) and the stdout of verify on that attack
GOLDEN = {
    ("guideway", "nonblocking"): {
        "attack.aut": "2459ea512d60065a1d0d26c4dcf2583a6db6daa7a30d4f0eb17049db3c3683e0",
        "certificate.txt": "e79af885472f1d400721976162c3da8867e809ab1f7fcd8bf6a48f50ea8c50ce",
        "<verify>": "10c84d892650a9d1e6d1dae51224c471aae8d851666f60fb3c1204f8012f88e4",
    },
    ("guideway", "reachable"): {
        "attack.aut": "4a6cbe0ed0be9a4f703bdca718756dbcb4fb94d375f1edbd20e080d3f84b34f5",
        "certificate.txt": "3719bec3399195c0b0751c4335b0bfe9dc48fd662e84c413e9f3221ef74e6446",
        "<verify>": "9e30afcb4dae3d3243cd8bc68fbb206667dfc4fbe56712cfc291dd3a3b11578d",
    },
    ("reduced", "nonblocking"): {
        "attack.aut": "41edf17d88e5cf9a0e77e5f048ee62508c071cb2eb854fed1bf6097e0a0540b1",
        "certificate.txt": "c997da52c78cef5755c6969efa2d6700f17e8f412c5d368004d9deee8b346f87",
        "<verify>": "b4b678b496d467e1f7520f6c5d24a84ef25521b0f545622c4185c45b7ae30e9c",
    },
    ("reduced", "reachable"): {
        "attack.aut": "9001917c678f22b347b6c0358fb3613d7d8c2d5881947cd6562735d303e0b7cc",
        "certificate.txt": "0577038831b1f1792c6b113ae66a5500350050f15a31795cf1a3e3a5c136868d",
        "<verify>": "51150fa17218a1a2d2d650b6fffdd4282ceec019cc6356bc6abbe9daadbe80a1",
    },
}


# parameter rungs: (system, changed parameters) -> build outputs; they cover
# storage delay, a multi-message control channel and a deeper observation
# channel, which the shipped configs leave at their smallest
RUNGS = {
    ("guideway", "delta_o=2"): {
        **_GUIDEWAY_COMPONENTS,
        "cc.aut": "58bcf2c4ff1abd84dc58933f5e1bdf6d652c52d5645113f20fee692c35537785",
        "cs.aut": "2388667d238bc6c8ecd56a4128d20199d7063d791d643517bb316a0c854c136b",
        "g_new.aut": "3966921635c4f03320525fdbf91ab7209c98761589abdd7f9297b224cd48eb29",
        "monitor.aut": "50a1ccd01ddc795e0b7aaebbef2c3134f86f7d72831a1ce684382a512ed27cc8",
        "oc.aut": "23bf3431a5c0689bd809ae9e268d878d796986cef5dc3bd3e186ce93000d879b",
        "oc_t.aut": "76efe9b4b6cd0a1be6fdafd9d5a26c8d812532f16549284bc3c64e53752debc3",
        "state_counts.txt": "df00a736a16a63e252e22e18fa86ea622c74057329a434ce98ca794977942a0c",
    },
    ("guideway", "delta_c=1"): {
        **_GUIDEWAY_COMPONENTS,
        "cc.aut": "f60b79ed1817f401b5db9f2315dfd42d2f3f6d64c9697c0874671d245ec9bd0e",
        "cs.aut": "5b5a29b69b3ae9dddcb68b64c6f80d574c9a410d99601a086105f603b93b557a",
        "g_new.aut": "aec35cdeaf7543d1284bdadce4618619f05e6207b07f177950318a546fe7ffde",
        "monitor.aut": "50a1ccd01ddc795e0b7aaebbef2c3134f86f7d72831a1ce684382a512ed27cc8",
        "state_counts.txt": "ccdf5a411927f47cec0027380a53cede2f49bb3e57eee7c2f34ed7a35c898384",
    },
    ("reduced", "delta_s=1"): {
        **_REDUCED_COMPONENTS,
        "cs.aut": "90be4723876e486237f891884cee1bc8a6fead1fe7b07aa94c1fe6393e2195a8",
        "g_new.aut": "fb459c5da6962b99f7e0ac495bf04e60c580d9957d68625b1594d16cc1f81dda",
        "state_counts.txt": "c7cd5e8cc13b79ad5cfe26ba864dd000caeebf0bb40fd938201143648f36ed10",
    },
}

# guideway with u=2 in nonblocking mode, the largest case here (P has 21,189
# states): every file synthesize writes, and the stdout of verify
GUIDEWAY_U2_NONBLOCKING = {
    **_GUIDEWAY_COMPONENTS,
    "ac.aut": "1e94df16220f115a9428a4bc2fdcb7324ad9188b968f5df9776f1349c79d8693",
    "attack.aut": "e50f5af748c60f6ad65279b0ebe7160b876b8c8d776c86af1cd76abedb0ac56b",
    "cc.aut": "1a10e3669cf116d3d66a85d9cb508f4f25bf5a75d8be3ef2e768cbbf666d8766",
    "certificate.txt": "2677edcb49bfe07d47e6b23fb4fc8a87c7fabc6034f72b9e213c4e51d5fc0778",
    "cs.aut": "5b5a29b69b3ae9dddcb68b64c6f80d574c9a410d99601a086105f603b93b557a",
    "g_new.aut": "aec35cdeaf7543d1284bdadce4618619f05e6207b07f177950318a546fe7ffde",
    "oc.aut": "e6920dbb4a29a6ad82c56974f8b1fa5e933cd451da5fb2b4fba39f022a923b66",
    "oc_t.aut": "f1e146e107c2d7a4d426d738e61080025e872b8ad8e3e93cc96b13d3323c58b6",
    "state_counts.txt": "6dfafc4ddb46de6fcc5de9849ec4e5ea76d32b44b7d728f772b646424fbf7b1b",
}
_GUIDEWAY_U2_VERIFY = "10c84d892650a9d1e6d1dae51224c471aae8d851666f60fb3c1204f8012f88e4"

# guideway with u=3 through the library: attack.aut as the CLI writes it
# (renamed). P has 280,012 states; before synthesis became on-the-fly it was
# explored in full, and a run took 12 s (reachable) to 26 s and 1.2 GB
# (nonblocking). Synthesis now reads the rows of 3,083 of them.
GUIDEWAY_U3_ATTACKS = {
    "nonblocking": "39d896c7cfd933440a9ba0e82b88b7135c32fc9fdb4a67d3bc3304748d4aa563",
    "reachable": "41cd7940686eec61af040f32cb8dbe1d9a6052d4739749a5d4550d8adf28f7a2",
}

# reduced with delta_s=1: a 16,398-state G_new of which P reaches 19 states.
# Storage delay changes the components only; the attacks, certificates and
# verify outputs are those of the shipped reduced system.
REDUCED_DELTA_S1 = {
    mode: {**RUNGS["reduced", "delta_s=1"],
           "attack.aut": GOLDEN["reduced", mode]["attack.aut"],
           "certificate.txt": GOLDEN["reduced", mode]["certificate.txt"]}
    for mode in ("nonblocking", "reachable")}


# the DOT text export-dot prints for the shipped guideway plant and NS and
# for three files synthesize writes for guideway in nonblocking mode (the
# monitor's 24 lines that name the detection state {} included, that state
# painted salmon once)
GUIDEWAY_DOT = {
    "guideway_plant.aut": "9ff2faf7d6db671d756bde5c563873b42f110f02f05d6aa25e12d2c822c5502f",
    "guideway_ns.aut": "dfaef05561367a226ea41c5e3727b4e19b3a6dc79d0c07cdfe26bd58d6a19db9",
    "monitor.aut": "6c9bf7dc7a40f98b0e7268ab67ffc0c5a80d782b4029dd343d2f8f28233b972e",
    "attack.aut": "2fd543069afc8bc032b85f1c74571fbbc14936243497b2c408cd67596644f5b7",
    "g_new.aut": "59c7483881ae5b4a6f05e2ef18c2b531eeb405c1641b52ec63f3c0439a687a73",
}

# a plant whose one event the supervisor cannot observe, under an NS that
# allows every event: no observation is ever unexplained, so the monitor's
# detection state {} is unreachable and is still written, last
UNREACHABLE_DETECTION_CONFIG = """\
[parameters] delta_o=0 delta_c=0 delta_s=0 n_f=1 u=1 v=1
[events]     a1 c uo - - te=0
[commands]   w1 = a1
"""
UNREACHABLE_DETECTION_PLANT = (".automaton G\n.alphabet a1:plain\n"
                               ".initial 0\n.trans 0 a1 0\n")
UNREACHABLE_DETECTION = {
    "ac.aut": "aa07d717151fb2fea889f599711df2143af369f828cd9acf48409b99b7f23d29",
    "cc.aut": "9e4c2220c1714a655a4367fa2f8b75e04365ec35769ef3da3539951352304cd2",
    "ce.aut": "d313b150ab5f8baee925c93183a85c251202997db7a3dfa51194e913f6db928a",
    "cs.aut": "591850f0b4af2e30eecccace17c74cd94a001682c58fa99f08f64f676ac1cd1f",
    "g_new.aut": "03810883609ec0be7a75047a07127cd9f4178417ceb5ccf2d59413358667dd91",
    "monitor.aut": "e7e6c44809bb9ceb33bcf4650d36c2fd3e0d39386b58d1a9bef87bb3b8e11edc",
    "oc.aut": "2962dfc3e0f69388b940f009f0406e5a4eaf6337e2825e2c21b7a59ec2ac1d36",
    "oc_t.aut": "3a417dd3af102ca7c94681344cdc53d1b96706f79039012b60097fcbb92d5957",
    "state_counts.txt": "f3a8461df9acf986bb9d03cc599377e27749203cb6fd6e1f6aa895f181a3546a",
}


# guideway with b3 forwarded, attacker-observable and not compromised: the
# config line "b3 uc o ao - -", and the NS with b3# relabelled b3_in. AC has
# two qobs_b3 lines and OC carries b3_in, which no shipped system has. CS,
# CE, CC, OC^T and G_new are guideway's, and verify prints guideway's lines.
FORWARDED_B3_COMPONENTS = {
    **_GUIDEWAY_COMPONENTS,
    "ac.aut": "801a5a03b6b86e5b367499e0edbe592867463f55053c73c24c4a96d6adca5a6e",
    "monitor.aut": "b775cc104c0d25530a75cb21abac53f11422da241705b04e4405413fcad3e48a",
    "oc.aut": "08797a00f8c4a7b0676a3713119a987e3a636968126d0d072add9b873cbd2491",
    "state_counts.txt": "b49706d37a5c34c55e1a9398bb1c90c7b4e4b283dcd8b7f076e25285fd46abe0",
}
FORWARDED_B3 = {
    "nonblocking": {
        "attack.aut": "6deb1d75845c1a869a22d4915044bcc2e4bef08cdd867e1bbbd88c4469741f0a",
        "certificate.txt": "9d70c30ac3deb41c43cf9e1307ffd3d121fbfdb446ce61e83435c397de1a16f6",
        "<verify>": GOLDEN["guideway", "nonblocking"]["<verify>"],
    },
    "reachable": {
        "attack.aut": "a33d2a87f960b0b736b2c935b2a419a972bf1dcf48981e51c475ae9a02a47c89",
        "certificate.txt": "7238e4afa640f4e05ae6e66f9899b253a7616de58fc00908213d7b0bf423682c",
        "<verify>": GOLDEN["guideway", "reachable"]["<verify>"],
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(system, cmd, extra=(), config=None, plant=None, ns=None):
    """Run one CLI command on a shipped system, optionally with another
    config, plant or NS file; return (status, stdout)."""
    args = [cmd, "--config", config or os.path.join(DATA, f"{system}.cfg"),
            "--plant", plant or os.path.join(DATA, f"{system}_plant.aut"),
            "--ns", ns or os.path.join(DATA, f"{system}_ns.aut"), *extra]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = main(args)
    return status, buf.getvalue()


_READ_BACK = set()  # digests of .aut files already found to read back


def _file_digests(out_dir):
    """The digest of each file in ``out_dir``. Each ``.aut`` file must also
    read back: the reader takes it and the writer gives its text again, byte
    for byte, so no rule of the reader refuses what a command writes."""
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        with open(path, "rb") as fh:
            data = fh.read()
        digests[name] = digest = _sha(data)
        if name.endswith(".aut") and digest not in _READ_BACK:
            assert serialize_automaton(load_automaton(path)).encode() == data, path
            _READ_BACK.add(digest)
    return digests


@pytest.mark.parametrize("system", ["guideway", "reduced"])
def test_build_outputs_match_golden(system, tmp_path, monkeypatch):
    # a relative --out keeps the printed path independent of tmp_path
    monkeypatch.chdir(tmp_path)
    status, stdout = _run(system, "build", ["--out", "out"])
    assert status == 0
    assert _sha(stdout.encode()) == _BUILD_STDOUT
    assert _file_digests("out") == _COMPONENTS[system]


@pytest.mark.parametrize("system,params", sorted(RUNGS))
def test_build_on_parameter_rungs_matches_golden(system, params, tmp_path,
                                                 monkeypatch):
    monkeypatch.chdir(tmp_path)
    key, _, value = params.partition("=")
    cfg = load_config(os.path.join(DATA, f"{system}.cfg"))
    with open("rung.cfg", "w", encoding="utf-8") as fh:
        fh.write(serialize_config(with_params(cfg, **{key: int(value)})))
    status, stdout = _run(system, "build", ["--out", "out"], config="rung.cfg")
    assert status == 0
    assert _sha(stdout.encode()) == _BUILD_STDOUT
    assert _file_digests("out") == RUNGS[system, params]


def test_build_with_unreachable_detection_matches_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with open("u.cfg", "w", encoding="utf-8") as fh:
        fh.write(UNREACHABLE_DETECTION_CONFIG)
    with open("plant.aut", "w", encoding="utf-8") as fh:
        fh.write(UNREACHABLE_DETECTION_PLANT)
    full = load_config("u.cfg").full_alphabet()
    save_automaton(Automaton(["n"], full, [("n", e, "n") for e in full], "n",
                             name="NS"), "ns.aut")
    status, stdout = _run(None, "build", ["--out", "out"], config="u.cfg",
                          plant="plant.aut", ns="ns.aut")
    assert status == 0
    assert _sha(stdout.encode()) == _BUILD_STDOUT
    assert _file_digests("out") == UNREACHABLE_DETECTION


def _synthesize_and_verify(system, mode, out, plant=None, ns=None):
    """Run synthesize in ``mode`` into ``out``, then verify on the attack it
    wrote, and compare every digest with the shipped system's golden one."""
    status, stdout = _run(system, "synthesize", ["--out", out, "--mode", mode],
                          plant=plant, ns=ns)
    assert status == 0
    golden = GOLDEN[system, mode]
    assert _file_digests(out) == {**_COMPONENTS[system], "attack.aut": golden["attack.aut"],
                                  "certificate.txt": golden["certificate.txt"]}
    # synthesize prints exactly the certificate
    assert _sha(stdout.encode()) == golden["certificate.txt"]

    status, stdout = _run(system, "verify", ["--attack", os.path.join(out, "attack.aut")],
                          plant=plant, ns=ns)
    assert status == 0
    assert _sha(stdout.encode()) == golden["<verify>"]


@pytest.mark.parametrize("system,mode", sorted(GOLDEN))
def test_synthesize_and_verify_match_golden(system, mode, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _synthesize_and_verify(system, mode, "out")


def _forwarded_b3_inputs():
    """Write ``fwd.cfg`` and ``fwd_ns.aut``, the shipped guideway config
    and NS with b3 forwarded, into the working directory."""
    with open(os.path.join(DATA, "guideway.cfg"), encoding="utf-8") as fh:
        cfg = fh.read()
    assert cfg.count("b3 uc o ao comp -") == 1
    with open("fwd.cfg", "w", encoding="utf-8") as fh:
        fh.write(cfg.replace("b3 uc o ao comp -", "b3 uc o ao - -"))
    relabel = {"b3#:compromised": "b3_in:in", "b3#": "b3_in"}
    with open(os.path.join(DATA, "guideway_ns.aut"), encoding="utf-8") as fh:
        ns = [" ".join(relabel.get(tok, tok) for tok in line.split()) + "\n"
              for line in fh]
    with open("fwd_ns.aut", "w", encoding="utf-8") as fh:
        fh.writelines(ns)


def test_a_forwarded_event_matches_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _forwarded_b3_inputs()
    files = {"config": "fwd.cfg", "ns": "fwd_ns.aut"}
    status, stdout = _run("guideway", "build", ["--out", "out"], **files)
    assert status == 0
    assert _sha(stdout.encode()) == _BUILD_STDOUT
    with open("out/ac.aut", encoding="utf-8") as fh:
        assert sum("qobs_b3" in line for line in fh) == 2
    with open("out/oc.aut", encoding="utf-8") as fh:
        assert "b3_in:in" in fh.readline() + fh.readline()
    assert _file_digests("out") == FORWARDED_B3_COMPONENTS

    for mode, states in (("nonblocking", 38), ("reachable", 107)):
        status, stdout = _run("guideway", "synthesize", ["--out", mode, "--mode", mode],
                              **files)
        assert status == 0
        assert f"attack-states: {states}\n" in stdout
        golden = FORWARDED_B3[mode]
        assert _file_digests(mode) == {**FORWARDED_B3_COMPONENTS,
                                       "attack.aut": golden["attack.aut"],
                                       "certificate.txt": golden["certificate.txt"]}
        assert _sha(stdout.encode()) == golden["certificate.txt"]
        status, stdout = _run("guideway", "verify",
                              ["--attack", os.path.join(mode, "attack.aut")], **files)
        assert status == 0
        assert "covert: True\n" in stdout
        assert _sha(stdout.encode()) == golden["<verify>"]

    # both attacks are supremal: P with each has the closed form's language
    problem = build_problem(load_system("fwd.cfg", os.path.join(DATA, "guideway_plant.aut"),
                                        "fwd_ns.aut"))
    for mode in SynthesisMode:
        assert disagreement(problem, synthesize_supremal_attack(problem, mode), mode) is None


def _shuffled(path, rng):
    """The automaton file at ``path`` with its ``.trans`` lines in another
    order and the tokens of its ``.alphabet`` and ``.marked`` lines permuted."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.split() for line in fh if line.strip()]
    for toks in lines:
        if toks[0] in (".alphabet", ".marked"):
            toks[1:] = rng.sample(toks[1:], len(toks) - 1)
    trans = [toks for toks in lines if toks[0] == ".trans"]
    rng.shuffle(trans)
    head = [toks for toks in lines if toks[0] != ".trans"]
    return "".join(" ".join(toks) + "\n" for toks in head + trans)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("system", ["guideway", "reduced"])
def test_input_order_reaches_no_output(system, seed, tmp_path, monkeypatch):
    # a metamorphic relation: the plant and NS read in another order give
    # every output byte of the shipped files
    monkeypatch.chdir(tmp_path)
    rng = random.Random(seed)
    for part in ("plant", "ns"):
        path = os.path.join(DATA, f"{system}_{part}.aut")
        text = _shuffled(path, rng)
        with open(path, encoding="utf-8") as fh:
            assert text.splitlines() != fh.read().splitlines()
        with open(f"{part}.aut", "w", encoding="utf-8") as fh:
            fh.write(text)
    for mode in ("nonblocking", "reachable"):
        _synthesize_and_verify(system, mode, mode, plant="plant.aut", ns="ns.aut")


def _must_not_run(what):
    def fail(*_args, **_kwargs):
        raise AssertionError(f"a command read {what}")
    return fail


@pytest.mark.parametrize("system", ["guideway", "reduced"])
def test_no_command_reads_the_tracer_only_surface(system, tmp_path, monkeypatch):
    # the benchmark's tracer and the tests read these, and no command may:
    # bad and target explore all of P, and transitions all of an automaton
    monkeypatch.chdir(tmp_path)
    # the wrappers the tracer looks up by name give check_attack's verdicts
    problem = build_problem(load_system(*(os.path.join(DATA, f"{system}{part}") for part in
                                          (".cfg", "_plant.aut", "_ns.aut"))))
    attack = synthesize_supremal_attack(problem, SynthesisMode.DAMAGE_REACHABLE)
    assert [wrapper(problem, attack) for wrapper in (
        netdes.synthesis.verify_covert, netdes.synthesis.verify_damage_nonblocking,
        netdes.synthesis.verify_damage_reachable)] == list(check_attack(problem, attack))
    for cls, attr in ((SynthesisProblem, "bad"), (SynthesisProblem, "target"),
                      (Automaton, "transitions")):
        monkeypatch.setattr(cls, attr, property(_must_not_run(f"{cls.__name__}.{attr}")))
    functions = [netdes.automaton.compose] + [
        getattr(netdes.synthesis, f"verify_{goal}")
        for goal in ("covert", "damage_nonblocking", "damage_reachable")]
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "netdes"]
    for function in functions:
        # every module that imported it by name sees the stand-in too
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, name, _must_not_run(function.__name__))
    with pytest.raises(AssertionError, match="a command read Automaton.transitions"):
        Automaton(["s"], [], [], "s").transitions
    with pytest.raises(AssertionError, match="a command read verify_covert"):
        netdes.synthesis.verify_covert(None, None)

    status, stdout = _run(system, "build", ["--out", "out"])
    assert status == 0
    assert _sha(stdout.encode()) == _BUILD_STDOUT
    assert _file_digests("out") == _COMPONENTS[system]
    for mode in ("nonblocking", "reachable"):
        _synthesize_and_verify(system, mode, mode)


def test_export_dot_matches_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    status, _stdout = _run("guideway", "synthesize",
                           ["--out", "out", "--mode", "nonblocking"])
    assert status == 0
    digests = {}
    for name in GUIDEWAY_DOT:
        path = os.path.join(DATA if name.startswith("guideway_") else "out", name)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["export-dot", path]) == 0
        digests[name] = _sha(buf.getvalue().encode())
        if name == "monitor.aut":
            assert sum("{}" in line for line in buf.getvalue().splitlines()) == 24
    assert digests == GUIDEWAY_DOT


@pytest.mark.parametrize("mode", sorted(REDUCED_DELTA_S1))
def test_synthesize_and_verify_on_reduced_delta_s1_match_golden(mode, tmp_path,
                                                               monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = load_config(os.path.join(DATA, "reduced.cfg"))
    with open("rung.cfg", "w", encoding="utf-8") as fh:
        fh.write(serialize_config(with_params(cfg, delta_s=1)))
    status, stdout = _run("reduced", "synthesize", ["--out", "out", "--mode", mode],
                          config="rung.cfg")
    assert status == 0
    assert _file_digests("out") == REDUCED_DELTA_S1[mode]
    assert _sha(stdout.encode()) == REDUCED_DELTA_S1[mode]["certificate.txt"]

    status, stdout = _run("reduced", "verify", ["--attack", "out/attack.aut"],
                          config="rung.cfg")
    assert status == 0
    assert _sha(stdout.encode()) == GOLDEN["reduced", mode]["<verify>"]


def test_synthesize_and_verify_on_guideway_u2_match_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = load_config(os.path.join(DATA, "guideway.cfg"))
    with open("rung.cfg", "w", encoding="utf-8") as fh:
        fh.write(serialize_config(with_params(cfg, u=2)))
    status, stdout = _run("guideway", "synthesize",
                          ["--out", "out", "--mode", "nonblocking"], config="rung.cfg")
    assert status == 0
    assert _file_digests("out") == GUIDEWAY_U2_NONBLOCKING
    assert _sha(stdout.encode()) == GUIDEWAY_U2_NONBLOCKING["certificate.txt"]

    status, stdout = _run("guideway", "verify", ["--attack", "out/attack.aut"],
                          config="rung.cfg")
    assert status == 0
    assert _sha(stdout.encode()) == _GUIDEWAY_U2_VERIFY


@pytest.mark.parametrize("mode", sorted(GUIDEWAY_U3_ATTACKS))
def test_guideway_u3_attack_matches_golden(mode, guideway):
    cfg = with_params(guideway.cfg, u=3)
    problem = build_problem(build_system(cfg, guideway.plant, guideway.ns))
    attack = synthesize_supremal_attack(problem, SynthesisMode(mode))
    text = serialize_automaton(number(attack))
    assert _sha(text.encode()) == GUIDEWAY_U3_ATTACKS[mode]


# A fresh interpreter interns the plant-assembly states of reduced with
# delta_s=1, then guideway's stores, stages and OC and CC channel states in
# the order given (the reverse of their breadth-first order), and only then
# builds and synthesizes guideway. Identity hashes follow addresses, which
# PYTHONHASHSEED does not vary, so this moves every such hash.
_INTERNED_FIRST = """\
import dataclasses, json, sys
from netdes.channels import ChannelState
from netdes.cli import main
from netdes.fixtures import build_system, load_system
from netdes.plant import ExecState, StorageState
data, stores, stages, channels = sys.argv[1], *map(json.loads, sys.argv[2:])
files = [f"{data}/guideway.cfg", f"{data}/guideway_plant.aut", f"{data}/guideway_ns.aut"]
reduced = load_system(f"{data}/reduced.cfg", f"{data}/reduced_plant.aut",
                      f"{data}/reduced_ns.aut")
build_system(dataclasses.replace(reduced.cfg, delta_s=1), reduced.plant,
             reduced.ns).g_new.states
for value in stores:
    StorageState(map(tuple, value))
for value in stages:
    ExecState(map(tuple, value))
for value in channels:
    ChannelState(map(tuple, value))
args = ["--config", files[0], "--plant", files[1], "--ns", files[2]]
assert main(["build", *args, "--out", "build"]) == 0
assert main(["synthesize", *args, "--out", "synthesize", "--mode", "nonblocking"]) == 0
"""


def test_outputs_do_not_depend_on_where_assembly_states_are_interned(
        guideway, tmp_path):
    stores = [list(q.value) for q in reversed(guideway.cs.states)]
    stages = [sorted(q.value) for q in reversed(guideway.ce.states)]
    channels = [list(q.value) for c in (guideway.oc, guideway.cc)
                for q in reversed(c.states)]
    src = os.path.dirname(os.path.dirname(netdes.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _INTERNED_FIRST, DATA,
                           json.dumps(stores), json.dumps(stages), json.dumps(channels)],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert _file_digests(tmp_path / "build") == _GUIDEWAY_COMPONENTS
    golden = GOLDEN["guideway", "nonblocking"]
    assert _file_digests(tmp_path / "synthesize") == {
        **_GUIDEWAY_COMPONENTS, "attack.aut": golden["attack.aut"],
        "certificate.txt": golden["certificate.txt"]}

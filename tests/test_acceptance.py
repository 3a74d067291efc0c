"""Acceptance criteria, one test per criterion, each printing a verdict line.

Criterion 4 runs on the full two-train guideway (it fits comfortably in
memory here, so the documented one-train fallback fixture is exercised by
criterion 8 only). The adapted reduced damage trace is: first observation a1
answered by a2#, the misled supervisor sends w1, the plant fires a1 into
damage state 7.
"""
import random
import time

import netdes.events as ev
from netdes.attacker import validate_attack
from netdes.automaton import (Automaton, compose, state_name,
                              subset_construction)
from netdes.channels import (ChannelState, build_observation_channel,
                             enumerate_channel_states)
from netdes.config import EventSpec, RateBounds, SystemConfig
from netdes.synthesis import (MONITOR_EMPTY, verify_covert,
                              verify_damage_nonblocking)
from netdes.textio import parse_automaton, serialize_automaton
from oracles import (accepts, apply_edit, bounded_traces, deterministic,
                     disabled_controllable_edits, is_nonblocking,
                     isomorphic_by, marked_copy, restrict_reachable,
                     successors)
from systems import faithful_attacker, shipped_config, shipped_system
from test_automaton import can_project_to, random_automaton


def verdict(number, ok, text):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text}"


def test_criterion_1_capacity_report(capsys):
    import os
    from netdes.cli import main
    cfg = os.path.join(os.path.dirname(__file__), "..", "src", "netdes",
                       "data", "guideway.cfg")
    t0 = time.perf_counter()
    rc = main(["capacity", "--config", cfg])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    ok = rc == 0 and "C_oc=2 C_cc=3 C_cs=3" in out and elapsed < 1.0
    with capsys.disabled():
        verdict(1, ok, f"{out.splitlines()[0]} ({elapsed:.4f}s)")


def test_criterion_2_state_sizes():
    from netdes.attacker import build_attack_constraints
    from netdes.channels import build_control_channel
    from netdes.plant import build_command_execution, build_command_storage
    cfg = shipped_config("guideway")
    t0 = time.perf_counter()
    ac = build_attack_constraints(cfg)
    oc = build_observation_channel(cfg)
    cc = build_control_channel(cfg)
    cs = build_command_storage(cfg)
    ce = build_command_execution(cfg)
    oc_formula = enumerate_channel_states(4, 1, 2)
    cc_formula = enumerate_channel_states(3, 0, 3)
    cs_bound = enumerate_channel_states(3, 0, 3)      # same closed form, queue states
    ce_bound = 1 + 3 * (1 + 0)                        # idle + |commands|*(1+max te)
    elapsed = time.perf_counter() - t0
    ok = (len(ac.states) == 3 and oc_formula == 73 and cc_formula == 40
          and len(oc.states) <= oc_formula
          and len(cc.states) <= cc_formula
          and len(cs.states) <= cs_bound
          and len(ce.states) <= ce_bound
          and elapsed < 5.0)
    verdict(2, ok, f"|AC|={len(ac.states)}, OC formula={oc_formula} (built "
                   f"{len(oc.states)}), CC formula={cc_formula} (built "
                   f"{len(cc.states)}), |CS|={len(cs.states)}<={cs_bound}, "
                   f"|CE|={len(ce.states)}<={ce_bound} ({elapsed:.3f}s)")


def test_criterion_3_nonfifo_pop_scenario():
    events = (EventSpec("c0", True, False, False, False, 0),
              EventSpec("a", False, True, False, False, None),
              EventSpec("b", False, True, False, False, None))
    cfg = SystemConfig(events=events, commands={"v": frozenset({"c0"})},
                       delta_o=1, delta_c=0, delta_s=0, rates=RateBounds(3, 1, 1))
    oc = build_observation_channel(cfg)
    q = ChannelState((("a", 0), ("a", 1), ("b", 1)))
    a_succ = set(successors(oc, q, ev.exit_("a")))
    b_succ = set(successors(oc, q, ev.exit_("b")))
    ok = (q in set(oc.states) and len(a_succ) == 2 and len(b_succ) == 1
          and not successors(oc, q, ev.tick))
    verdict(3, ok, f"from {q}: a_out has {len(a_succ)} successors, "
                   f"b_out {len(b_succ)}, tick undefined")


def _first_swap_scenario(cfg, first_obs, answer):
    """Paths whose first attacker observation is ``first_obs``, answered by
    inserting ``answer``; everything afterwards is unconstrained."""
    full = cfg.full_alphabet()
    observations = {ev.plant(n) for n in cfg.sigma_oa}
    answers = {ev.compromised(n) for n in cfg.sigma_sa} | {ev.stop}
    t = []
    for e in full:
        if e not in observations:
            t.append(("c0", e, "c0"))
        if e not in answers and e not in observations:
            t.append(("c1", e, "c1"))
        t.append(("c2", e, "c2"))
    t.append(("c0", ev.plant(first_obs), "c1"))
    t.append(("c1", ev.compromised(answer), "c2"))
    return Automaton(["c0", "c1", "c2"], full, t, "c0",
                     marked=["c0", "c1", "c2"], name="scenario")


def test_criterion_4_guideway_nonblocking():
    from netdes.synthesis import (SynthesisMode, build_problem,
                                  synthesize_supremal_attack)
    t0 = time.perf_counter()
    guideway = shipped_system("guideway")
    prob = build_problem(guideway)
    attack = synthesize_supremal_attack(prob, SynthesisMode.DAMAGE_NONBLOCKING)
    nonempty = attack is not None
    covert = nonempty and verify_covert(prob, attack).ok
    loop = compose([prob.plant, attack]) if nonempty else None
    nonblocking = nonempty and is_nonblocking(
        marked_copy(loop, [q for q in loop.states if q[0] in prob.target]))
    scenario = _first_swap_scenario(guideway.cfg, "a1", "b1")
    guided = compose([prob.plant, attack, scenario]) if nonempty else None
    trace_hits = nonempty and any(
        state_name(q[0][0][2]) == "5" and q[2] == "c2" for q in guided.states)
    elapsed = time.perf_counter() - t0
    ok = nonempty and covert and nonblocking and trace_hits and elapsed < 600
    verdict(4, ok, f"attack {len(attack.states) if nonempty else 0} states, "
                   f"covert={covert}, nonblocking={nonblocking}, "
                   f"a1->b1# reaches damage 5: {trace_hits} ({elapsed:.1f}s)")


def test_criterion_5_reachable_contains_nonblocking(guideway_problem,
                                                    guideway_attacks):
    nb, r = guideway_attacks
    ok = nb is not None and r is not None
    if ok:
        loop_nb = compose([guideway_problem.plant, nb])
        loop_r = compose([guideway_problem.plant, r])
        traces = bounded_traces(loop_nb, 12)
        ok = all(accepts(loop_r, t) for t in traces)
        detail = f"{len(traces)} traces to depth 12 all contained"
    else:
        detail = "missing attack"
    verdict(5, ok, detail)


def test_criterion_6_detection_soundness(guideway):
    loop = compose([guideway.g_new, guideway.ac, guideway.oc, guideway.ns,
                    guideway.cc, guideway.monitor,
                    faithful_attacker(guideway.cfg)])
    offenders = [q for q in loop.states if q[5] == MONITOR_EMPTY]
    verdict(6, not offenders,
            f"never-attack loop has {len(loop.states)} states, "
            f"{len(offenders)} detections")


def test_criterion_7_outputs_validate(guideway_problem, guideway_attacks,
                                      reduced_problem, reduced_attacks):
    outputs = []
    for prob, attacks in ((guideway_problem, guideway_attacks),
                          (reduced_problem, reduced_attacks)):
        for attack in attacks:
            if attack is not None:
                outputs.append((prob, attack))
    violations = 0
    for prob, attack in outputs:
        report = validate_attack(attack, prob.constraint, prob.plant.alphabet)
        violations += len(report.violations)
    verdict(7, outputs and violations == 0,
            f"{len(outputs)} synthesized automata, {violations} violations")


def test_criterion_8_local_maximality_reduced(reduced_problem, reduced_attacks):
    t0 = time.perf_counter()
    nb, _ = reduced_attacks
    edits = disabled_controllable_edits(reduced_problem, nb)
    failures = []
    for edit in edits:
        edited = apply_edit(reduced_problem, nb, edit)
        if verify_covert(reduced_problem, edited).ok and \
                verify_damage_nonblocking(reduced_problem, edited).ok:
            failures.append(edit)
    elapsed = time.perf_counter() - t0
    ok = bool(edits) and not failures and elapsed < 600
    verdict(8, ok, f"{len(edits)} single-event re-enablings all break "
                   f"covertness or nonblockingness ({elapsed:.1f}s)")


def test_criterion_9_kernel_properties():
    rng = random.Random(20260809)
    instances = 0
    # observer determinism
    for _ in range(160):
        a = random_automaton(rng)
        observed = [e for e in sorted(a.alphabet) if rng.random() < 0.6]
        assert deterministic(subset_construction(a, observed))
        instances += 1
    # projection-language equality against the brute-force oracle
    for _ in range(120):
        a = random_automaton(rng)
        observed = frozenset(e for e in sorted(a.alphabet) if rng.random() < 0.5)
        obs = subset_construction(a, observed)
        for t in bounded_traces(a, 6):
            assert accepts(obs, tuple(e for e in t if e in observed))
        for t in bounded_traces(obs, 6):
            assert can_project_to(a, observed,
                                  [e for e in t if e in observed])
        instances += 1
    # product commutativity and associativity up to renaming
    for _ in range(120):
        a1 = random_automaton(rng, max_states=4)
        a2 = random_automaton(rng, max_states=4)
        a3 = random_automaton(rng, max_states=3)
        p12, p21 = compose([a1, a2]), compose([a2, a1])
        assert isomorphic_by(p12, p21, lambda q: (q[1], q[0]))
        left = compose([compose([a1, a2]), a3])
        right = compose([a1, compose([a2, a3])])
        assert isomorphic_by(left, right, lambda q: (q[0][0], (q[0][1], q[1])))
        instances += 1
    # serialize/parse round trip
    for _ in range(120):
        a = restrict_reachable(random_automaton(rng))
        back = parse_automaton(serialize_automaton(a))
        assert isomorphic_by(a, back, state_name)
        instances += 1
    verdict(9, instances >= 500, f"{instances} randomized instances, all passed")

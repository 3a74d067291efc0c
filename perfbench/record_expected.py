"""Write expected.json: output digests and verdict lines of every workload.

Run from the root of a checkout whose outputs are known to be right (the
digests were first recorded on the initial import of netdes):

    python3 perfbench/record_expected.py

The outputs must be the same for every seed; this records seed 0 and checks
seed 1 against it.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

from run import CLI, SRC, WORK, cli_args, fresh_dir, run_child
from workloads import EXPECTED_FILE, WORKLOADS, make_inputs, output_record


def record(name: str, seed: int) -> dict:
    workload = WORKLOADS[name]
    work = fresh_dir(WORK / f"record-{name}-seed{seed}")
    try:
        inputs = make_inputs(workload, seed, SRC, work / "inputs")
        synth_args, verify_args = cli_args(workload, inputs, work / "out")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        synth = run_child(CLI + synth_args, env, workload.budget_s, work / "synthesize")
        verify = run_child(CLI + verify_args, env, workload.budget_s, work / "verify")
        if synth.exit_code or verify.exit_code:
            raise SystemExit(f"{name}: exit {synth.exit_code}/{verify.exit_code}\n"
                             f"{synth.stderr}{verify.stderr}")
        return output_record(work / "out", synth.stdout, verify.stdout)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    expected = {}
    for workload_name in WORKLOADS:
        expected[workload_name] = record(workload_name, 0)
        if record(workload_name, 1) != expected[workload_name]:
            raise SystemExit(f"{workload_name}: outputs depend on the seed")
        print(f"{workload_name}: recorded")
    EXPECTED_FILE.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")

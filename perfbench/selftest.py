#!/usr/bin/env python3
"""Checks of the benchmark itself.

    python3 perfbench/selftest.py [--seed 7]

* The random-graph reference labeller agrees with the chain closed forms.
* Per workload, two traced runs with the same seed give identical count
  metrics and the same report digest, and every per-layer metric named
  for the workload reads non-zero (run.py fails the run otherwise).
* Per workload, one deliberately wrong known answer makes ops fail.

Each run uses the shortest run time, so it does one or two passes.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import reference
import workloads

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def bench(workload, seed, *extra):
    argv = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
            "--seconds", "1", *extra]
    proc = subprocess.run(argv, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    digest = next(l.split("=")[1].strip() for l in lines if l.startswith("report_digest"))
    return json.loads(lines[-1]), digest, proc.stderr


def check_reference():
    n = 50
    ids = list(range(n))
    facts = {i: (["p"] if i == n - 1 else []) + (["q"] if i else []) for i in ids}
    succ = {i: [min(i + 1, n - 1)] for i in ids}
    for text in workloads.CHAIN_FORMULAS:
        got = reference.satisfying(text, facts, succ)
        want = set(workloads.chain_closed_form(text, n))
        if got != want:
            return [f"reference and closed form disagree on {text!r}"]
    return []


def check_workload(workload, seed):
    problems = []
    first, digest1, err1 = bench(workload, seed, "--trace", "1")
    second, digest2, _ = bench(workload, seed, "--trace", "1")
    if not first["correct"]:
        problems.append(f"{workload}: traced run not correct:\n{err1}")
    if digest1 != digest2:
        problems.append(f"{workload}: report digests differ: {digest1} vs {digest2}")
    for name, m in first["metrics"].items():
        if name.endswith(".calls") or name == "semantics.sat.distinct":
            other = second["metrics"][name]["value"]
            if m["value"] != other:
                problems.append(f"{workload}: {name} differs: {m['value']} vs {other}")
    wrong, _, _ = bench(workload, seed, "--trace", "0", "--corrupt-expected")
    if wrong["failed"] == 0 or wrong["correct"]:
        problems.append(f"{workload}: a wrong known answer went unnoticed")
    print(f"{workload}: report digest {digest1}, "
          f"wrong answer fails {wrong['failed']} of {wrong['attempted']} ops")
    return problems


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=7)
    args = p.parse_args()
    problems = check_reference()
    for workload in workloads.SETUPS:
        problems += check_workload(workload, args.seed)
    for line in problems:
        print(f"FAIL {line}")
    print("selftest ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

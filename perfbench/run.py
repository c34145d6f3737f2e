#!/usr/bin/env python3
"""Benchmark for `lao`: three workloads run through the command line
entry point in-process, one client in a closed loop.

    python3 perfbench/run.py --workload verify-random --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from the root of a checkout; `lao` is imported from ``src/``.
Each op is ``lao.cli.main(argv)`` with ``--json`` pointed at a scratch
file in a temporary work directory inside the checkout, removed at exit.
The op list of one pass is repeated until ``--seconds`` is used up,
rounded to whole passes.  Every pass runs on a fresh import of `lao`, as
every `lao` command does, and that set-up is timed.  Every op's report is
checked against its known answer.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see tracer.py).  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter
from typing import NamedTuple, Optional

import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = tuple(workloads.SETUPS)
SETUP_REPEATS = 5  # timed set-ups before the first pass

V, C, O = "verify-random", "ctl-large", "org-scale"
ALL = (V, C, O)
# Per-layer metric -> (span, statistic, workloads where it must read non-zero).
# Statistics are per pass: "ms" inclusive time, "self_ms" self time, "calls".
PER_LAYER = {
    "model.load_model.ms": ("model.load_model", "ms", (C, O)),
    "model.load_model.calls": ("model.load_model", "calls", (C, O)),
    "model.digest.ms": ("model.digest", "ms", ALL),
    "model.validate_model.ms": ("model.validate_model", "ms", (V,)),
    "semantics.temporal.self_ms": ("semantics.temporal", "self_ms", ALL),
    "semantics.sat.calls": (None, "calls", ALL),
    "semantics.sat.distinct": (None, "calls", ALL),
    "semantics.sat.reuse_ratio": (None, "ratio", ALL),
    "semantics.boolean.self_ms": ("semantics.boolean", "self_ms", ALL),
    "semantics.orgpred.self_ms": ("semantics.orgpred", "self_ms", (V, O)),
    "semantics.eval.calls": ("semantics.eval", "calls", ALL),
    "semantics.capability.self_ms": ("semantics.capability", "self_ms", (V, O)),
    "semantics.agency.self_ms": ("semantics.agency", "self_ms", (V, O)),
    "semantics.sigma_entails.calls": ("semantics.sigma_entails", "calls", (V, O)),
    "semantics.sigma_entails.ms": ("semantics.sigma_entails", "ms", (V, O)),
    "semantics.controlled_atoms.calls": ("semantics.controlled_atoms", "calls", (V, O)),
    "semantics.controlled_atoms.ms": ("semantics.controlled_atoms", "ms", (V, O)),
    "semantics.influence.calls": ("semantics.influence", "calls", (V, O)),
    "semantics.influence.ms": ("semantics.influence", "ms", (V, O)),
    "semantics.initiative.self_ms": ("semantics.initiative", "self_ms", (V, O)),
    "org.check_good.ms": ("org.check_good", "ms", (O,)),
    "org.check_well_defined.ms": ("org.check_well_defined", "ms", (O,)),
    "org.check_successful.ms": ("org.check_successful", "ms", (O,)),
    "org.check_good_property.ms": ("org.check_good_property", "ms", (O,)),
    "org.check_efficient.ms": ("org.check_efficient", "ms", (O,)),
    "org.check_delegation_closed.ms": ("org.check_delegation_closed", "ms", (O,)),
    "org.classify_structure.ms": ("org.classify_structure", "ms", (O,)),
    "org.default_pool.ms": ("org.default_pool", "ms", (O,)),
    "org.org_capability.calls": ("org.org_capability", "calls", (O,)),
    "verify.generate_model.ms": ("verify.generate_model", "ms", (V,)),
    "verify.run_axiom_suite.self_ms": ("verify.run_axiom_suite", "self_ms", (V,)),
    "verify.PathOracle.eval.self_ms": ("verify.PathOracle.eval", "self_ms", (V,)),
    "verify.PathOracle.lassos.ms": ("verify.PathOracle.lassos", "ms", (V,)),
    "verify.random_ctl_pool.ms": ("verify.random_ctl_pool", "ms", (V,)),
    "formula.parse.ms": ("formula.parse", "ms", (C,)),
    "formula.parse.calls": ("formula.parse", "calls", (C,)),
    "formula.fprint.ms": ("formula.fprint", "ms", ALL),
    "formula.fprint.calls": ("formula.fprint", "calls", ALL),
    "cli.main.self_ms": ("cli.main", "self_ms", ALL),
    "trace.overhead_ratio": (None, "ratio", ALL),
}
END_TO_END = ("throughput_ops_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb", "setup_s")


def metric_units():
    """Units of the end-to-end and per-layer metrics, read from
    BENCHMARK.json, after checking that it names exactly the metrics this
    file computes and that every traced span exists in tracer.py."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    spans = {*tracing.FUNCTIONS.values(), *(f"semantics.{f}" for f in tracing.FAMILIES)}
    problems = [f"BENCHMARK.json {kind} lacks {m}"
                for kind, names, ours in (("end_to_end", e2e, END_TO_END),
                                          ("per_layer", layer, PER_LAYER))
                for m in ours if m not in names]
    problems += [f"run.py does not compute {m}"
                 for m in [*e2e, *layer] if m not in END_TO_END and m not in PER_LAYER]
    problems += [f"{m}: tracer.py records no span {span}"
                 for m, (span, _s, _w) in PER_LAYER.items() if span and span not in spans]
    if problems:
        raise SystemExit("error: " + "; ".join(problems))
    return e2e, layer


class OpResult(NamedTuple):
    seconds: float
    error: Optional[str] = None  # why the op failed
    digest: Optional[str] = None  # hash of its report without timing fields


def import_lao():
    """Import `lao` from this checkout's src/, dropping any earlier import
    so that set-up pays the import every time it is repeated."""
    for name in [n for n in sys.modules if n == "lao" or n.startswith("lao.")]:
        del sys.modules[name]
    cli = importlib.import_module("lao.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported lao from {cli.__file__}, not from {SRC}")
    return cli


def _strip_timing(node):
    if isinstance(node, dict):
        return {k: _strip_timing(v) for k, v in node.items() if k != "timing_s"}
    if isinstance(node, list):
        return [_strip_timing(v) for v in node]
    return node


def run_op(cli, op):
    """Run one op, then check its report against the known answer.  The op
    starts from a collected heap, as a fresh `lao` process would."""
    if os.path.exists(workloads.REPORT):
        os.remove(workloads.REPORT)
    gc.collect()
    out = io.StringIO()
    sys.argv = ["lao", *op.argv]
    started = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                rc = cli.main(op.argv)
            except SystemExit as e:  # argparse usage errors
                rc = e.code
            extra = op.extra[0](*op.extra[1]) if op.extra else None
    except Exception as e:  # an op that raises is a failed op, not a crash
        return OpResult(perf_counter() - started, f"raised {type(e).__name__}: {e}")
    seconds = perf_counter() - started
    if rc not in (0, 1):
        return OpResult(seconds, f"exit {rc}: {out.getvalue().strip()[-300:]}")
    with open(workloads.REPORT, encoding="utf-8") as fh:
        report = _strip_timing(json.load(fh))
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    return OpResult(seconds, workloads.mismatch(op, op.observe(rc, report, extra)), digest)


class Run:
    """The closed loop of one process: passes over the op list, each on a
    fresh import of lao."""

    def __init__(self, inputs, ops, seconds, tracer=None):
        self.inputs, self.ops, self.seconds, self.tracer = inputs, ops, seconds, tracer
        self.cli = None
        self.setup_seconds = []
        self.latencies = []
        self.errors = []
        self.digests = None
        self.pass_seconds = {False: [], True: []}  # traced? -> pass wall times
        self.layers = []  # per traced pass: (totals, per_op, sat_distinct)
        self.elapsed = 0.0

    def set_up(self):
        """Import lao afresh and write the seeded inputs into the work
        directory, timed."""
        gc.collect()
        started = perf_counter()
        self.cli = import_lao()
        workloads.write_inputs(os.getcwd(), self.inputs)
        self.setup_seconds.append(perf_counter() - started)

    def go(self):
        for _ in range(SETUP_REPEATS):
            self.set_up()
        if self.tracer:
            self.tracer.install()  # fail before timing if a traced function is gone
            self.tracer.uninstall()
        # Keep the benchmark's own objects out of the collector's way.
        gc.collect()
        gc.freeze()
        passes = 0
        while True:
            traced = self.tracer is not None and passes % 2 == 1
            if passes:
                self.set_up()
            self.one_pass(traced)
            passes += 1
            self.elapsed = sum(self.pass_seconds[False]) + sum(self.pass_seconds[True])
            enough = self.tracer is None or passes >= 2
            # Stop at the pass boundary nearest to the time budget.
            if enough and self.elapsed + self.elapsed / passes / 2 > self.seconds:
                return

    def one_pass(self, traced):
        tr = self.tracer if traced else None
        if tr:
            tr.install()
            op_span = tr.name_id(tracing.OP_SPAN)
        digests = []
        started = perf_counter()
        try:
            for i, op in enumerate(self.ops):
                if tr:
                    tr.op_id = i
                    root = tr.open(op_span)
                res = run_op(self.cli, op)
                if tr:
                    tr.close(root)
                self.latencies.append(res.seconds)
                digests.append(res.digest)
                if res.error:
                    self.errors.append(f"{op.label}: {res.error}")
                elif self.digests and res.digest != self.digests[i]:
                    self.errors.append(f"{op.label}: report differs from the first pass")
        finally:
            if tr:
                tr.uninstall()
        self.pass_seconds[traced].append(perf_counter() - started)
        if tr:
            self.layers.append(tr.fold())
        if self.digests is None:
            self.digests = digests

    def report_digest(self):
        return hashlib.sha256("\n".join(map(str, self.digests)).encode()).hexdigest()[:16]


def tail(lat_ms, p):
    """Nearest-rank percentile p; returns (value, samples above it)."""
    rank = max(1, math.ceil(p / 100 * len(lat_ms)))
    return lat_ms[rank - 1], len(lat_ms) - rank


def end_to_end(run, workload):
    # Every pass runs the same ops in the same order, so op i of the pass
    # is every n-th latency.  Throughput counts each op at its median over
    # the passes: a stretch of the run slowed by other load on the host
    # then moves it no more than it moves op_p50_ms.
    n = len(run.ops)
    typical = [statistics.median(run.latencies[i::n]) for i in range(n)]
    lat_ms = sorted(s * 1000 for s in run.latencies)
    p = workloads.TAIL_PERCENTILE[workload]
    tail_ms, above = tail(lat_ms, p)
    metrics = {
        # The set-ups of a run do identical work; the fastest is the one
        # least slowed by other load on the host.
        "setup_s": min(run.setup_seconds),
        "throughput_ops_s": n / sum(typical),
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {"throughput_ops_s": f"{n} ops per pass over the sum of their medians "
                                 f"across {len(lat_ms) // n} passes",
             "op_tail_ms": f"p{p:g}, {above} of {len(lat_ms)} samples above",
             "setup_s": f"fastest of {len(run.setup_seconds)} set-ups"}
    return metrics, notes


def per_layer(run, workload):
    """Per-layer metrics averaged over the traced passes, plus the names
    of metrics that read zero where they must not."""
    k = len(run.layers)
    summed = {}
    distinct = 0
    for totals, _per_op, sat_distinct in run.layers:
        distinct += sat_distinct
        for name, (calls, incl, self_s) in totals.items():
            row = summed.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += incl
            row[2] += self_s
    sat_calls = sum(summed.get(f"semantics.{f}", (0,))[0] for f in tracing.FAMILIES)
    plain = statistics.median(run.pass_seconds[False])
    traced = statistics.median(run.pass_seconds[True])
    metrics = {
        "semantics.sat.calls": sat_calls / k,
        "semantics.sat.distinct": distinct / k,
        "semantics.sat.reuse_ratio": 1 - distinct / sat_calls if sat_calls else 0.0,
        "trace.overhead_ratio": traced / plain,
    }
    for metric, (span, stat, _where) in PER_LAYER.items():
        if span is not None:
            calls, incl, self_s = summed.get(span, (0, 0.0, 0.0))
            metrics[metric] = {"calls": calls, "ms": incl * 1000, "self_ms": self_s * 1000}[stat] / k
    metrics = {m: metrics[m] for m in PER_LAYER}
    missing = [m for m, (_s, _t, where) in PER_LAYER.items()
               if workload in where and not metrics[m]]
    return metrics, missing


def op_breakdown(run):
    """Per op label, the median over traced passes of a few times (ms):
    the whole op, load_model, temporal sat self time and check_good."""
    columns = (("op", 0), ("model.load_model", 0), ("semantics.temporal", 1),
               ("org.check_good", 0))
    rows = {}
    for _totals, per_op, _d in run.layers:
        for i, op in enumerate(run.ops):
            rows.setdefault(op.label, []).append(
                [per_op.get((i, name), (0.0, 0.0))[j] * 1000 for name, j in columns])
    lines = [f"  {'op (ms)':<28}" + "".join(f"{name:>20}" for name, _j in columns)]
    for label in sorted(rows):
        med = [statistics.median(col) for col in zip(*rows[label])]
        lines.append(f"  {label:<28}" + "".join(f"{v:>20.1f}" for v in med))
    return lines


def run_workload(args):
    e2e_units, layer_units = metric_units()
    sys.path.insert(0, SRC)
    # The inputs, op list and known answers are built once, untimed.
    inputs, ops = workloads.SETUPS[args.workload](args.seed)
    if args.corrupt_expected:
        ops[0].expect["rc"] = 1 - ops[0].expect["rc"]
    run = Run(inputs, ops, args.seconds, tracing.Tracer() if args.trace else None)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    home = os.getcwd()
    try:
        os.chdir(workdir)
        run.go()
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = len(run.latencies), len(run.errors)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}: "
          f"{attempted} ops in {run.elapsed:.1f} s, {len(ops)} ops per pass")
    print(f"fail_ratio = {failed / attempted:.4f} ({failed} of {attempted} ops failed)")
    for err in run.errors[:5]:
        print(f"  FAIL {err}", file=sys.stderr)
    print(f"report_digest = {run.report_digest()}")
    correct = failed == 0
    if args.trace:
        metrics, missing = per_layer(run, args.workload)
        units = layer_units
        print(f"tracing overhead: traced pass {statistics.median(run.pass_seconds[True]):.2f} s, "
              f"untraced pass {statistics.median(run.pass_seconds[False]):.2f} s")
        print("\n".join(op_breakdown(run)))
        for m in missing:
            print(f"  ZERO {m}: no call traced on {args.workload}", file=sys.stderr)
        correct = correct and not missing
        notes = {}
    else:
        metrics, notes = end_to_end(run, args.workload)
        units = e2e_units
    for name, value in metrics.items():
        note = notes.get(name)
        print(f"  {name} = {value:.6g} {units[name]}" + (f"  ({note})" if note else ""))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0


def run_all(args):
    """Each workload in its own fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt-expected", action="store_true",
                   help="self-test: give the first op a wrong known answer")
    args = p.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "lao")):
        print(f"error: no lao package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

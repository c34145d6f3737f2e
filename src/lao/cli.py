"""Command line front end.

Commands::

    lao validate <model.json>
    lao check    <model.json> -f "<formula>" [--world ID | --all] [--oracle]
    lao analyze  <model.json> --org ID [--pool pool.json]
    lao axioms   <model.json> [--pool pool.json]
    lao axioms   --random N [--seed S] [--bounds F,A,R,W,D]

A pool file is a JSON list of formula strings; an axioms pool must hold
conjunctions of literals and comes with a model only (generated models
use the default literal pool).

Exit codes: 0 every requested check holds, 1 some checked property
fails, 2 usage, I/O or parse errors.  ``--json PATH`` writes the full
machine-readable report; identical inputs yield identical reports apart
from the timing fields.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import org as org_mod
from . import verify
from .fixtures import FIXTURES, fixture_text
from .formula import FormulaError, fprint, parse
from .model import ModelError, load_model, validate_model
from .semantics import EvalError, Evaluator

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _read_model(path):
    if path in FIXTURES:
        return load_model(fixture_text(path))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return load_model(fh.read())
    except FileNotFoundError:
        raise ModelError(f"no such file: {path}")


def _write_report(report, path):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _report_skeleton(args, model=None):
    rep = {"command": " ".join(sys.argv[1:]) or args.command, "results": {}}
    if model is not None:
        rep["model_digest"] = model.digest()
    return rep


def cmd_validate(args):
    started = time.monotonic()
    model = _read_model(args.model)
    report = _report_skeleton(args, model)
    violations = validate_model(model)
    report["results"]["violations"] = [
        {"invariant": v.invariant, "world": v.world, "detail": v.detail}
        for v in violations
    ]
    report["timing_s"] = round(time.monotonic() - started, 4)
    for v in violations:
        print(f"violation: {v}")
    if not violations:
        print(f"model ok: {len(model.world_ids)} worlds, "
              f"{len(model.transitions)} transitions, {len(model.orgs)} orgs")
    _write_report(report, args.json)
    return EXIT_OK if not violations else EXIT_FAIL


def cmd_check(args):
    started = time.monotonic()
    model = _read_model(args.model)
    report = _report_skeleton(args, model)
    f = parse(args.formula)
    report["formula"] = fprint(f)
    ev = Evaluator(model)
    worlds = list(model.world_ids) if args.all else [args.world or model.world_ids[0]]
    for w in worlds:
        if w not in model.valuation:
            raise EvalError(f"unknown world {w!r}")
    oracle = None
    if args.oracle:
        oracle = verify.PathOracle(model, ev=ev)
    verdicts = {}
    agree = True
    for w in worlds:
        holds = ev.eval(w, f)
        entry = {"holds": holds}
        if oracle is not None:
            o = oracle.eval(w, f)
            entry["oracle"] = o
            entry["agrees"] = o == holds
            agree = agree and entry["agrees"]
        verdicts[w] = entry
    report["results"]["worlds"] = verdicts
    if oracle is not None:
        report["results"]["oracle_agreement"] = agree
    report["timing_s"] = round(time.monotonic() - started, 4)
    for w in worlds:
        entry = verdicts[w]
        line = f"{w}: {'true' if entry['holds'] else 'false'}"
        if oracle is not None:
            line += f"  (oracle {'true' if entry['oracle'] else 'false'}, "
            line += "agrees)" if entry["agrees"] else "DISAGREES)"
        print(line)
    _write_report(report, args.json)
    all_hold = all(v["holds"] for v in verdicts.values())
    if oracle is not None and not agree:
        return EXIT_FAIL
    return EXIT_OK if all_hold else EXIT_FAIL


def cmd_analyze(args):
    started = time.monotonic()
    model = _read_model(args.model)
    report = _report_skeleton(args, model)
    if args.org not in model.orgs:
        print(f"error: unknown organization {args.org!r}", file=sys.stderr)
        return EXIT_USAGE
    pool = None
    if args.pool:
        with open(args.pool, "r", encoding="utf-8") as fh:
            pool = org_mod.load_pool(fh.read())
    verdicts, labels = org_mod.analyze(model, args.org, pool)
    report["results"]["checks"] = {
        v.prop: {
            "holds": v.holds,
            "witnesses": [list(map(str, w)) for w in v.witnesses[:5]],
        }
        for v in verdicts
    }
    report["results"]["classification"] = sorted(labels)
    report["timing_s"] = round(time.monotonic() - started, 4)
    for v in verdicts:
        print(v)
    print(f"{args.org}: classification {{{', '.join(sorted(labels)) or '-'}}}")
    _write_report(report, args.json)
    return EXIT_OK if all(v.holds for v in verdicts) else EXIT_FAIL


def _parse_bounds(text):
    parts = text.split(",")
    if len(parts) != 5:
        raise ValueError("bounds are F,A,R,W,D (facts, agents, roles, worlds, out-degree)")
    f, a, r, w, d = (int(x) for x in parts)
    return dict(max_facts=f, max_agents=a, max_roles=r, max_worlds=w, max_out_degree=d)


def cmd_axioms(args):
    started = time.monotonic()
    report = _report_skeleton(args)
    runs = []
    if args.model:
        model = _read_model(args.model)
        pool = None
        if args.pool:
            with open(args.pool, "r", encoding="utf-8") as fh:
                pool = org_mod.load_pool(fh.read())
        runs.append((model, pool, None))
    else:
        bounds = _parse_bounds(args.bounds) if args.bounds else {}
        for i in range(args.random):
            seed = args.seed + i
            params = verify.GenParams(seed=seed, **bounds)
            runs.append((verify.generate_model(params), None, seed))
    failures = 0
    reports = []
    for model, pool, seed in runs:
        suite = verify.run_axiom_suite(model, pool, seed=seed)
        entry = {
            "model_digest": suite.model_digest,
            "seed": seed,
            "failing": suite.failing(),
            "schemas": {
                s: {"instances": r.instances, "passed": r.passed,
                    "failures": [[w, list(map(str, b))] for w, b in r.failures]}
                for s, r in suite.results.items()
            },
        }
        reports.append(entry)
        if not suite.passed:
            failures += 1
            for s in suite.failing():
                w, b = suite.results[s].failures[0]
                print(f"FAIL {s} seed={seed} world={w} bindings={b}")
    report["results"]["runs"] = reports
    report["results"]["models_checked"] = len(runs)
    report["results"]["models_failing"] = failures
    report["timing_s"] = round(time.monotonic() - started, 4)
    print(
        f"axiom suite: {len(runs)} model(s), "
        f"{'all schemas pass' if failures == 0 else f'{failures} model(s) with failures'}"
    )
    _write_report(report, args.json)
    return EXIT_OK if failures == 0 else EXIT_FAIL


def build_parser():
    p = argparse.ArgumentParser(
        prog="lao", description="Model checker and organization analyzer."
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check all structural invariants")
    v.add_argument("model", help="model file path or bundled fixture name")
    v.add_argument("--json", help="write the JSON report here")
    v.set_defaults(func=cmd_validate)

    c = sub.add_parser("check", help="evaluate a formula")
    c.add_argument("model")
    c.add_argument("-f", "--formula", required=True)
    c.add_argument("--world", help="evaluate at this world (default: first)")
    c.add_argument("--all", action="store_true", help="evaluate at every world")
    c.add_argument("--oracle", action="store_true",
                   help="cross-check against the lasso-path oracle")
    c.add_argument("--json")
    c.set_defaults(func=cmd_check)

    a = sub.add_parser("analyze", help="organization quality and structure")
    a.add_argument("model")
    a.add_argument("--org", required=True)
    a.add_argument("--pool", help="JSON list of formula strings")
    a.add_argument("--json")
    a.set_defaults(func=cmd_analyze)

    x = sub.add_parser("axioms", help="run the axiom/theorem suite")
    x.add_argument("model", nargs="?", help="model file; omit with --random")
    x.add_argument("--random", type=int, default=0, help="number of generated models")
    x.add_argument("--seed", type=int, default=0)
    x.add_argument("--bounds", help="F,A,R,W,D generation bounds")
    x.add_argument("--pool", help="JSON list of literal conjunctions; with a model only")
    x.add_argument("--json")
    x.set_defaults(func=cmd_axioms)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "axioms" and not args.model and args.random <= 0:
        print("error: axioms needs a model or --random N", file=sys.stderr)
        return EXIT_USAGE
    if args.command == "axioms" and args.model and (args.random or args.bounds):
        print("error: axioms takes a model or --random N [--bounds ...], not both",
              file=sys.stderr)
        return EXIT_USAGE
    if args.command == "axioms" and args.pool and not args.model:
        print("error: axioms takes --pool with a model only, not with --random",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (ModelError, FormulaError, EvalError, verify.OracleBound) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        # Parsing, printing and evaluation recurse once per nesting level.
        print("error: formula nested too deeply", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

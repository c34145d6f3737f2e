import os
import subprocess
import sys

import pytest

from lao import formula as F
from lao.formula import parse
from lao.fixtures import FIXTURES, load_fixture
from lao.model import canonical_dict, validate_model
from lao.semantics import Evaluator
from lao.verify import (
    GenParams,
    OracleBound,
    PathOracle,
    generate_model,
    literal_pool,
    non_theorem_witnesses,
    random_ctl_pool,
    run_axiom_suite,
)


def test_gen_params_validation():
    with pytest.raises(ValueError):
        GenParams(seed=1, max_facts=0)
    with pytest.raises(ValueError):
        GenParams(seed=1, label_density=1.5)


def test_generated_models_are_valid():
    violations = 0
    for seed in range(500):
        m = generate_model(GenParams(seed=seed))
        violations += len(validate_model(m))
    assert violations == 0


def test_generation_deterministic_in_seed():
    p = GenParams(seed=42, max_facts=2, max_agents=2, max_roles=1, max_worlds=4, max_out_degree=2)
    a = generate_model(p)
    b = generate_model(p)
    assert canonical_dict(a) == canonical_dict(b)
    c = generate_model(GenParams(seed=43, max_facts=2, max_agents=2, max_roles=1, max_worlds=4, max_out_degree=2))
    assert canonical_dict(c) != canonical_dict(a)


def test_example_bounds_produce_valid_model():
    m = generate_model(GenParams(seed=1, max_facts=2, max_agents=2, max_roles=1, max_worlds=4, max_out_degree=2))
    assert validate_model(m) == []


def test_suite_passes_on_all_fixtures():
    for name in FIXTURES:
        rep = run_axiom_suite(load_fixture(name))
        assert rep.passed, (name, rep.failing())


def test_suite_covers_all_schema_ids():
    rep = run_axiom_suite(load_fixture("fig1"))
    assert len(rep.results) == 60  # 27 axioms + 24 theorems + 9 rules
    for sid in ("A1", "A27", "T24", "R9"):
        assert sid in rep.results


def test_suite_pool_example_on_fig1():
    m = load_fixture("fig1")
    pool = literal_pool(m, max_size=2)
    rep = run_axiom_suite(m, pool)
    assert rep.passed


def test_a1_instance_false_everywhere():
    for name in FIXTURES:
        ev = Evaluator(load_fixture(name))
        for a in sorted(ev.m.agents):
            assert ev.sat(F.Cap(F.SingleAgent(a), F.TrueF())) == frozenset()


def test_suite_reports_failures_with_bindings():
    # An adversarial hand-built model outside the generator's guarantees:
    # two facts that are never jointly true break capability conjunction
    # closure, and the report pins the instance.
    import json

    from lao import load_model

    doc = {
        "facts": ["p", "q"],
        "agents": ["a"],
        "roles": ["r"],
        "worlds": [
            {"id": "w0", "facts": []},
            {"id": "w1", "facts": ["p"]},
            {"id": "w2", "facts": ["q"]},
        ],
        "transitions": [{"from": "w0", "to": "w1", "labels": [["a", "r"]]}],
        "capabilities": {"c": {"a": {"default": ["p", "q"]}}},
        "orgs": [{"id": "O", "members": ["a"], "roles": ["r"], "rea": [["a", "r"]], "dep": []}],
        "config": {"totality": "self-loop"},
    }
    rep = run_axiom_suite(load_model(json.dumps(doc)))
    assert "A4" in rep.failing()
    world, bindings = rep.results["A4"].failures[0]
    assert world in ("w0", "w1", "w2")
    assert bindings


def test_witnesses_hold_under_engine_and_oracle():
    pairs = non_theorem_witnesses()
    assert len(pairs) == 2
    for model, world, f in pairs:
        ev = Evaluator(model)
        assert ev.eval(world, f)
        assert PathOracle(model, ev=ev).eval(world, f)


def test_oracle_bound_is_enforced():
    m = generate_model(GenParams(seed=3, max_worlds=8))
    with pytest.raises(OracleBound):
        PathOracle(m, bound=4)


def test_oracle_simple_cases():
    m = load_fixture("fig1")
    ev = Evaluator(m)
    oracle = PathOracle(m, ev=ev)
    assert oracle.eval("w0", parse("AG true"))
    assert oracle.eval("w0", parse("EX p"))
    assert not oracle.eval("w0", parse("AX p"))
    assert oracle.eval("w1", parse("AG p"))
    assert oracle.eval("w0", parse("E[!p U q]")) == ev.eval("w0", parse("E[!p U q]"))


def test_lassos_cover_stem_and_cycle():
    m = load_fixture("nesting")
    oracle = PathOracle(m)
    lassos = oracle.lassos("n0")
    assert lassos == [(["n0", "n1"], ["n2"])]


def test_oracle_agreement_on_generated_models():
    for seed in range(25):
        m = generate_model(GenParams(seed=seed))
        ev = Evaluator(m)
        oracle = PathOracle(m, ev=ev)
        for f in random_ctl_pool(m, seed=seed, size=12, temporal_depth=2):
            for w in m.world_ids:
                assert ev.eval(w, f) == oracle.eval(w, f), (seed, w, F.fprint(f))


def test_oracle_agreement_on_rewired_graphs():
    # Harden the oracle comparison beyond the generator's act-transition
    # shape: arbitrary random total graphs with label discipline kept.
    import random

    from dataclasses import replace

    from lao.model import Transition

    for seed in range(15):
        base = generate_model(GenParams(seed=seed))
        rng = random.Random(seed * 7 + 1)
        org = base.orgs["org0"]
        played = sorted(org.rea[base.world_ids[0]])
        trans = []
        for w in base.world_ids:
            for _ in range(rng.randint(1, 3)):
                dst = rng.choice(base.world_ids)
                labels = set()
                if played and rng.random() < 0.6:
                    agent = rng.choice(sorted({a for (a, _r) in played}))
                    labels = {(a, r) for (a, r) in played if a == agent}
                trans.append(Transition(w, dst, frozenset(labels)))
        # The constructor merges parallel transitions and re-derives the
        # successor maps.
        m = replace(base, transitions=trans)
        assert validate_model(m) == []
        ev = Evaluator(m)
        oracle = PathOracle(m, ev=ev)
        for f in random_ctl_pool(m, seed=seed + 99, size=10, temporal_depth=2):
            for w in m.world_ids:
                assert ev.eval(w, f) == oracle.eval(w, f), (seed, w, F.fprint(f))


def test_congruence_rules_tested_or_trivial():
    rep = run_axiom_suite(load_fixture("gas0prime"))
    assert rep.results["R9"].instances > 0
    assert rep.results["R9"].passed


def test_generated_models_do_not_depend_on_hash_seed():
    seeds = list(range(12))
    script = (
        "import sys\n"
        "from lao.verify import GenParams, generate_model\n"
        "for s in map(int, sys.argv[1:]):\n"
        "    print(generate_model(GenParams(seed=s)).digest())\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(F.__file__)))

    def digests(hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script, *map(str, seeds)],
            env=env, capture_output=True, text=True, check=True,
        )
        return done.stdout.split()

    first = digests(1)
    assert len(first) == len(seeds)
    assert digests(2) == first

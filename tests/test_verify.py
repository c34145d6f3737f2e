import hashlib
import json
import os
import subprocess
import sys
import zlib

import pytest

from lao import formula as F
from lao import load_model, verify
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


# An adversarial hand-built model outside the generator's guarantees: two
# facts that are never jointly true break capability conjunction closure.
ADVERSARIAL_DOC = {
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


def test_suite_reports_failures_with_bindings():
    # The report pins the instance that breaks conjunction closure.
    rep = run_axiom_suite(load_model(json.dumps(ADVERSARIAL_DOC)))
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


# ---------------------------------------------------------------------------
# Golden axiom reports
#
# Each model's report is run twice: on the engine as it is, and on an engine
# that flips one world in the satisfying set of every agency and
# organization operator, so that nearly every schema records failures.  A
# digest of the per-schema instance counts and failure lists (serialised
# as `lao axioms --json` writes them) pins the suite's behaviour: which
# instances it records, in what order, the smallest failing world and the
# binding strings.

GOLDEN_BOUNDS = dict(max_facts=4, max_agents=3, max_roles=2, max_worlds=8, max_out_degree=3)

_FLIPPED = (
    F.Cap, F.Ability, F.Attempt, F.Stit, F.InControl, F.Initiative,
    F.InCharge, F.Desire, F.Know,
)


class FlippingEvaluator(Evaluator):
    """Flips one world, picked by a CRC of the printed formula (stable
    across PYTHONHASHSEED), in the satisfying set of every operator node.

    The flip is applied to the set an unflipped engine computes, so each
    operator's set is a function of the formula alone: the engine's own
    caches, keyed on holder profiles, never see a flipped set, and the
    result does not depend on the order in which the suite asks."""

    def __init__(self, model):
        super().__init__(model)
        self._plain = Evaluator(model)

    def _compute(self, f):
        if isinstance(f, _FLIPPED):
            pick = zlib.crc32(F.fprint(f).encode()) % len(self.worlds)
            return self._plain.sat(f) ^ {self.worlds[pick]}
        return super()._compute(f)


def _golden_model(name):
    if name in FIXTURES:
        return load_fixture(name)
    if name == "adversarial":
        return load_model(json.dumps(ADVERSARIAL_DOC))
    return generate_model(GenParams(seed=int(name[len("seed"):]), **GOLDEN_BOUNDS))


def _schema_digest(report):
    schemas = {
        s: [r.instances, [[w, list(map(str, b))] for w, b in r.failures]]
        for s, r in report.results.items()
    }
    text = json.dumps(schemas, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


GOLDEN_DIGESTS = {
    "fig1": ("641873b82480214f", "28e5fa83780ceaf5"),
    "gas0": ("e11ea7d7a93f0047", "4693af67b7b5d0df"),
    "gas0prime": ("88e1132b5fb686fe", "9d22d601420bca5c"),
    "interfere": ("43a3966a60613595", "9d0b9f7e6c1e48ad"),
    "nesting": ("6c47bb13c8e3f981", "cc43408521683f3c"),
    "supervision": ("41f0a1815c1d0b5d", "7371563df08bd5bc"),
    "adversarial": ("90011d4a9da6cf13", "161540f8519d7139"),
    "seed0": ("b84589c4e2dd9c00", "05846a458221d27a"),
    "seed1": ("806a5c10dab1df73", "d85997644e5a85b5"),
    "seed2": ("73d2d43a421be18a", "4efb45b8697e03f0"),
    "seed3": ("806a5c10dab1df73", "9ef309b103dbd219"),
    "seed4": ("1c0044ada65fee56", "363daf88b8c155ca"),
    "seed5": ("7b683a09b008e56b", "8a429605aa5fc03d"),
    "seed6": ("4d97b6108f7e0fe8", "0dfd969bd47030a1"),
    "seed7": ("37165b8eab15fa02", "c93f54ff84cd054a"),
    "seed8": ("4b84f78f353cff35", "e36ea65342c5e8dd"),
    "seed9": ("fb811c2f725b62d9", "221f6cac13516ad6"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_axiom_reports_match_golden(name, monkeypatch):
    model = _golden_model(name)
    plain = _schema_digest(run_axiom_suite(model))
    monkeypatch.setattr(verify, "Evaluator", FlippingEvaluator)
    flipped = _schema_digest(run_axiom_suite(model))
    assert (plain, flipped) == GOLDEN_DIGESTS[name]


def test_flipped_engine_fails_every_conditional_schema(monkeypatch):
    # Guards the golden digests against vacuity: only A3 and A18, whose
    # instances are unconditional, may pass on the flipped engine.
    monkeypatch.setattr(verify, "Evaluator", FlippingEvaluator)
    failing = set()
    for name in GOLDEN_DIGESTS:
        failing.update(run_axiom_suite(_golden_model(name)).failing())
    assert set(verify.SCHEMA_IDS) - failing == {"A3", "A18"}


def test_axiom_reports_do_not_depend_on_hash_seed():
    # The golden digests hold under any string-hash order; set iteration
    # order follows it, so a schema that recorded instances in set order
    # would differ between these runs.
    script = (
        "import sys\n"
        "import test_verify as t\n"
        "from lao import verify\n"
        "for name in sys.argv[1:]:\n"
        "    model = t._golden_model(name)\n"
        "    plain = t._schema_digest(verify.run_axiom_suite(model))\n"
        "    verify.Evaluator = t.FlippingEvaluator\n"
        "    flipped = t._schema_digest(verify.run_axiom_suite(model))\n"
        "    verify.Evaluator = t.Evaluator\n"
        "    print(name, plain, flipped)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(F.__file__)))
    here = os.path.dirname(os.path.abspath(__file__))
    names = sorted(GOLDEN_DIGESTS)
    expected = [f"{n} {' '.join(GOLDEN_DIGESTS[n])}" for n in names]
    for hash_seed in (0, 123):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, here, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script, *names],
            env=env, capture_output=True, text=True, check=True,
        )
        assert done.stdout.splitlines() == expected, hash_seed

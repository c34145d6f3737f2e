import itertools
import json
import random

import pytest

from lao import formula as F
from lao import load_model
from lao.formula import parse
from lao.fixtures import FIXTURES, load_fixture
from lao.semantics import EvalError, Evaluator
from lao.verify import GenParams, PathOracle, generate_model, literal_pool

from conftest import lfp, sigma_brute_force, temporal_by_rounds


@pytest.fixture(scope="module")
def fig1():
    return Evaluator(load_fixture("fig1"))


@pytest.fixture(scope="module")
def interfere():
    return Evaluator(load_fixture("interfere"))


# -- influence ---------------------------------------------------------------


def test_influence_fig1_single_agent(fig1):
    got = {(t.src, t.dst) for t in fig1.influence("w0", F.SingleAgent("a"))}
    assert got == {("w0", "w1"), ("w0", "w3")}


def test_influence_empty_for_unused_holder(fig1):
    assert fig1.influence("w1", F.SingleAgent("a")) == []


def test_influence_group_is_union(interfere):
    union = {(t.src, t.dst) for t in interfere.influence("w0", F.SingleAgent("a"))}
    union |= {(t.src, t.dst) for t in interfere.influence("w0", F.SingleAgent("b"))}
    got = {
        (t.src, t.dst)
        for t in interfere.influence("w0", F.AgentGroup(frozenset(["a", "b"])))
    }
    assert got == union == {("w0", "w1"), ("w0", "w2")}


def test_influence_rea_group_needs_rea(interfere):
    # b never plays mover, so the pair contributes nothing.
    got = interfere.influence(
        "w0", F.ReaGroup(frozenset(["b"]), frozenset(["mover"]))
    )
    assert got == []


def test_influence_unknown_ids_raise(fig1):
    with pytest.raises(EvalError):
        fig1.influence("w0", F.SingleAgent("zz"))
    with pytest.raises(EvalError):
        fig1.influence("nowhere", F.SingleAgent("a"))


# -- sigma -------------------------------------------------------------------


def test_sigma_examples(fig1):
    p_worlds = fig1.sat(F.Atom("p"))
    assert fig1.sigma_entails(frozenset(["p"]), p_worlds)
    assert not fig1.sigma_entails(frozenset(), p_worlds)
    pq_worlds = fig1.sat(F.And(F.Atom("p"), F.Atom("q")))
    assert not fig1.sigma_entails(frozenset(["p"]), pq_worlds)


def test_sigma_profile_classes_match_brute_force_on_fixtures():
    for name in ("fig1", "interfere", "nesting", "supervision"):
        ev = Evaluator(load_fixture(name))
        facts = sorted(ev.m.facts)
        targets = [ev.sat(F.Atom(f)) for f in facts]
        targets.append(ev.world_set)
        targets.append(frozenset())
        targets.append(ev.sat(F.Not(F.Atom(facts[0]))))
        for k in range(0, len(facts) + 1):
            for atoms in itertools.combinations(facts, k):
                for target in targets:
                    assert ev.sigma_entails(frozenset(atoms), target) == \
                        sigma_brute_force(ev, frozenset(atoms), target)


def test_sigma_matches_brute_force_on_generated_models():
    rng = random.Random(5)
    for seed in range(12):
        m = generate_model(GenParams(seed=seed, max_facts=3, max_worlds=6))
        ev = Evaluator(m)
        facts = sorted(m.facts)
        for _ in range(25):
            atoms = frozenset(rng.sample(facts, rng.randint(0, len(facts))))
            target = frozenset(
                w for w in m.world_ids if rng.random() < 0.5
            )
            assert ev.sigma_entails(atoms, target) == sigma_brute_force(
                ev, atoms, target
            )


# -- the worked example ------------------------------------------------------


def test_fig1_worked_example_verdicts(fig1):
    assert fig1.eval("w0", parse("G[a] p"))
    assert fig1.eval("w0", parse("H[a] p"))
    assert not fig1.eval("w0", parse("C[a] (p & q)"))
    assert not fig1.eval("w0", parse("G[a] (p & q)"))
    assert not fig1.eval("w0", parse("E[a] p"))


def test_capability_of_tautology_false_everywhere(fig1):
    assert fig1.sat(parse("C[a] true")) == frozenset()


def test_eval_all_examples(fig1):
    assert fig1.sat(parse("p")) == frozenset(["w1", "w3", "w4"])
    assert fig1.sat(parse("true")) == fig1.world_set


def test_member_everywhere_on_gas0():
    ev = Evaluator(load_fixture("gas0"))
    assert ev.sat(parse("member(t, Ogas)")) == ev.world_set


def test_parallel_attempts_witness(interfere):
    assert interfere.eval("w0", parse("H[a] p & H[b] !p"))


def test_incharge_at_derivation_world():
    ev = Evaluator(load_fixture("gas0prime"))
    assert ev.eval("s1", parse("incharge(Ogas, trader, provide_gas)"))


def test_unknown_identifiers_raise():
    ev = Evaluator(load_fixture("fig1"))
    with pytest.raises(EvalError):
        ev.eval("w0", parse("mystery_fact"))
    with pytest.raises(EvalError):
        ev.eval("w0", parse("member(a, NoSuchOrg)"))
    for text in ("C[zz] p", "C[a:zz] p", "C[zz:r] p", "G[zz] p", "H[{a,zz}] p",
                 "E[zz] p", "JC[{a,zz}] p", "IC[zz]"):
        with pytest.raises(EvalError, match="unknown"):
            ev.eval("w0", parse(text))
    # One case per name-bearing field of every node class, with its message.
    cases = [
        ("zz", "fact 'zz'"),
        ("member(zz, Oa)", "agent 'zz'"),
        ("member(a, Ozz)", "organization 'Ozz'"),
        ("role(zz, Oa)", "role 'zz'"),
        ("role(actor, Ozz)", "organization 'Ozz'"),
        ("play(zz, actor, Oa)", "agent 'zz'"),
        ("play(a, zz, Oa)", "role 'zz'"),
        ("play(a, actor, Ozz)", "organization 'Ozz'"),
        ("dep(Ozz, actor, actor)", "organization 'Ozz'"),
        ("dep(Oa, {actor,zz}, actor)", "role 'zz'"),
        ("dep(Oa, actor, {actor,zz})", "role 'zz'"),
        ("know(Ozz, p)", "organization 'Ozz'"),
        ("know(Oa, p & !zz)", "fact 'zz'"),
        ("incharge(Ozz, actor, p)", "organization 'Ozz'"),
        ("incharge(Oa, zz, p)", "role 'zz'"),
        ("incharge(Oa, actor, p & zz)", "fact 'zz'"),
        ("desire(Ozz, p)", "organization 'Ozz'"),
        ("desire(Oa, p & zz)", "fact 'zz'"),
        ("I[zz] p", "role 'zz'"),
        ("I[{actor,zz}] p", "role 'zz'"),
        ("JC[{a,zz}] p", "agent 'zz'"),
    ]
    holders = [
        ("zz", "agent"), ("{a,zz}", "agent"), ("zz:actor", "agent"),
        ("a:zz", "role"), ("{a,zz}:{actor}", "agent"), ("{a}:{actor,zz}", "role"),
    ]
    for op in ("C", "G", "H", "E"):
        cases += [(f"{op}[{h}] p", f"{kind} 'zz'") for h, kind in holders]
    cases += [(f"IC[{h}]", f"{kind} 'zz'") for h, kind in holders]
    for text, message in cases:
        with pytest.raises(EvalError) as e:
            ev.sat(parse(text))
        assert str(e.value) == f"unknown {message}", text


# -- operator ladder and algebra ---------------------------------------------


def _holders(model):
    agents = sorted(model.agents)
    roles = sorted(model.roles)
    out = [F.SingleAgent(a) for a in agents]
    out.append(F.AgentGroup(frozenset(agents)))
    out += [F.ReaSingle(a, r) for a in agents for r in roles]
    out.append(F.ReaGroup(frozenset(agents), frozenset(roles)))
    return out


def test_operator_ladder_on_fixtures_and_generated():
    models = [load_fixture(n) for n in ("fig1", "interfere", "gas0", "gas0prime")]
    models += [generate_model(GenParams(seed=s)) for s in range(6)]
    for m in models:
        ev = Evaluator(m)
        for f in literal_pool(m)[:12]:
            for h in _holders(m):
                stit = ev.sat(F.Stit(h, f))
                att = ev.sat(F.Attempt(h, f))
                abl = ev.sat(F.Ability(h, f))
                cap = ev.sat(F.Cap(h, f))
                assert stit <= att <= abl <= cap


def test_joint_capability_requires_no_capable_proper_subset(interfere):
    p = F.Atom("p")
    group = F.AgentGroup(frozenset(["a", "b"]))
    jc = interfere.sat(F.JointCap(group, p))
    # Each singleton already controls p, so joint capability never holds.
    assert interfere.sat(F.Cap(F.AgentGroup(frozenset(["a"])), p))
    assert jc == frozenset()


def test_joint_capability_positive_case():
    # Neither agent alone pins a p-and-q world; together they do.
    import json

    from lao import load_model

    doc = {
        "facts": ["p", "q"],
        "agents": ["a", "b"],
        "roles": ["ra", "rb"],
        "worlds": [
            {"id": "u0", "facts": []},
            {"id": "u1", "facts": ["p"]},
            {"id": "u2", "facts": ["q"]},
            {"id": "u3", "facts": ["p", "q"]},
        ],
        "transitions": [{"from": "u0", "to": "u3", "labels": [["a", "ra"], ["b", "rb"]]}],
        "capabilities": {"c": {"a": {"default": ["p"]}, "b": {"default": ["q"]}}},
        "orgs": [
            {"id": "O", "members": ["a", "b"], "roles": ["ra", "rb"],
             "rea": [["a", "ra"], ["b", "rb"]], "dep": []}
        ],
        "config": {"totality": "self-loop"},
    }
    ev = Evaluator(load_model(json.dumps(doc)))
    pq = F.And(F.Atom("p"), F.Atom("q"))
    group = F.AgentGroup(frozenset(["a", "b"]))
    assert ev.eval("u0", F.JointCap(group, pq))
    assert not ev.eval("u0", F.Cap(F.AgentGroup(frozenset(["a"])), pq))


def test_in_control_group_on_interfere(interfere):
    group = F.AgentGroup(frozenset(["a", "b"]))
    assert interfere.eval("w0", F.InControl(group))
    assert not interfere.eval("w0", F.InControl(F.SingleAgent("a")))


def test_stit_nesting_witness():
    ev = Evaluator(load_fixture("nesting"))
    assert ev.eval("n0", parse("E[a] E[a] p & !E[a] p"))


# -- fixpoints against the lasso oracle ---------------------------------------


def test_fixpoints_agree_with_oracle_on_fig1():
    m = load_fixture("fig1")
    ev = Evaluator(m)
    oracle = PathOracle(m, ev=ev)
    formulas = [
        "AF p", "EF q", "AG true", "EG p", "A[p U q]", "E[!p U q]",
        "AX p", "EX q", "AF H[a] p", "EF (p & q)",
    ]
    for text in formulas:
        f = parse(text)
        for w in m.world_ids:
            assert ev.eval(w, f) == oracle.eval(w, f), (text, w)


def test_congruence_of_agency_operators():
    # Model-equivalent operands are interchangeable under every operator.
    m = load_fixture("gas0prime")
    ev = Evaluator(m)
    pool = literal_pool(m)
    pairs = [
        (f, g)
        for f, g in itertools.combinations(pool, 2)
        if ev.sat(f) == ev.sat(g)
    ]
    assert pairs, "expected at least one model-equivalent pool pair"
    holders = [F.SingleAgent("t"), F.ReaSingle("s", "shipper")]
    for f, g in pairs[:10]:
        for h in holders:
            for op in (F.Cap, F.Ability, F.Attempt, F.Stit):
                assert ev.sat(op(h, f)) == ev.sat(op(h, g))
        for r in ("trader", "shipper", "local_transport"):
            assert ev.sat(F.Initiative(frozenset([r]), f)) == ev.sat(
                F.Initiative(frozenset([r]), g)
            )


def test_initiative_grounded_by_incharge_on_gas0():
    ev = Evaluator(load_fixture("gas0"))
    f = parse("incharge(Ogas, monopolist, provide_gas) -> I[monopolist] provide_gas")
    assert ev.sat(f) == ev.world_set
    assert ev.sat(parse("I[monopolist] provide_gas")) == ev.world_set


def test_group_initiative_via_enacting_subset():
    ev = Evaluator(load_fixture("gas0prime"))
    f = F.Initiative(frozenset(["trader", "shipper"]), F.Atom("provide_gas"))
    assert ev.eval("s1", f)


def test_attempt_set_for_rea_group_unions_only_enacted_pairs():
    ev = Evaluator(load_fixture("gas0prime"))
    # s plays shipper only; pairing it with the trader role adds nothing.
    h = F.ReaGroup(frozenset(["s"]), frozenset(["trader", "shipper"]))
    got = {(t.src, t.dst) for t in ev.influence("s6", h)}
    assert got == {("s6", "s7")}


# -- worklist fixpoints against the round-based equations ---------------------

_UNARY = (F.AX, F.EX, F.AF, F.EF, F.AG, F.EG)
_BINARY = (F.AU, F.EU)


def _assert_temporal_sets_match(ev, operands):
    for sub in operands:
        for op in _UNARY:
            f = op(sub)
            assert ev.sat(f) == temporal_by_rounds(ev, f), F.fprint(f)
    for left in operands:
        for right in operands:
            for op in _BINARY:
                f = op(left, right)
                assert ev.sat(f) == temporal_by_rounds(ev, f), F.fprint(f)


def _operands(model, nested=True):
    atoms = [F.Atom(x) for x in sorted(model.facts)][:3]
    out = [F.TrueF(), F.FalseF()] + atoms + [F.Not(a) for a in atoms]
    if nested:
        out += [F.EG(atoms[0]), F.AF(F.Not(atoms[-1]))]
    return out


def _graph_model(ids, succ, facts):
    return load_model(json.dumps({
        "facts": ["p", "q"], "agents": ["a"], "roles": ["r"],
        "worlds": [{"id": w, "facts": facts[w]} for w in ids],
        "transitions": [{"from": w, "to": v} for w in ids for v in succ[w]],
    }))


def _chain(n, loop_back=None):
    """Chain x0 -> ... -> x(n-1); the last world loops to `loop_back`."""
    ids = [f"x{i}" for i in range(n)]
    succ = {w: [ids[i + 1]] for i, w in enumerate(ids[:-1])}
    succ[ids[-1]] = [ids[-1 if loop_back is None else loop_back]]
    facts = {w: (["p"] if i % 97 == 96 else []) + (["q"] if i % 50 else [])
             for i, w in enumerate(ids)}
    return _graph_model(ids, succ, facts)


def _random_graph(rng, n, max_degree):
    ids = [f"v{i}" for i in range(n)]
    succ = {w: rng.sample(ids, rng.randint(1, max_degree)) for w in ids}
    facts = {w: [x for x, share in (("p", 0.05), ("q", 0.6)) if rng.random() < share]
             for w in ids}
    return _graph_model(ids, succ, facts)


def test_temporal_sets_match_rounds_on_fixtures():
    for name in sorted(FIXTURES):
        m = load_fixture(name)
        _assert_temporal_sets_match(Evaluator(m), _operands(m))


def test_temporal_sets_match_rounds_on_generated_models():
    for seed in range(50):
        m = generate_model(GenParams(seed=seed))
        _assert_temporal_sets_match(Evaluator(m), _operands(m))


def test_temporal_sets_match_rounds_on_chains():
    for model in (_chain(300), _chain(300, loop_back=150), _chain(200, loop_back=0)):
        _assert_temporal_sets_match(Evaluator(model), _operands(model, nested=False))


def test_temporal_sets_match_rounds_on_random_graphs():
    rng = random.Random(11)
    for n, max_degree in ((300, 1), (300, 2), (400, 3)):
        model = _random_graph(rng, n, max_degree)
        _assert_temporal_sets_match(Evaluator(model), _operands(model))


def test_af_over_world_sets_matches_rounds():
    rng = random.Random(4)
    for seed in range(10):
        ev = Evaluator(generate_model(GenParams(seed=seed)))
        succ = ev.m.succ
        for _ in range(10):
            s = frozenset(w for w in ev.worlds if rng.random() < 0.3)
            want = lfp(lambda z: s | frozenset(w for w in ev.worlds if succ[w] <= z))
            assert ev.af(s) == want

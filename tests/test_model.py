import json
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lao import (
    InChargeAtom,
    Model,
    ModelError,
    OrgStructure,
    Transition,
    World,
    close_dependencies,
    load_model,
    validate_model,
)
from lao.fixtures import FIXTURES, load_fixture

from conftest import fixture_doc, load_doc, random_org_doc


def test_gas0_loads_with_expected_universe():
    m = load_fixture("gas0")
    assert m.agents == frozenset(["m", "t", "s", "l"])
    assert m.roles == frozenset(["monopolist", "trader", "shipper", "local_transport"])
    assert m.facts == frozenset(
        ["provide_gas", "buy_gas", "transport_gas", "local_flow"]
    )
    assert "Ogas" in m.orgs


def test_zero_worlds_is_an_error():
    doc = {"facts": ["p"], "agents": ["a"], "roles": ["r"], "worlds": []}
    with pytest.raises(ModelError, match="W non-empty"):
        load_model(json.dumps(doc))


def test_label_without_rea_is_an_error():
    doc = fixture_doc("gas0")
    doc["transitions"][0]["labels"] = [{"agent": "t", "role": "monopolist"}]
    with pytest.raises(ModelError, match="label without rea"):
        load_doc(doc)


def test_syntax_error_carries_position():
    with pytest.raises(ModelError, match="line"):
        load_model('{"facts": [}')


def test_duplicate_ids_rejected():
    doc = fixture_doc("fig1")
    doc["agents"] = ["a", "a"]
    with pytest.raises(ModelError, match="duplicate"):
        load_doc(doc)


def test_unknown_references_rejected():
    doc = fixture_doc("fig1")
    doc["worlds"][0]["facts"] = ["nope"]
    with pytest.raises(ModelError, match="unknown"):
        load_doc(doc)
    doc = fixture_doc("fig1")
    doc["transitions"][0]["to"] = "w9"
    with pytest.raises(ModelError, match="unknown world"):
        load_doc(doc)


def test_totality_error_policy():
    doc = fixture_doc("fig1")
    doc["config"]["totality"] = "error"
    with pytest.raises(ModelError, match="totality"):
        load_doc(doc)


def test_totality_self_loop_policy_adds_unlabeled_loops():
    m = load_fixture("fig1")
    assert m.succ["w2"] == frozenset(["w2"])
    (loop,) = [t for t in m.out["w2"]]
    assert loop.labels == frozenset()


def test_all_bundled_fixtures_validate_clean():
    for name in FIXTURES:
        assert validate_model(load_fixture(name)) == []


def test_knowledge_soundness_violation_detected():
    doc = fixture_doc("fig1")
    doc["orgs"][0]["knowPlus"] = {"default": [], "at": {"w0": ["p"]}}
    m = load_doc(doc)
    violations = validate_model(m)
    assert any(v.invariant == "KnowledgeSoundness" and v.world == "w0" for v in violations)


def test_negative_knowledge_soundness_violation_detected():
    doc = fixture_doc("fig1")
    doc["orgs"][0]["knowMinus"] = {"default": [], "at": {"w1": ["p"]}}
    m = load_doc(doc)
    violations = validate_model(m)
    assert any(v.invariant == "NegativeKnowledgeSoundness" for v in violations)


def test_transitivity_violation_when_closure_disabled():
    doc = {
        "facts": ["p"],
        "agents": ["x"],
        "roles": ["a", "b", "c"],
        "worlds": [{"id": "w", "facts": []}],
        "transitions": [{"from": "w", "to": "w", "labels": []}],
        "orgs": [
            {
                "id": "O",
                "members": ["x"],
                "roles": ["a", "b", "c"],
                "rea": [],
                "dep": [["a", "a"], ["b", "b"], ["c", "c"], ["a", "b"], ["b", "c"]],
                "depClosure": False,
            }
        ],
    }
    m = load_doc(doc)
    violations = validate_model(m)
    assert any(v.invariant == "Transitivity" for v in violations)
    closed = close_dependencies(m)
    assert validate_model(closed) == []
    assert ("a", "c") in closed.orgs["O"].dep["w"]


def test_closure_examples():
    doc = {
        "facts": ["p"],
        "agents": ["x"],
        "roles": ["r", "q"],
        "worlds": [{"id": "w", "facts": []}],
        "transitions": [{"from": "w", "to": "w", "labels": []}],
        "orgs": [
            {"id": "O", "members": ["x"], "roles": ["r", "q"], "rea": [],
             "dep": [["r", "q"]], "depClosure": False}
        ],
    }
    m = close_dependencies(load_doc(doc))
    assert m.orgs["O"].dep["w"] == frozenset([("r", "r"), ("q", "q"), ("r", "q")])

    doc["orgs"][0]["dep"] = []
    doc["orgs"][0]["roles"] = ["r"]
    m = close_dependencies(load_doc(doc))
    assert m.orgs["O"].dep["w"] == frozenset([("r", "r")])


def test_closure_is_idempotent_on_fixtures():
    for name in FIXTURES:
        m = load_fixture(name)
        once = close_dependencies(m)
        twice = close_dependencies(once)
        for oid in m.orgs:
            assert once.orgs[oid].dep == twice.orgs[oid].dep


def test_gas0_dep_closure_shape():
    m = load_fixture("gas0")
    dep = m.orgs["Ogas"].dep["g1"]
    roles = ["monopolist", "trader", "shipper", "local_transport"]
    for q in roles:
        assert ("monopolist", q) in dep
    for r in roles:
        assert (r, r) in dep
    assert ("trader", "shipper") not in dep
    assert len(dep) == 7


def test_know_sets_disjoint_in_valid_models():
    for name in FIXTURES:
        m = load_fixture(name)
        for org in m.orgs.values():
            for w in m.world_ids:
                kp = org.know_plus.get(w, frozenset())
                km = org.know_minus.get(w, frozenset())
                assert not (kp & km)


def test_label_soundness_in_valid_models():
    for name in FIXTURES:
        m = load_fixture(name)
        for t in m.transitions:
            for (a, r) in t.labels:
                assert m.rea_any(t.src, a, r)


def test_parallel_transitions_merge_labels():
    doc = fixture_doc("interfere")
    doc["transitions"].append(
        {"from": "w0", "to": "w1", "labels": [{"agent": "b", "role": "blocker"}]}
    )
    m = load_doc(doc)
    (t,) = [t for t in m.transitions if t.src == "w0" and t.dst == "w1"]
    assert t.labels == frozenset([("a", "mover"), ("b", "blocker")])


def test_incharge_atom_requires_declared_names():
    doc = fixture_doc("gas0")
    doc["capabilities"]["c"]["m"]["default"].append(
        {"incharge": {"org": "Ogas", "role": "nope", "fact": "provide_gas"}}
    )
    with pytest.raises(ModelError, match="unknown role"):
        load_doc(doc)


def test_digest_stable_and_sensitive():
    a = load_fixture("gas0").digest()
    b = load_fixture("gas0").digest()
    assert a == b
    doc = fixture_doc("gas0")
    doc["worlds"][0]["facts"] = ["buy_gas"]
    assert load_doc(doc).digest() != a


def test_incharge_atom_truth_follows_objectives():
    m = load_fixture("gas0")
    atom = InChargeAtom("Ogas", "trader", "provide_gas")
    assert not m.atom_true(atom, "g1")
    assert m.atom_true(atom, "g5")


def test_explicit_cr_grants_role_extras():
    doc = fixture_doc("interfere")
    doc["capabilities"]["cr"] = {"a:mover": {"default": ["p"], "at": {"w1": ["p"]}}}
    m = load_doc(doc)
    assert validate_model(m) == []
    assert m.cr("a", "mover", "w0") == frozenset(["p"])
    # without an explicit entry, role capabilities fall back to the
    # agent's own set
    assert m.cr("b", "blocker", "w0") == m.c("b", "w0")
    # and cr is undefined (empty) where the pair enacts nothing
    assert m.cr("a", "blocker", "w0") == frozenset()


def test_explicit_cr_below_c_is_flagged():
    doc = fixture_doc("interfere")
    doc["capabilities"]["cr"] = {"a:mover": {"default": []}}
    m = load_doc(doc)
    assert any(
        v.invariant == "RoleExtraCapabilities" for v in validate_model(m)
    )


def test_closure_idempotent_on_generated_models():
    from lao.verify import GenParams, generate_model

    for seed in range(8):
        m = generate_model(GenParams(seed=seed))
        once = close_dependencies(m)
        twice = close_dependencies(once)
        for oid in m.orgs:
            assert once.orgs[oid].dep == twice.orgs[oid].dep


def _naive_successors(m):
    succ = {w: frozenset(t.dst for t in m.transitions if t.src == w) for w in m.world_ids}
    out = {w: tuple(t for t in m.transitions if t.src == w) for w in m.world_ids}
    return succ, out


def _assert_indexes_match_fields(m):
    succ, out = _naive_successors(m)
    assert m.succ == succ
    assert m.out == out
    assert list(m.succ) == list(m.out) == list(m.world_ids)
    assert m.world_ids == tuple(w.id for w in m.worlds)
    assert m.valuation == {w.id: w.facts for w in m.worlds}
    for w in m.world_ids:
        for a in sorted(m.agents):
            for r in sorted(m.roles):
                scan = any((a, r) in o.rea.get(w, ()) for o in m.orgs.values())
                assert m.rea_any(w, a, r) == scan


def test_successor_maps_match_per_world_filter():
    import random

    from lao.verify import GenParams, generate_model

    rng = random.Random(3)
    ids = [f"v{i}" for i in range(300)]
    transitions = [
        {"from": w, "to": v, "labels": [["a", "r"]] if rng.random() < 0.3 else []}
        for w in ids for v in rng.choices(ids, k=rng.randint(1, 4))
    ]
    worlds = [{"id": w, "facts": ["p"] if rng.random() < 0.5 else []} for w in ids]
    rng.shuffle(transitions)
    rng.shuffle(worlds)
    doc = {
        "facts": ["p"], "agents": ["a"], "roles": ["r"],
        "worlds": worlds, "transitions": transitions,
        "orgs": [{"id": "O", "members": ["a"], "roles": ["r"], "rea": [["a", "r"]]}],
    }
    models = [load_doc(doc)]
    models += [load_fixture(name) for name in sorted(FIXTURES)]
    models += [generate_model(GenParams(seed=s)) for s in range(10)]
    models += [load_doc(random_org_doc(s)) for s in range(20)]
    for m in models:
        _assert_indexes_match_fields(m)


def _tiny_model(transitions, totality="self-loop", rea=(("a", "r"),)):
    worlds = (World("w0", frozenset(["p"])), World("w1", frozenset()))
    org = OrgStructure(
        "O", members={w.id: frozenset(["a"]) for w in worlds},
        roles={w.id: frozenset(["r"]) for w in worlds},
        rea={"w0": frozenset(rea), "w1": frozenset()},
        dep={w.id: frozenset([("r", "r")]) for w in worlds},
        desires={}, objectives={}, know_plus={}, know_minus={},
    )
    return Model(
        facts=frozenset(["p"]), agents=frozenset(["a"]), roles=frozenset(["r"]),
        worlds=worlds, transitions=transitions,
        cap_c={}, cap_cn={}, cap_cr={}, orgs={"O": org}, totality=totality,
    )


def test_constructor_applies_totality_policy():
    step = Transition("w0", "w1", frozenset([("a", "r")]))
    m = _tiny_model([step])
    assert m.transitions == (step, Transition("w1", "w1", frozenset()))
    assert m.succ == {"w0": frozenset(["w1"]), "w1": frozenset(["w1"])}
    assert m.out["w1"] == (Transition("w1", "w1", frozenset()),)
    with pytest.raises(ModelError, match=r"totality violated: worlds \['w1'\]"):
        _tiny_model([step], totality="error")
    with pytest.raises(ModelError, match="totality must be"):
        _tiny_model([step], totality="loop")


def test_constructor_merges_and_orders_transitions():
    m = _tiny_model([
        Transition("w1", "w0", frozenset()),
        Transition("w0", "w1", frozenset([("a", "r")])),
        Transition("w0", "w1", frozenset()),
        Transition("w0", "w0", frozenset()),
    ])
    assert m.transitions == (
        Transition("w0", "w0", frozenset()),
        Transition("w0", "w1", frozenset([("a", "r")])),
        Transition("w1", "w0", frozenset()),
    )
    _assert_indexes_match_fields(m)


def test_constructor_rejects_unlicensed_label_and_unknown_world():
    with pytest.raises(ModelError, match="label without rea"):
        _tiny_model([Transition("w1", "w0", frozenset([("a", "r")]))])
    with pytest.raises(ModelError, match="label without rea"):
        _tiny_model([Transition("w0", "w1", frozenset([("a", "r")]))], rea=())
    with pytest.raises(ModelError, match="transition to unknown world 'w9'"):
        _tiny_model([Transition("w0", "w9", frozenset())])


def test_replace_and_close_dependencies_rederive_indexes():
    base = _tiny_model([Transition("w0", "w1", frozenset([("a", "r")]))])
    rewired = replace(base, transitions=[Transition("w0", "w0", frozenset())])
    assert rewired.succ == {"w0": frozenset(["w0"]), "w1": frozenset(["w1"])}
    _assert_indexes_match_fields(rewired)
    org = base.orgs["O"]
    widened = replace(base, orgs={"O": replace(org, rea={w: frozenset([("a", "r")]) for w in org.rea})})
    assert widened.rea_any("w1", "a", "r") and not base.rea_any("w1", "a", "r")
    _assert_indexes_match_fields(widened)
    with pytest.raises(ModelError, match="label without rea"):
        replace(base, orgs={"O": replace(org, rea={})})
    for name in sorted(FIXTURES):
        m = load_fixture(name)
        closed = close_dependencies(m)
        assert closed.transitions == m.transitions
        _assert_indexes_match_fields(closed)


@pytest.mark.parametrize("mutate", [
    pytest.param(lambda d: d.update(worlds=[5]), id="world-not-object"),
    pytest.param(lambda d: d.update(facts=5), id="facts-not-list"),
    pytest.param(lambda d: d.update(capabilities=[]), id="capabilities-not-object"),
    pytest.param(lambda d: d["capabilities"].update(c=["a"]), id="c-not-object"),
    pytest.param(lambda d: d["worlds"][0].update(facts=[["p"]]), id="world-fact-not-name"),
    pytest.param(lambda d: d["orgs"][0].update(dep=5), id="dep-scalar"),
    pytest.param(lambda d: d["orgs"][0].update(dep=[5]), id="dep-entry-scalar"),
    pytest.param(lambda d: d["orgs"][0].update(dep={"default": [], "at": [["w0", []]]}), id="dep-at-not-object"),
    pytest.param(lambda d: d["orgs"][0].update(members={"default": [], "at": 5}), id="members-at-scalar"),
    pytest.param(lambda d: d["orgs"][0].update(members=5), id="members-scalar"),
    pytest.param(lambda d: d["orgs"][0].update(rea=[5]), id="rea-entry-scalar"),
    pytest.param(lambda d: d["orgs"][0].update(rea=[[["a"], "r"]]), id="rea-agent-not-name"),
    pytest.param(lambda d: d["orgs"][0].update(objectives=[]), id="objectives-not-object"),
    pytest.param(lambda d: d["orgs"][0].update(id=["O"]), id="org-id-not-name"),
    pytest.param(lambda d: d["transitions"][0].update(labels=[5]), id="label-scalar"),
    pytest.param(lambda d: d["transitions"][0].update(to=["w0"]), id="transition-to-not-name"),
    pytest.param(lambda d: d.update(config=[]), id="config-not-object"),
    pytest.param(
        lambda d: d["capabilities"].update(
            c={"a": [{"incharge": {"org": [], "role": "r", "fact": "p"}}]}
        ),
        id="incharge-field-not-name",
    ),
])
def test_malformed_shapes_raise_model_error(mutate):
    doc = fixture_doc("fig1")
    doc.setdefault("capabilities", {})
    mutate(doc)
    with pytest.raises(ModelError):
        load_doc(doc)


def test_mutated_fixtures_raise_only_model_error():
    import random

    rng = random.Random(17)
    values = [5, "x", None, [], {}, [5], [[5]], {"at": 5}, [{"agent": []}], [["a", "b", "c"]]]

    def paths(x, prefix=()):
        if prefix:
            yield prefix
        items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
        for k, v in items:
            yield from paths(v, prefix + (k,))

    for name in sorted(FIXTURES) * 60:
        doc = fixture_doc(name)
        *parents, last = rng.choice(list(paths(doc)))
        node = doc
        for k in parents:
            node = node[k]
        node[last] = json.loads(json.dumps(rng.choice(values)))
        try:
            load_doc(doc)
        except ModelError:
            pass


# JSON documents for the loader property: arbitrary values whose object
# keys come from the model schema, and objects with declared ids and worlds
# whose other fields are arbitrary, so that some of them load.
_SCHEMA_KEYS = st.sampled_from([
    "facts", "agents", "roles", "worlds", "transitions", "orgs", "capabilities",
    "config", "totality", "depClosure", "c", "cn", "cr", "id", "from", "to", "labels",
    "members", "rea", "dep", "desires", "knowPlus", "knowMinus", "objectives",
    "default", "at", "agent", "role", "incharge", "org", "fact",
])
_NAMES = st.sampled_from(["p", "q", "a", "b", "r", "w0", "w1", "O", "error", "self-loop"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.floats() | _NAMES | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_SCHEMA_KEYS | _NAMES, inner, max_size=5),
    max_leaves=40,
)
_IDS = st.lists(_NAMES, min_size=1, max_size=3, unique=True)
_WORLD = st.fixed_dictionaries({"id": _NAMES}, optional={"facts": st.just([]) | _IDS | _JSON})
_CAPABILITIES = st.dictionaries(
    st.sampled_from(["c", "cn", "cr"]), st.dictionaries(_NAMES, _JSON, max_size=3), max_size=3
)
_DOCUMENTS = st.fixed_dictionaries(
    {"facts": _IDS, "agents": _IDS, "roles": _IDS,
     "worlds": st.lists(_WORLD, min_size=1, max_size=3)},
    optional={"transitions": st.lists(_JSON, max_size=3) | _JSON,
              "orgs": st.lists(_JSON, max_size=3) | _JSON,
              "config": st.just({"totality": "self-loop"}) | _JSON,
              "capabilities": _CAPABILITIES | _JSON},
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_DOCUMENTS, _JSON).map(json.dumps))
@example("[" * 100000)
def test_loader_returns_a_model_or_raises_model_error(text):
    try:
        assert isinstance(load_model(text), Model)
    except ModelError:
        pass

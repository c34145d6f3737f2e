import json

import pytest

from lao import formula as F
from lao import load_model
from lao.formula import parse
from lao.fixtures import load_fixture
from lao.semantics import Evaluator
from lao import org as O

from conftest import fixture_doc, load_doc


@pytest.fixture(scope="module")
def gas0():
    return load_fixture("gas0")


@pytest.fixture(scope="module")
def gas0prime():
    return load_fixture("gas0prime")


# -- organization capability ---------------------------------------------------


def test_org_capability_of_joint_means(gas0):
    ev = Evaluator(gas0)
    goal = parse("buy_gas & transport_gas & local_flow")
    assert O.org_capability(ev, "g1", "Ogas", goal)
    holds, witness = O.org_capability(ev, "g1", "Ogas", goal, witness=True)
    assert holds and witness and witness <= gas0.orgs["Ogas"].members["g1"]
    # the three workers jointly control the combination directly
    assert ev.eval("g1", F.Cap(F.AgentGroup(frozenset(["t", "s", "l"])), goal))


def test_org_capability_false_with_empty_capability_maps():
    doc = {
        "facts": ["p"],
        "agents": ["a"],
        "roles": ["r"],
        "worlds": [{"id": "w0", "facts": []}, {"id": "w1", "facts": ["p"]}],
        "transitions": [
            {"from": "w0", "to": "w1", "labels": []},
            {"from": "w1", "to": "w1", "labels": []},
        ],
        "orgs": [{"id": "O", "members": ["a"], "roles": ["r"], "rea": [["a", "r"]], "dep": []}],
    }
    ev = Evaluator(load_model(json.dumps(doc)))
    assert not O.org_capability(ev, "w0", "O", F.Atom("p"))


def test_org_capability_lost_without_buyer_and_handover(gas0):
    # Removing the trader and the director's handover atom removes every
    # controlled combination pinning the completion world.
    doc = fixture_doc("gas0")
    doc["agents"] = ["m", "s", "l"]
    doc["capabilities"]["c"].pop("t")
    doc["capabilities"]["c"]["m"]["default"] = [
        a for a in doc["capabilities"]["c"]["m"]["default"]
        if a.get("incharge", {}).get("role") != "trader"
    ]
    org = doc["orgs"][0]
    org["members"] = ["m", "s", "l"]
    org["rea"] = [p for p in org["rea"] if p[0] != "t"]
    doc["transitions"] = [
        {**t, "labels": [lab for lab in t["labels"] if lab["agent"] != "t"]}
        for t in doc["transitions"]
    ]
    m = load_doc(doc)
    ev = Evaluator(m)
    assert not O.org_capability(ev, "g1", "Ogas", F.Atom("buy_gas"))


# -- quality checks -------------------------------------------------------------


def test_gas0_passes_all_quality_checks(gas0):
    verdicts, labels = O.analyze(gas0, "Ogas")
    by_name = {v.prop: v for v in verdicts}
    for prop in (
        "structurally-well-defined",
        "well-defined",
        "successful",
        "good",
        "good-property",
        "delegation-closed",
    ):
        assert by_name[prop].holds, by_name[prop]
    assert labels == {"hierarchy", "flat-hierarchy"}


def test_gas0prime_network_but_not_efficient(gas0prime):
    verdicts, labels = O.analyze(gas0prime, "Ogas")
    by_name = {v.prop: v for v in verdicts}
    assert by_name["well-defined"].holds
    assert by_name["successful"].holds
    assert not by_name["efficient"].holds
    assert any("capability not known" in str(w) for w in by_name["efficient"].witnesses)
    assert labels == {"network", "fully-connected-network", "team"}


def test_structurally_well_defined_fails_without_monopolist_objective(gas0):
    doc = fixture_doc("gas0")
    doc["orgs"][0]["objectives"].pop("monopolist")
    # keep the trader handover so g5 still covers the desire there
    m = load_doc(doc)
    v = O.check_structurally_well_defined(m, "Ogas")
    assert not v.holds
    assert any(w[1] == "provide_gas" for w in v.witnesses)


def test_structurally_well_defined_vacuous_without_desires():
    m = load_fixture("fig1")
    assert O.check_structurally_well_defined(m, "Oa").holds


def test_well_defined_fails_when_monopolist_disappears(gas0):
    # The directing role vanishes before any restructuring: nobody is left
    # with the initiative for the organizational objective, and the state
    # in which gas is provided is never reached.
    doc = fixture_doc("gas0")
    doc["agents"] = ["t", "s", "l"]
    doc["capabilities"]["c"].pop("m")
    org = doc["orgs"][0]
    org["members"] = ["t", "s", "l"]
    org["rea"] = [p for p in org["rea"] if p[0] != "m"]
    org["objectives"]["trader"] = {"default": ["buy_gas"]}
    doc["transitions"] = [
        {**t, "labels": [lab for lab in t["labels"] if lab["agent"] != "m"]}
        for t in doc["transitions"]
    ]
    doc["worlds"][4]["facts"] = ["local_flow", "transport_gas", "buy_gas"]
    m = load_doc(doc)
    pool = O.default_pool(m, "Ogas")
    v = O.check_well_defined(m, "Ogas", pool)
    assert not v.holds


def test_well_defined_vacuous_without_desires():
    m = load_fixture("supervision")
    pool = O.default_pool(m, "Oproj")
    assert O.check_well_defined(m, "Oproj", pool).holds


def test_successful_fails_on_capability_conjunct(gas0):
    doc = fixture_doc("gas0")
    doc["capabilities"]["c"]["t"]["default"] = [
        a
        for a in doc["capabilities"]["c"]["t"]["default"]
        if a != "buy_gas" and not (
            isinstance(a, dict) and a["incharge"]["fact"] == "provide_gas"
        )
    ]
    doc["capabilities"]["c"]["m"]["default"] = [
        a for a in doc["capabilities"]["c"]["m"]["default"]
        if a.get("incharge", {}).get("role") != "trader"
    ]
    m = load_doc(doc)
    pool = O.default_pool(m, "Ogas")
    v = O.check_successful(m, "Ogas", pool)
    assert not v.holds
    assert any("no group capability" in str(w) for w in v.witnesses)


def test_successful_vacuous_on_desire_free_org():
    m = load_fixture("interfere")
    pool = O.default_pool(m, "Oi")
    assert O.check_successful(m, "Oi", pool).holds


def test_good_fails_without_dependency_edges(gas0):
    # Cut the chain of delegation and relocate the achieved state so the
    # in-charge roles are no longer themselves capable: the initiative
    # holders have no dependent group to hand the goal to.
    doc = fixture_doc("gas0")
    doc["orgs"][0]["dep"] = []
    doc["worlds"][4]["facts"] = ["local_flow", "transport_gas", "buy_gas"]
    doc["worlds"][2]["facts"] = ["local_flow", "provide_gas"]
    m = load_doc(doc)
    pool = O.default_pool(m, "Ogas")
    v = O.check_good(m, "Ogas", pool)
    assert not v.holds
    assert any("monopolist" in str(w) for w in v.witnesses)


def test_good_vacuous_when_no_initiative():
    m = load_fixture("interfere")
    pool = O.default_pool(m, "Oi")
    assert O.check_good(m, "Oi", pool).holds


def test_good_property_holds_on_gas0(gas0):
    pool = O.default_pool(gas0, "Ogas")
    assert O.check_good_property(gas0, "Ogas", pool).holds


def test_good_property_fails_when_influence_lost_forever():
    # The boss hands the goal over and then nobody ever attempts it; the
    # goal state occurring by accident does not count as an attempt.
    doc = {
        "facts": ["goal"],
        "agents": ["a"],
        "roles": ["boss", "helper"],
        "worlds": [
            {"id": "x0", "facts": []},
            {"id": "x1", "facts": []},
            {"id": "x2", "facts": ["goal"]},
            {"id": "xd", "facts": []},
        ],
        "transitions": [
            {"from": "x0", "to": "x1", "labels": [["a", "boss"]]},
            {"from": "x1", "to": "x2", "labels": []},
            {"from": "x2", "to": "x2", "labels": []},
            {"from": "xd", "to": "xd", "labels": []},
        ],
        "capabilities": {
            "c": {"a": {"default": [
                {"incharge": {"org": "O", "role": "helper", "fact": "goal"}}
            ]}}
        },
        "orgs": [
            {
                "id": "O",
                "members": ["a"],
                "roles": ["boss", "helper"],
                "rea": [["a", "boss"]],
                "dep": [["boss", "helper"]],
                "desires": [],
                "objectives": {"helper": {"default": ["goal"], "at": {"x0": [], "xd": []}}},
            }
        ],
    }
    m = load_doc(doc)
    ev = Evaluator(m)
    assert ev.eval("x0", F.Initiative(frozenset(["boss"]), F.Atom("goal")))
    v = O.check_good_property(m, "O", [F.Atom("goal")])
    assert not v.holds


def test_delegation_closed_on_gas0(gas0):
    assert O.check_delegation_closed(gas0, "Ogas").holds


def test_delegation_closed_reflexive_only_with_self_atoms():
    doc = {
        "facts": ["f"],
        "agents": ["a"],
        "roles": ["r"],
        "worlds": [{"id": "w", "facts": ["f"]}],
        "transitions": [{"from": "w", "to": "w", "labels": []}],
        "capabilities": {
            "c": {"a": {"default": [{"incharge": {"org": "O", "role": "r", "fact": "f"}}]}}
        },
        "orgs": [
            {"id": "O", "members": ["a"], "roles": ["r"], "rea": [["a", "r"]],
             "dep": [], "objectives": {"r": {"default": ["f"]}}}
        ],
    }
    assert O.check_delegation_closed(load_doc(doc), "O").holds


def test_delegation_closed_fails_without_directors_atoms(gas0):
    doc = fixture_doc("gas0")
    doc["capabilities"]["c"]["m"]["default"] = []
    m = load_doc(doc)
    v = O.check_delegation_closed(m, "Ogas")
    assert not v.holds
    assert any(w[1] == "m" for w in v.witnesses)


def test_efficient_fails_on_gas0prime_for_lack_of_knowledge(gas0prime):
    pool = O.default_pool(gas0prime, "Ogas")
    v = O.check_efficient(gas0prime, "Ogas", pool)
    assert not v.holds
    assert all(w[3] == "capability not known" for w in v.witnesses)


def test_efficient_vacuous_with_empty_knowledge_and_no_triggers():
    m = load_fixture("fig1")
    pool = O.default_pool(m, "Oa")
    assert O.check_efficient(m, "Oa", pool).holds


def test_efficient_holds_with_knowledge_and_delegation_stit():
    # Delegation pattern: a (playing r) cannot achieve the goal, b
    # (playing q, below r) can, the capability is organizational
    # knowledge, and a sees to it that q is put in charge everywhere the
    # duty arises.
    cap_fact = O.cap_knowledge_fact("b", "q", "goal")
    doc = {
        "facts": ["goal", cap_fact],
        "agents": ["a", "b"],
        "roles": ["r", "q"],
        "worlds": [
            {"id": "y0", "facts": [cap_fact]},
            {"id": "y1", "facts": [cap_fact]},
            {"id": "y2", "facts": ["goal", cap_fact]},
            {"id": "yd", "facts": [cap_fact]},
        ],
        "transitions": [
            {"from": "y0", "to": "y1", "labels": [["a", "r"]]},
            {"from": "y1", "to": "y2", "labels": [["a", "r"], ["b", "q"]]},
            {"from": "y2", "to": "y2", "labels": [["a", "r"], ["b", "q"]]},
            {"from": "yd", "to": "yd", "labels": []},
        ],
        "capabilities": {
            "c": {
                "a": {"default": [{"incharge": {"org": "O", "role": "q", "fact": "goal"}}]},
                "b": {"default": ["goal"]},
            }
        },
        "orgs": [
            {
                "id": "O",
                "members": ["a", "b"],
                "roles": ["r", "q"],
                "rea": [["a", "r"], ["b", "q"]],
                "dep": [["r", "q"]],
                "desires": [],
                "objectives": {"q": {"default": ["goal"], "at": {"y0": [], "yd": []}}},
                "knowPlus": [cap_fact],
            }
        ],
    }
    m = load_doc(doc)
    v = O.check_efficient(m, "O", [F.Atom("goal")])
    assert v.holds
    # and non-vacuously: the duty does arise
    ev = Evaluator(m)
    assert ev.eval("y0", F.Initiative(frozenset(["r"]), F.Atom("goal")))
    assert not ev.eval("y0", F.Cap(F.ReaSingle("a", "r"), F.Atom("goal")))


# -- supervising duty -----------------------------------------------------------


def test_supervising_duty_on_project_fixture():
    m = load_fixture("supervision")
    goal = parse("module_done")
    assert O.eval_supervising_duty(
        m, "v0", "Oproj", ["leader"], ["bob"], ["programmer"], goal
    )
    # non-vacuously: the delegated attempt does fail along the run
    ev = Evaluator(m)
    attempt = F.Attempt(F.ReaGroup(frozenset(["bob"]), frozenset(["programmer"])), goal)
    assert ev.eval("v0", F.AF(F.And(attempt, F.AX(F.AX(F.Not(goal))))))


def test_supervising_duty_vacuous_when_no_failure():
    m = load_fixture("supervision")
    goal = parse("module_done")
    ev = Evaluator(m)
    attempt = F.Attempt(F.ReaGroup(frozenset(["bob"]), frozenset(["programmer"])), goal)
    assert not ev.eval("v4", F.AF(F.And(attempt, F.AX(F.AX(F.Not(goal))))))
    assert O.eval_supervising_duty(
        m, "v4", "Oproj", ["leader"], ["bob"], ["programmer"], goal
    )


def test_supervising_duty_fails_if_leader_never_retakes():
    doc = fixture_doc("supervision")
    for t in doc["transitions"]:
        if t["from"] in ("v3", "v4"):
            t["labels"] = []
    m = load_doc(doc)
    assert not O.eval_supervising_duty(
        m, "v0", "Oproj", ["leader"], ["bob"], ["programmer"], parse("module_done")
    )


# -- classification --------------------------------------------------------------


def test_degenerate_single_role_org_collapses_all_classes():
    doc = {
        "facts": ["f"],
        "agents": ["a"],
        "roles": ["r"],
        "worlds": [{"id": "w", "facts": ["f"]}],
        "transitions": [{"from": "w", "to": "w", "labels": []}],
        "orgs": [
            {"id": "O", "members": ["a"], "roles": ["r"], "rea": [["a", "r"]],
             "dep": [], "desires": ["f"], "objectives": {"r": {"default": ["f"]}}}
        ],
    }
    m = load_doc(doc)
    assert O.classify_structure(m, "O") == {
        "hierarchy",
        "flat-hierarchy",
        "network",
        "fully-connected-network",
        "team",
    }


def test_classification_invariant_under_renaming(gas0):
    doc = fixture_doc("gas0")
    agent_map = {"m": "x1", "t": "x2", "s": "x3", "l": "x4"}
    role_map = {
        "monopolist": "alpha",
        "trader": "beta",
        "shipper": "gamma",
        "local_transport": "delta",
    }
    text = json.dumps(doc)
    import re

    def rename(text, mapping):
        for old, new in mapping.items():
            text = re.sub(rf'"{old}"', f'"{new}"', text)
        return text

    text = rename(text, role_map)
    text = rename(text, agent_map)
    renamed = load_model(text)
    assert O.classify_structure(renamed, "Ogas") == O.classify_structure(gas0, "Ogas")


def test_structural_and_semantic_well_definedness_agree_on_direct_attempt_corpus():
    # When every role's enactor attempts its objectives right away, the
    # structural inclusion check and the initiative-based check coincide.
    def build(desires, objectives):
        # The enactor achieves exactly its objective facts, so attempts
        # track charges one for one.
        return load_doc(
            {
                "facts": ["f", "g"],
                "agents": ["a"],
                "roles": ["r"],
                "worlds": [
                    {"id": "h0", "facts": []},
                    {"id": "h1", "facts": objectives},
                ],
                "transitions": [
                    {"from": "h0", "to": "h1", "labels": [["a", "r"]]},
                    {"from": "h1", "to": "h1", "labels": [["a", "r"]]},
                ],
                "capabilities": {"c": {"a": {"default": ["f", "g"]}}},
                "orgs": [
                    {"id": "O", "members": ["a"], "roles": ["r"], "rea": [["a", "r"]],
                     "dep": [], "desires": desires,
                     "objectives": {"r": {"default": objectives}}}
                ],
            }
        )

    for desires, objectives in [
        (["f"], ["f"]),
        (["f", "g"], ["f", "g"]),
        (["f"], []),
        (["f", "g"], ["f"]),
    ]:
        m = build(desires, objectives)
        pool = O.default_pool(m, "O")
        structural = O.check_structurally_well_defined(m, "O").holds
        semantic = O.check_well_defined(m, "O", pool).holds
        assert structural == semantic, (desires, objectives)


def test_verdicts_deterministic(gas0prime):
    a = O.analyze(gas0prime, "Ogas")
    b = O.analyze(gas0prime, "Ogas")
    assert [(v.prop, v.holds, v.witnesses) for v in a[0]] == [
        (v.prop, v.holds, v.witnesses) for v in b[0]
    ]
    assert a[1] == b[1]


def test_successful_implies_well_defined_on_corpus():
    from lao.verify import GenParams, generate_model

    models = [
        (load_fixture("gas0"), "Ogas"),
        (load_fixture("gas0prime"), "Ogas"),
        (load_fixture("fig1"), "Oa"),
    ]
    for m, oid in models:
        pool = O.default_pool(m, oid)
        if O.check_successful(m, oid, pool).holds:
            assert O.check_well_defined(m, oid, pool).holds


def test_load_pool_parses_formula_strings():
    pool = O.load_pool('["provide_gas", "buy_gas & transport_gas"]')
    assert pool[0] == F.Atom("provide_gas")
    assert isinstance(pool[1], F.And)

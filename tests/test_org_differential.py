"""The organization layer against the enumerating reference in conftest:
seeded random organizations and the benchmark's synthetic shape."""

import itertools

import pytest

from lao import formula as F
from lao import org as O
from lao.semantics import Evaluator

from conftest import (
    EnumeratingEvaluator,
    analyze_by_enumeration,
    check_good_by_enumeration,
    load_doc,
    random_org_doc,
)


def _role_groups(model):
    roles = sorted(model.roles)
    return [
        frozenset(z) for k in range(1, len(roles) + 1) for z in itertools.combinations(roles, k)
    ]


@pytest.mark.parametrize("first", range(0, 200, 50))
def test_random_organizations_match_enumeration(first):
    for seed in range(first, first + 50):
        m = load_doc(random_org_doc(seed))
        ev, ref = Evaluator(m), EnumeratingEvaluator(m)
        for oid in sorted(m.orgs):
            got = O.analyze(m, oid, ev=ev)
            assert got == analyze_by_enumeration(m, oid, ev=ref), (seed, oid)
        goals = O.default_pool(m, "O") + [
            F.Not(F.Atom("f0")),
            F.Or(F.Atom("f0"), F.Atom("f1")),
        ]
        for z in _role_groups(m):
            for goal in goals:
                f = F.Initiative(z, goal)
                assert ev.sat(f) == ref.sat(f), (seed, sorted(z), F.fprint(goal))


def synthetic_org_doc(roles_n, desired):
    """The benchmark's synthetic organization: three worlds, one enactor
    per role, a manager role in charge of the desired facts and above
    every other role, and one goal fact per role."""
    facts = [f"f{i}" for i in range(roles_n)]
    agents = [f"a{i}" for i in range(roles_n)]
    roles = [f"r{i}" for i in range(roles_n)]
    rea = [[a, r] for a, r in zip(agents, roles)]
    caps = {
        agents[i]: {"default": [facts[i]] + [
            {"incharge": {"org": "O", "role": r, "fact": f}}
            for f in sorted({facts[i], *(facts[:desired] if i == 0 else ())})
            for r in roles
        ]}
        for i in range(roles_n)
    }
    return {
        "facts": facts,
        "agents": agents,
        "roles": roles,
        "worlds": [{"id": "s0", "facts": []},
                   {"id": "s1", "facts": facts[: roles_n // 2]},
                   {"id": "s2", "facts": facts}],
        "transitions": [{"from": a, "to": b, "labels": rea}
                        for a, b in (("s0", "s1"), ("s1", "s2"), ("s2", "s2"))],
        "capabilities": {"c": caps},
        "orgs": [{
            "id": "O", "members": agents, "roles": roles, "rea": rea,
            "dep": [[roles[0], r] for r in roles[1:]],
            "desires": facts[:desired],
            "objectives": {roles[0]: facts[:desired],
                           **{roles[i]: [facts[i]] for i in range(1, roles_n)}},
        }],
    }


def test_synthetic_six_role_organization_matches_enumeration():
    m = load_doc(synthetic_org_doc(6, 2))
    verdicts, labels = O.analyze(m, "O")
    assert (verdicts, labels) == analyze_by_enumeration(m, "O")
    assert labels == {"hierarchy", "flat-hierarchy"}
    assert not {v.prop for v in verdicts if not v.holds} - {"successful"}


def test_check_good_asks_initiative_only_of_groups_whose_target_fails():
    m = load_doc(synthetic_org_doc(10, 2))
    ev = Evaluator(m)
    assert O.check_good(m, "O", O.default_pool(m, "O"), ev).holds
    # Asking every one of the 1023 role groups at every capable world
    # leaves 11253 initiative sets in the memo.
    assert sum(isinstance(f, F.Initiative) for f in ev._sat) <= 100


# The only seeds of the 200 above whose `good` witnesses include a
# two-role group: {r1,r2}, {r0,r1} and {r1,r2}.
@pytest.mark.parametrize("seed", [151, 167, 199])
def test_check_good_finds_multi_role_witnesses(seed):
    m = load_doc(random_org_doc(seed))
    groups = set()
    for oid in sorted(m.orgs):
        pool = O.default_pool(m, oid)
        got = O.check_good(m, oid, pool, Evaluator(m))
        assert got == check_good_by_enumeration(m, oid, pool, EnumeratingEvaluator(m)), oid
        groups |= {w[2] for w in got.witnesses}
    assert any("," in z for z in groups)

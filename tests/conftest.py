"""Shared test helpers: brute-force oracles and model/formula builders."""

import itertools
import json
import random

import pytest

from lao import formula as F
from lao import load_model
from lao.fixtures import fixture_text


def sigma_brute_force(ev, atoms, target):
    """Literal enumeration of all partial assignments over the atoms.

    The engine groups worlds by atom profile instead; this oracle stays
    with the definition: some assignment (at least one atom set) is
    realized by a world and every world realizing it hits the target.
    """
    atoms = sorted(atoms, key=repr)
    for values in itertools.product((True, False, None), repeat=len(atoms)):
        if all(v is None for v in values):
            continue
        sat = [
            w
            for w in ev.worlds
            if all(
                (w in ev.atom_worlds(a)) == v
                for a, v in zip(atoms, values)
                if v is not None
            )
        ]
        if sat and all(w in target for w in sat):
            return True
    return False


def lfp(step):
    """Least fixpoint by rounds from the empty set."""
    z = frozenset()
    while True:
        nxt = step(z)
        if nxt == z:
            return z
        z = nxt


def gfp(step, top):
    """Greatest fixpoint by rounds from `top`."""
    z = top
    while True:
        nxt = step(z)
        if nxt == z:
            return z
        z = nxt


def temporal_by_rounds(ev, f):
    """Satisfying set of a CTL operator at the root of `f`, by the textbook
    fixpoint equations iterated to stability.

    Each round re-scans every world, so this is quadratic on a chain; the
    engine's worklist algorithms must give the same sets.  Operands are
    taken from `ev.sat`, so only the root operator is checked.
    """
    succ = ev.m.succ
    W = ev.world_set

    def ax(s):
        return frozenset(w for w in W if succ[w] <= s)

    def ex(s):
        return frozenset(w for w in W if succ[w] & s)

    if isinstance(f, (F.AU, F.EU)):
        left, right = ev.sat(f.left), ev.sat(f.right)
        nxt = ax if isinstance(f, F.AU) else ex
        return lfp(lambda z: right | (left & nxt(z)))
    s = ev.sat(f.sub)
    if isinstance(f, F.AX):
        return ax(s)
    if isinstance(f, F.EX):
        return ex(s)
    if isinstance(f, F.AF):
        return lfp(lambda z: s | ax(z))
    if isinstance(f, F.EF):
        return lfp(lambda z: s | ex(z))
    if isinstance(f, F.AG):
        return gfp(lambda z: s & ax(z), W)
    if isinstance(f, F.EG):
        return gfp(lambda z: s & ex(z), W)
    raise TypeError(f"not a CTL operator: {f!r}")


def fixture_doc(name):
    """Fixture JSON as a mutable dict, for building mutated variants."""
    return json.loads(fixture_text(name))


def load_doc(doc):
    return load_model(json.dumps(doc))


_IDENTS = ["p", "q", "zeta", "fact_1", "long-name", "x9"]
_AGENTS = ["a", "b", "carol"]
_ROLES = ["r", "worker", "lead"]
_ORGS = ["O", "Acme"]


def random_ast(rng, depth=4):
    """Arbitrary well-formed formula AST for parser round-trip fuzzing."""
    if depth <= 0:
        return rng.choice(
            [
                F.TrueF(),
                F.FalseF(),
                F.Atom(rng.choice(_IDENTS)),
                F.Atom(rng.choice(_IDENTS)),
            ]
        )

    def sub():
        return random_ast(rng, depth - 1)

    def holder():
        kind = rng.randrange(4)
        if kind == 0:
            return F.SingleAgent(rng.choice(_AGENTS))
        if kind == 1:
            return F.AgentGroup(frozenset(rng.sample(_AGENTS, rng.randint(1, 3))))
        if kind == 2:
            return F.ReaSingle(rng.choice(_AGENTS), rng.choice(_ROLES))
        return F.ReaGroup(
            frozenset(rng.sample(_AGENTS, rng.randint(1, 2))),
            frozenset(rng.sample(_ROLES, rng.randint(1, 2))),
        )

    def positive_conj():
        parts = [F.Atom(rng.choice(_IDENTS)) for _ in range(rng.randint(1, 3))]
        return F.conjoin(parts)

    def literal_conj():
        parts = []
        for _ in range(rng.randint(1, 3)):
            atom = F.Atom(rng.choice(_IDENTS))
            parts.append(F.Not(atom) if rng.random() < 0.4 else atom)
        return F.conjoin(parts)

    choices = [
        lambda: F.Not(sub()),
        lambda: F.And(sub(), sub()),
        lambda: F.Or(sub(), sub()),
        lambda: F.Implies(sub(), sub()),
        lambda: F.Iff(sub(), sub()),
        lambda: F.AX(sub()),
        lambda: F.EX(sub()),
        lambda: F.AF(sub()),
        lambda: F.EF(sub()),
        lambda: F.AG(sub()),
        lambda: F.EG(sub()),
        lambda: F.AU(sub(), sub()),
        lambda: F.EU(sub(), sub()),
        lambda: F.Cap(holder(), sub()),
        lambda: F.JointCap(
            F.AgentGroup(frozenset(rng.sample(_AGENTS, rng.randint(1, 3)))), sub()
        ),
        lambda: F.Ability(holder(), sub()),
        lambda: F.Attempt(holder(), sub()),
        lambda: F.Stit(holder(), sub()),
        lambda: F.InControl(holder()),
        lambda: F.Initiative(frozenset(rng.sample(_ROLES, rng.randint(1, 2))), sub()),
        lambda: F.Member(rng.choice(_AGENTS), rng.choice(_ORGS)),
        lambda: F.RoleOf(rng.choice(_ROLES), rng.choice(_ORGS)),
        lambda: F.Play(rng.choice(_AGENTS), rng.choice(_ROLES), rng.choice(_ORGS)),
        lambda: F.Dep(
            rng.choice(_ORGS),
            frozenset(rng.sample(_ROLES, rng.randint(1, 2))),
            frozenset(rng.sample(_ROLES, rng.randint(1, 2))),
        ),
        lambda: F.Know(rng.choice(_ORGS), literal_conj()),
        lambda: F.InCharge(rng.choice(_ORGS), rng.choice(_ROLES), positive_conj()),
        lambda: F.Desire(rng.choice(_ORGS), positive_conj()),
    ]
    return rng.choice(choices)()


@pytest.fixture
def rng():
    return random.Random(20240817)

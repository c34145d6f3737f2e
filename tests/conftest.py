"""Shared test helpers: brute-force oracles and model/formula builders."""

import itertools
import json
import random

import pytest

from lao import formula as F
from lao import load_model
from lao import org as O
from lao.fixtures import fixture_text
from lao.semantics import Evaluator, nonempty_subsets


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


class EnumeratingEvaluator(Evaluator):
    """Agency by its definitions, holder by holder, and initiative by
    listing every enactor set and every in-charge role set at each world.

    This is how the engine computed them before agency was memoized on
    what it reads and initiative on distinct questions; organization
    checks run on it are the reference the engine is compared with.
    """

    def __init__(self, model):
        super().__init__(model)
        self.entails = {}
        self.atoms = {}

    def controlled_atoms(self, world, holder):
        key = (world, holder)
        if key not in self.atoms:
            self.atoms[key] = super().controlled_atoms(world, holder)
        return self.atoms[key]

    def cap_by_definition(self, holder, target):
        """Cap, world by world: some other world falsifies the goal and
        the holder's control atoms there support it."""
        out = []
        for w in self.worlds:
            if not any(v != w and v not in target for v in self.worlds):
                continue
            key = (self.controlled_atoms(w, holder), target)
            if key not in self.entails:
                self.entails[key] = self.sigma_entails(*key)
            if self.entails[key]:
                out.append(w)
        return frozenset(out)

    def _compute(self, f):
        if isinstance(f, (F.Cap, F.Ability, F.Attempt)):
            sub = self.sat(f.sub)
            out = self.cap_by_definition(f.holder, sub)
            if isinstance(f, F.Cap):
                return out
            dsts = {w: [t.dst for t in self.influence(w, f.holder)] for w in out}
            out = frozenset(w for w in out if any(d in sub for d in dsts[w]))
            if isinstance(f, F.Ability):
                return out
            return frozenset(w for w in out if all(d in sub for d in dsts[w]))
        if isinstance(f, F.Initiative):
            return initiative_by_enumeration(self, f.roles, f.sub)
        return super()._compute(f)


def initiative_by_enumeration(ev, roles, sub):
    """Initiative at each world: some enactor (one role) or enactor set
    (a role group) eventually attempts the goal or attempts putting a
    role (a role set, for a group) of the organization there in charge
    of it.  The eventuality is the AF fixpoint by rounds."""
    positive = F.is_positive_conjunction(sub)

    def ax(s):
        return frozenset(w for w in ev.worlds if ev.m.succ[w] <= s)

    def holds_at(org, w):
        roles_here = org.roles.get(w, frozenset())
        rea_here = org.rea.get(w, frozenset())
        if not roles <= roles_here:
            return False
        if len(roles) == 1:
            (r,) = roles
            holders = [F.ReaSingle(a, r) for a in sorted(a for (a, q) in rea_here if q == r)]
            charges = [(q,) for q in sorted(roles_here)]
        else:
            eligible = sorted({a for (a, q) in rea_here if q in roles})
            holders = [F.ReaGroup(frozenset(c), roles) for c in nonempty_subsets(eligible)]
            charges = list(nonempty_subsets(sorted(roles_here)))
        bodies = [sub]
        if positive:
            bodies += [F.conjoin([F.InCharge(org.id, q, sub) for q in z]) for z in charges]
        for h in holders:
            attempts = frozenset().union(*(ev.sat(F.Attempt(h, b)) for b in bodies))
            if w in lfp(lambda z: attempts | ax(z)):
                return True
        return False

    return frozenset(
        w for w in ev.worlds if any(holds_at(org, w) for org in ev.m.orgs.values())
    )


def check_good_by_enumeration(model, org_id, pool, ev):
    """`good` trying every role set U below Z as the delegation target."""
    org = model.orgs[org_id]
    witnesses = []
    for goal in pool:
        if not F.is_positive_conjunction(goal):
            continue
        for w in model.world_ids:
            if not O.org_capability(ev, w, org_id, goal):
                continue
            roles_here = sorted(org.roles.get(w, frozenset()))
            rea_here = org.rea.get(w, frozenset())
            dep_here = org.dep.get(w, frozenset())
            for z in nonempty_subsets(roles_here):
                if not ev.eval(w, F.Initiative(frozenset(z), goal)):
                    continue
                ok = False
                for u in nonempty_subsets(roles_here):
                    if not all(any((r, q) in dep_here for r in z) for q in u):
                        continue
                    v = frozenset(a for (a, r) in rea_here if r in u)
                    if v and ev.eval(w, F.Cap(F.ReaGroup(v, frozenset(u)), goal)):
                        ok = True
                        break
                if not ok:
                    witnesses.append((w, F.fprint(goal), "{" + ",".join(z) + "}"))
    witnesses = tuple(sorted(set(witnesses)))
    return O.OrgVerdict(org_id, "good", not witnesses, witnesses)


def analyze_by_enumeration(model, org_id, pool=None, ev=None):
    """`analyze` with every check on an EnumeratingEvaluator and `good`
    by `check_good_by_enumeration`."""
    ev = ev or EnumeratingEvaluator(model)
    pool = pool if pool is not None else O.default_pool(model, org_id)
    verdicts, labels = O.analyze(model, org_id, pool, ev)
    verdicts = [
        check_good_by_enumeration(model, org_id, pool, ev) if v.prop == "good" else v
        for v in verdicts
    ]
    return verdicts, labels


def random_org_doc(seed):
    """A small organization model with non-vacuous organizational content.

    2-4 roles with one to three enactors each; roles, enactors,
    dependencies, desires and objectives vary by world; dependencies give
    roles several managers; agents hold plain and in-charge control atoms,
    some role-specific; some capabilities are organizational knowledge;
    about a third of the models add a second organization.
    """
    rng = random.Random(seed)
    roles = [f"r{i}" for i in range(rng.choice((2, 2, 3, 3, 4)))]
    agents = [f"a{i}" for i in range(rng.randint(2, 4))]
    base = [f"f{i}" for i in range(rng.randint(2, 3))]
    worlds = [f"w{i}" for i in range(rng.randint(3, 4))]
    know = [O.cap_knowledge_fact(rng.choice(agents), rng.choice(roles), base[0])]
    facts = base + know

    def some(items, lo, hi):
        return sorted(rng.sample(items, rng.randint(lo, min(hi, len(items)))))

    def org(oid, org_roles):
        at = {w: some(org_roles, max(1, len(org_roles) - 1), len(org_roles)) for w in worlds}
        rea = {
            w: sorted([a, r] for r in at[w] for a in some(agents, 1, 3)) for w in worlds
        }
        dep = {
            w: sorted([p, q] for q in at[w] for p in at[w] if p != q and rng.random() < 0.45)
            for w in worlds
        }
        objectives = {
            r: {"default": some(base, 0, 2), "at": {w: some(base, 0, 2) for w in worlds if rng.random() < 0.4}}
            for r in org_roles
        }
        return {
            "id": oid,
            "members": {"at": {w: sorted({a for a, _r in rea[w]}) for w in worlds}},
            "roles": {"at": at},
            "rea": {"at": rea},
            "dep": {"at": dep},
            "desires": {"default": some(base, 1, 2), "at": {worlds[0]: some(base, 0, 2)}},
            "objectives": objectives,
            "knowPlus": {"at": {w: know for w in worlds if rng.random() < 0.5}},
        }

    orgs = [org("O", roles)]
    if rng.random() < 0.35:
        orgs.append(org("P", some(roles, 1, 2)))

    def atoms():
        out = some(base, 0, 2)
        for _ in range(rng.randint(0, 3)):
            out.append({"incharge": {"org": rng.choice(orgs)["id"], "role": rng.choice(roles),
                                     "fact": rng.choice(base)}})
        return out

    cr = {}
    for o in orgs:
        for w, pairs in o["rea"]["at"].items():
            for a, r in pairs:
                if rng.random() < 0.15 and f"{a}:{r}" not in cr:
                    cr[f"{a}:{r}"] = atoms()
    transitions = []
    for w in worlds:
        pairs = sorted({tuple(p) for o in orgs for p in o["rea"]["at"][w]})
        for v in rng.sample(worlds, rng.randint(1, 3)):
            labels = [list(p) for p in pairs if rng.random() < 0.5]
            transitions.append({"from": w, "to": v, "labels": labels})
    return {
        "facts": facts,
        "agents": agents,
        "roles": roles,
        "worlds": [{"id": w, "facts": some(facts, 0, len(facts))} for w in worlds],
        "transitions": transitions,
        "capabilities": {"c": {a: {"default": atoms()} for a in agents}, "cr": cr},
        "orgs": orgs,
    }


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

"""Random model generation, the axiom/theorem suite and the independent
lasso-path oracle for the temporal layer.

The suite instantiates every axiom and theorem schema over a pool of
literal conjunctions and reports, per schema id, instance counts and the
first counterexample bindings.  Schemas claimed sound by construction are
still executed; reported failures point at engine defects, not at the
logic.

The schemas are a table in `run_axiom_suite`, one row each: the schema id
(or the pair of ids of its agent and agent-in-role forms), a binder over
holders, roles, orgs or pairs of these, the pool items it ranges over
(single formulas, consistent or positive pairs, model-equivalent pairs)
and a test giving the satisfying sets of its antecedent and consequent.
Each operator formula is built and asked of the engine once; the boolean
glue between formulas is set algebra.  Each pool entry is printed once
per run, and bindings name it by that text.  The three schemas that are
checked world by world (A10, A26, A27) are loops after the table.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from . import formula as F
from .model import (
    InChargeAtom, Model, OrgStructure, Transition, World,
    reflexive_transitive_closure, validate_model,
)
from .semantics import Evaluator


@dataclass(frozen=True)
class GenParams:
    seed: int
    max_facts: int = 4
    max_agents: int = 3
    max_roles: int = 2
    max_worlds: int = 8
    max_out_degree: int = 3
    label_density: float = 0.6
    capability_density: float = 0.5

    def __post_init__(self):
        for name in ("max_facts", "max_agents", "max_roles", "max_worlds", "max_out_degree"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("label_density", "capability_density"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be within [0, 1]")


def generate_model(params):
    """Deterministic-in-seed random model satisfying every structural
    invariant by construction.

    Three structural guarantees keep the axiom suite meaningful on random
    models (the bundled fixtures carry the non-vacuous organizational
    content): every fact is true at two worlds and false at two worlds
    when the world budget allows, so falsifiability side conditions never
    degenerate; an agent's capability set is the whole fact vocabulary or
    empty, so controlled combinations always compose; and labeled
    transitions lead to all-facts completion worlds, so attempts compose
    under conjunction the way the axiomatization presumes.  Generated
    organizations carry empty desire and objective sets, leaving the
    in-charge frame schemas vacuous here.
    """
    rng = random.Random(params.seed)
    n_facts = rng.randint(1, params.max_facts)
    n_agents = rng.randint(1, params.max_agents)
    n_roles = rng.randint(1, params.max_roles)
    n_worlds = rng.randint(min(4, params.max_worlds), params.max_worlds)
    facts = [f"p{i}" for i in range(n_facts)]
    agents = [f"a{i}" for i in range(n_agents)]
    roles = [f"r{i}" for i in range(n_roles)]
    world_ids = [f"w{i}" for i in range(n_worlds)]

    completions = world_ids[: max(1, n_worlds // 4)]
    plain = world_ids[len(completions):]
    valuations = {w: set(facts) for w in completions}
    for w in plain:
        valuations[w] = {f for f in facts if rng.random() < 0.5}
    for f in facts:
        false_at = [w for w in plain if f not in valuations[w]]
        want = min(2, len(plain))
        while len(false_at) < want:
            pick = rng.choice([w for w in plain if w not in false_at])
            valuations[pick].discard(f)
            false_at.append(pick)
        true_at = [w for w in world_ids if f in valuations[w]]
        for _ in range(2 - len(true_at)):
            candidates = [w for w in plain if f not in valuations[w]]
            if len(candidates) <= want:
                break
            pick = rng.choice(candidates)
            valuations[pick].add(f)

    rea_pairs = set()
    for a in agents:
        rea_pairs.add((a, rng.choice(roles)))
        for r in roles:
            if rng.random() < 0.25:
                rea_pairs.add((a, r))

    played_by = {a: sorted(r for (x, r) in rea_pairs if x == a) for a in agents}

    transitions = []
    for w in world_ids:
        degree = rng.randint(1, params.max_out_degree)
        targets = rng.sample(world_ids, min(degree, n_worlds))
        for dst in targets:
            labels = set()
            if rng.random() < params.label_density:
                actors = [a for a in agents if played_by[a] and rng.random() < 0.7]
                if not actors:
                    candidates = [a for a in agents if played_by[a]]
                    if candidates:
                        actors = [rng.choice(candidates)]
                # Acting agents act in every role they play, so influence
                # through one role never outruns agent-level influence,
                # and acts land in a completion world.
                if actors:
                    dst = rng.choice(completions)
                for a in actors:
                    for r in played_by[a]:
                        labels.add((a, r))
            transitions.append(Transition(w, dst, frozenset(labels)))

    cap_c = {}
    all_facts = frozenset(facts)
    for a in agents:
        whole = rng.random() < params.capability_density
        per_world = {w: (all_facts if whole else frozenset()) for w in world_ids}
        cap_c[a] = per_world

    kp = {}
    km = {}
    for w in world_ids:
        kp[w] = frozenset(f for f in sorted(valuations[w]) if rng.random() < 0.3)
        km[w] = frozenset(
            f for f in facts if f not in valuations[w] and rng.random() < 0.3
        )

    dep_pairs = {(r, r) for r in roles}
    for r in roles:
        for q in roles:
            if rng.random() < 0.3:
                dep_pairs.add((r, q))
    closed = reflexive_transitive_closure(dep_pairs, roles)

    org = OrgStructure(
        id="org0",
        members={w: frozenset(agents) for w in world_ids},
        roles={w: frozenset(roles) for w in world_ids},
        rea={w: frozenset(rea_pairs) for w in world_ids},
        dep={w: closed for w in world_ids},
        desires={w: frozenset() for w in world_ids},
        objectives={w: {} for w in world_ids},
        know_plus=kp,
        know_minus=km,
    )

    model = Model(
        facts=frozenset(facts),
        agents=frozenset(agents),
        roles=frozenset(roles),
        worlds=tuple(World(w, frozenset(valuations[w])) for w in world_ids),
        transitions=transitions,
        cap_c=cap_c,
        cap_cn={r: {w: frozenset() for w in world_ids} for r in roles},
        cap_cr={},
        orgs={"org0": org},
        totality="self-loop",
    )
    violations = validate_model(model)
    if violations:
        raise AssertionError(f"generator produced an invalid model: {violations[:3]}")
    return model


# ---------------------------------------------------------------------------
# Suite pools


def literal_pool(model, max_size=2):
    """All positive/negative literal conjunctions up to `max_size`."""
    facts = sorted(model.facts)
    literals = [F.Atom(f) for f in facts] + [F.Not(F.Atom(f)) for f in facts]
    pool = list(literals)
    if max_size >= 2:
        for f1, f2 in itertools.combinations(facts, 2):
            for s1 in (True, False):
                for s2 in (True, False):
                    left = F.Atom(f1) if s1 else F.Not(F.Atom(f1))
                    right = F.Atom(f2) if s2 else F.Not(F.Atom(f2))
                    pool.append(F.And(left, right))
    return pool


def _consistent_pair(f, g):
    lits = {}
    for name, pos in F.conjunct_literals(f) + F.conjunct_literals(g):
        if lits.setdefault(name, pos) != pos:
            return False
    return True


def _negate(f):
    return f.sub if isinstance(f, F.Not) else F.Not(f)


# ---------------------------------------------------------------------------
# Suite report


@dataclass
class SchemaResult:
    schema: str
    instances: int = 0
    failures: list = field(default_factory=list)  # (world, bindings) tuples

    @property
    def passed(self):
        return not self.failures

    def check(self, condition, world, bindings):
        self.instances += 1
        if not condition and len(self.failures) < 5:
            self.failures.append((world, bindings))


@dataclass
class SuiteReport:
    model_digest: str
    seed: int = None
    results: dict = field(default_factory=dict)  # schema id -> SchemaResult

    @property
    def passed(self):
        return all(r.passed for r in self.results.values())

    def failing(self):
        return sorted(s for s, r in self.results.items() if not r.passed)


SCHEMA_IDS = (
    [f"A{i}" for i in range(1, 28)]
    + [f"T{i}" for i in range(1, 25)]
    + [f"R{i}" for i in range(1, 10)]
)


def run_axiom_suite(model, pool=None, seed=None):
    """Instantiate all 51 axiom/theorem schemas plus the 9 congruence
    rules over the pool, the model's agents, roles, orgs and worlds.

    Pool entries must be conjunctions of literals; any other entry raises
    ValueError before anything is evaluated.
    """
    pool = pool if pool is not None else literal_pool(model)
    # Bindings show each pool entry as printed here, once per run.
    text = {f: F.fprint(f) for f in pool}
    for i, f in enumerate(pool):
        if not F.is_literal_conjunction(f):
            raise ValueError(f"pool entry {i} is not a literal conjunction: {text[f]}")
    ev = Evaluator(model)
    report = SuiteReport(model_digest=model.digest(), seed=seed)
    res = report.results = {s: SchemaResult(s) for s in SCHEMA_IDS}
    W, none = ev.world_set, frozenset()
    memo = {}

    def sat(*key):
        """Satisfying set of key[0](*key[1:]), built and asked once."""
        got = memo.get(key)
        if got is None:
            got = memo[key] = ev.sat(key[0](*key[1:]))
        return got

    agents, roles, orgs = sorted(model.agents), sorted(model.roles), sorted(model.orgs)
    pairs = [(a, r) for a in agents for r in roles]
    agent_h = {a: F.SingleAgent(a) for a in agents}
    rea_h = {p: F.ReaSingle(*p) for p in pairs}
    role_set = {r: frozenset([r]) for r in roles}

    # Binders: (kind, bound names, test arguments); kind picks the row's id
    # for an agent (0) or an agent in a role (1).
    holders = [(0, (a,), (agent_h[a],)) for a in agents] + [(1, p, (rea_h[p],)) for p in pairs]
    by_role = [(0, (r,), (role_set[r],)) for r in roles]
    by_org = [(0, (o,), (o,)) for o in orgs]
    by_org_role = [(0, (o, r), (o, r)) for o in orgs for r in roles]
    by_pair = [(0, p, (agent_h[p[0]], rea_h[p], role_set[p[1]])) for p in pairs]
    by_pair_org = [(0, p + (o,), (agent_h[p[0]], rea_h[p], p + (o,))) for p in pairs for o in orgs]
    by_holder_agent = [(k, n + (b,), (h, agent_h[b])) for k, n, (h,) in holders for b in agents]
    by_pair_pair = [(0, p + q, (rea_h[p], rea_h[q])) for p in pairs for q in pairs]
    # The congruence rules bind no names and try two holders of each kind.
    few = [(0, (), (agent_h[a],)) for a in agents[:2]] + [(1, (), (rea_h[p],)) for p in pairs[:2]]
    few_roles = [(0, (), (role_set[r],)) for r in roles[:2]]

    # Pool items: (bound formulas, test arguments).
    once = [((), ())]
    tautology = [((), (F.TrueF(),))]
    singles = [((f,), (f,)) for f in pool]
    positive_singles = [((f,), (f,)) for f in pool if F.is_positive_conjunction(f)]
    negated = [((f,), (f, _negate(f))) for f in pool]
    consistent = [
        ((f, g), (f, g, F.And(f, g)))
        for f, g in itertools.combinations_with_replacement(pool, 2) if _consistent_pair(f, g)
    ]
    positive = [(fg, args) for fg, args in consistent if all(map(F.is_positive_conjunction, fg))]
    equal = [
        ((f, g), (f, g))
        for f, g in itertools.combinations(pool, 2) if ev.sat(f) == ev.sat(g)
    ][:20]

    def closed(op):
        return lambda f, g, fg, *x: (sat(op, *x, f) & sat(op, *x, g), sat(op, *x, fg))

    def implies(op1, op2):
        return lambda f, h: (sat(op1, h, f), sat(op2, h, f))

    def excludes(op):
        return lambda f, nf, h, k: (sat(F.Stit, h, f), W - sat(op, k, nf))

    def congruent(op):
        return lambda f, g, x: (sat(op, x, f) ^ sat(op, x, g), none)

    # A row is (schema ids by binder kind, binder, pool items, test).  The
    # test maps a pool item's and a binding's arguments to the satisfying
    # sets of the antecedent and the consequent; the instance fails at the
    # smallest world of the antecedent outside the consequent.
    rows = [
        # Nobody is capable of, able to, attempting or seeing to a tautology.
        (("A1", "A2"), holders, tautology, lambda t, h: (sat(F.Cap, h, t), none)),
        (("T6", "T7"), holders, tautology, lambda t, h: (sat(F.Ability, h, t), none)),
        (("T8", "T9"), holders, tautology, lambda t, h: (sat(F.Attempt, h, t), none)),
        (("T10", "T11"), holders, tautology, lambda t, h: (sat(F.Stit, h, t), none)),
        (("T5",), by_role, tautology, lambda t, r: (sat(F.Initiative, r, t), none)),
        # A3 and A18 hold by representation: in-charge and desire bodies are
        # fact conjunctions and objective and desire sets range over declared
        # facts, so incharge(O, r, true) and desire(O, false) never hold.
        (("A3",), by_org_role, once, lambda o, r: (none, none)),
        (("A18",), by_org, once, lambda o: (none, none)),
        # Conjunction closure (K axiom family).  Positive pairs only: with
        # mixed-sign pairs the combined support can be unrealizable even when
        # both conjuncts are separately supported, and organizational goals
        # are negation-free anyway.
        (("A4", "A4"), holders, positive, closed(F.Cap)),
        (("A5", "A5"), holders, positive, closed(F.Attempt)),
        (("T1", "T2"), holders, positive, closed(F.Stit)),
        (("A6",), by_role, positive, closed(F.Initiative)),
        (("A7",), by_org_role, positive, closed(F.InCharge)),
        # A8 and A19 both state that desire is closed under conjunction, so
        # they share their instances; both ids stay so that reports keep the
        # axiomatization's numbering.
        (("A8",), by_org, positive, closed(F.Desire)),
        (("A19",), by_org, positive, closed(F.Desire)),
        (("A17",), by_org, consistent, closed(F.Know)),
        (("A9", "A9"), holders, positive,
         lambda f, g, fg, h: (sat(F.Ability, h, fg), sat(F.Ability, h, f) & sat(F.Ability, h, g))),
        # What the organization knows is true.
        (("A16",), by_org, singles, lambda f, o: (sat(F.Know, o, f), ev.sat(f))),
        (("A20", "A20"), holders, singles, implies(F.Ability, F.Cap)),
        (("A21", "A21"), holders, singles, implies(F.Attempt, F.Cap)),
        (("A22", "A22"), holders, singles, implies(F.Attempt, F.Ability)),
        (("T12", "T13"), holders, singles, implies(F.Stit, F.Cap)),
        (("T14", "T15"), holders, singles, implies(F.Stit, F.Attempt)),
        (("A15", "A15"), holders, singles, lambda f, h: (sat(F.Stit, h, f), sat(F.AX, f))),
        # An agent and the agent in a role.  A14 binds no pool formula but
        # is counted once per pool entry.
        (("A14",), by_pair, [((), ())] * len(pool),
         lambda a, ar, r: (sat(F.InControl, ar), sat(F.InControl, a))),
        (("A12",), by_pair, singles,
         lambda f, a, ar, r: (sat(F.Cap, a, f) & sat(F.Ability, ar, f), sat(F.Ability, a, f))),
        (("T3",), by_pair, singles,
         lambda f, a, ar, r: (sat(F.InControl, ar) & sat(F.Attempt, ar, f), sat(F.Attempt, a, f))),
        (("T4",), by_pair, singles,
         lambda f, a, ar, r: (sat(F.Cap, a, f) & sat(F.Stit, ar, f), sat(F.Stit, a, f))),
        (("A23",), by_pair, singles,
         lambda f, a, ar, r: (sat(F.Stit, ar, f), sat(F.Initiative, r, f))),
        (("A24",), by_pair, singles,
         lambda f, a, ar, r: (sat(F.Attempt, ar, f), sat(F.Initiative, r, f))),
        (("A13",), by_pair_org, singles,
         lambda f, a, ar, play: (sat(F.Play, *play) & sat(F.Attempt, a, f), sat(F.Attempt, ar, f))),
        (("A11",), by_pair_org, singles,
         lambda f, a, ar, play: (sat(F.Play, *play) & sat(F.Cap, a, f), sat(F.Cap, ar, f))),
        # Interference exclusions: seeing to f leaves nobody able to, seeing
        # to or attempting its negation.
        (("T16", "T17"), by_holder_agent, negated, excludes(F.Ability)),
        (("T19", "T20"), by_holder_agent, negated, excludes(F.Stit)),
        (("T22", "T23"), by_holder_agent, negated, excludes(F.Attempt)),
        (("T18",), by_pair_pair, negated, excludes(F.Ability)),
        (("T21",), by_pair_pair, negated, excludes(F.Stit)),
        (("T24",), by_pair_pair, negated, excludes(F.Attempt)),
        # A role in charge of a goal has the initiative for it.
        (("A25",), by_org_role, positive_singles,
         lambda f, o, r: (sat(F.InCharge, o, r, f), sat(F.Initiative, role_set[r], f))),
        # Congruence: model-equivalent operands are interchangeable.
        (("R1", "R2"), few, equal, congruent(F.Cap)),
        (("R3", "R4"), few, equal, congruent(F.Ability)),
        (("R5", "R6"), few, equal, congruent(F.Attempt)),
        (("R7", "R8"), few, equal, congruent(F.Stit)),
        (("R9",), few_roles, equal, congruent(F.Initiative)),
    ]
    for ids, binder, items, test in rows:
        for bound, args in items:
            shown = tuple(map(text.get, bound))
            for kind, names, xs in binder:
                ante, cons = test(*args, *xs)
                bad = ante - cons
                res[ids[kind]].check(not bad, min(bad) if bad else None, names + shown)
    if not equal:
        for rid in [f"R{i}" for i in range(1, 10)]:
            res[rid].check(True, None, ("no model-equivalent pool pair",))

    # Schemas checked world by world.
    worlds = sorted(W)
    for f in pool:
        # A10: necessary role capabilities transfer to every enactor.
        f_sat = ev.sat(f)
        falsifiable = ev.exists_other_falsifier(f_sat)
        for o in orgs:
            rea = model.orgs[o].rea
            for r in roles:
                for a in agents:
                    for w in worlds:
                        if (a, r) in rea.get(w, ()):
                            role_cap = w in falsifiable and ev.sigma_entails(model.cn(r, w), f_sat)
                            agent_cap = w in sat(F.Cap, agent_h[a], f)
                            res["A10"].check(not role_cap or agent_cap, w, (a, r, o, text[f]))
        if not F.is_positive_conjunction(f):
            continue
        facts = F.conjunct_atoms(f)
        for o in orgs:
            org = model.orgs[o]
            # A26: what a member can do, all members together can do.
            for a in agents:
                for w in worlds:
                    members = org.members.get(w, frozenset())
                    if a in members and w in sat(F.Cap, agent_h[a], f):
                        group = sat(F.Cap, F.AgentGroup(members), f)
                        res["A26"].check(w in group, w, (o, a, text[f]))
            # A27: where r is in charge of f and (r, q) is in dep, some
            # enactor of r controls putting q in charge of f.
            for r in roles:
                for q in roles:
                    for w in worlds:
                        if (r, q) in org.dep.get(w, ()) and w in sat(F.InCharge, o, r, f):
                            granted = any(
                                all(InChargeAtom(o, q, fact) in model.c(x, w) for fact in facts)
                                for (x, rr) in org.rea.get(w, ()) if rr == r
                            )
                            res["A27"].check(granted, w, (o, r, q, text[f]))
    return report


# ---------------------------------------------------------------------------
# Lasso-path oracle

ORACLE_WORLD_BOUND = 8


class OracleBound(Exception):
    pass


_TEMPORAL = (F.AX, F.EX, F.AF, F.EF, F.AG, F.EG, F.AU, F.EU)


class PathOracle:
    """Temporal evaluation by explicit enumeration of lasso paths.

    Complete for CTL path quantification over finite total structures:
    every violating or witnessing infinite path prunes to a simple stem
    plus a simple cycle.  Non-temporal subformulas evaluate through the
    engine, so the oracle independently re-derives exactly the temporal
    layer.  Lasso sets and state verdicts are cached per instance.
    """

    def __init__(self, model, ev=None, bound=ORACLE_WORLD_BOUND):
        if len(model.world_ids) > bound:
            raise OracleBound(
                f"model has {len(model.world_ids)} worlds; oracle bound is {bound}"
            )
        self.m = model
        self.ev = ev or Evaluator(model)
        self._lassos = {}
        self._memo = {}

    def eval(self, world, g):
        key = (world, g)
        got = self._memo.get(key)
        if got is not None:
            return got
        if isinstance(g, _TEMPORAL):
            out = self._temporal(world, g)
        elif isinstance(g, F.Not):
            out = not self.eval(world, g.sub)
        elif isinstance(g, F.And):
            out = self.eval(world, g.left) and self.eval(world, g.right)
        elif isinstance(g, F.Or):
            out = self.eval(world, g.left) or self.eval(world, g.right)
        elif isinstance(g, F.Implies):
            out = (not self.eval(world, g.left)) or self.eval(world, g.right)
        elif isinstance(g, F.Iff):
            out = self.eval(world, g.left) == self.eval(world, g.right)
        else:
            out = self.ev.eval(world, g)
        self._memo[key] = out
        return out

    def lassos(self, start):
        """All stem+cycle paths from start; stems are repetition-free."""
        got = self._lassos.get(start)
        if got is not None:
            return got
        out = []

        def extend(path, seen):
            w = path[-1]
            for nxt in sorted(self.m.succ[w]):
                if nxt in seen:
                    idx = path.index(nxt)
                    out.append((path[:idx], path[idx:]))
                else:
                    extend(path + [nxt], seen | {nxt})

        extend([start], {start})
        self._lassos[start] = out
        return out

    def _temporal(self, world, g):
        if isinstance(g, (F.AX, F.EX)):
            values = [self.eval(w, g.sub) for w in sorted(self.m.succ[world])]
            return all(values) if isinstance(g, F.AX) else any(values)
        if isinstance(g, (F.AF, F.EF)):
            def path_ok(prefix, cycle):
                return any(self.eval(w, g.sub) for w in prefix + cycle)
        elif isinstance(g, (F.AG, F.EG)):
            def path_ok(prefix, cycle):
                return all(self.eval(w, g.sub) for w in prefix + cycle)
        else:
            def path_ok(prefix, cycle):
                seq = prefix + cycle + cycle
                for i, w in enumerate(seq):
                    if self.eval(w, g.right):
                        return all(self.eval(seq[k], g.left) for k in range(i))
                return False

        lassos = self.lassos(world)
        if isinstance(g, (F.AF, F.AG, F.AU)):
            return all(path_ok(p, c) for p, c in lassos)
        return any(path_ok(p, c) for p, c in lassos)


# ---------------------------------------------------------------------------
# Random CTL pools for oracle cross-checking


def random_ctl_pool(model, seed, size=30, temporal_depth=2):
    """Seeded random state formulas over the model's vocabulary with
    bounded temporal nesting, mixing boolean, temporal, agency and
    organizational operators (for example AF H[a] p)."""
    rng = random.Random(seed)
    facts = sorted(model.facts)
    agents = sorted(model.agents)
    roles = sorted(model.roles)
    orgs = sorted(model.orgs)

    def holder():
        kind = rng.randrange(4)
        if kind == 0:
            return F.SingleAgent(rng.choice(agents))
        if kind == 1:
            k = rng.randint(1, min(2, len(agents)))
            return F.AgentGroup(frozenset(rng.sample(agents, k)))
        if kind == 2:
            return F.ReaSingle(rng.choice(agents), rng.choice(roles))
        k = rng.randint(1, min(2, len(agents)))
        j = rng.randint(1, min(2, len(roles)))
        return F.ReaGroup(frozenset(rng.sample(agents, k)), frozenset(rng.sample(roles, j)))

    def agency(body):
        ops = [F.Cap, F.Ability, F.Attempt, F.Stit]
        return rng.choice(ops)(holder(), body)

    def base(depth):
        kind = rng.randrange(8)
        if kind < 3:
            return F.Atom(rng.choice(facts))
        if kind == 3:
            return F.Not(F.Atom(rng.choice(facts)))
        if kind == 4:
            return F.And(F.Atom(rng.choice(facts)), base(0))
        if kind == 5:
            return agency(F.Atom(rng.choice(facts)))
        if kind == 6:
            return F.InControl(holder())
        if orgs and rng.random() < 0.5:
            org = rng.choice(orgs)
            return rng.choice(
                [
                    F.Member(rng.choice(agents), org),
                    F.Play(rng.choice(agents), rng.choice(roles), org),
                    F.Know(org, F.Atom(rng.choice(facts))),
                ]
            )
        return F.Or(F.Atom(rng.choice(facts)), F.Not(F.Atom(rng.choice(facts))))

    def temporal(depth):
        sub = formula(depth - 1)
        op = rng.randrange(8)
        if op == 0:
            return F.AX(sub)
        if op == 1:
            return F.EX(sub)
        if op == 2:
            return F.AF(sub)
        if op == 3:
            return F.EF(sub)
        if op == 4:
            return F.AG(sub)
        if op == 5:
            return F.EG(sub)
        other = formula(depth - 1)
        return F.AU(sub, other) if op == 6 else F.EU(sub, other)

    def formula(depth):
        if depth <= 0:
            return base(0)
        kind = rng.randrange(6)
        if kind <= 2:
            return temporal(depth)
        if kind == 3:
            return F.Not(formula(depth - 1))
        if kind == 4:
            return F.And(formula(depth - 1), base(0))
        return agency(temporal(depth - 1)) if rng.random() < 0.5 else temporal(depth)

    out = []
    while len(out) < size:
        depth = rng.randint(1, temporal_depth)
        out.append(formula(depth))
    return out


# ---------------------------------------------------------------------------
# Non-theorem witnesses


def non_theorem_witnesses():
    """Bundled demonstrations that parallel attempts can conflict and that
    nested stit does not unnest."""
    from .fixtures import load_fixture

    out = []
    interfere = load_fixture("interfere")
    out.append((interfere, "w0", F.parse("H[a] p & H[b] !p")))
    nesting = load_fixture("nesting")
    out.append((nesting, "n0", F.parse("E[a] E[a] p & !E[a] p")))
    return out

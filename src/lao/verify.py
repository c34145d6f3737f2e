"""Random model generation, the axiom/theorem suite and the independent
lasso-path oracle for the temporal layer.

The suite instantiates every axiom and theorem schema over a formula
pool and reports, per schema id, instance counts and the first
counterexample bindings.  Schemas claimed sound by construction are
still executed; reported failures point at engine defects, not at the
logic.
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


def _positive(f):
    return F.is_positive_conjunction(f)


def _consistent_pair(f, g):
    lits = {}
    for name, pos in F.conjunct_literals(f) + F.conjunct_literals(g):
        if lits.setdefault(name, pos) != pos:
            return False
    return True


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
    rules over the pool, the model's agents, roles, orgs and worlds."""
    ev = Evaluator(model)
    pool = pool if pool is not None else literal_pool(model)
    report = SuiteReport(model_digest=model.digest(), seed=seed)
    res = {s: SchemaResult(s) for s in SCHEMA_IDS}
    report.results = res

    agents = sorted(model.agents)
    roles = sorted(model.roles)
    pairs = [(a, r) for a in agents for r in roles]
    orgs = sorted(model.orgs)
    W = ev.world_set

    def subset(s, antecedent, consequent, bindings):
        holds = ev.sat(antecedent) <= ev.sat(consequent)
        if holds:
            res[s].check(True, None, bindings)
        else:
            bad = sorted(ev.sat(antecedent) - ev.sat(consequent))[0]
            res[s].check(False, bad, bindings)

    def empty(s, f, bindings):
        sat = ev.sat(f)
        if not sat:
            res[s].check(True, None, bindings)
        else:
            res[s].check(False, sorted(sat)[0], bindings)

    top = F.TrueF()

    for a in agents:
        sa = F.SingleAgent(a)
        empty("A1", F.Cap(sa, top), (a,))
        empty("T6", F.Ability(sa, top), (a,))
        empty("T8", F.Attempt(sa, top), (a,))
        empty("T10", F.Stit(sa, top), (a,))
    for (a, r) in pairs:
        ar = F.ReaSingle(a, r)
        empty("A2", F.Cap(ar, top), (a, r))
        empty("T7", F.Ability(ar, top), (a, r))
        empty("T9", F.Attempt(ar, top), (a, r))
        empty("T11", F.Stit(ar, top), (a, r))
    for r in roles:
        empty("T5", F.Initiative(frozenset([r]), top), (r,))

    # A3: incharge(O, r, true) is unrepresentable (bodies are fact
    # conjunctions) and objective sets range over declared facts only, so
    # no world can put a role in charge of a tautology.
    for o in orgs:
        org = model.orgs[o]
        for r in roles:
            res["A3"].check(True, None, (o, r))

    consistent_pairs = [
        (f, g)
        for f, g in itertools.combinations_with_replacement(pool, 2)
        if _consistent_pair(f, g)
    ]
    positive_pairs = [(f, g) for f, g in consistent_pairs if _positive(f) and _positive(g)]

    # Conjunction closure (K axiom family).  Positive pairs only: with
    # mixed-sign pairs the combined support can be unrealizable even when
    # both conjuncts are separately supported, and organizational goals
    # are negation-free anyway.
    for f, g in positive_pairs:
        fg = F.And(f, g)
        for a in agents:
            sa = F.SingleAgent(a)
            subset("A4", F.And(F.Cap(sa, f), F.Cap(sa, g)), F.Cap(sa, fg), (a, F.fprint(f), F.fprint(g)))
            subset("A5", F.And(F.Attempt(sa, f), F.Attempt(sa, g)), F.Attempt(sa, fg), (a, F.fprint(f), F.fprint(g)))
            subset("T1", F.And(F.Stit(sa, f), F.Stit(sa, g)), F.Stit(sa, fg), (a, F.fprint(f), F.fprint(g)))
        for (a, r) in pairs:
            ar = F.ReaSingle(a, r)
            subset("A4", F.And(F.Cap(ar, f), F.Cap(ar, g)), F.Cap(ar, fg), (a, r, F.fprint(f), F.fprint(g)))
            subset("A5", F.And(F.Attempt(ar, f), F.Attempt(ar, g)), F.Attempt(ar, fg), (a, r, F.fprint(f), F.fprint(g)))
            subset("T2", F.And(F.Stit(ar, f), F.Stit(ar, g)), F.Stit(ar, fg), (a, r, F.fprint(f), F.fprint(g)))
        for r in roles:
            one = frozenset([r])
            subset("A6", F.And(F.Initiative(one, f), F.Initiative(one, g)), F.Initiative(one, fg), (r, F.fprint(f), F.fprint(g)))
        for o in orgs:
            for r in roles:
                subset("A7", F.And(F.InCharge(o, r, f), F.InCharge(o, r, g)), F.InCharge(o, r, fg), (o, r, F.fprint(f), F.fprint(g)))
            # A8 and A19 both state that desire is closed under
            # conjunction, so they share their instances; both ids stay so
            # that reports keep the axiomatization's numbering.
            for sid in ("A8", "A19"):
                subset(sid, F.And(F.Desire(o, f), F.Desire(o, g)), F.Desire(o, fg), (o, F.fprint(f), F.fprint(g)))

    for f, g in consistent_pairs:
        fg = F.conjoin([f, g])
        for o in orgs:
            subset("A17", F.And(F.Know(o, f), F.Know(o, g)), F.Know(o, fg), (o, F.fprint(f), F.fprint(g)))

    for f, g in positive_pairs:
        fg = F.And(f, g)
        for a in agents:
            sa = F.SingleAgent(a)
            subset("A9", F.Ability(sa, fg), F.And(F.Ability(sa, f), F.Ability(sa, g)), (a, F.fprint(f), F.fprint(g)))
        for (a, r) in pairs:
            ar = F.ReaSingle(a, r)
            subset("A9", F.Ability(ar, fg), F.And(F.Ability(ar, f), F.Ability(ar, g)), (a, r, F.fprint(f), F.fprint(g)))

    # A18: desire(O, false) is unrepresentable, like A3: desire bodies are
    # fact conjunctions and desire sets range over declared facts.
    for o in orgs:
        res["A18"].check(True, None, (o,))

    for f in pool:
        pf = F.fprint(f)
        if F.is_literal_conjunction(f):
            for o in orgs:
                # A16: what the organization knows is true.
                subset("A16", F.Know(o, f), f, (o, pf))
        for a in agents:
            sa = F.SingleAgent(a)
            subset("A20", F.Ability(sa, f), F.Cap(sa, f), (a, pf))
            subset("A21", F.Attempt(sa, f), F.Cap(sa, f), (a, pf))
            subset("A22", F.Attempt(sa, f), F.Ability(sa, f), (a, pf))
            subset("T12", F.Stit(sa, f), F.Cap(sa, f), (a, pf))
            subset("T14", F.Stit(sa, f), F.Attempt(sa, f), (a, pf))
            subset("A15", F.Stit(sa, f), F.AX(f), (a, pf))
        for (a, r) in pairs:
            ar = F.ReaSingle(a, r)
            subset("A20", F.Ability(ar, f), F.Cap(ar, f), (a, r, pf))
            subset("A21", F.Attempt(ar, f), F.Cap(ar, f), (a, r, pf))
            subset("A22", F.Attempt(ar, f), F.Ability(ar, f), (a, r, pf))
            subset("T13", F.Stit(ar, f), F.Cap(ar, f), (a, r, pf))
            subset("T15", F.Stit(ar, f), F.Attempt(ar, f), (a, r, pf))
            subset("A15", F.Stit(ar, f), F.AX(f), (a, r, pf))
            subset("A14", F.InControl(ar), F.InControl(F.SingleAgent(a)), (a, r))
            subset("A12", F.And(F.Cap(F.SingleAgent(a), f), F.Ability(ar, f)), F.Ability(F.SingleAgent(a), f), (a, r, pf))
            subset(
                "T3",
                F.And(F.InControl(ar), F.Attempt(ar, f)),
                F.Attempt(F.SingleAgent(a), f),
                (a, r, pf),
            )
            subset(
                "T4",
                F.And(F.Cap(F.SingleAgent(a), f), F.Stit(ar, f)),
                F.Stit(F.SingleAgent(a), f),
                (a, r, pf),
            )
            subset("A23", F.Stit(ar, f), F.Initiative(frozenset([r]), f), (a, r, pf))
            subset("A24", F.Attempt(ar, f), F.Initiative(frozenset([r]), f), (a, r, pf))
            for o in orgs:
                subset(
                    "A13",
                    F.And(F.Play(a, r, o), F.Attempt(F.SingleAgent(a), f)),
                    F.Attempt(ar, f),
                    (a, r, o, pf),
                )
                subset(
                    "A11",
                    F.And(F.Play(a, r, o), F.Cap(F.SingleAgent(a), f)),
                    F.Cap(ar, f),
                    (a, r, o, pf),
                )
        # A10: necessary role capabilities transfer to every enactor.
        for o in orgs:
            org = model.orgs[o]
            for r in roles:
                for a in agents:
                    for w in sorted(W):
                        if (a, r) not in org.rea.get(w, ()):
                            continue
                        role_cap = _cap_with_atoms(ev, model.cn(r, w), f, w)
                        agent_cap = w in ev.sat(F.Cap(F.SingleAgent(a), f))
                        res["A10"].check(
                            (not role_cap) or agent_cap, w, (a, r, o, pf)
                        )
        # Interference exclusions.
        nf = _negate(f)
        for a in agents:
            for b in agents:
                subset(
                    "T16",
                    F.Stit(F.SingleAgent(a), f),
                    F.Not(F.Ability(F.SingleAgent(b), nf)),
                    (a, b, pf),
                )
                subset("T19", F.Stit(F.SingleAgent(a), f), F.Not(F.Stit(F.SingleAgent(b), nf)), (a, b, pf))
                subset("T22", F.Stit(F.SingleAgent(a), f), F.Not(F.Attempt(F.SingleAgent(b), nf)), (a, b, pf))
        for (a, r) in pairs:
            ar = F.ReaSingle(a, r)
            for b in agents:
                subset("T17", F.Stit(ar, f), F.Not(F.Ability(F.SingleAgent(b), nf)), (a, r, b, pf))
                subset("T20", F.Stit(ar, f), F.Not(F.Stit(F.SingleAgent(b), nf)), (a, r, b, pf))
                subset("T23", F.Stit(ar, f), F.Not(F.Attempt(F.SingleAgent(b), nf)), (a, r, b, pf))
            for (b, q) in pairs:
                bq = F.ReaSingle(b, q)
                subset("T18", F.Stit(ar, f), F.Not(F.Ability(bq, nf)), (a, r, b, q, pf))
                subset("T21", F.Stit(ar, f), F.Not(F.Stit(bq, nf)), (a, r, b, q, pf))
                subset("T24", F.Stit(ar, f), F.Not(F.Attempt(bq, nf)), (a, r, b, q, pf))
        # Organization bridges.
        if _positive(f):
            for o in orgs:
                org = model.orgs[o]
                for a in agents:
                    for w in sorted(W):
                        if a not in org.members.get(w, ()):
                            continue
                        if w not in ev.sat(F.Cap(F.SingleAgent(a), f)):
                            continue
                        members = org.members.get(w, frozenset())
                        res["A26"].check(
                            w in ev.sat(F.Cap(F.AgentGroup(members), f)),
                            w,
                            (o, a, pf),
                        )
                facts_f = F.conjunct_atoms(f)
                for r in roles:
                    for q in roles:
                        for w in sorted(W):
                            if (r, q) not in org.dep.get(w, ()):
                                continue
                            if w not in ev.sat(F.InCharge(o, r, f)):
                                continue
                            players = [x for (x, rr) in org.rea.get(w, ()) if rr == r]
                            granted = any(
                                all(
                                    InChargeAtom(o, q, fact) in model.c(x, w)
                                    for fact in facts_f
                                )
                                for x in players
                            )
                            res["A27"].check(granted, w, (o, r, q, pf))
                for r in roles:
                    subset("A25", F.InCharge(o, r, f), F.Initiative(frozenset([r]), f), (o, r, pf))

    # Congruence rules: model-equivalent operands are interchangeable.
    equal_sets = []
    for f, g in itertools.combinations(pool, 2):
        if ev.sat(f) == ev.sat(g):
            equal_sets.append((f, g))
    ops = []
    for a in agents[:2]:
        sa = F.SingleAgent(a)
        ops.append(("R1", lambda x, h=sa: F.Cap(h, x)))
        ops.append(("R3", lambda x, h=sa: F.Ability(h, x)))
        ops.append(("R5", lambda x, h=sa: F.Attempt(h, x)))
        ops.append(("R7", lambda x, h=sa: F.Stit(h, x)))
    for (a, r) in pairs[:2]:
        ar = F.ReaSingle(a, r)
        ops.append(("R2", lambda x, h=ar: F.Cap(h, x)))
        ops.append(("R4", lambda x, h=ar: F.Ability(h, x)))
        ops.append(("R6", lambda x, h=ar: F.Attempt(h, x)))
        ops.append(("R8", lambda x, h=ar: F.Stit(h, x)))
    for r in roles[:2]:
        ops.append(("R9", lambda x, rr=r: F.Initiative(frozenset([rr]), x)))
    for f, g in equal_sets[:20]:
        for rid, mk in ops:
            same = ev.sat(mk(f)) == ev.sat(mk(g))
            if same:
                res[rid].check(True, None, (F.fprint(f), F.fprint(g)))
            else:
                diff = sorted(ev.sat(mk(f)) ^ ev.sat(mk(g)))[0]
                res[rid].check(False, diff, (F.fprint(f), F.fprint(g)))
    if not equal_sets:
        for rid in [f"R{i}" for i in range(1, 10)]:
            res[rid].check(True, None, ("no model-equivalent pool pair",))

    return report


def _negate(f):
    if isinstance(f, F.Not):
        return f.sub
    return F.Not(f)


def _cap_with_atoms(ev, atoms, goal, world):
    """Capability computed from an explicit atom set (role capability)."""
    sat = ev.sat(goal)
    other = ev.exists_other_falsifier(sat)
    if world not in other:
        return False
    return ev.sigma_entails(atoms, sat)


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

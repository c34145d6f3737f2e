"""Organization capability, quality grading and structural classification.

Definitions that quantify over all formulas are instantiated over a
finite FormulaPool; the default pool is every non-empty subset of an
organization's desire set (as a conjunction) plus each single domain
fact.  All checks are pure in the model and pool, so verdicts are
deterministic and witness lists are sorted canonically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import formula as F
from .model import InChargeAtom
from .semantics import Evaluator

CAP_KNOWLEDGE_PREFIX = "cap__"


def cap_knowledge_fact(agent, role, fact):
    """Reserved fact name encoding 'agent enacting role can achieve fact'."""
    return f"{CAP_KNOWLEDGE_PREFIX}{agent}__{role}__{fact}"


@dataclass(frozen=True)
class OrgVerdict:
    org: str
    prop: str
    holds: bool
    witnesses: tuple = ()  # counterexamples when failing, sorted

    def __str__(self):
        mark = "holds" if self.holds else "fails"
        extra = ""
        if not self.holds and self.witnesses:
            extra = f" (first counterexample: {self.witnesses[0]})"
        return f"{self.org}: {self.prop} {mark}{extra}"


def default_pool(model, org_id):
    """Desire-subset conjunctions plus all single facts, deduplicated."""
    org = model.orgs[org_id]
    seen = {}
    for w in model.world_ids:
        desires = sorted(org.desires.get(w, frozenset()))
        for k in range(1, len(desires) + 1):
            for combo in itertools.combinations(desires, k):
                f = F.conjoin([F.Atom(x) for x in combo])
                seen.setdefault(f, None)
    for fact in sorted(model.facts):
        seen.setdefault(F.Atom(fact), None)
    return list(seen)


def load_pool(text):
    """Parse a pool file: a JSON list of formula strings."""
    import json

    try:
        raw = json.loads(text)
    except RecursionError:
        raise ValueError("pool file nested too deeply")
    if not isinstance(raw, list):
        raise ValueError("pool file must be a JSON list of formula strings")
    for i, s in enumerate(raw):
        if not isinstance(s, str):
            raise ValueError(f"pool entry {i} must be a formula string, got {s!r}")
    return [F.parse(s) for s in raw]


def _verdict(org_id, prop, witnesses):
    witnesses = tuple(sorted(set(witnesses)))
    return OrgVerdict(org_id, prop, not witnesses, witnesses)


def org_capability(ev, world, org_id, goal, witness=False):
    """Some non-empty member subset has group capability for the goal.

    Group capability grows with the member set, so the verdict equals
    capability of the full member set; `witness=True` additionally
    searches for one minimal capable subset.
    """
    org = ev.m.orgs[org_id]
    members = sorted(org.members.get(world, frozenset()))
    if not members:
        return (False, None) if witness else False
    full = F.Cap(F.AgentGroup(frozenset(members)), goal)
    holds = ev.eval(world, full)
    if not witness:
        return holds
    if not holds:
        return False, None
    for k in range(1, len(members) + 1):
        for combo in itertools.combinations(members, k):
            if ev.eval(world, F.Cap(F.AgentGroup(frozenset(combo)), goal)):
                return True, frozenset(combo)
    return True, frozenset(members)


def check_structurally_well_defined(model, org_id):
    """Every desired fact is some role's objective, at every world."""
    org = model.orgs[org_id]
    witnesses = []
    for w in model.world_ids:
        covered = set()
        for objs in org.objectives.get(w, {}).values():
            covered |= objs
        for fact in sorted(org.desires.get(w, frozenset()) - covered):
            witnesses.append((w, fact))
    return _verdict(org_id, "structurally-well-defined", witnesses)


def _role_initiative(ev, org, goal):
    """The (world, role) pairs where a role of the organization there has
    the initiative for the goal, reading `Initiative({r}, goal)` once per
    role."""
    roles = set().union(*(org.roles.get(w, ()) for w in ev.m.world_ids))
    return {
        (w, r)
        for r in sorted(roles)
        for w in ev.sat(F.Initiative(frozenset([r]), goal))
        if r in org.roles.get(w, ())
    }


def check_well_defined(model, org_id, pool, ev=None):
    """Whatever the organization desires, some of its roles has the
    initiative to achieve."""
    ev = ev or Evaluator(model)
    witnesses = []
    for goal in pool:
        if not F.is_positive_conjunction(goal):
            continue
        led = {w for (w, _) in _role_initiative(ev, model.orgs[org_id], goal)}
        witnesses += [(w, F.fprint(goal)) for w in ev.sat(F.Desire(org_id, goal)) - led]
    return _verdict(org_id, "well-defined", witnesses)


def check_successful(model, org_id, pool, ev=None):
    """Well-defined plus the organization can actually achieve each desire."""
    ev = ev or Evaluator(model)
    witnesses = []
    for goal in pool:
        if not F.is_positive_conjunction(goal):
            continue
        led = {w for (w, _) in _role_initiative(ev, model.orgs[org_id], goal)}
        for w in ev.sat(F.Desire(org_id, goal)):
            if not org_capability(ev, w, org_id, goal):
                witnesses.append((w, F.fprint(goal), "no group capability"))
            elif w not in led:
                witnesses.append((w, F.fprint(goal), "no role with initiative"))
    return _verdict(org_id, "successful", witnesses)


def check_good(model, org_id, pool, ev=None):
    """Initiative-holding role groups can delegate along the dependency
    order to role-enacting agents capable of the goal (Z = U allowed).

    The enactors of a larger U control more atoms, which split the atom
    profile classes more finely, and the other-falsifier condition does
    not depend on the holder, so their capability grows with U.  Hence
    some allowed U works iff the largest does: every role at the world
    below some role of Z.  That target grows with Z, so the groups whose
    target fails are closed under subsets: a depth-first search over the
    sorted roles extends a group only while its target still fails, and
    only those groups are asked for `Initiative`.
    """
    ev = ev or Evaluator(model)
    org = model.orgs[org_id]
    witnesses = []
    for goal in pool:
        if not F.is_positive_conjunction(goal):
            continue
        for w in model.world_ids:
            if not org_capability(ev, w, org_id, goal):
                continue
            roles_here = org.roles.get(w, frozenset())
            rea_here = org.rea.get(w, frozenset())
            dep_here = org.dep.get(w, frozenset())
            order = sorted(roles_here)
            stack = [(r,) for r in order]
            while stack:
                z = stack.pop()
                u = frozenset(q for (r, q) in dep_here if r in z and q in roles_here)
                v = frozenset(a for (a, r) in rea_here if r in u)
                if v and ev.eval(w, F.Cap(F.ReaGroup(v, u), goal)):
                    continue
                if ev.eval(w, F.Initiative(frozenset(z), goal)):
                    witnesses.append((w, F.fprint(goal), "{" + ",".join(z) + "}"))
                stack += [z + (r,) for r in order[order.index(z[-1]) + 1:]]
    return _verdict(org_id, "good", witnesses)


def check_good_property(model, org_id, pool, ev=None):
    """Initiative implies the member group eventually attempts the goal."""
    ev = ev or Evaluator(model)
    org = model.orgs[org_id]
    witnesses = []
    for goal in pool:
        if not F.is_positive_conjunction(goal):
            continue
        attempt_here = frozenset(
            w for w in model.world_ids
            if org.members.get(w) and ev.eval(w, F.Attempt(F.AgentGroup(org.members[w]), goal))
        )
        eventually = ev.af(attempt_here)
        witnesses += [
            (w, F.fprint(goal), r)
            for (w, r) in _role_initiative(ev, org, goal)
            if w not in eventually
        ]
    return _verdict(org_id, "good-property", witnesses)


def check_delegation_closed(model, org_id):
    """Dependent pairs carry the delegation capability atoms.

    Wherever dep(O,r,q) holds and r is in charge of some objective facts,
    every enactor of r must hold the incharge control atoms that would
    put q in charge of those facts.
    """
    org = model.orgs[org_id]
    witnesses = []
    for w in model.world_ids:
        rea_here = org.rea.get(w, frozenset())
        dep_here = org.dep.get(w, frozenset())
        for (r, q) in sorted(dep_here):
            charge = sorted(org.obj(r, w))
            if not charge:
                continue
            players = sorted(a for (a, rr) in rea_here if rr == r)
            for a in players:
                have = model.cr(a, r, w)
                for fact in charge:
                    atom = InChargeAtom(org_id, q, fact)
                    if atom not in have:
                        witnesses.append((w, a, r, q, fact))
    return _verdict(org_id, "delegation-closed", witnesses)


def check_efficient(model, org_id, pool, ev=None):
    """Tasks whose in-charge role is incapable get delegated to a
    dependent role with a knowingly capable enactor.

    Fires where a role has initiative for a goal none of its enactors can
    achieve while some dependent role has an actually capable enactor;
    compliance then needs the capability to be organizational knowledge
    (cap__agent__role__fact facts in K+) and an enactor of the in-charge
    role seeing to it that the capable role is put in charge.
    """
    ev = ev or Evaluator(model)
    org = model.orgs[org_id]
    witnesses = []
    for goal in pool:
        if not F.is_positive_conjunction(goal):
            continue
        goal_facts = F.conjunct_atoms(goal)
        for (w, r) in sorted(_role_initiative(ev, org, goal)):
            rea_here = org.rea.get(w, frozenset())
            players = sorted(a for (a, rr) in rea_here if rr == r)
            if not players or any(ev.eval(w, F.Cap(F.ReaSingle(a, r), goal)) for a in players):
                continue
            capable_deps = [
                (q, b)
                for q in sorted(org.roles.get(w, frozenset()))
                if (r, q) in org.dep.get(w, frozenset())
                for b in sorted(a for (a, rr) in rea_here if rr == q)
                if ev.eval(w, F.Cap(F.ReaSingle(b, q), goal))
            ]
            kp = org.know_plus.get(w, frozenset())
            known = [
                q for (q, b) in capable_deps
                if all(cap_knowledge_fact(b, q, fact) in kp for fact in goal_facts)
            ]
            if not capable_deps or any(
                ev.eval(w, F.Stit(F.ReaSingle(a, r), F.InCharge(org_id, q, goal)))
                for q in known
                for a in players
            ):
                continue
            reason = "delegation stit missing" if known else "capability not known"
            witnesses.append((w, F.fprint(goal), r, reason))
    return _verdict(org_id, "efficient", witnesses)


def eval_supervising_duty(model, world, org_id, z_roles, v_agents, u_roles, goal, ev=None):
    """Supervisors re-take the initiative when a supervised attempt fails.

    Macro over the formula language: the literal next-step failure clause
    (attempt now and all successors falsify the goal) is unsatisfiable
    because influenced transitions are successors, so the failure is read
    one step after the attempt's outcome: AF(attempt and AX AX not-goal).
    """
    ev = ev or Evaluator(model)
    if org_id not in model.orgs:
        raise KeyError(f"unknown organization {org_id!r}")
    group = F.ReaGroup(frozenset(v_agents), frozenset(u_roles))
    attempt = F.Attempt(group, goal)
    antecedent = F.And(
        F.Initiative(frozenset(z_roles), attempt),
        F.AF(F.And(attempt, F.AX(F.AX(F.Not(goal))))),
    )
    duty = F.Implies(antecedent, F.Initiative(frozenset(z_roles), goal))
    return ev.eval(world, duty)


# ---------------------------------------------------------------------------
# Structural classification


def classify_structure(model, org_id):
    """All structural classes whose defining condition holds at every world."""
    org = model.orgs[org_id]
    labels = set()
    if _all_worlds(model, org, _is_hierarchy_at):
        labels.add("hierarchy")
    if _all_worlds(model, org, _is_flat_hierarchy_at):
        labels.add("flat-hierarchy")
    network = _all_worlds(model, org, _is_network_at)
    if network:
        labels.add("network")
        if _all_worlds(model, org, _is_fully_connected_at):
            labels.add("fully-connected-network")
        if _all_worlds(model, org, _is_symmetric_at):
            labels.add("team")
    return labels


def _all_worlds(model, org, pred):
    return all(pred(org, w) for w in model.world_ids)


def _managers_at(org, w):
    """Roles carrying at least one desired objective: the manager group."""
    desires = org.desires.get(w, frozenset())
    return frozenset(
        r for r in org.roles.get(w, frozenset()) if org.obj(r, w) & desires
    )


def _is_hierarchy_at(org, w):
    roles = org.roles.get(w, frozenset())
    desires = org.desires.get(w, frozenset())
    dep = org.dep.get(w, frozenset())
    managers = _managers_at(org, w)
    if not managers or not desires:
        return False
    # A manager group must be a proper part of the organization unless the
    # organization degenerates to a single role.
    if managers == roles and len(roles) > 1:
        return False
    covered = set()
    for m in managers:
        covered |= org.obj(m, w) & desires
    if covered != desires:
        return False
    return all(
        any((m, r) in dep for m in managers) for r in roles - managers
    )


def _is_flat_hierarchy_at(org, w):
    roles = org.roles.get(w, frozenset())
    desires = org.desires.get(w, frozenset())
    dep = org.dep.get(w, frozenset())
    if not desires:
        return False
    for m in sorted(roles):
        if not org.obj(m, w) & desires:
            continue
        if not desires <= org.obj(m, w):
            continue
        if not all((m, r) in dep for r in roles):
            continue
        # Nobody besides the manager (and each role itself) sits above any
        # role; the literal "no s distinct from m" would contradict
        # reflexivity, so s ranges outside {m, r}.
        if any(
            (s, r) in dep
            for r in roles
            for s in roles
            if s not in (m, r)
        ):
            continue
        return True
    return False


def _is_network_at(org, w):
    roles = org.roles.get(w, frozenset())
    desires = org.desires.get(w, frozenset())
    dep = org.dep.get(w, frozenset())
    if not roles or not desires:
        return False
    if not all(org.obj(r, w) & desires for r in roles):
        return False
    if not all(any(fact in org.obj(r, w) for r in roles) for fact in desires):
        return False
    return all(any((r, s) in dep for s in roles) for r in roles)


def _is_fully_connected_at(org, w):
    roles = org.roles.get(w, frozenset())
    dep = org.dep.get(w, frozenset())
    return all((r, s) in dep for r in roles for s in roles)


def _is_symmetric_at(org, w):
    dep = org.dep.get(w, frozenset())
    return all((s, r) in dep for (r, s) in dep)


def analyze(model, org_id, pool=None, ev=None):
    """Run every quality check plus classification for one organization."""
    if org_id not in model.orgs:
        raise KeyError(f"unknown organization {org_id!r}")
    ev = ev or Evaluator(model)
    pool = pool if pool is not None else default_pool(model, org_id)
    verdicts = [
        check_structurally_well_defined(model, org_id),
        check_well_defined(model, org_id, pool, ev),
        check_successful(model, org_id, pool, ev),
        check_good(model, org_id, pool, ev),
        check_good_property(model, org_id, pool, ev),
        check_delegation_closed(model, org_id),
        check_efficient(model, org_id, pool, ev),
    ]
    return verdicts, classify_structure(model, org_id)

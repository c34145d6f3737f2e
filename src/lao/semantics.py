"""The satisfaction engine.

Evaluation is bottom-up: every subformula is labeled with its satisfying
set of worlds, so temporal fixpoints and capability checks are shared
across the formula and across queries against the same Evaluator.

Two semantic choices live here (both recorded in the package notes):

* Entailment inside capability is model-relative: a controlled
  combination sigma supports phi iff sigma is satisfied by at least one
  world of W and every world of W satisfying sigma satisfies phi.
* "some other world falsifies phi" compares world ids, so a world whose
  valuation repeats elsewhere still counts as different.
"""

from __future__ import annotations

import functools
import itertools

from . import formula as F
from .model import InChargeAtom


class EvalError(Exception):
    """Unknown identifier in a formula or query."""


@functools.cache
def _name_fields(cls):
    """(index, field, kind) of each name-bearing field of a node class
    (see `F._Node`); a holder is resolved as a node of its own."""
    kinds = dict(agent="agent", agents="agent", role="role", roles="role", low="role",
                 high="role", org="organization", name="fact", body="fact", holder="holder")
    return tuple((i, f, kinds[f]) for i, f in enumerate(cls._fields) if f in kinds)


class Evaluator:
    """Per-model evaluation context with a shared satisfying-set memo.

    The memo is confined to the instance and not synchronized: share the
    (immutable) Model across threads and give each thread its own
    Evaluator.  Memoized and unmemoized evaluation return the same
    verdicts, so confinement is only about data races, not results.
    """

    def __init__(self, model):
        self.m = model
        self.worlds = list(model.world_ids)
        self.world_set = frozenset(self.worlds)
        self._sat = {}
        self._resolved = set()  # holders whose names are all declared
        self._declared = {"agent": model.agents, "role": model.roles,
                          "organization": model.orgs, "fact": model.facts}
        self._atom_worlds = {}
        # Agency memo: what Cap/Ability/Attempt read of a holder, interned,
        # and their satisfying sets keyed on that and the goal's set.
        self._profiles = {}
        self._interned = {}
        self._agency = {}
        # Initiative: in-charge bodies per (org, roles, goal) and
        # eventualities per (holder profile, bodies).
        self._bodies = {}
        self._eventually = {}
        self._pred = {w: [] for w in self.worlds}
        for w in self.worlds:
            for v in model.succ[w]:
                self._pred[v].append(w)

    # -- basic lookups ------------------------------------------------------

    def atom_worlds(self, atom):
        """Worlds where a control atom holds."""
        got = self._atom_worlds.get(atom)
        if got is None:
            got = frozenset(w for w in self.worlds if self.m.atom_true(atom, w))
            self._atom_worlds[atom] = got
        return got

    def influence(self, world, holder):
        """Transitions out of `world` the holder influences (label match)."""
        if world not in self.m.succ:
            raise EvalError(f"unknown world {world!r}")
        self._resolve_holder(holder)
        return [t for t in self.m.out[world] if self._labels_match(t.labels, holder)]

    def _labels_match(self, labels, holder):
        """Some label is an agent of the holder, in one of its roles if it
        names any.  The `Model` constructor rejects labels that are not
        enactments at their source world, so no rea test is needed."""
        agents, roles = _agents_roles(holder)
        if roles is None:
            return any(a in agents for (a, _r) in labels)
        return any(a in agents and r in roles for (a, r) in labels)

    def controlled_atoms(self, world, holder):
        """The holder's control set at a world: the union of c over its
        agents, or of cr over its agents and roles."""
        m = self.m
        agents, roles = _agents_roles(holder)
        if roles is None:
            return frozenset().union(*(m.c(a, world) for a in agents))
        return frozenset().union(*(m.cr(a, r, world) for a in agents for r in roles))

    # -- capability core ----------------------------------------------------

    def sigma_entails(self, atoms, target):
        """Does some controlled combination over `atoms` entail `target`?

        `target` is the satisfying set of the goal formula.  A partial
        truth assignment over the atoms supports the goal iff (i) some
        world realizes it and (ii) every world realizing it is in
        `target`.  Every workable partial assignment extends to the full
        atom profile of one of its realizing worlds, so it suffices to
        test, for each target world, whether its whole profile class is
        inside the target.
        """
        atoms = sorted(atoms, key=_atom_sort_key)
        if not atoms:
            return False
        profiles = {}
        for w in self.worlds:
            profile = tuple(w in self.atom_worlds(a) for a in atoms)
            profiles.setdefault(profile, []).append(w)
        return any(
            all(w in target for w in klass)
            for profile, klass in profiles.items()
            if klass[0] in target
        )

    def exists_other_falsifier(self, sat):
        """Worlds w where some world w' != w falsifies a formula whose
        satisfying set is `sat`."""
        complement = self.world_set - sat
        if len(complement) >= 2:
            return self.world_set
        if not complement:
            return frozenset()
        (only,) = complement
        return self.world_set - {only}

    def _profile(self, holder):
        """What Cap, Ability and Attempt read of a holder, per world: its
        control atoms and the successors of the transitions it influences.

        Returns (cap id, agency id, atoms, reach).  Holders with the same
        cap id have the same Cap for every goal, holders with the same
        agency id also the same Ability and Attempt, so the memo in
        `_agency` is shared between syntactically different holders.
        """
        got = self._profiles.get(holder)
        if got is None:
            atoms = tuple(self.controlled_atoms(w, holder) for w in self.worlds)
            reach = tuple(
                frozenset(t.dst for t in self.influence(w, holder)) for w in self.worlds
            )
            ids = self._interned
            cap_id = ids.setdefault(atoms, len(ids))
            agency_id = ids.setdefault((cap_id, reach), len(ids))
            got = self._profiles[holder] = (cap_id, agency_id, atoms, reach)
        return got

    def _cap_set(self, holder, sub_sat):
        cap_id, _, atoms, _ = self._profile(holder)
        key = (F.Cap, cap_id, sub_sat)
        got = self._agency.get(key)
        if got is None:
            falsifiable_at = self.exists_other_falsifier(sub_sat)
            out = []
            entail_memo = {}
            for w, here in zip(self.worlds, atoms):
                if w not in falsifiable_at:
                    continue
                entails = entail_memo.get(here)
                if entails is None:
                    entails = entail_memo[here] = self.sigma_entails(here, sub_sat)
                if entails:
                    out.append(w)
            got = self._agency[key] = frozenset(out)
        return got

    def _acting_set(self, kind, holder, sub_sat):
        """Ability (some influenced transition reaches the goal) or Attempt
        (every influenced transition does, and there is one) within Cap."""
        _, agency_id, _, reach = self._profile(holder)
        key = (kind, agency_id, sub_sat)
        got = self._agency.get(key)
        if got is None:
            cap = self._cap_set(holder, sub_sat)
            if kind is F.Ability:
                got = frozenset(
                    w for w, dst in zip(self.worlds, reach)
                    if w in cap and not dst.isdisjoint(sub_sat)
                )
            else:
                got = frozenset(
                    w for w, dst in zip(self.worlds, reach)
                    if w in cap and dst and dst <= sub_sat
                )
            self._agency[key] = got
        return got

    # -- satisfying sets -----------------------------------------------------

    def sat(self, f):
        got = self._sat.get(f)
        if got is None:
            self._resolve(f)
            got = self._compute(f)
            self._sat[f] = got
        return got

    def _resolve(self, node):
        """Raise EvalError for the first name in `node` the model does not
        declare.  Fields are taken in `_fields` order, a set's names in
        sorted order, a body's facts in conjunct order, and a holder's
        names with its node's, the first time the holder is met.
        Sub-formulas are not walked: `sat` resolves each one when it
        evaluates it."""
        for i, field, kind in _name_fields(type(node)):
            value = node[i]
            if kind == "holder":
                self._resolve_holder(value)
                continue
            declared = self._declared[kind]
            if field == "body":
                names = [name for name, _pos in F.conjunct_literals(value)]
            elif isinstance(value, frozenset):
                names = () if value <= declared else sorted(value)
            else:
                names = () if value in declared else (value,)
            for name in names:
                if name not in declared:
                    raise EvalError(f"unknown {kind} {name!r}")

    def _resolve_holder(self, holder):
        if holder not in self._resolved:
            self._resolve(holder)
            self._resolved.add(holder)

    def eval(self, world, f):
        if world not in self.m.succ:
            raise EvalError(f"unknown world {world!r}")
        return world in self.sat(f)

    def _compute(self, f):
        m = self.m
        W = self.world_set
        if isinstance(f, F.TrueF):
            return W
        if isinstance(f, F.FalseF):
            return frozenset()
        if isinstance(f, F.Atom):
            return frozenset(w for w in self.worlds if f.name in m.valuation[w])
        if isinstance(f, F.Not):
            return W - self.sat(f.sub)
        if isinstance(f, F.And):
            return self.sat(f.left) & self.sat(f.right)
        if isinstance(f, F.Or):
            return self.sat(f.left) | self.sat(f.right)
        if isinstance(f, F.Implies):
            return (W - self.sat(f.left)) | self.sat(f.right)
        if isinstance(f, F.Iff):
            ls, rs = self.sat(f.left), self.sat(f.right)
            return (ls & rs) | ((W - ls) & (W - rs))
        if isinstance(f, F.AX):
            return self._ax(self.sat(f.sub))
        if isinstance(f, F.EX):
            return self._ex(self.sat(f.sub))
        if isinstance(f, F.AF):
            return self.af(self.sat(f.sub))
        if isinstance(f, F.EF):
            return self._eu(W, self.sat(f.sub))
        if isinstance(f, F.AG):
            # Every world has a successor, so AG s is the complement of EF !s.
            return W - self._eu(W, W - self.sat(f.sub))
        if isinstance(f, F.EG):
            return self._eg(self.sat(f.sub))
        if isinstance(f, F.AU):
            return self._au(self.sat(f.left), self.sat(f.right))
        if isinstance(f, F.EU):
            return self._eu(self.sat(f.left), self.sat(f.right))
        if isinstance(f, F.Cap):
            return self._cap_set(f.holder, self.sat(f.sub))
        if isinstance(f, F.JointCap):
            return self._joint_cap(f.holder, self.sat(f.sub))
        if isinstance(f, (F.Ability, F.Attempt)):
            return self._acting_set(type(f), f.holder, self.sat(f.sub))
        if isinstance(f, F.InControl):
            return frozenset(
                w for w in self.worlds
                if all(self._labels_match(t.labels, f.holder) for t in m.out[w])
            )
        if isinstance(f, F.Stit):
            return self.sat(F.Attempt(f.holder, f.sub)) & self.sat(F.InControl(f.holder))
        if isinstance(f, F.Initiative):
            return self._initiative(f.roles, f.sub)
        if isinstance(f, F.Member):
            org = m.orgs[f.org]
            return frozenset(w for w in self.worlds if f.agent in org.members.get(w, ()))
        if isinstance(f, F.RoleOf):
            org = m.orgs[f.org]
            return frozenset(w for w in self.worlds if f.role in org.roles.get(w, ()))
        if isinstance(f, F.Play):
            org = m.orgs[f.org]
            return frozenset(
                w for w in self.worlds if (f.agent, f.role) in org.rea.get(w, ())
            )
        if isinstance(f, F.Dep):
            org = m.orgs[f.org]
            return frozenset(w for w in self.worlds if self._dep_groups(org, w, f.low, f.high))
        if isinstance(f, F.Know):
            org = m.orgs[f.org]
            lits = F.conjunct_literals(f.body)
            out = []
            for w in self.worlds:
                kp = org.know_plus.get(w, frozenset())
                km = org.know_minus.get(w, frozenset())
                if all((name in kp) if pos else (name in km) for name, pos in lits):
                    out.append(w)
            return frozenset(out)
        if isinstance(f, F.InCharge):
            org = m.orgs[f.org]
            need = set(F.conjunct_atoms(f.body))
            return frozenset(
                w for w in self.worlds if need <= org.obj(f.role, w)
            )
        if isinstance(f, F.Desire):
            org = m.orgs[f.org]
            need = set(F.conjunct_atoms(f.body))
            return frozenset(
                w for w in self.worlds if need <= org.desires.get(w, frozenset())
            )
        raise TypeError(f"not a formula: {f!r}")

    # -- helpers -------------------------------------------------------------

    def _ax(self, s):
        return frozenset(w for w in self.worlds if self.m.succ[w] <= s)

    def _ex(self, s):
        return frozenset(w for w in self.worlds if self.m.succ[w] & s)

    def af(self, worlds):
        """Worlds from which every path reaches `worlds` (AF over a set)."""
        return self._au(self.world_set, worlds)

    # The fixpoints below follow the CTL labelling algorithm (Clarke,
    # Emerson and Sistla 1986): each visits a world and its incoming
    # transitions at most once, so each costs O(W + T).

    def _eu(self, left, right):
        """E[left U right]: backward reachability from `right` via `left`."""
        out = set(right)
        todo = list(right)
        while todo:
            v = todo.pop()
            for u in self._pred[v]:
                if u not in out and u in left:
                    out.add(u)
                    todo.append(u)
        return frozenset(out)

    def _au(self, left, right):
        """A[left U right]: a `left` world joins once all its successors have."""
        succ = self.m.succ
        pending = {}
        out = set(right)
        todo = list(right)
        while todo:
            v = todo.pop()
            for u in self._pred[v]:
                if u in out:
                    continue
                n = pending.get(u, len(succ[u])) - 1
                pending[u] = n
                if n == 0 and u in left:
                    out.add(u)
                    todo.append(u)
        return frozenset(out)

    def _eg(self, s):
        """EG s: drop `s` worlds until each keeps a successor inside."""
        succ = self.m.succ
        inside = {w: len(succ[w] & s) for w in s}
        todo = [w for w, n in inside.items() if n == 0]
        out = set(s).difference(todo)
        while todo:
            v = todo.pop()
            for u in self._pred[v]:
                if u in out:
                    inside[u] -= 1
                    if inside[u] == 0:
                        out.discard(u)
                        todo.append(u)
        return frozenset(out)

    def _dep_groups(self, org, w, low, high):
        """Group dependency: every high role is below some low role."""
        dep = org.dep.get(w, frozenset())
        roles_w = org.roles.get(w, frozenset())
        if not (low <= roles_w and high <= roles_w):
            return False
        return all(any((r, q) in dep for r in low) for q in high)

    def _joint_cap(self, holder, sub_sat):
        full = self._cap_set(holder, sub_sat)
        if not full:
            return full
        subsets = []
        agents = sorted(holder.agents)
        for k in range(1, len(agents)):
            for combo in itertools.combinations(agents, k):
                subsets.append(self._cap_set(F.AgentGroup(frozenset(combo)), sub_sat))
        return frozenset(
            w for w in full if not any(w in s for s in subsets)
        )

    def _initiative(self, roles, sub):
        """Initiative: some enactor eventually attempts the goal or attempts
        to put another role in charge of it.

        The in-charge disjuncts are expanded at the evaluation world from
        the roles the organization has there; bodies that are not positive
        conjunctions cannot appear under incharge, so for those only the
        direct attempt disjunct remains.  Everything but the evaluation
        world itself depends on the organization's roles and enactors
        there, so worlds that agree on them are decided together.
        """
        # Resolves the goal's names even where no holder reaches the goal.
        self.sat(sub)
        out = set()
        for org in self.m.orgs.values():
            alike = {}
            for w in self.worlds:
                roles_here = org.roles.get(w, frozenset())
                if roles <= roles_here:
                    key = (roles_here, org.rea.get(w, frozenset()))
                    alike.setdefault(key, set()).add(w)
            for (roles_here, rea_here), worlds in alike.items():
                todo = worlds - out
                if todo:
                    out |= self._initiative_among(org, roles_here, rea_here, roles, sub, todo)
        return frozenset(out)

    def _initiative_among(self, org, roles_here, rea_here, roles, sub, todo):
        """The worlds of `todo` (all with these roles and enactors) where
        some enacting holder eventually attempts one of the bodies.

        A single role is held by each of its enactors, a role group by
        every non-empty set of its enactors.  Attempt is not monotone in
        the group, so every set is tried, but holders with one agency
        profile attempt the same and are asked once.
        """
        if len(roles) > 1:
            eligible = sorted({a for (a, r) in rea_here if r in roles})
            holders = [F.ReaGroup(frozenset(c), roles) for c in nonempty_subsets(eligible)]
        else:
            (role,) = roles
            players = sorted(a for (a, r) in rea_here if r == role)
            holders = [F.ReaSingle(a, role) for a in players]
        found = set()
        if not holders:
            return found
        bodies_id, bodies = self._charge_bodies(org, roles_here, sub)
        asked = set()
        for holder in holders:
            agency_id = self._profile(holder)[1]
            if agency_id in asked:
                continue
            asked.add(agency_id)
            key = (agency_id, bodies_id)
            got = self._eventually.get(key)
            if got is None:
                goal = F.AF(functools.reduce(F.Or, [F.Attempt(holder, b) for b in bodies]))
                got = self._eventually[key] = self.sat(goal)
            found |= todo & got
            if found == todo:
                break
        return found

    def _charge_bodies(self, org, roles_here, sub):
        """The goals an initiative disjunct attempts: `sub` and, for a
        positive conjunction, putting a role of `roles_here` in charge of
        it.  Returns (an id for the memo, the bodies).

        Attempt reads its goal only through the goal's satisfying set, and
        an empty set gives an empty Cap, so one body is kept per distinct
        non-empty satisfying set.  A role group may also put several roles
        in charge at once, but that adds nothing: the goal's set is the
        intersection X of the single roles' sets A, B, ..., a world other
        than w that falsifies X falsifies one of them, and Cap, Ability
        and Attempt otherwise only grow with the goal's set, so an attempt
        at X is an attempt at A or at B at the same world.
        """
        key = (org.id, roles_here, sub)
        got = self._bodies.get(key)
        if got is None:
            kept = {self.sat(sub): sub}
            if F.is_positive_conjunction(sub):
                for q in sorted(roles_here):
                    body = F.InCharge(org.id, q, sub)
                    here = self.sat(body)
                    if here:
                        kept.setdefault(here, body)
            got = self._bodies[key] = (len(self._bodies), tuple(kept.values()))
        return got


def _agents_roles(holder):
    """A holder as its agents and, for `a:r` and `{..}:{..}`, its roles
    (None for `a` and `{..}`); a single name is read as a group of one."""
    agents, *roles = (v if isinstance(v, frozenset) else (v,) for v in holder)
    return agents, (roles[0] if roles else None)


def nonempty_subsets(items):
    """Non-empty subsets of `items` as tuples, smallest first, in
    combination order."""
    for k in range(1, len(items) + 1):
        yield from itertools.combinations(items, k)


def _atom_sort_key(a):
    if isinstance(a, InChargeAtom):
        return (1, a.org, a.role, a.fact)
    return (0, a, "", "")

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

import itertools

from . import formula as F
from .model import InChargeAtom


class EvalError(Exception):
    """Unknown identifier or structurally unusable model."""


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
        self._atom_worlds = {}
        for w in self.worlds:
            if not model.succ.get(w):
                raise EvalError(f"world {w!r} has no successor; fix totality first")
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
        self._check_holder(holder)
        out = []
        for t in self.m.out[world]:
            if self._labels_match(t.labels, holder, world):
                out.append(t)
        return out

    def _labels_match(self, labels, holder, world):
        if isinstance(holder, F.SingleAgent):
            return any(a == holder.agent for (a, _r) in labels)
        if isinstance(holder, F.AgentGroup):
            return any(a in holder.agents for (a, _r) in labels)
        if isinstance(holder, F.ReaSingle):
            return (holder.agent, holder.role) in labels
        if isinstance(holder, F.ReaGroup):
            return any(
                (a, r) in labels
                for a in holder.agents
                for r in holder.roles
                if self.m.rea_any(world, a, r)
            )
        raise TypeError(f"not a holder: {holder!r}")

    def _check_holder(self, holder):
        if isinstance(holder, F.SingleAgent):
            agents, roles = {holder.agent}, set()
        elif isinstance(holder, F.AgentGroup):
            agents, roles = set(holder.agents), set()
        elif isinstance(holder, F.ReaSingle):
            agents, roles = {holder.agent}, {holder.role}
        else:
            agents, roles = set(holder.agents), set(holder.roles)
        unknown = agents - self.m.agents
        if unknown:
            raise EvalError(f"unknown agent(s) {sorted(unknown)}")
        unknown = roles - self.m.roles
        if unknown:
            raise EvalError(f"unknown role(s) {sorted(unknown)}")

    def controlled_atoms(self, world, holder):
        """The holder's control set at a world (c, union c, cr, union cr)."""
        m = self.m
        if isinstance(holder, F.SingleAgent):
            return m.c(holder.agent, world)
        if isinstance(holder, F.AgentGroup):
            out = frozenset()
            for a in holder.agents:
                out |= m.c(a, world)
            return out
        if isinstance(holder, F.ReaSingle):
            return m.cr(holder.agent, holder.role, world)
        out = frozenset()
        for a in holder.agents:
            for r in holder.roles:
                if m.rea_any(world, a, r):
                    out |= m.cr(a, r, world)
        return out

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

    def _exists_other_falsifier(self, sat):
        """Per-world test for 'some world w' != w falsifies phi'."""
        complement = self.world_set - sat
        if len(complement) >= 2:
            return self.world_set
        if not complement:
            return frozenset()
        (only,) = complement
        return self.world_set - {only}

    def _cap_set(self, holder, sub_sat):
        falsifiable_at = self._exists_other_falsifier(sub_sat)
        out = set()
        entail_memo = {}
        for w in self.worlds:
            if w not in falsifiable_at:
                continue
            atoms = self.controlled_atoms(w, holder)
            key = atoms
            got = entail_memo.get(key)
            if got is None:
                got = self.sigma_entails(atoms, sub_sat)
                entail_memo[key] = got
            if got:
                out.add(w)
        return frozenset(out)

    # -- satisfying sets -----------------------------------------------------

    def sat(self, f):
        got = self._sat.get(f)
        if got is None:
            got = self._compute(f)
            self._sat[f] = got
        return got

    def eval(self, world, f):
        if world not in self.m.succ:
            raise EvalError(f"unknown world {world!r}")
        return world in self.sat(f)

    def eval_all(self, f):
        return self.sat(f)

    def _compute(self, f):
        m = self.m
        W = self.world_set
        if isinstance(f, F.TrueF):
            return W
        if isinstance(f, F.FalseF):
            return frozenset()
        if isinstance(f, F.Atom):
            if f.name not in m.facts:
                raise EvalError(f"unknown fact {f.name!r}")
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
        if isinstance(f, (F.Cap, F.JointCap, F.Ability, F.Attempt, F.Stit, F.InControl)):
            self._check_holder(f.holder)
        if isinstance(f, F.Cap):
            return self._cap_set(f.holder, self.sat(f.sub))
        if isinstance(f, F.JointCap):
            return self._joint_cap(f.holder, self.sat(f.sub))
        if isinstance(f, F.Ability):
            cap = self.sat(F.Cap(f.holder, f.sub))
            sub = self.sat(f.sub)
            return frozenset(
                w for w in cap
                if any(t.dst in sub for t in self.influence(w, f.holder))
            )
        if isinstance(f, F.Attempt):
            able = self.sat(F.Ability(f.holder, f.sub))
            sub = self.sat(f.sub)
            return frozenset(
                w for w in able
                if all(t.dst in sub for t in self.influence(w, f.holder))
            )
        if isinstance(f, F.InControl):
            return frozenset(
                w for w in self.worlds
                if all(self._labels_match(t.labels, f.holder, w) for t in m.out[w])
            )
        if isinstance(f, F.Stit):
            return self.sat(F.Attempt(f.holder, f.sub)) & self.sat(F.InControl(f.holder))
        if isinstance(f, F.Initiative):
            return self._initiative(f.roles, f.sub)
        if isinstance(f, F.Member):
            org = self._org(f.org)
            self._check_agent(f.agent)
            return frozenset(w for w in self.worlds if f.agent in org.members.get(w, ()))
        if isinstance(f, F.RoleOf):
            org = self._org(f.org)
            self._check_role(f.role)
            return frozenset(w for w in self.worlds if f.role in org.roles.get(w, ()))
        if isinstance(f, F.Play):
            org = self._org(f.org)
            self._check_agent(f.agent)
            self._check_role(f.role)
            return frozenset(
                w for w in self.worlds if (f.agent, f.role) in org.rea.get(w, ())
            )
        if isinstance(f, F.Dep):
            org = self._org(f.org)
            for r in f.low | f.high:
                self._check_role(r)
            return frozenset(w for w in self.worlds if self._dep_groups(org, w, f.low, f.high))
        if isinstance(f, F.Know):
            org = self._org(f.org)
            lits = F.conjunct_literals(f.body)
            out = []
            for w in self.worlds:
                kp = org.know_plus.get(w, frozenset())
                km = org.know_minus.get(w, frozenset())
                if all((name in kp) if pos else (name in km) for name, pos in lits):
                    out.append(w)
            return frozenset(out)
        if isinstance(f, F.InCharge):
            org = self._org(f.org)
            self._check_role(f.role)
            need = set(F.conjunct_atoms(f.body))
            return frozenset(
                w for w in self.worlds if need <= org.obj(f.role, w)
            )
        if isinstance(f, F.Desire):
            org = self._org(f.org)
            need = set(F.conjunct_atoms(f.body))
            return frozenset(
                w for w in self.worlds if need <= org.desires.get(w, frozenset())
            )
        raise TypeError(f"not a formula: {f!r}")

    # -- helpers -------------------------------------------------------------

    def _org(self, name):
        org = self.m.orgs.get(name)
        if org is None:
            raise EvalError(f"unknown organization {name!r}")
        return org

    def _check_agent(self, a):
        if a not in self.m.agents:
            raise EvalError(f"unknown agent {a!r}")

    def _check_role(self, r):
        if r not in self.m.roles:
            raise EvalError(f"unknown role {r!r}")

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
        direct attempt disjunct remains.
        """
        for r in roles:
            self._check_role(r)
        out = set()
        positive = F.is_positive_conjunction(sub)
        for w in self.worlds:
            if any(
                self._initiative_here(org, w, roles, sub, positive)
                for org in self.m.orgs.values()
            ):
                out.add(w)
        return frozenset(out)

    def _initiative_here(self, org, w, roles, sub, positive):
        roles_here = org.roles.get(w, frozenset())
        rea_here = org.rea.get(w, frozenset())
        if not roles <= roles_here:
            return False
        if len(roles) == 1:
            (r,) = roles
            players = sorted(a for (a, rr) in rea_here if rr == r)
            for a in players:
                disjuncts = [F.Attempt(F.ReaSingle(a, r), sub)]
                if positive:
                    for q in sorted(roles_here):
                        disjuncts.append(
                            F.Attempt(F.ReaSingle(a, r), F.InCharge(org.id, q, sub))
                        )
                goal = F.AF(_disjoin(disjuncts))
                if w in self.sat(goal):
                    return True
            return False
        eligible = sorted(
            {a for (a, rr) in rea_here if rr in roles}
        )
        holder_roles = frozenset(roles)
        for k in range(1, len(eligible) + 1):
            for combo in itertools.combinations(eligible, k):
                group = F.ReaGroup(frozenset(combo), holder_roles)
                disjuncts = [F.Attempt(group, sub)]
                if positive:
                    for zset in _nonempty_subsets(sorted(roles_here)):
                        body = F.conjoin(
                            [F.InCharge(org.id, q, sub) for q in zset]
                        )
                        disjuncts.append(F.Attempt(group, body))
                goal = F.AF(_disjoin(disjuncts))
                if w in self.sat(goal):
                    return True
        return False


def _disjoin(parts):
    out = parts[0]
    for p in parts[1:]:
        out = F.Or(out, p)
    return out


def _nonempty_subsets(items):
    for k in range(1, len(items) + 1):
        yield from itertools.combinations(items, k)


def _atom_sort_key(a):
    if isinstance(a, InChargeAtom):
        return (1, a.org, a.role, a.fact)
    return (0, a, "", "")

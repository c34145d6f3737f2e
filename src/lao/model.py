"""Semantic structures: worlds, labeled transitions, capability maps and
organization structures, plus the JSON model format, its loader and the
structural validator.

A loaded :class:`Model` is immutable (frozen sets throughout) and all
operations elsewhere in the package are pure functions of it, so models
are safe to share across threads.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace


class ModelError(Exception):
    """Raised on malformed model files: syntax, unknown ids, duplicates."""


@dataclass(frozen=True)
class InChargeAtom:
    """Controllable fact 'org puts role in charge of fact'.

    True at a world iff the fact is in the role's objective set there.
    """

    org: str
    role: str
    fact: str


# A ControlAtom is either a plain fact name (str) or an InChargeAtom.


@dataclass(frozen=True)
class World:
    id: str
    facts: frozenset


@dataclass(frozen=True)
class Transition:
    src: str
    dst: str
    labels: frozenset  # of (agent, role) pairs


@dataclass(frozen=True)
class OrgStructure:
    """One organization: every component is indexed by world id."""

    id: str
    members: dict  # world -> frozenset[agent]
    roles: dict  # world -> frozenset[role]
    rea: dict  # world -> frozenset[(agent, role)]
    dep: dict  # world -> frozenset[(role, role)]
    desires: dict  # world -> frozenset[fact]
    objectives: dict  # world -> {role: frozenset[fact]}
    know_plus: dict  # world -> frozenset[fact]
    know_minus: dict  # world -> frozenset[fact]

    def obj(self, role, world):
        return self.objectives.get(world, {}).get(role, frozenset())


@dataclass(frozen=True)
class Model:
    """A total Kripke model whose transition labels are licensed by rea.

    Built from primary data only.  The constructor merges the labels of
    transitions with the same endpoints, orders transitions by (src, dst),
    applies the totality policy to worlds without an outgoing transition
    and derives the fields below `totality`.  It raises ModelError on a
    transition between unknown worlds, on an unknown totality policy, on
    a sink world under "error" and on a label (agent, role) that no
    organization enacts at the transition's source.  So every Model is
    total and label-sound, and `dataclasses.replace` re-derives the rest.
    """

    facts: frozenset
    agents: frozenset
    roles: frozenset
    worlds: tuple  # of World, in file order
    transitions: tuple  # of Transition, merged per (src, dst) on construction
    cap_c: dict  # agent -> world -> frozenset[ControlAtom]
    cap_cn: dict  # role -> world -> frozenset[ControlAtom]
    cap_cr: dict  # (agent, role) -> world -> frozenset[ControlAtom]
    orgs: dict  # org id -> OrgStructure
    totality: str  # "error" or "self-loop"
    world_ids: tuple = field(init=False)
    valuation: dict = field(init=False)  # world -> frozenset[fact]
    succ: dict = field(init=False)  # world -> frozenset[world]
    out: dict = field(init=False)  # world -> tuple[Transition]
    rea_union: dict = field(init=False)  # world -> frozenset[(agent, role)], all orgs

    def __post_init__(self):
        world_ids = tuple(w.id for w in self.worlds)
        out = {w: [] for w in world_ids}
        merged = {}
        for t in self.transitions:
            if t.src not in out:
                raise ModelError(f"transition from unknown world {t.src!r}")
            if t.dst not in out:
                raise ModelError(f"transition to unknown world {t.dst!r}")
            merged.setdefault((t.src, t.dst), []).append(t)
        if self.totality not in ("error", "self-loop"):
            raise ModelError(f"config.totality must be 'error' or 'self-loop', got {self.totality!r}")
        has_out = {src for (src, _dst) in merged}
        sinks = [w for w in world_ids if w not in has_out]
        if sinks and self.totality == "error":
            raise ModelError(
                f"totality violated: worlds {sinks} have no outgoing transition "
                "(set config.totality to 'self-loop' to add unlabeled loops)"
            )
        for w in sinks:
            merged[(w, w)] = [Transition(w, w, frozenset())]
        transitions = tuple(
            ts[0] if len(ts) == 1 else Transition(src, dst, frozenset().union(*(t.labels for t in ts)))
            for (src, dst), ts in sorted(merged.items())
        )
        # One set per distinct union, shared by the worlds that have it.
        rea_union, distinct = {}, {}
        for w in world_ids:
            union = frozenset().union(*(o.rea.get(w, ()) for o in self.orgs.values()))
            rea_union[w] = distinct.setdefault(union, union)
        for t in transitions:
            out[t.src].append(t)
            for (a, r) in t.labels:
                # A label outside every rea relation names an act nobody
                # may perform.
                if (a, r) not in rea_union[t.src]:
                    raise ModelError(
                        f"label without rea: transition {t.src}->{t.dst} carries "
                        f"({a},{r}) but no organization has rea({t.src},{a},{r})"
                    )
        out = {w: tuple(ts) for w, ts in out.items()}
        derived = {
            "transitions": transitions,
            "world_ids": world_ids,
            "valuation": {w.id: w.facts for w in self.worlds},
            "succ": {w: frozenset(t.dst for t in ts) for w, ts in out.items()},
            "out": out,
            "rea_union": rea_union,
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def c(self, agent, world):
        return self.cap_c.get(agent, {}).get(world, frozenset())

    def cn(self, role, world):
        return self.cap_cn.get(role, {}).get(world, frozenset())

    def cr(self, agent, role, world):
        """Role-enacting capabilities; defined only where rea holds."""
        if not self.rea_any(world, agent, role):
            return frozenset()
        explicit = self.cap_cr.get((agent, role), {}).get(world)
        if explicit is not None:
            return explicit
        return self.c(agent, world)

    def rea_any(self, world, agent, role):
        """True iff some organization has agent enacting role at world."""
        return (agent, role) in self.rea_union.get(world, ())

    def atom_true(self, atom, world):
        if isinstance(atom, InChargeAtom):
            org = self.orgs.get(atom.org)
            if org is None:
                return False
            return atom.fact in org.obj(atom.role, world)
        return atom in self.valuation[world]

    def digest(self):
        """Stable hash of the canonicalized model."""
        return hashlib.sha256(
            json.dumps(canonical_dict(self), sort_keys=True).encode()
        ).hexdigest()[:16]


@dataclass(frozen=True)
class Violation:
    invariant: str
    world: str
    detail: str

    def __str__(self):
        return f"{self.invariant} at {self.world}: {self.detail}"


# ---------------------------------------------------------------------------
# Loading


def _atom_from_json(raw, where):
    if isinstance(raw, str):
        return raw
    if isinstance(raw, dict) and set(raw) == {"incharge"}:
        inner = raw["incharge"]
        fields = [inner.get(k) for k in ("org", "role", "fact")] if isinstance(inner, dict) else [None]
        if not all(isinstance(x, str) for x in fields):
            raise ModelError(f"{where}: malformed incharge atom {raw!r}")
        return InChargeAtom(*fields)
    raise ModelError(f"{where}: atom must be a fact name or an incharge object, got {raw!r}")


def _per_world(raw, world_ids, convert, where):
    """Expand a {'default': ..., 'at': {world: ...}} entry (or bare default)."""
    if isinstance(raw, dict) and ("default" in raw or "at" in raw):
        default = raw.get("default", [])
        at = raw.get("at", {})
        if not isinstance(at, dict):
            raise ModelError(f"{where}: 'at' must be an object of per-world overrides")
    else:
        default = raw
        at = {}
    out = {}
    default_value = convert(default)
    for w in world_ids:
        out[w] = default_value
    for w, entry in at.items():
        if w not in world_ids:
            raise ModelError(f"{where}: unknown world {w!r} in overrides")
        out[w] = convert(entry)
    return out


def _check_ids(kind, ids):
    seen = set()
    for x in ids:
        if not isinstance(x, str) or not x:
            raise ModelError(f"{kind} ids must be non-empty strings, got {x!r}")
        if x in seen:
            raise ModelError(f"duplicate {kind} id {x!r}")
        seen.add(x)


def reflexive_transitive_closure(pairs, domain):
    closed = set(pairs)
    closed.update((r, r) for r in domain)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(closed):
            for (c, d) in list(closed):
                if b == c and (a, d) not in closed:
                    closed.add((a, d))
                    changed = True
    return frozenset(closed)


def _check_shape(doc):
    """Reject JSON of the wrong shape before any field is used."""

    def need(ok, where, what):
        if not ok:
            raise ModelError(f"{where}: {what}")

    def obj(v, where):
        need(isinstance(v, dict), where, f"expected an object, got {v!r}")

    def names(v, where):
        need(isinstance(v, list) and all(isinstance(x, str) for x in v), where,
             f"expected a list of names, got {v!r}")

    def pairs(v, where, objects=True):
        need(isinstance(v, list), where, f"expected a list of pairs, got {v!r}")
        for pair in v:
            if objects and isinstance(pair, dict):
                ids = [pair.get("agent"), pair.get("role")]
            else:
                need(isinstance(pair, list) and len(pair) == 2, where, f"expected a pair, got {pair!r}")
                ids = pair
            need(all(isinstance(x, (str, type(None))) for x in ids), where,
                 f"pair members must be names, got {pair!r}")

    def per_world(raw, where, check):
        if isinstance(raw, dict) and ("default" in raw or "at" in raw):
            obj(raw.get("at", {}), f"{where}.at")
            check(raw.get("default", []), where)
            for w, v in raw.get("at", {}).items():
                check(v, f"{where}.at[{w}]")
        else:
            check(raw, where)

    for key in ("facts", "agents", "roles", "worlds", "transitions", "orgs"):
        need(isinstance(doc.get(key, []), list), key, "expected a list")
    for key in ("capabilities", "config"):
        obj(doc.get(key, {}), key)
    for kind in ("c", "cn", "cr"):
        obj(doc.get("capabilities", {}).get(kind, {}), f"capabilities.{kind}")
    for w in doc.get("worlds", []):
        obj(w, "worlds")
        names(w.get("facts", []), f"world {w.get('id')!r} facts")
    for t in doc.get("transitions", []):
        obj(t, "transitions")
        need(all(isinstance(t.get(k), (str, type(None))) for k in ("from", "to")),
             "transitions", f"from/to must be world ids, got {t!r}")
        pairs(t.get("labels", []), f"transition {t.get('from')!r}->{t.get('to')!r} labels")
    for org in doc.get("orgs", []):
        obj(org, "orgs")
        where = f"org {org.get('id')!r}"
        need(isinstance(org.get("id", ""), str), where, "id must be a string")
        for key in ("members", "roles", "desires", "knowPlus", "knowMinus"):
            per_world(org.get(key, []), f"{where} {key}", names)
        per_world(org.get("rea", []), f"{where} rea", pairs)
        per_world(org.get("dep", []), f"{where} dep", lambda v, at_where: pairs(v, at_where, objects=False))
        obj(org.get("objectives", {}), f"{where} objectives")
        for role, entry in org.get("objectives", {}).items():
            per_world(entry, f"{where} objectives[{role}]", names)


def load_model(source):
    """Parse model JSON text into a validated-on-load Model.

    Raises ModelError on syntax errors (with line/position), malformed
    JSON shapes, unknown identifier references and duplicate ids, and
    through the Model constructor on totality violations under the
    "error" policy and on labels without rea.
    """
    try:
        doc = json.loads(source)
    except json.JSONDecodeError as e:
        raise ModelError(f"syntax error: {e.msg} at line {e.lineno}, column {e.colno}")
    except RecursionError:
        raise ModelError("model file nested too deeply")
    if not isinstance(doc, dict):
        raise ModelError("model file must contain a JSON object")
    _check_shape(doc)

    facts = doc.get("facts", [])
    agents = doc.get("agents", [])
    roles = doc.get("roles", [])
    _check_ids("fact", facts)
    _check_ids("agent", agents)
    _check_ids("role", roles)
    if not facts:
        raise ModelError("fact set non-empty violated: declare at least one fact")
    if not agents:
        raise ModelError("agent set non-empty violated: declare at least one agent")
    fact_set = frozenset(facts)
    agent_set = frozenset(agents)
    role_set = frozenset(roles)

    worlds_raw = doc.get("worlds", [])
    if not worlds_raw:
        raise ModelError("W non-empty violated: model declares zero worlds")
    _check_ids("world", [w.get("id") for w in worlds_raw])
    worlds = []
    for w in worlds_raw:
        wfacts = frozenset(w.get("facts", []))
        unknown = wfacts - fact_set
        if unknown:
            raise ModelError(f"world {w['id']!r}: unknown facts {sorted(unknown)}")
        worlds.append(World(w["id"], wfacts))
    world_ids = tuple(w.id for w in worlds)
    world_id_set = set(world_ids)
    org_ids = {o.get("id") for o in doc.get("orgs", [])}

    def check_atom(atom, where):
        if isinstance(atom, InChargeAtom):
            if atom.org not in org_ids:
                raise ModelError(f"{where}: incharge atom names unknown org {atom.org!r}")
            if atom.role not in role_set:
                raise ModelError(f"{where}: incharge atom names unknown role {atom.role!r}")
            if atom.fact not in fact_set:
                raise ModelError(f"{where}: incharge atom names unknown fact {atom.fact!r}")
        elif atom not in fact_set:
            raise ModelError(f"{where}: unknown fact {atom!r} in capability set")

    def atoms(raw_list, where):
        if not isinstance(raw_list, list):
            raise ModelError(f"{where}: expected a list of atoms")
        out = frozenset(_atom_from_json(a, where) for a in raw_list)
        for a in out:
            check_atom(a, where)
        return out

    caps = doc.get("capabilities", {})
    cap_c = {}
    for agent, entry in caps.get("c", {}).items():
        if agent not in agent_set:
            raise ModelError(f"capabilities.c: unknown agent {agent!r}")
        cap_c[agent] = _per_world(entry, world_id_set, lambda v: atoms(v, f"c[{agent}]"), f"c[{agent}]")
    for agent in agent_set:
        cap_c.setdefault(agent, {w: frozenset() for w in world_ids})
    cap_cn = {}
    for role, entry in caps.get("cn", {}).items():
        if role not in role_set:
            raise ModelError(f"capabilities.cn: unknown role {role!r}")
        cap_cn[role] = _per_world(entry, world_id_set, lambda v: atoms(v, f"cn[{role}]"), f"cn[{role}]")
    for role in role_set:
        cap_cn.setdefault(role, {w: frozenset() for w in world_ids})
    cap_cr = {}
    for key, entry in caps.get("cr", {}).items():
        if ":" not in key:
            raise ModelError(f"capabilities.cr keys are 'agent:role', got {key!r}")
        agent, role = key.split(":", 1)
        if agent not in agent_set:
            raise ModelError(f"capabilities.cr: unknown agent {agent!r}")
        if role not in role_set:
            raise ModelError(f"capabilities.cr: unknown role {role!r}")
        cap_cr[(agent, role)] = _per_world(
            entry, world_id_set, lambda v: atoms(v, f"cr[{key}]"), f"cr[{key}]"
        )

    orgs = {}
    for raw in doc.get("orgs", []):
        oid = raw.get("id")
        if not oid:
            raise ModelError("every org needs an id")
        if oid in orgs:
            raise ModelError(f"duplicate org id {oid!r}")

        def id_list(v, allowed, what):
            out = frozenset(v)
            unknown = out - allowed
            if unknown:
                raise ModelError(f"org {oid!r}: unknown {what} {sorted(unknown)}")
            return out

        members = _per_world(
            raw.get("members", []), world_id_set,
            lambda v: id_list(v, agent_set, "agents"), f"org {oid} members",
        )
        oroles = _per_world(
            raw.get("roles", []), world_id_set,
            lambda v: id_list(v, role_set, "roles"), f"org {oid} roles",
        )

        def rea_list(v):
            out = set()
            for pair in v:
                if isinstance(pair, dict):
                    a, r = pair.get("agent"), pair.get("role")
                else:
                    a, r = pair
                if a not in agent_set:
                    raise ModelError(f"org {oid!r}: rea names unknown agent {a!r}")
                if r not in role_set:
                    raise ModelError(f"org {oid!r}: rea names unknown role {r!r}")
                out.add((a, r))
            return frozenset(out)

        rea = _per_world(raw.get("rea", []), world_id_set, rea_list, f"org {oid} rea")

        def dep_list(v):
            out = set()
            for pair in v:
                r, q = pair
                if r not in role_set or q not in role_set:
                    raise ModelError(f"org {oid!r}: dep names unknown role in {pair!r}")
                out.add((r, q))
            return frozenset(out)

        dep = _per_world(raw.get("dep", []), world_id_set, dep_list, f"org {oid} dep")
        if raw.get("depClosure", True):
            dep = {w: reflexive_transitive_closure(dep[w], oroles[w]) for w in dep}

        desires = _per_world(
            raw.get("desires", []), world_id_set,
            lambda v: id_list(v, fact_set, "facts"), f"org {oid} desires",
        )

        obj_raw = raw.get("objectives", {})
        per_role = {}
        for role, entry in obj_raw.items():
            if role not in role_set:
                raise ModelError(f"org {oid!r}: objectives name unknown role {role!r}")
            per_role[role] = _per_world(
                entry, world_id_set,
                lambda v: id_list(v, fact_set, "facts"), f"org {oid} objectives[{role}]",
            )
        objectives = {
            w: {role: per_role[role][w] for role in per_role} for w in world_ids
        }

        know_plus = _per_world(
            raw.get("knowPlus", []), world_id_set,
            lambda v: id_list(v, fact_set, "facts"), f"org {oid} knowPlus",
        )
        know_minus = _per_world(
            raw.get("knowMinus", []), world_id_set,
            lambda v: id_list(v, fact_set, "facts"), f"org {oid} knowMinus",
        )
        orgs[oid] = OrgStructure(
            oid, members, oroles, rea, dep, desires, objectives, know_plus, know_minus
        )

    transitions = []
    for raw in doc.get("transitions", []):
        labels = set()
        for lab in raw.get("labels", []):
            if isinstance(lab, dict):
                a, r = lab.get("agent"), lab.get("role")
            else:
                a, r = lab
            if a not in agent_set:
                raise ModelError(f"transition label names unknown agent {a!r}")
            if r not in role_set:
                raise ModelError(f"transition label names unknown role {r!r}")
            labels.add((a, r))
        transitions.append(Transition(raw.get("from"), raw.get("to"), frozenset(labels)))

    return Model(
        facts=fact_set,
        agents=agent_set,
        roles=role_set,
        worlds=tuple(worlds),
        transitions=transitions,
        cap_c=cap_c,
        cap_cn=cap_cn,
        cap_cr=cap_cr,
        orgs=orgs,
        totality=doc.get("config", {}).get("totality", "error"),
    )


def load_model_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return load_model(fh.read())


# ---------------------------------------------------------------------------
# Validation


def validate_model(model):
    """Check the structural invariants the Model constructor does not
    enforce (it enforces totality and label soundness); returns a list of
    Violations."""
    out = []
    for org in model.orgs.values():
        for w in model.world_ids:
            roles_w = org.roles.get(w, frozenset())
            members_w = org.members.get(w, frozenset())
            dep_w = org.dep.get(w, frozenset())
            for r in roles_w:
                if (r, r) not in dep_w:
                    out.append(
                        Violation("Reflexivity", w, f"org {org.id}: missing ({r},{r})")
                    )
            for (p, r) in dep_w:
                for (r2, q) in dep_w:
                    if r == r2 and (p, q) not in dep_w:
                        out.append(
                            Violation(
                                "Transitivity", w,
                                f"org {org.id}: ({p},{r}),({r},{q}) without ({p},{q})",
                            )
                        )
            for (r, q) in dep_w:
                if r not in roles_w or q not in roles_w:
                    out.append(
                        Violation("DepDomain", w, f"org {org.id}: ({r},{q}) outside roles")
                    )
            for (a, r) in org.rea.get(w, frozenset()):
                if a not in members_w or r not in roles_w:
                    out.append(
                        Violation(
                            "ReaDomain", w,
                            f"org {org.id}: rea ({a},{r}) outside members x roles",
                        )
                    )
                if not model.cn(r, w) <= model.c(a, w):
                    out.append(
                        Violation(
                            "NecessaryCapabilities", w,
                            f"org {org.id}: cn({r}) not within c({a})",
                        )
                    )
            for role, objs in org.objectives.get(w, {}).items():
                if not objs <= model.facts:
                    out.append(
                        Violation("ObjectiveDomain", w, f"org {org.id}: {role} objectives outside facts")
                    )
            kp = org.know_plus.get(w, frozenset())
            km = org.know_minus.get(w, frozenset())
            if not kp <= model.valuation[w]:
                out.append(
                    Violation(
                        "KnowledgeSoundness", w,
                        f"org {org.id}: K+ contains facts absent from the world: "
                        f"{sorted(kp - model.valuation[w])}",
                    )
                )
            if km & model.valuation[w]:
                out.append(
                    Violation(
                        "NegativeKnowledgeSoundness", w,
                        f"org {org.id}: K- contains facts true in the world: "
                        f"{sorted(km & model.valuation[w])}",
                    )
                )
    for (a, r), per_world in model.cap_cr.items():
        for w in model.world_ids:
            if per_world.get(w) and not model.rea_any(w, a, r):
                out.append(
                    Violation("CrWithoutRea", w, f"cr({a},{r}) defined without rea")
                )
            if model.rea_any(w, a, r) and not model.c(a, w) <= model.cr(a, r, w):
                out.append(
                    Violation("RoleExtraCapabilities", w, f"c({a}) not within cr({a},{r})")
                )
    return out


def close_dependencies(model):
    """Reflexive-transitive closure of every org's dep relation, per world.

    Idempotent; returns a new Model sharing everything else.
    """
    return replace(model, orgs={
        oid: replace(org, dep={
            w: reflexive_transitive_closure(org.dep.get(w, frozenset()), org.roles.get(w, frozenset()))
            for w in model.world_ids
        })
        for oid, org in model.orgs.items()
    })


# ---------------------------------------------------------------------------
# Canonical form (digests, reports)


def _atom_json(a):
    if isinstance(a, InChargeAtom):
        return {"incharge": {"org": a.org, "role": a.role, "fact": a.fact}}
    return a


def _atom_key(a):
    return json.dumps(_atom_json(a), sort_keys=True)


def _capabilities_json(caps, key=str):
    return {
        key(holder): {w: sorted((_atom_json(x) for x in per_w[w]), key=json.dumps) for w in sorted(per_w)}
        for holder, per_w in sorted(caps.items())
    }


def canonical_dict(model):
    """A canonical JSON-ready dict of the full model (stable ordering)."""
    return {
        "facts": sorted(model.facts),
        "agents": sorted(model.agents),
        "roles": sorted(model.roles),
        "worlds": [{"id": w.id, "facts": sorted(w.facts)} for w in model.worlds],
        "transitions": [
            {
                "from": t.src,
                "to": t.dst,
                "labels": [{"agent": a, "role": r} for (a, r) in sorted(t.labels)],
            }
            for t in model.transitions
        ],
        "capabilities": {
            "c": _capabilities_json(model.cap_c),
            "cn": _capabilities_json(model.cap_cn),
            "cr": _capabilities_json(model.cap_cr, key=":".join),
        },
        "orgs": [
            {
                "id": org.id,
                "members": {w: sorted(org.members[w]) for w in sorted(org.members)},
                "roles": {w: sorted(org.roles[w]) for w in sorted(org.roles)},
                "rea": {w: sorted(map(list, org.rea[w])) for w in sorted(org.rea)},
                "dep": {w: sorted(map(list, org.dep[w])) for w in sorted(org.dep)},
                "desires": {w: sorted(org.desires[w]) for w in sorted(org.desires)},
                "objectives": {
                    w: {r: sorted(fs) for r, fs in sorted(org.objectives[w].items())}
                    for w in sorted(org.objectives)
                },
                "knowPlus": {w: sorted(org.know_plus[w]) for w in sorted(org.know_plus)},
                "knowMinus": {w: sorted(org.know_minus[w]) for w in sorted(org.know_minus)},
            }
            for org in sorted(model.orgs.values(), key=lambda o: o.id)
        ],
        "config": {"totality": model.totality},
    }

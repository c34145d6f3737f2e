"""Per-layer tracing from outside the program.

The tracer wraps public functions and methods of `lao` at run time.  A
function imported by name into another module (``from .model import
load_model``) is a second binding of the same object, so every `lao`
module's globals are searched and each binding is replaced.
``Evaluator.sat`` is wrapped on the class, and each call is recorded
under the family of its formula argument; a call whose formula is not yet
in the Evaluator's memo (``_sat``) counts as distinct.

Each call records a span: name, start, end, parent span and op id.  Spans
are kept in flat arrays until the pass ends and are then folded into
per-name totals.  A span's self time is its duration minus the time of
its child spans.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

# (module, attribute path) -> span name.
FUNCTIONS = {
    ("lao.cli", "main"): "cli.main",
    ("lao.formula", "parse"): "formula.parse",
    ("lao.formula", "fprint"): "formula.fprint",
    ("lao.model", "load_model"): "model.load_model",
    ("lao.model", "validate_model"): "model.validate_model",
    ("lao.model", "Model.digest"): "model.digest",
    ("lao.semantics", "Evaluator.eval"): "semantics.eval",
    ("lao.semantics", "Evaluator.sigma_entails"): "semantics.sigma_entails",
    ("lao.semantics", "Evaluator.controlled_atoms"): "semantics.controlled_atoms",
    ("lao.semantics", "Evaluator.influence"): "semantics.influence",
    ("lao.org", "check_well_defined"): "org.check_well_defined",
    ("lao.org", "check_successful"): "org.check_successful",
    ("lao.org", "check_good"): "org.check_good",
    ("lao.org", "check_good_property"): "org.check_good_property",
    ("lao.org", "check_delegation_closed"): "org.check_delegation_closed",
    ("lao.org", "check_efficient"): "org.check_efficient",
    ("lao.org", "classify_structure"): "org.classify_structure",
    ("lao.org", "default_pool"): "org.default_pool",
    ("lao.org", "org_capability"): "org.org_capability",
    ("lao.verify", "generate_model"): "verify.generate_model",
    ("lao.verify", "run_axiom_suite"): "verify.run_axiom_suite",
    ("lao.verify", "random_ctl_pool"): "verify.random_ctl_pool",
    ("lao.verify", "PathOracle.eval"): "verify.PathOracle.eval",
    ("lao.verify", "PathOracle.lassos"): "verify.PathOracle.lassos",
}

# Formula class name -> operator family of an Evaluator.sat call.
FAMILIES = {
    "temporal": ("AX", "EX", "AF", "EF", "AG", "EG", "AU", "EU"),
    "boolean": ("TrueF", "FalseF", "Atom", "Not", "And", "Or", "Implies", "Iff"),
    "capability": ("Cap", "JointCap"),
    "agency": ("Ability", "Attempt", "Stit", "InControl"),
    "initiative": ("Initiative",),
    "orgpred": ("Member", "RoleOf", "Play", "Dep", "Know", "InCharge", "Desire"),
}
OP_SPAN = "op"


class TraceError(Exception):
    """A traced function is missing, so its layer would silently read 0."""


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self._patches = []
        self.op_id = -1
        self.sat_distinct = 0
        self._reset()

    def _reset(self):
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]

    def name_id(self, name):
        got = self._ids.get(name)
        if got is None:
            got = self._ids[name] = len(self.names)
            self.names.append(name)
        return got

    # -- spans ---------------------------------------------------------------

    def open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.end[idx] = perf_counter()
        self.stack.pop()

    def wrap(self, fn, name):
        nid = self.name_id(name)
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    def wrap_sat(self, sat, formula_mod):
        family_of = {
            getattr(formula_mod, cls): self.name_id(f"semantics.{family}")
            for family, classes in FAMILIES.items() for cls in classes
        }
        open_, close = self.open, self.close
        tracer = self

        @functools.wraps(sat)
        def traced(ev, f):
            memo = getattr(ev, "_sat", None)
            if memo is not None and f not in memo:
                tracer.sat_distinct += 1
            idx = open_(family_of[type(f)])
            try:
                return sat(ev, f)
            finally:
                close(idx)

        return traced

    # -- patching ------------------------------------------------------------

    def install(self):
        """Wrap every traced function at every binding site."""
        modules = {n: m for n, m in sys.modules.items()
                   if m is not None and (n == "lao" or n.startswith("lao."))}
        for (mod_name, path), span in FUNCTIONS.items():
            owner = modules.get(mod_name)
            for part in path.split(".")[:-1]:
                owner = getattr(owner, part, None)
            attr = path.split(".")[-1]
            orig = getattr(owner, attr, None)
            if orig is None:
                raise TraceError(f"cannot trace {mod_name}.{path}: not found")
            traced = self.wrap(orig, span)
            if isinstance(owner, type):
                self._patch(owner, attr, orig, traced)
            else:
                for mod in modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, key, orig, traced)
        ev_cls = modules["lao.semantics"].Evaluator
        self._patch(ev_cls, "sat", ev_cls.sat, self.wrap_sat(ev_cls.sat, modules["lao.formula"]))

    def _patch(self, owner, attr, orig, new):
        setattr(owner, attr, new)
        self._patches.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- aggregation ---------------------------------------------------------

    def fold(self):
        """Fold the spans recorded so far into per-name and per-op totals,
        then drop them.  Returns (totals, per_op, sat_distinct) where totals
        maps a span name to [calls, inclusive seconds, self seconds], per_op
        maps (op id, span name) to [inclusive seconds, self seconds] and
        sat_distinct counts the sat calls that missed the memo."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        totals = {}
        per_op = {}
        names, name, op = self.names, self.name, self.op
        for i in range(n):
            key = names[name[i]]
            row = totals.get(key)
            if row is None:
                row = totals[key] = [0, 0.0, 0.0]
            own = dur[i] - child[i]
            row[0] += 1
            row[1] += dur[i]
            row[2] += own
            cell = per_op.get((op[i], key))
            if cell is None:
                cell = per_op[(op[i], key)] = [0.0, 0.0]
            cell[0] += dur[i]
            cell[1] += own
        distinct, self.sat_distinct = self.sat_distinct, 0
        self._reset()
        return totals, per_op, distinct

"""Formula language: AST, parser and printer.

The surface syntax is plain ASCII.  Identifiers match
``[A-Za-z_][A-Za-z0-9_-]*`` and ``#`` starts a line comment.  Operator
precedence, tightest first::

    !   unary (also all prefix modalities)
    &
    |
    ->  (right associative)
    <-> (right associative)

Modalities:

* temporal: ``X f`` (= ``AX f``), ``<> f`` (= ``AF f``), ``EX/AF/EF/AG/EG f``,
  ``A[f U g]``, ``E[f U g]``
* agency:   ``C[h] f``, ``JC[{a,b}] f``, ``G[h] f``, ``H[h] f``, ``E[h] f``,
  ``IC[h]`` where a holder ``h`` is ``a``, ``{a,b}``, ``a:r`` or
  ``{a,b}:{r,q}``
* initiative: ``I[r] f`` and ``I[{r,q}] f``
* predicates: ``member(a,O)``, ``role(r,O)``, ``play(a,r,O)``,
  ``dep(O,r,q)`` with either role argument optionally a ``{...}`` group,
  ``know(O, lits)``, ``incharge(O,r,conj)``, ``desire(O,conj)``

``incharge`` and ``desire`` bodies admit only atoms and ``&``; ``know``
bodies admit literals and ``&``.  Only the CTL fragment is accepted: a
path quantifier always wraps exactly one temporal operator, so a bare
``U`` outside ``A[...]``/``E[...]`` is a syntax error.
"""

from __future__ import annotations

import re
from collections import namedtuple
from operator import itemgetter


class FormulaError(Exception):
    """Parse or well-formedness failure, with source position."""

    def __init__(self, message, pos=None, line=None, col=None):
        self.message = message
        self.pos = pos
        self.line = line
        self.col = col
        where = "" if line is None else f" at line {line}, column {col}"
        super().__init__(message + where)


# ---------------------------------------------------------------------------
# AST


_tuple_new, _tuple_eq, _tuple_ne = tuple.__new__, tuple.__eq__, tuple.__ne__


class _Node(tuple):
    """An immutable AST node: a tuple of its fields, in `_fields` order.

    Each subclass declares ``__slots__ = ()`` and names its fields in
    `_fields`; each field is read through a property.  Fields named
    `sub`, `left`, `right` and `body` hold formulas, `holder` a `Holder`,
    and `agents`, `roles`, `low` and `high` frozensets of names; the rest
    are names.  The evaluator resolves a node's names against the model
    by these field names: `agent`/`agents` name agents, `role`/`roles`/
    `low`/`high` roles, `org` organizations, and `Atom.name` and the
    literals of a `body` facts.  `__post_init__` validates a new node.

    Hashing is tuple's, in C: a node hashes as the tuple of its fields.
    Equality checks the class, then compares the fields with tuple's C
    comparison, so nodes of different classes are never equal.  Nodes
    are not ordered.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        if "__slots__" not in cls.__dict__:
            raise TypeError(f"{cls.__name__} must declare __slots__ = ()")
        for i, name in enumerate(cls.__dict__.get("_fields", ())):
            setattr(cls, name, property(itemgetter(i)))

    def __new__(cls, *fields):
        if len(fields) != len(cls._fields):
            raise TypeError(
                f"{cls.__name__} takes {len(cls._fields)} fields, got {len(fields)}"
            )
        node = _tuple_new(cls, fields)
        node.__post_init__()
        return node

    def __post_init__(self):
        """Reject ill-formed fields; the default accepts any."""

    def __getnewargs__(self):
        # pickle and copy call __new__ with these; tuple's own gives one tuple.
        return tuple(self)

    def __eq__(self, other):
        if self.__class__ is other.__class__:
            return _tuple_eq(self, other)
        # A plain tuple would otherwise compare equal through tuple's own __eq__.
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        if self.__class__ is other.__class__:
            return _tuple_ne(self, other)
        return True if isinstance(other, tuple) else NotImplemented

    __hash__ = tuple.__hash__

    def __lt__(self, other):  # hides tuple's ordering
        return NotImplemented

    __le__ = __gt__ = __ge__ = __lt__

    def __bool__(self):
        return True

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{self.__class__.__qualname__}({fields})"


class Formula(_Node):
    __slots__ = ()


class TrueF(Formula):
    __slots__ = ()


class FalseF(Formula):
    __slots__ = ()


class Atom(Formula):
    __slots__ = ()
    _fields = ("name",)


class Not(Formula):
    __slots__ = ()
    _fields = ("sub",)


class And(Formula):
    __slots__ = ()
    _fields = ("left", "right")


class Or(Formula):
    __slots__ = ()
    _fields = ("left", "right")


class Implies(Formula):
    __slots__ = ()
    _fields = ("left", "right")


class Iff(Formula):
    __slots__ = ()
    _fields = ("left", "right")


class AX(Formula):
    __slots__ = ()
    _fields = ("sub",)


class EX(Formula):
    __slots__ = ()
    _fields = ("sub",)


class AF(Formula):
    __slots__ = ()
    _fields = ("sub",)


class EF(Formula):
    __slots__ = ()
    _fields = ("sub",)


class AG(Formula):
    __slots__ = ()
    _fields = ("sub",)


class EG(Formula):
    __slots__ = ()
    _fields = ("sub",)


class AU(Formula):
    __slots__ = ()
    _fields = ("left", "right")


class EU(Formula):
    __slots__ = ()
    _fields = ("left", "right")


# Holders name who acts: one agent, a group, or (agent, role) shapes.


class Holder(_Node):
    __slots__ = ()


class SingleAgent(Holder):
    __slots__ = ()
    _fields = ("agent",)


class AgentGroup(Holder):
    __slots__ = ()
    _fields = ("agents",)

    def __post_init__(self):
        if not self.agents:
            raise FormulaError("agent group must be non-empty")


class ReaSingle(Holder):
    __slots__ = ()
    _fields = ("agent", "role")


class ReaGroup(Holder):
    __slots__ = ()
    _fields = ("agents", "roles")

    def __post_init__(self):
        if not self.agents or not self.roles:
            raise FormulaError("role-enacting group must be non-empty")


class Cap(Formula):
    __slots__ = ()
    _fields = ("holder", "sub")


class JointCap(Formula):
    __slots__ = ()
    _fields = ("holder", "sub")

    def __post_init__(self):
        if not isinstance(self.holder, AgentGroup):
            raise FormulaError("JC is defined for agent groups only")


class Ability(Formula):
    __slots__ = ()
    _fields = ("holder", "sub")


class Attempt(Formula):
    __slots__ = ()
    _fields = ("holder", "sub")


class Stit(Formula):
    __slots__ = ()
    _fields = ("holder", "sub")


class InControl(Formula):
    __slots__ = ()
    _fields = ("holder",)


class Initiative(Formula):
    __slots__ = ()
    _fields = ("roles", "sub")

    def __post_init__(self):
        if not self.roles:
            raise FormulaError("initiative role group must be non-empty")


class Member(Formula):
    __slots__ = ()
    _fields = ("agent", "org")


class RoleOf(Formula):
    __slots__ = ()
    _fields = ("role", "org")


class Play(Formula):
    __slots__ = ()
    _fields = ("agent", "role", "org")


class Dep(Formula):
    __slots__ = ()
    _fields = ("org", "low", "high")

    def __post_init__(self):
        if not self.low or not self.high:
            raise FormulaError("dep role groups must be non-empty")


class Know(Formula):
    __slots__ = ()
    _fields = ("org", "body")

    def __post_init__(self):
        if not is_literal_conjunction(self.body):
            raise FormulaError("know admits only literals joined by &")


class InCharge(Formula):
    __slots__ = ()
    _fields = ("org", "role", "body")

    def __post_init__(self):
        if not is_positive_conjunction(self.body):
            raise FormulaError("incharge admits no negations, only atoms and &")


class Desire(Formula):
    __slots__ = ()
    _fields = ("org", "body")

    def __post_init__(self):
        if not is_positive_conjunction(self.body):
            raise FormulaError("desire admits no negations, only atoms and &")


def is_positive_conjunction(f):
    if isinstance(f, Atom):
        return True
    if isinstance(f, And):
        return is_positive_conjunction(f.left) and is_positive_conjunction(f.right)
    return False


def is_literal_conjunction(f):
    if isinstance(f, Atom):
        return True
    if isinstance(f, Not):
        return isinstance(f.sub, Atom)
    if isinstance(f, And):
        return is_literal_conjunction(f.left) and is_literal_conjunction(f.right)
    return False


def conjunct_atoms(f):
    """Atom names of a positive conjunction, left to right."""
    if isinstance(f, Atom):
        return [f.name]
    if isinstance(f, And):
        return conjunct_atoms(f.left) + conjunct_atoms(f.right)
    raise ValueError(f"not a positive conjunction: {f!r}")


def conjunct_literals(f):
    """(name, positive) pairs of a literal conjunction."""
    if isinstance(f, Atom):
        return [(f.name, True)]
    if isinstance(f, Not):
        return [(f.sub.name, False)]
    if isinstance(f, And):
        return conjunct_literals(f.left) + conjunct_literals(f.right)
    raise ValueError(f"not a literal conjunction: {f!r}")


def conjoin(parts):
    """Left-associated conjunction of formulas; [] is not allowed."""
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<iff><->)
  | (?P<implies>->)
  | (?P<diamond><>)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_-]*)
  | (?P<punct>[!&|(){}\[\],:])
    """,
    re.VERBOSE,
)

_KEYWORD_PREFIX = {"C", "JC", "G", "H", "E", "IC", "I", "A"}
_UNARY_TEMPORAL = {"X": AX, "AX": AX, "EX": EX, "AF": AF, "EF": EF, "AG": AG, "EG": EG}


# kind is 'ident', 'op' or 'eof'
_Tok = namedtuple("_Tok", "kind text pos line col")


def _tokenize(text):
    toks = []
    pos = 0
    line = 1
    line_start = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaError(
                f"unexpected character {text[pos]!r}",
                pos, line, pos - line_start + 1,
            )
        kind = m.lastgroup
        tok_text = m.group()
        if kind not in ("ws", "comment"):
            k = "ident" if kind == "ident" else "op"
            toks.append(_Tok(k, tok_text, pos, line, pos - line_start + 1))
        newlines = tok_text.count("\n")
        if newlines:
            line += newlines
            line_start = pos + tok_text.rindex("\n") + 1
        pos = m.end()
    toks.append(_Tok("eof", "", pos, line, pos - line_start + 1))
    return toks


# ---------------------------------------------------------------------------
# Parser

_PREDICATES = {"member", "role", "play", "dep", "know", "incharge", "desire"}


class _Parser:
    def __init__(self, text):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise FormulaError(message, tok.pos, tok.line, tok.col)

    def expect(self, text):
        t = self.peek()
        if t.text != text or t.kind == "eof":
            self.error(f"expected {text!r}, found {t.text!r}" if t.text else f"expected {text!r}, found end of input")
        return self.next()

    def at(self, text):
        return self.peek().text == text and self.peek().kind != "eof"

    # grammar entry

    def parse(self):
        f = self.iff()
        t = self.peek()
        if t.kind != "eof":
            if t.text == "U":
                self.error("'U' is only allowed inside A[...] or E[...]; not a CTL state formula", t)
            self.error(f"unexpected trailing input {t.text!r}", t)
        return f

    def iff(self):
        left = self.implies()
        if self.at("<->"):
            self.next()
            return Iff(left, self.iff())
        return left

    def implies(self):
        left = self.or_()
        if self.at("->"):
            self.next()
            return Implies(left, self.implies())
        return left

    def or_(self):
        left = self.and_()
        while self.at("|"):
            self.next()
            left = Or(left, self.and_())
        return left

    def and_(self):
        left = self.unary()
        while self.at("&"):
            self.next()
            left = And(left, self.unary())
        return left

    def unary(self):
        t = self.peek()
        if t.text == "!":
            self.next()
            return Not(self.unary())
        if t.text == "<>":
            self.next()
            return AF(self.unary())
        if t.kind == "ident":
            if t.text in _UNARY_TEMPORAL and self.toks[self.i + 1].text != "[":
                self.next()
                return _UNARY_TEMPORAL[t.text](self.unary())
            if t.text in _KEYWORD_PREFIX and self.toks[self.i + 1].text == "[":
                return self.bracket_operator()
        return self.primary()

    def bracket_operator(self):
        op = self.next()
        self.expect("[")
        if op.text == "A":
            left = self.iff()
            self.expect("U")
            right = self.iff()
            self.expect("]")
            return AU(left, right)
        if op.text == "E":
            # Either stit E[holder] body or until E[f U g].
            save = self.i
            holder = self.try_holder()
            if holder is not None and self.at("]"):
                self.next()
                return Stit(holder, self.unary())
            self.i = save
            left = self.iff()
            self.expect("U")
            right = self.iff()
            self.expect("]")
            return EU(left, right)
        if op.text == "I":
            roles = self.role_set()
            self.expect("]")
            return Initiative(roles, self.unary())
        holder = self.try_holder()
        if holder is None:
            self.error(f"expected a holder inside {op.text}[...]")
        self.expect("]")
        if op.text == "C":
            return Cap(holder, self.unary())
        if op.text == "JC":
            return self.build(op, JointCap, holder, self.unary())
        if op.text == "G":
            return Ability(holder, self.unary())
        if op.text == "H":
            return Attempt(holder, self.unary())
        if op.text == "IC":
            return InControl(holder)
        raise AssertionError(op.text)

    def try_holder(self):
        """Parse a holder if one starts here, else return None (no consume)."""
        save = self.i
        t = self.peek()
        if t.text == "{":
            agents = self.id_set()
            if self.at(":"):
                self.next()
                if self.at("{"):
                    roles = self.id_set()
                else:
                    if self.peek().kind != "ident":
                        self.i = save
                        return None
                    roles = frozenset([self.next().text])
                return ReaGroup(agents, roles)
            return AgentGroup(agents)
        if t.kind == "ident":
            agent = self.next().text
            if self.at(":"):
                self.next()
                if self.peek().kind != "ident":
                    self.i = save
                    return None
                return ReaSingle(agent, self.next().text)
            return SingleAgent(agent)
        self.i = save
        return None

    def id_set(self):
        self.expect("{")
        names = [self.ident("identifier")]
        while self.at(","):
            self.next()
            names.append(self.ident("identifier"))
        self.expect("}")
        return frozenset(names)

    def role_set(self):
        if self.at("{"):
            return self.id_set()
        return frozenset([self.ident("role name")])

    def ident(self, what):
        t = self.peek()
        if t.kind != "ident":
            self.error(f"expected {what}, found {t.text!r}" if t.text else f"expected {what}, found end of input")
        return self.next().text

    def primary(self):
        t = self.peek()
        if t.text == "(":
            self.next()
            f = self.iff()
            if self.at("U"):
                self.error("'U' is only allowed inside A[...] or E[...]; not a CTL state formula")
            self.expect(")")
            return f
        if t.kind != "ident":
            self.error(f"expected a formula, found {t.text!r}" if t.text else "expected a formula, found end of input")
        if t.text == "true":
            self.next()
            return TrueF()
        if t.text == "false":
            self.next()
            return FalseF()
        if t.text in _PREDICATES and self.toks[self.i + 1].text == "(":
            return self.predicate()
        return Atom(self.next().text)

    def predicate(self):
        name = self.next().text
        open_tok = self.expect("(")
        if name == "member":
            a = self.ident("agent name")
            self.expect(",")
            org = self.ident("organization name")
            self.expect(")")
            return Member(a, org)
        if name == "role":
            r = self.ident("role name")
            self.expect(",")
            org = self.ident("organization name")
            self.expect(")")
            return RoleOf(r, org)
        if name == "play":
            a = self.ident("agent name")
            self.expect(",")
            r = self.ident("role name")
            self.expect(",")
            org = self.ident("organization name")
            self.expect(")")
            return Play(a, r, org)
        if name == "dep":
            org = self.ident("organization name")
            self.expect(",")
            low = self.role_set()
            self.expect(",")
            high = self.role_set()
            self.expect(")")
            return Dep(org, low, high)
        org = self.ident("organization name")
        self.expect(",")
        if name == "incharge":
            r = self.ident("role name")
            self.expect(",")
            body = self.iff()
            self.expect(")")
            return self.build(open_tok, InCharge, org, r, body)
        body = self.iff()
        self.expect(")")
        return self.build(open_tok, Know if name == "know" else Desire, org, body)

    def build(self, tok, cls, *fields):
        """A `cls` node; its constructor's well-formedness error is
        reported at `tok`."""
        try:
            return cls(*fields)
        except FormulaError as e:
            self.error(e.message, tok)


def parse(text):
    """Parse formula text into an AST; raises FormulaError on bad input."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Printer

_LEVEL_IFF = 1
_LEVEL_IMPLIES = 2
_LEVEL_OR = 3
_LEVEL_AND = 4
_LEVEL_UNARY = 5
_LEVEL_ATOM = 6


def _holder_text(h):
    if isinstance(h, SingleAgent):
        return h.agent
    if isinstance(h, AgentGroup):
        return "{" + ",".join(sorted(h.agents)) + "}"
    if isinstance(h, ReaSingle):
        return f"{h.agent}:{h.role}"
    return (
        "{" + ",".join(sorted(h.agents)) + "}:{" + ",".join(sorted(h.roles)) + "}"
    )


def _group_text(names):
    names = sorted(names)
    if len(names) == 1:
        return names[0]
    return "{" + ",".join(names) + "}"


def fprint(f):
    """Render a formula; parse(fprint(f)) is structurally f again."""
    text, _ = _print(f)
    return text


def _wrap(child, minimum):
    text, level = _print(child)
    if level < minimum:
        return "(" + text + ")"
    return text


def _print(f):
    if isinstance(f, TrueF):
        return "true", _LEVEL_ATOM
    if isinstance(f, FalseF):
        return "false", _LEVEL_ATOM
    if isinstance(f, Atom):
        return f.name, _LEVEL_ATOM
    if isinstance(f, Not):
        return "!" + _wrap(f.sub, _LEVEL_UNARY), _LEVEL_UNARY
    if isinstance(f, And):
        left = _wrap(f.left, _LEVEL_AND)
        right_text, right_level = _print(f.right)
        if right_level < _LEVEL_AND or isinstance(f.right, And):
            right_text = "(" + right_text + ")"
        return f"{left} & {right_text}", _LEVEL_AND
    if isinstance(f, Or):
        left = _wrap(f.left, _LEVEL_OR)
        right_text, right_level = _print(f.right)
        if right_level < _LEVEL_OR or isinstance(f.right, Or):
            right_text = "(" + right_text + ")"
        return f"{left} | {right_text}", _LEVEL_OR
    if isinstance(f, Implies):
        left_text, left_level = _print(f.left)
        if left_level <= _LEVEL_IMPLIES:
            left_text = "(" + left_text + ")"
        return f"{left_text} -> {_wrap(f.right, _LEVEL_IMPLIES)}", _LEVEL_IMPLIES
    if isinstance(f, Iff):
        left_text, left_level = _print(f.left)
        if left_level <= _LEVEL_IFF:
            left_text = "(" + left_text + ")"
        return f"{left_text} <-> {_wrap(f.right, _LEVEL_IFF)}", _LEVEL_IFF
    if isinstance(f, AX):
        return "X " + _wrap(f.sub, _LEVEL_UNARY), _LEVEL_UNARY
    if isinstance(f, AF):
        return "<> " + _wrap(f.sub, _LEVEL_UNARY), _LEVEL_UNARY
    for cls, name in ((EX, "EX"), (EF, "EF"), (AG, "AG"), (EG, "EG")):
        if isinstance(f, cls):
            return f"{name} " + _wrap(f.sub, _LEVEL_UNARY), _LEVEL_UNARY
    if isinstance(f, AU):
        return (
            f"A[{_wrap(f.left, _LEVEL_UNARY)} U {_wrap(f.right, _LEVEL_UNARY)}]",
            _LEVEL_UNARY,
        )
    if isinstance(f, EU):
        return (
            f"E[{_wrap(f.left, _LEVEL_UNARY)} U {_wrap(f.right, _LEVEL_UNARY)}]",
            _LEVEL_UNARY,
        )
    if isinstance(f, Cap):
        return f"C[{_holder_text(f.holder)}] " + _wrap(f.sub, _LEVEL_UNARY), _LEVEL_UNARY
    if isinstance(f, JointCap):
        return f"JC[{_holder_text(f.holder)}] " + _wrap(f.sub, _LEVEL_UNARY), _LEVEL_UNARY
    if isinstance(f, Ability):
        return f"G[{_holder_text(f.holder)}] " + _wrap(f.sub, _LEVEL_UNARY), _LEVEL_UNARY
    if isinstance(f, Attempt):
        return f"H[{_holder_text(f.holder)}] " + _wrap(f.sub, _LEVEL_UNARY), _LEVEL_UNARY
    if isinstance(f, Stit):
        return f"E[{_holder_text(f.holder)}] " + _wrap(f.sub, _LEVEL_UNARY), _LEVEL_UNARY
    if isinstance(f, InControl):
        return f"IC[{_holder_text(f.holder)}]", _LEVEL_UNARY
    if isinstance(f, Initiative):
        return f"I[{_group_text(f.roles)}] " + _wrap(f.sub, _LEVEL_UNARY), _LEVEL_UNARY
    if isinstance(f, Member):
        return f"member({f.agent}, {f.org})", _LEVEL_ATOM
    if isinstance(f, RoleOf):
        return f"role({f.role}, {f.org})", _LEVEL_ATOM
    if isinstance(f, Play):
        return f"play({f.agent}, {f.role}, {f.org})", _LEVEL_ATOM
    if isinstance(f, Dep):
        return (
            f"dep({f.org}, {_group_text(f.low)}, {_group_text(f.high)})",
            _LEVEL_ATOM,
        )
    if isinstance(f, Know):
        return f"know({f.org}, {fprint(f.body)})", _LEVEL_ATOM
    if isinstance(f, InCharge):
        return f"incharge({f.org}, {f.role}, {fprint(f.body)})", _LEVEL_ATOM
    if isinstance(f, Desire):
        return f"desire({f.org}, {fprint(f.body)})", _LEVEL_ATOM
    raise TypeError(f"not a formula: {f!r}")

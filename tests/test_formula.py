import copy
import dataclasses
import pickle
import random

import pytest

from lao import formula as F
from lao.formula import FormulaError, fprint, parse

from conftest import random_ast


def test_precedence_implies_right_associative():
    assert parse("a -> b -> c") == F.Implies(
        F.Atom("a"), F.Implies(F.Atom("b"), F.Atom("c"))
    )


def test_precedence_not_binds_tighter_than_and():
    assert parse("!p & q") == F.And(F.Not(F.Atom("p")), F.Atom("q"))


def test_precedence_and_over_or_over_implies():
    f = parse("a | b & c -> d")
    assert f == F.Implies(F.Or(F.Atom("a"), F.And(F.Atom("b"), F.Atom("c"))), F.Atom("d"))


def test_iff_is_loosest():
    f = parse("a -> b <-> c")
    assert isinstance(f, F.Iff)


def test_diamond_and_next_sugar():
    assert parse("<> p") == F.AF(F.Atom("p"))
    assert parse("X p") == F.AX(F.Atom("p"))
    assert parse("AF p") == F.AF(F.Atom("p"))
    assert parse("AX p") == F.AX(F.Atom("p"))


def test_stit_until_disambiguation():
    assert parse("E[a] p") == F.Stit(F.SingleAgent("a"), F.Atom("p"))
    assert parse("E[p U q]") == F.EU(F.Atom("p"), F.Atom("q"))
    assert parse("E[{a,b}] p") == F.Stit(
        F.AgentGroup(frozenset(["a", "b"])), F.Atom("p")
    )


def test_holder_shapes():
    assert parse("C[a] p").holder == F.SingleAgent("a")
    assert parse("C[{a,b}] p").holder == F.AgentGroup(frozenset(["a", "b"]))
    assert parse("C[a:r] p").holder == F.ReaSingle("a", "r")
    assert parse("C[{a,b}:{r,q}] p").holder == F.ReaGroup(
        frozenset(["a", "b"]), frozenset(["r", "q"])
    )


def test_incharge_example_formula():
    f = parse("incharge(Ogas, monopolist, provide_gas) -> I[monopolist] provide_gas")
    assert isinstance(f, F.Implies)
    assert isinstance(f.left, F.InCharge)
    assert isinstance(f.right, F.Initiative)
    assert f.right.roles == frozenset(["monopolist"])


def test_cap_of_true_parses():
    f = parse("C[a] true")
    assert f == F.Cap(F.SingleAgent("a"), F.TrueF())


def test_print_examples():
    assert fprint(F.AF(F.Attempt(F.ReaSingle("t", "trader"), F.Atom("buy_gas")))) == (
        "<> H[t:trader] buy_gas"
    )
    assert fprint(F.And(F.Atom("p"), F.Atom("q"))) == "p & q"
    assert fprint(F.EU(F.Atom("p"), F.And(F.Atom("q"), F.Atom("r")))) == "E[p U (q & r)]"


def test_negation_in_desire_rejected_with_position():
    with pytest.raises(FormulaError) as e:
        parse("desire(O, !p)")
    assert e.value.col is not None
    assert "negation" in str(e.value)


def test_negation_in_incharge_rejected():
    with pytest.raises(FormulaError):
        parse("incharge(O, r, p & !q)")
    with pytest.raises(FormulaError):
        parse("incharge(O, r, p | q)")


def test_know_allows_literals_only():
    parse("know(O, p & !q)")
    with pytest.raises(FormulaError):
        parse("know(O, p | q)")
    with pytest.raises(FormulaError):
        parse("know(O, !!p)")


def test_well_formedness_errors_positioned_at_operator():
    for text, col, message in [
        ("JC[a] p", 1, "JC is defined for agent groups only"),
        ("know(O, p | q)", 5, "know admits only literals joined by &"),
        ("desire(O, !p)", 7, "desire admits no negations, only atoms and &"),
        ("incharge(O, r, p & !q)", 9, "incharge admits no negations, only atoms and &"),
    ]:
        with pytest.raises(FormulaError) as e:
            parse(text)
        assert (e.value.message, e.value.line, e.value.col) == (message, 1, col), text


def test_bare_until_is_rejected_as_non_ctl():
    with pytest.raises(FormulaError) as e:
        parse("(p U q)")
    assert "CTL" in str(e.value)
    with pytest.raises(FormulaError):
        parse("p U q")


def test_unbalanced_paren_positioned():
    with pytest.raises(FormulaError) as e:
        parse("((p")
    assert e.value.pos is not None


def test_trailing_garbage_rejected():
    with pytest.raises(FormulaError):
        parse("AG F p")  # F alone is an atom, p dangles


def test_jc_restricted_to_agent_groups():
    with pytest.raises(FormulaError):
        parse("JC[a:r] p")


def test_empty_group_rejected():
    with pytest.raises(FormulaError):
        parse("C[{}] p")


def test_comments_and_whitespace():
    f = parse("p &  # a comment\n q")
    assert f == F.And(F.Atom("p"), F.Atom("q"))


def test_hyphenated_identifiers():
    assert parse("provide-gas") == F.Atom("provide-gas")


def test_roundtrip_fuzz_small():
    rng = random.Random(7)
    for _ in range(300):
        ast = random_ast(rng, depth=rng.randint(1, 5))
        assert parse(fprint(ast)) == ast


def test_and_chains_roundtrip_associativity():
    left = F.And(F.And(F.Atom("a"), F.Atom("b")), F.Atom("c"))
    right = F.And(F.Atom("a"), F.And(F.Atom("b"), F.Atom("c")))
    assert parse(fprint(left)) == left
    assert parse(fprint(right)) == right
    assert fprint(left) != fprint(right)


# ---------------------------------------------------------------------------
# Node contract: a node is a tuple of its fields, hashed and compared in C


def test_nodes_are_not_dataclasses():
    assert not dataclasses.is_dataclass(F.And)
    assert not dataclasses.is_dataclass(F.And(F.Atom("p"), F.Atom("q")))


def test_node_hash_is_hash_of_its_fields():
    p, q = F.Atom("p"), F.Atom("q")
    assert hash(F.And(p, q)) == hash((p, q))
    assert hash(p) == hash(("p",))
    assert hash(F.TrueF()) == hash(())


def test_node_equality_needs_same_class_and_fields():
    p, q = F.Atom("p"), F.Atom("q")
    assert F.And(p, q) != F.Or(p, q)
    assert not F.And(p, q) == F.Or(p, q)
    assert F.And(p, q) != (p, q) and (p, q) != F.And(p, q)
    assert not F.And(p, q) == (p, q)
    assert F.TrueF() != F.FalseF()
    built = F.AF(F.Attempt(
        F.ReaGroup(frozenset(["a", "b"]), frozenset(["r"])),
        F.And(F.Atom("p"), F.Not(F.Atom("q"))),
    ))
    parsed = parse("AF H[{a,b}:r] (p & !q)")
    assert built is not parsed
    assert built == parsed and not built != parsed
    assert hash(built) == hash(parsed)


def test_node_fields_are_read_only():
    f = F.And(F.Atom("p"), F.Atom("q"))
    with pytest.raises(AttributeError):
        f.left = F.Atom("r")
    with pytest.raises(AttributeError):
        f.extra = 1
    assert f.left == F.Atom("p")


def test_nodes_are_truthy_and_unordered():
    assert bool(F.TrueF()) and bool(F.FalseF())
    with pytest.raises(TypeError):
        F.Atom("p") < F.Atom("q")
    with pytest.raises(TypeError):
        sorted([F.Atom("q"), F.Atom("p")])


def test_node_repr_is_field_form():
    f = parse("C[a:r] (p & !q) | I[r] true -> dep(O, r, {s}) & JC[{a}] false")
    assert repr(f) == (
        "Implies(left=Or(left=Cap(holder=ReaSingle(agent='a', role='r'), "
        "sub=And(left=Atom(name='p'), right=Not(sub=Atom(name='q')))), "
        "right=Initiative(roles=frozenset({'r'}), sub=TrueF())), "
        "right=And(left=Dep(org='O', low=frozenset({'r'}), high=frozenset({'s'})), "
        "right=JointCap(holder=AgentGroup(agents=frozenset({'a'})), sub=FalseF())))"
    )


def test_nodes_survive_pickle_and_deepcopy():
    f = parse("AF H[{a,b}:r] (p & !q) | know(O, p & !q)")
    assert pickle.loads(pickle.dumps(f)) == f
    assert copy.deepcopy(f) == f


@pytest.mark.parametrize("build", [
    lambda: F.AgentGroup(frozenset()),
    lambda: F.ReaGroup(frozenset(), frozenset(["r"])),
    lambda: F.ReaGroup(frozenset(["a"]), frozenset()),
    lambda: F.Initiative(frozenset(), F.Atom("p")),
    lambda: F.Dep("O", frozenset(), frozenset(["r"])),
    lambda: F.Dep("O", frozenset(["r"]), frozenset()),
    lambda: F.JointCap(F.SingleAgent("a"), F.Atom("p")),
    lambda: F.JointCap(F.ReaGroup(frozenset(["a"]), frozenset(["r"])), F.Atom("p")),
    lambda: F.Know("O", F.Or(F.Atom("p"), F.Atom("q"))),
    lambda: F.InCharge("O", "r", F.Not(F.Atom("p"))),
    lambda: F.Desire("O", F.Not(F.Atom("p"))),
], ids=[
    "empty-agent-group", "rea-group-no-agents", "rea-group-no-roles",
    "initiative-no-roles", "dep-no-low", "dep-no-high", "jc-single-agent",
    "jc-rea-group", "know-disjunction", "incharge-negation", "desire-negation",
])
def test_constructor_rejects_ill_formed_nodes(build):
    with pytest.raises(FormulaError):
        build()


def test_constructor_checks_field_count():
    with pytest.raises(TypeError):
        F.And(F.Atom("p"))
    with pytest.raises(TypeError):
        F.TrueF(F.Atom("p"))

"""Rule validation and substitution application."""
import pytest

from cwcsim import parse_rule, parse_term
from cwcsim.pattern import (
    OpenCompartment,
    OpenTerm,
    RuleValidationError,
    SubstitutionError,
    apply_subst,
    ground_term,
    term_var,
    validate_rule,
    wrap_var,
)
from cwcsim.rates import MassAction
from cwcsim.terms import EMPTY, Atom, atom_bag
from tests.conftest import vars_of

A = Atom
X, Y, Z = term_var("X"), term_var("Y"), term_var("Z")
x, y = wrap_var("x"), wrap_var("y")


def codes_of(lhs, rhs):
    with pytest.raises(RuleValidationError) as exc:
        validate_rule(lhs, rhs)
    return exc.value.codes


def test_valid_flat_rule():
    r = validate_rule(OpenTerm([(A("a"), 2), X]), OpenTerm([A("a"), A("c"), X]),
                      rate=MassAction(0.25), rule_id="k1")
    assert r.id == "k1"
    assert r.lhs.atoms == atom_bag([(A("a"), 2)])
    assert r.lhs.residue == X
    assert r.lhs.slots == () and r.lhs.grounds == ()
    assert r.rate == MassAction(0.25)


def test_valid_membrane_rule():
    r = parse_rule("a (b ~x | $X) $Y -> (a b ~x | $X) $Y @ 1")
    slot, = r.lhs.slots
    assert slot.wrap_atoms == atom_bag([A("b")])
    assert slot.wrap_var.name == "x" and slot.wrap_var.kind == "wrap"
    assert slot.content.residue.name == "X"


def test_ground_compartment_on_the_left():
    r = parse_rule("a (b | c) $X -> $X @ 1")
    (comp, n), = r.lhs.grounds
    assert n == 1 and comp.content == parse_term("c")


def test_missing_residue():
    assert "malformed-pattern" in codes_of(OpenTerm([(A("a"), 2)]), OpenTerm([A("a")]))


def test_two_residues():
    assert "malformed-pattern" in codes_of(OpenTerm([A("a"), X, Y]), OpenTerm([X, Y]))


def test_nonlinear_lhs():
    lhs = OpenTerm([A("a"), (X, 2)])
    assert "nonlinear-pattern" in codes_of(lhs, OpenTerm([X]))
    # same variable at two different levels
    lhs = OpenTerm([A("a"), OpenCompartment([], [x], OpenTerm([X])), X])
    assert "nonlinear-pattern" in codes_of(lhs, OpenTerm([X]))
    # repeated wrap variable
    lhs = OpenTerm([
        OpenCompartment([], [x], OpenTerm([A("b"), X])),
        OpenCompartment([A("c")], [x], OpenTerm([Y])),
        Z,
    ])
    assert "nonlinear-pattern" in codes_of(lhs, OpenTerm([Z]))
    # a repeated compartment pattern repeats every variable inside it
    lhs = OpenTerm([(OpenCompartment([A("b")], [x], OpenTerm([X])), 2), Z])
    with pytest.raises(RuleValidationError) as exc:
        validate_rule(lhs, OpenTerm([Z]))
    assert [(i.code, i.variable) for i in exc.value.issues] == [
        ("nonlinear-pattern", x), ("nonlinear-pattern", X)]


def test_unbound_rhs_variable():
    codes = codes_of(OpenTerm([A("a"), X]), OpenTerm([Y, X]))
    assert codes == ["unbound-variable"]


def test_kind_mismatch():
    # wrap variable in content position
    assert "kind-mismatch" in codes_of(OpenTerm([A("a"), x, X]), OpenTerm([X]))
    # term variable on a wrap
    lhs = OpenTerm([OpenCompartment([], [x, Y], OpenTerm([X])), Z])
    assert "kind-mismatch" in codes_of(lhs, OpenTerm([Z]))


def test_empty_lhs():
    assert "empty-pattern" in codes_of(OpenTerm([X]), OpenTerm([A("a"), X]))


def test_slot_needs_exactly_one_wrap_var():
    lhs = OpenTerm([OpenCompartment([A("b")], [], OpenTerm([X])), Y])
    assert "malformed-pattern" in codes_of(lhs, OpenTerm([Y]))
    lhs = OpenTerm([OpenCompartment([A("b")], [x, y], OpenTerm([X])), Y])
    assert "malformed-pattern" in codes_of(lhs, OpenTerm([Y]))


def test_all_issues_reported_together():
    lhs = OpenTerm([(X, 2)])
    with pytest.raises(RuleValidationError) as exc:
        validate_rule(lhs, OpenTerm([Y]))
    codes = exc.value.codes
    assert "nonlinear-pattern" in codes and "unbound-variable" in codes
    assert "empty-pattern" in codes or "malformed-pattern" in codes


def test_rhs_may_duplicate_and_merge_variables():
    r = validate_rule(OpenTerm([A("a"), X]), OpenTerm([(X, 2)]), rule_id="dup")
    got = apply_subst(r.rhs, {X: parse_term("b (m | c)")})
    assert got == parse_term("b b (m | c) (m | c)")
    # both wrap variables merged onto one membrane on the right
    r = parse_rule("(a ~x | $X) (b ~y | $Y) $Z -> (~x ~y | $X $Y) $Z @ 1")
    subst = {
        wrap_var("x"): atom_bag([A("p")]),
        wrap_var("y"): atom_bag([A("q")]),
        term_var("X"): parse_term("c"),
        term_var("Y"): parse_term("d"),
        term_var("Z"): EMPTY,
    }
    assert apply_subst(r.rhs, subst) == parse_term("(p q | c d)")


def test_apply_subst_example():
    o = OpenTerm([OpenCompartment([A("a")], [x], OpenTerm([Y]))])
    got = apply_subst(o, {x: atom_bag([(A("b"), 2)]), Y: parse_term("c")})
    assert got == parse_term("(a b b | c)")


def test_apply_subst_scales_by_count():
    o = OpenTerm([(X, 2), A("a")])
    assert apply_subst(o, {X: parse_term("b c")}) == parse_term("a b b c c")


def test_apply_subst_splices_a_level_with_one_variable():
    value = parse_term("b c (m | c)")
    assert apply_subst(OpenTerm([X]), {X: value}) is value
    assert OpenTerm([X]).splice == X and OpenTerm([A("a"), X]).rest == ((A("a"), 1),)
    assert OpenTerm([(X, 2)]).splice is None  # $X $X starts from no items
    assert OpenTerm([X, Y]).splice == Y and OpenTerm([X, Y]).rest == ((X, 1),)
    two = apply_subst(OpenTerm([X, Y]), {X: parse_term("a (m | c)"), Y: value})
    assert two == parse_term("a b c (m | c) (m | c)") and two.items[3] == (value.items[2][0], 2)
    assert two.items[3][0] is value.items[2][0]  # $Y's object, spliced on
    o = OpenTerm([A("a"), A("c"), OpenCompartment([], [x], OpenTerm([Y])), X])
    got = apply_subst(o, {X: value, Y: parse_term("c"), x: atom_bag([A("m")])})
    assert got == parse_term("a b c c (m | c) (m | c)")
    assert all(a is b for (a, _), (b, _) in zip(got.items[1:], value.items))  # value's objects
    consumed = ((value.items[0][0], 1), (value.items[2][0], 1))
    got = apply_subst(o, {X: value, Y: parse_term("c"), x: atom_bag([A("m")])}, consumed)
    assert got == parse_term("a c c (m | c)") and got.items[2][0] is value.items[2][0]
    with pytest.raises(ValueError):
        apply_subst(OpenTerm([X]), {X: value}, ((A("a"), 1),))


def test_apply_subst_errors():
    o = OpenTerm([X])
    with pytest.raises(SubstitutionError) as exc:
        apply_subst(o, {})
    assert exc.value.code == "unbound-variable"
    with pytest.raises(SubstitutionError) as exc:
        apply_subst(o, {X: atom_bag([A("a")])})
    assert exc.value.code == "kind-mismatch"
    o = OpenTerm([OpenCompartment([], [x], OpenTerm([]))])
    with pytest.raises(SubstitutionError) as exc:
        apply_subst(o, {x: parse_term("a")})
    assert exc.value.code == "kind-mismatch"


def test_ground_term_rejects_variables():
    with pytest.raises(ValueError):
        ground_term(OpenTerm([X]))


def test_vars_of_collects_nested():
    o = OpenTerm([A("a"), OpenCompartment([A("b")], [x], OpenTerm([X, Y])), Z])
    assert vars_of(o) == {x, X, Y, Z}


def test_variable_identity():
    assert term_var("X") == term_var("X") and term_var("X") != wrap_var("X")
    assert len({term_var("X"), term_var("X"), wrap_var("X")}) == 2

"""The labeled-enumeration oracle itself: known counts and its bounds."""
import pytest
from hypothesis import given, settings

from cwcsim import oracle_outcomes, parse_rule, parse_term
from cwcsim.oracle import OracleLimitError, complete_labeling, erase
from tests.test_terms import terms


@settings(deadline=None)
@given(terms)
def test_erase_inverts_labeling(t):
    assert erase(complete_labeling(t)) == t


def test_flat_counting_example():
    r = parse_rule("a a $X -> a c $X @ 1")
    state = parse_term("a a a b")
    assert oracle_outcomes(r, state) == [(parse_term("a a b c"), 3)]


def test_membrane_counting_example():
    r = parse_rule("a (b ~x | $X) $Y -> (a b ~x | $X) $Y @ 1")
    state = parse_term("a (b b | c) (b | c)")
    assert dict(oracle_outcomes(r, state)) == {
        parse_term("(a b b | c) (b | c)"): 2,
        parse_term("(b b | c) (a b | c)"): 1,
    }


def test_congruent_copies_collapse():
    # both a's produce the same substitution set when contents carry no atoms
    r = parse_rule("(~x | $X) (~y | $Y) $Z -> (~x ~y | $X $Y) $Z @ 1")
    assert oracle_outcomes(r, parse_term("(|*) (|*)")) == [(parse_term("(|*)"), 1)]
    # labeled wrap atoms keep the two compartments apart
    assert oracle_outcomes(r, parse_term("(b|*) (b|*)")) == [(parse_term("(b b|*)"), 2)]
    # and symmetric slots double-count ordered assignments of distinct copies
    assert oracle_outcomes(r, parse_term("(b|*) (c|*)")) == [(parse_term("(b c|*)"), 2)]


def test_ground_compartment_choices():
    r = parse_rule("a (b | c) $X -> $X @ 1")
    state = parse_term("a (b | c) (b | c)")
    assert oracle_outcomes(r, state) == [(parse_term("(b | c)"), 2)]


def test_enumeration_bounds():
    r = parse_rule("a $X -> $X @ 1")
    with pytest.raises(OracleLimitError, match="^state has more than 18 atom occurrences$"):
        oracle_outcomes(r, parse_term("a * 19"))
    deep = parse_term("(m | (m | (m | (m | (m | a)))))")
    with pytest.raises(OracleLimitError, match="^state is nested deeper than 4$"):
        oracle_outcomes(r, deep)
    # one consumed copy from 18 labeled ones: 18 distinct residues
    assert oracle_outcomes(r, parse_term("a * 18")) == [(parse_term("a * 17"), 18)]

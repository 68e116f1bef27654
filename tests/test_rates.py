"""Rate laws: mass action times n, function expressions over local counts."""
import pytest

from cwcsim import parse_rule, parse_term
from cwcsim.rates import FnRate, MassAction, RateEvaluationError, rate_of
from cwcsim.terms import EMPTY
from cwcsim.rates import BinOp, CountL, CountR, MatchCount, Num


def test_mass_action_is_k_times_n():
    t = parse_term("a a")
    assert rate_of(MassAction(2.0), t, EMPTY, 3) == 6.0
    assert rate_of(MassAction(0.0), t, EMPTY, 5) == 0.0
    assert rate_of(MassAction(0.25), t, EMPTY, 1) == 0.25


def test_mass_action_constant_validation():
    with pytest.raises(ValueError):
        MassAction(-1.0)
    with pytest.raises(ValueError):
        MassAction(float("nan"))
    with pytest.raises(ValueError):
        MassAction(float("inf"))


def test_fn_rate_ignores_n_unless_referenced():
    const = FnRate(Num(2.0))
    assert rate_of(const, EMPTY, EMPTY, 7) == 2.0
    assert rate_of(FnRate(MatchCount()), EMPTY, EMPTY, 7) == 7.0
    # same numeric constant, different law once n > 1
    assert rate_of(MassAction(2.0), EMPTY, EMPTY, 7) != rate_of(const, EMPTY, EMPTY, 7)


def test_fn_counts_use_matched_content_and_outcome():
    r = parse_rule("a $X -> b $X @ fn(count_l(a) - count_r(a))")
    t = parse_term("a a a c")
    u = parse_term("a a b c")
    assert rate_of(r.rate, t, u, 3) == 1.0
    r2 = parse_rule("a $X -> b $X @ fn(count_r(b))")
    assert rate_of(r2.rate, t, u, 1) == 1.0
    # counts are top-level only
    assert rate_of(r2.rate, t, parse_term("(m | b)"), 1) == 0.0


def test_fn_expression_precedence():
    assert rate_of(parse_rule("a => a @ fn(1 + 2 * 3)").rate, EMPTY, EMPTY, 1) == 7.0
    assert rate_of(parse_rule("a => a @ fn((1 + 2) * 3)").rate, EMPTY, EMPTY, 1) == 9.0
    assert rate_of(parse_rule("a => a @ fn(8 / 2 / 2)").rate, EMPTY, EMPTY, 1) == 2.0
    assert rate_of(parse_rule("a => a @ fn(2 * n + 1)").rate, EMPTY, EMPTY, 3) == 7.0


def test_fn_evaluation_errors():
    r = parse_rule("a => a @ fn(1 / count_l(b))")
    with pytest.raises(RateEvaluationError) as exc:
        rate_of(r.rate, parse_term("a"), parse_term("a"), 1)
    assert exc.value.code == "division-by-zero"

    with pytest.raises(RateEvaluationError) as exc:
        rate_of(FnRate(BinOp("-", Num(0.0), MatchCount())), EMPTY, EMPTY, 2)
    assert exc.value.code == "negative-rate"

    with pytest.raises(RateEvaluationError) as exc:
        rate_of(FnRate(BinOp("*", Num(1e308), Num(1e308))), EMPTY, EMPTY, 1)
    assert exc.value.code == "nonfinite-rate"


def test_rate_spec_type_checked():
    with pytest.raises(TypeError):
        rate_of(1.0, EMPTY, EMPTY, 1)


def test_expression_rendering_round_trips():
    r = parse_rule("a => a @ fn(0.5 * count_l(a) / (n + 1))")
    assert str(r.rate) == "fn(((0.5 * count_l(a)) / (n + 1.0)))"
    assert rate_of(r.rate, parse_term("a a"), EMPTY, 1) == 0.5

"""Model-file parsing: syntax, sugar, diagnostics, bundled models."""
import importlib.resources

import pytest
from hypothesis import given, settings

from cwcsim import (
    ModelError,
    format_path,
    format_term,
    parse_model,
    parse_rule,
    parse_term,
)
from cwcsim.dsl import format_rule
from cwcsim.matching import level_outcomes
from cwcsim.rates import MassAction
from cwcsim.terms import EMPTY, Atom, Scope
from tests.test_terms import terms


def diags_of(text):
    with pytest.raises(ModelError) as exc:
        parse_model(text, source="m.cwc")
    return exc.value.diagnostics


@settings(deadline=None)
@given(terms)
def test_term_format_parse_round_trip(t):
    assert parse_term(format_term(t)) == t


def test_format_term_examples():
    assert format_term(parse_term("b a (b a | c c)")) == "a b (a b | c c)"
    assert format_term(EMPTY) == "*"
    assert format_term(parse_term("(|*)")) == "(| *)" or format_term(parse_term("(|*)")) == "( | *)"


def test_format_path():
    assert format_path(()) == "top"
    assert format_path(((1, 0), (2, 0))) == "1/2"


def test_repetition_sugar():
    assert parse_term("a * 3 (m p | b * 2)") == parse_term("a a a (m p | b b)")
    assert parse_term("(m * 2 | b)") == parse_term("(m m | b)")
    assert parse_term("a * 0 b") == parse_term("b")
    mf = parse_model("init a * 2 (m | c * 2)\nrule r: a => b @ 1\n")
    assert mf.init == parse_term("a a (m | c c)")
    # repetition is initial-state sugar only
    d, = diags_of("init a\nrule r: a * 2 -> b @ 1\n")
    assert (d.line, d.col) == (2, 11) and "*" in d.message


def test_arrow_sugar_appends_fresh_residue():
    sugar = parse_rule("a a => a c @ 1")
    explicit = parse_rule("a a $X -> a c $X @ 1")
    for text in ("a a a b", "a a", "a"):
        state = parse_term(text)
        assert level_outcomes(sugar, state) == level_outcomes(explicit, state)
    assert "$_W" in format_rule(sugar)


def test_fresh_residue_avoids_capture():
    r = parse_rule("a (m ~x | $_W) => b $_W @ 1")
    assert "$_W2" in format_rule(r)
    assert level_outcomes(r, parse_term("a (m | c)")) == [(parse_term("b c"), 1)]


def test_wrap_sugar_expands_to_membrane_rule():
    w = parse_rule("wrap a b => c @ 2")
    assert format_rule(w) == "rule r: (a b ~w | $Y) $Z -> (c ~w | $Y) $Z @ 2.0"
    assert parse_rule("wrap a -> c @ 1").rate == MassAction(1.0)
    state = parse_term("(a b p | q) r")
    assert level_outcomes(w, state) == [(parse_term("(c p | q) r"), 1)]
    assert level_outcomes(w, parse_term("(a | q)")) == []


def test_diagnostic_positions():
    d = diags_of("init a\nrule r: a $X $X -> a $X @ 1\n")[0]
    assert (d.line, d.col, d.code) == (2, 14, "nonlinear-pattern")
    assert str(d) == "2:14: variable '$X' occurs more than once in the left-hand side"

    d = diags_of("init a\nrule r: a $X -> b $Y $X @ 1\n")[0]
    assert (d.line, d.col, d.code) == (2, 19, "unbound-variable")

    d = diags_of("init a ^ b\nrule r: a => b @ 1\n")[0]
    assert (d.line, d.col) == (1, 8) and "'^'" in d.message

    err = None
    try:
        parse_model("init a\nrule r: a $X $X -> a $X @ 1\n", source="m.cwc")
    except ModelError as e:
        err = e
    assert "m.cwc:2:14:" in str(err)


def test_ground_positions_share_the_rule_grammar():
    ds = diags_of("init a $X (m ~y | b)\nrule r: a => b @ 1\n")
    assert [(d.line, d.col, d.message) for d in ds] == [
        (1, 8, "variables are not allowed in init"),
        (1, 14, "variables are not allowed in init"),
    ]
    d, = diags_of("init a\nrule r: a * 2 -> b @ 1\n")
    assert (d.line, d.col) == (2, 11) and "'*'" in d.message
    assert parse_term("(m * 2 | b)") == parse_term("(m m | b)")


def test_recovery_reports_every_bad_item():
    ds = diags_of(
        "init a\n"
        "rule r1: a -> b\n"
        "rule r2: -> b @ 1\n"
        "rule r3: a $X $X -> b $X @ 1\n"
    )
    assert len(ds) >= 3
    assert {d.line for d in ds} >= {3, 4}
    assert any(d.code == "nonlinear-pattern" for d in ds)


def test_duplicates_and_missing_init():
    assert any(d.message == "duplicate rule name 'r'" and d.line == 3
               for d in diags_of("init a\nrule r: a => b @ 1\nrule r: b => a @ 1\n"))
    assert any(d.code == "duplicate-init"
               for d in diags_of("init a\ninit b\nrule r: a => b @ 1\n"))
    assert any(d.code == "missing-init" for d in diags_of("rule r: a => b @ 1\n"))
    assert any("duplicate observable" in d.message for d in diags_of(
        "init a\nrule r: a => b @ 1\nobserve x: a in top\nobserve x: b in top\n"))


def test_directives():
    mf = parse_model(
        "init a\nrule r: a => b @ 1\n"
        "tmax 10.5\nseed 42\nsample 0.25\nmaxevents 900\nreplicates 4\n"
    )
    d = mf.directives
    assert (d.tmax, d.seed, d.sample, d.maxevents, d.replicates) == (10.5, 42, 0.25, 900, 4)
    empty = parse_model("init a\nrule r: a => b @ 1\n").directives
    assert (empty.tmax, empty.seed, empty.sample, empty.maxevents, empty.replicates) == (
        None, None, None, None, None)

    assert any("positive" in d.message for d in diags_of("init a\nrule r: a => b @ 1\ntmax 0\n"))
    assert diags_of("init a\nrule r: a => b @ 1\nseed 1.5\n")
    assert diags_of("init a\nrule r: a => b @ 1\nmaxevents 0\n")
    assert diags_of("init a\nrule r: a => b @ 1\nreplicates 0\n")
    assert any("duplicate" in d.message for d in diags_of(
        "init a\nrule r: a => b @ 1\ntmax 5\ntmax 6\n"))


def test_crlf_and_comments():
    mf = parse_model("# header\r\ninit a a # two\r\nrule r: a => b @ 1\r\n")
    assert mf.init == parse_term("a a")
    ds = diags_of("init a\r\nrule r: a $X $X -> a $X @ 1\r\n")
    assert (ds[0].line, ds[0].col) == (2, 14)


def test_observable_scopes():
    mf = parse_model(
        "init a\nrule r: a => b @ 1\n"
        "observe t: a in top\n"
        "observe e: a in anywhere\n"
        "observe i: a in inside m\n"
        "observe w: a in on-wrap m\n"
        "observe v: a in on-wrap\n"
    )
    scopes = {o.name: o.scope for o in mf.observables}
    assert scopes["t"] == Scope.top()
    assert scopes["e"] == Scope.anywhere()
    assert scopes["i"] == Scope.inside(Atom("m"))
    assert scopes["w"] == Scope.on_wrap(Atom("m"))
    assert scopes["v"] == Scope.on_wrap()
    assert any("expected one of top, anywhere, inside, on-wrap" in d.message
               for d in diags_of("init a\nrule r: a => b @ 1\nobserve x: a in nowhere\n"))
    assert diags_of("init a\nrule r: a => b @ 1\nobserve x: a in inside\n")


def test_reserved_words_are_not_atoms():
    assert diags_of("init rule\nrule r: a => b @ 1\n")
    assert diags_of("init seed\nrule r: a => b @ 1\n")
    assert diags_of("init on-wrap\nrule r: a => b @ 1\n")
    # names merely containing keywords are fine
    mf = parse_model("init rules seeded\nrule r: rules => b @ 1\n")
    assert mf.init == parse_term("rules seeded")


def test_rate_number_formats():
    assert parse_rule("a => b @ 0.00008").rate == MassAction(0.00008)
    assert parse_rule("a => b @ 1e-4").rate == MassAction(1e-4)
    assert parse_rule("a => b @ 2.5e3").rate == MassAction(2500.0)
    with pytest.raises(ModelError):
        parse_rule("a => b @ -1")
    with pytest.raises(ModelError):
        parse_rule("a => b @ 1e999")
    with pytest.raises(ModelError):
        parse_rule("a => b @ fn(1e999)")


def test_missing_rate_is_an_error():
    assert any("'@'" in d.message for d in diags_of("init a\nrule r: a -> b\n"))


def test_format_rule_fixpoint():
    texts = [
        "a (b ~x | c $X) $Y -> (~x | $X) $Y @ 0.5",
        "a a $X -> a c $X @ 1",
        "wrap a => b @ 2",
        "a => * @ fn(count_l(a) / 2)",
    ]
    for text in texts:
        r = parse_rule(text)
        fmt = format_rule(r)
        reparsed = parse_model(f"init a\n{fmt}\n").rules[0]
        assert format_rule(reparsed) == fmt


def test_parse_term_errors():
    with pytest.raises(ModelError):
        parse_term("")
    with pytest.raises(ModelError):
        parse_term("a b)")
    with pytest.raises(ModelError):
        parse_term("a $X")  # variables are rule syntax, not state syntax


def _load_model(name):
    text = importlib.resources.files("cwcsim").joinpath(f"models/{name}").read_text()
    return parse_model(text, source=name)


def test_bundled_phosphate_model():
    mf = _load_model("pho.cwc")
    assert [r.id for r in mf.rules] == [
        "in1", "out1", "bind", "unbind", "kinase", "express", "decay", "phosphatase",
    ]
    assert [r.rate.k for r in mf.rules] == [
        0.1, 0.1, 0.01, 0.005, 0.001, 0.0001, 0.00008, 0.0001,
    ]
    assert mf.init.count_atom_top(Atom("Pi")) == 20
    assert {o.name for o in mf.observables} == {
        "PhoProt", "periplasmic_Pi", "PhoBP", "boundPhoR",
    }
    d = mf.directives
    assert (d.tmax, d.sample, d.seed, d.replicates) == (20000.0, 100.0, 1, 30)


def test_bundled_macrophage_model():
    mf = _load_model("macrophage.cwc")
    assert [r.id for r in mf.rules] == ["bind", "release", "engulf", "fuse"]
    assert len(mf.observables) == 4


def test_bundled_turing_model():
    mf = _load_model("turing_successor.cwc")
    assert len(mf.rules) == 8
    assert all(r.rate == MassAction(1.0) for r in mf.rules)
    ones, = mf.observables
    assert ones.scope == Scope.on_wrap() and ones.atom == Atom("one")

"""Model-language parser and pretty-printer.

A model file is a sequence of whitespace-separated items; `#` starts a
line comment:

    init  Pi*20 (pore | PhoR*5)
    rule  r1: Pi (pore ~x | $X) => (pore ~x | Pi $X) @ 0.1
    rule  w1: wrap a b => c @ 2.0
    observe prot: PhoProt in anywhere
    tmax 6000
    seed 1

Terms are multisets written by juxtaposition: atoms are identifiers,
compartments are `(wrap | content)`, and `*` alone is the empty term.
`$X` is a term variable, `~x` a wrap variable.  One grammar reads the
terms of `init` and of rules, and one printer, `format_term`, writes terms
and open terms alike.  In a ground position (`init`, `parse_term`), and
only there, `atom * n` repeats an atom and a variable is an error.  Rule
bodies use `->` (the left side must already be a complete pattern) or
`=>` (a fresh residue term variable is appended to the top level of both
sides); the `wrap` marker turns an atom-only rule `a b => c` into
`(a b ~w | $Y) $Z -> (c ~w | $Y) $Z`, with either arrow accepted.  Rates
are `@ k` (mass action) or `@ fn(expr)` with `n`, `count_l(atom)`,
`count_r(atom)`, numbers and `+ - * /`.

The item keywords (init, rule, observe, tmax, seed, sample, maxevents,
replicates) are reserved and cannot name atoms or variables; that is what
makes recovery to the next item well defined after a syntax error.
Compartments, and parentheses in a rate expression, nest at most
terms.MAX_DEPTH deep; a deeper `(` is a nesting-too-deep diagnostic.  A
rate expression holds at most terms.MAX_DEPTH operators, since evaluating
it recurses once per operator; the operator past that is a rate-too-long
diagnostic.  A
rule is judged by pattern.validate_rule alone, and the parser places each
issue in the source: a repeated variable at its second occurrence, any
other at its variable's first.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional

from .errors import CwcError
from .pattern import (
    OpenCompartment,
    OpenTerm,
    RuleValidationError,
    Variable,
    ground_term,
    term_var,
    validate_rule,
    wrap_var,
)
from .rates import BinOp, CountL, CountR, FnRate, MassAction, MatchCount, Num
from .terms import MAX_DEPTH, Atom, Compartment, Observable, Scope, Term


@dataclass(frozen=True)
class Diagnostic:
    line: int
    col: int
    message: str
    code: str = "syntax-error"

    def __str__(self):
        return f"{self.line}:{self.col}: {self.message}"


class ModelError(CwcError):
    """Parse or validation failure; carries every diagnostic found."""

    def __init__(self, diagnostics, source: str = "<model>"):
        self.diagnostics = list(diagnostics)
        self.source = source
        super().__init__(
            "\n".join(f"{source}:{d}" for d in self.diagnostics)
        )


@dataclass(frozen=True)
class Directives:
    """Simulation settings carried by the model file, all optional."""

    tmax: Optional[float] = None
    seed: Optional[int] = None
    sample: Optional[float] = None
    maxevents: Optional[int] = None
    replicates: Optional[int] = None


@dataclass(frozen=True)
class ModelFile:
    init: Term
    rules: tuple
    observables: tuple
    directives: Directives
    source: str = "<model>"


ITEM_KEYWORDS = ("init", "rule", "observe", "tmax", "seed", "sample",
                 "maxevents", "replicates")
_RESERVED = frozenset(ITEM_KEYWORDS)

_INT_DIRECTIVES = {"seed", "maxevents", "replicates"}


@dataclass(frozen=True)
class _Token:
    kind: str  # name | tvar | wvar | number | a punct string | eof
    text: str
    line: int
    col: int

    def describe(self) -> str:
        if self.kind == "eof":
            return "end of file"
        if self.kind == "tvar":
            return f"'${self.text}'"
        if self.kind == "wvar":
            return f"'~{self.text}'"
        return f"'{self.text}'"


def _atom_token(tok) -> bool:
    return tok.kind == "name" and tok.text not in _RESERVED and tok.text != "on-wrap"


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<onwrap>on-wrap\b)
      | (?P<name>[A-Za-z][A-Za-z0-9_]*)
      | (?P<tvar>\$[A-Za-z_][A-Za-z0-9_]*)
      | (?P<wvar>~[A-Za-z_][A-Za-z0-9_]*)
      | (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
      | (?P<punct>->|=>|[()|*@:+\-/])
    """,
    re.VERBOSE,
)


def _lex(text: str, diags: list) -> list:
    toks = []
    pos = 0
    line = 1
    linestart = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            diags.append(
                Diagnostic(line, pos - linestart + 1,
                           f"unexpected character {text[pos]!r}")
            )
            pos += 1
            continue
        kind = m.lastgroup
        s = m.group()
        col = m.start() - linestart + 1
        if kind == "onwrap":
            toks.append(_Token("name", "on-wrap", line, col))
        elif kind in ("name", "number"):
            toks.append(_Token(kind, s, line, col))
        elif kind in ("tvar", "wvar"):
            toks.append(_Token(kind, s[1:], line, col))
        elif kind == "punct":
            toks.append(_Token(s, s, line, col))
        nl = s.count("\n")
        if nl:
            line += nl
            linestart = m.start() + s.rindex("\n") + 1
        pos = m.end()
    toks.append(_Token("eof", "", line, pos - linestart + 1))
    return toks


class _Recover(Exception):
    """Unwinds one item after a diagnostic; parsing resumes at the next."""


class _Parser:
    def __init__(self, toks: list, diags: list):
        self.toks = toks
        self.pos = 0
        self.diags = diags
        self.operators = 0  # in the rate expression being parsed

    @property
    def cur(self) -> _Token:
        return self.toks[self.pos]

    def advance(self) -> _Token:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def note(self, tok: _Token, message: str, code: str = "syntax-error"):
        self.diags.append(Diagnostic(tok.line, tok.col, message, code))

    def fail(self, tok: _Token, message: str, code: str = "syntax-error"):
        self.note(tok, message, code)
        raise _Recover()

    def expect(self, kind: str, what: str) -> _Token:
        if self.cur.kind != kind:
            self.fail(self.cur, f"expected {what}, got {self.cur.describe()}")
        return self.advance()

    def at_item_start(self) -> bool:
        return self.cur.kind == "name" and self.cur.text in _RESERVED

    def recover(self):
        while self.cur.kind != "eof" and not self.at_item_start():
            self.advance()

    # names ------------------------------------------------------------

    def atom_name(self, what: str = "an atom name") -> _Token:
        tok = self.cur
        if not _atom_token(tok):
            self.fail(tok, f"expected {what}, got {tok.describe()}")
        return self.advance()

    # terms ---------------------------------------------------------------
    # spans is None in a ground position (init, parse_term): there `atom * n`
    # repeats an atom and every variable is reported where it is met.
    # Otherwise spans maps each rule variable to the tokens it occurs at.

    def term(self, spans: Optional[dict], depth: int = 0) -> OpenTerm:
        if self.cur.kind == "*":
            self.advance()
            return OpenTerm()
        items = []
        while True:
            tok = self.cur
            if _atom_token(tok):
                self.advance()
                items.append((Atom(tok.text), self.repetition(spans)))
            elif tok.kind in ("tvar", "wvar"):
                # a wrap variable here is a kind misuse; validate_rule reports it
                self.variable(tok, spans, items)
            elif tok.kind == "(":
                items.append(self.compartment(spans, depth + 1))
            else:
                break
        if not items:
            self.fail(self.cur, f"expected a term, got {self.cur.describe()}")
        return OpenTerm(items)

    def repetition(self, spans: Optional[dict]) -> int:
        if spans is not None or self.cur.kind != "*":
            return 1
        self.advance()
        tok = self.expect("number", "a count after '*'")
        if not tok.text.isdigit():
            self.fail(tok, f"repetition count must be an integer, got '{tok.text}'")
        return int(tok.text)

    def variable(self, tok: _Token, spans: Optional[dict], out: list):
        self.advance()
        if spans is None:
            self.note(tok, "variables are not allowed in init")
            return
        v = (wrap_var if tok.kind == "wvar" else term_var)(tok.text)
        spans.setdefault(v, []).append(tok)
        out.append(v)

    def compartment(self, spans: Optional[dict], depth: int) -> OpenCompartment:
        tok = self.expect("(", "'('")
        if depth > MAX_DEPTH:
            self.fail(tok, f"compartments nest more than {MAX_DEPTH} deep", "nesting-too-deep")
        wrap_atoms = []
        wrap_vars = []
        while True:
            tok = self.cur
            if _atom_token(tok):
                self.advance()
                wrap_atoms.append((Atom(tok.text), self.repetition(spans)))
            elif tok.kind == "wvar" or (tok.kind == "tvar" and spans is not None):
                self.variable(tok, spans, wrap_vars)
            else:
                break
        self.expect("|", "'|' between wrap and content")
        content = self.term(spans, depth)
        self.expect(")", "')'")
        return OpenCompartment(wrap_atoms, wrap_vars, content)

    # rates --------------------------------------------------------------

    def rate(self):
        self.expect("@", "'@' before the rate")
        tok = self.cur
        if tok.kind == "number":
            self.advance()
            try:
                return MassAction(float(tok.text))
            except ValueError as e:
                self.fail(tok, str(e), "invalid-rate")
        if tok.kind == "name" and tok.text == "fn":
            self.advance()
            self.expect("(", "'(' after fn")
            self.operators = 0
            expr = self.rate_expr()
            self.expect(")", "')'")
            return FnRate(expr)
        self.fail(tok, f"expected a rate constant or fn(...), got {tok.describe()}")

    def number_value(self, tok: _Token) -> float:
        value = float(tok.text)
        if not math.isfinite(value):
            self.fail(tok, f"number out of range: '{tok.text}'")
        return value

    def rate_expr(self, depth: int = 0):
        left = self.rate_term(depth)
        while self.cur.kind in ("+", "-"):
            op = self.operator()
            left = BinOp(op, left, self.rate_term(depth))
        return left

    def rate_term(self, depth: int):
        left = self.rate_factor(depth)
        while self.cur.kind in ("*", "/"):
            op = self.operator()
            left = BinOp(op, left, self.rate_factor(depth))
        return left

    def operator(self) -> str:
        """Consume one operator of a rate expression, at most MAX_DEPTH of
        them in one expression."""
        tok = self.advance()
        self.operators += 1
        if self.operators > MAX_DEPTH:
            self.fail(tok, f"rate expression has more than {MAX_DEPTH} operators", "rate-too-long")
        return tok.kind

    def rate_factor(self, depth: int):
        tok = self.cur
        if tok.kind == "number":
            self.advance()
            return Num(self.number_value(tok))
        if tok.kind == "(":
            self.advance()
            if depth == MAX_DEPTH:
                self.fail(tok, f"parentheses nest more than {MAX_DEPTH} deep", "nesting-too-deep")
            expr = self.rate_expr(depth + 1)
            self.expect(")", "')'")
            return expr
        if tok.kind == "name":
            if tok.text == "n":
                self.advance()
                return MatchCount()
            if tok.text in ("count_l", "count_r"):
                self.advance()
                self.expect("(", f"'(' after {tok.text}")
                atom = Atom(self.atom_name().text)
                self.expect(")", "')'")
                return CountL(atom) if tok.text == "count_l" else CountR(atom)
        self.fail(tok, f"expected a rate expression, got {tok.describe()}")


def _fresh_residue(taken: dict) -> Variable:
    name = "_W"
    i = 1
    while term_var(name) in taken:
        i += 1
        name = f"_W{i}"
    return term_var(name)


def _atoms_only(o: OpenTerm, parser: _Parser, head: _Token) -> Optional[list]:
    pairs = []
    for el, n in o.items:
        if type(el) is not Atom:
            parser.note(head, "a wrap rule rewrites atom multisets only")
            return None
        pairs.append((el, n))
    return pairs


def _expand_wrap_rule(lhs_pairs, rhs_pairs):
    x, y, z = wrap_var("w"), term_var("Y"), term_var("Z")
    lhs = OpenTerm([OpenCompartment(lhs_pairs, [x], OpenTerm([y])), z])
    rhs = OpenTerm([OpenCompartment(rhs_pairs, [x], OpenTerm([y])), z])
    return lhs, rhs


class _ModelBuilder:
    def __init__(self, source: str):
        self.source = source
        self.diags: list = []
        self.inits: list = []  # init keyword tokens, parsed or not
        self.init: Optional[Term] = None
        self.rules: list = []
        self.rule_names: dict = {}
        self.observables: list = []
        self.obs_names: dict = {}
        self.directives: dict = {}

    def parse(self, text: str):
        toks = _lex(text, self.diags)
        p = _Parser(toks, self.diags)
        while p.cur.kind != "eof":
            if not p.at_item_start():
                p.note(
                    p.cur,
                    "expected 'init', 'rule', 'observe', or a directive, "
                    f"got {p.cur.describe()}",
                )
                p.recover()
                continue
            keyword = p.advance()
            try:
                if keyword.text == "init":
                    self.inits.append(keyword)
                    self.init = ground_term(p.term(None))
                elif keyword.text == "rule":
                    self.parse_rule(p)
                elif keyword.text == "observe":
                    self.parse_observe(p)
                else:
                    self.parse_directive(p, keyword)
            except _Recover:
                p.recover()
        return self.finish()

    # items ---------------------------------------------------------------

    def parse_rule(self, p: _Parser):
        name = p.atom_name("a rule name")
        if name.text in self.rule_names:
            p.note(name, f"duplicate rule name '{name.text}'")
        self.rule_names[name.text] = name
        p.expect(":", "':' after the rule name")

        spans: dict = {}  # the left side's tokens come first
        is_wrap = p.cur.kind == "name" and p.cur.text == "wrap"
        if is_wrap:
            p.advance()
        lhs = p.term(spans)
        if p.cur.kind not in ("->", "=>"):
            p.fail(p.cur, f"expected '->' or '=>', got {p.cur.describe()}")
        arrow = p.advance()
        rhs = p.term(spans)
        rate = p.rate()

        if is_wrap:
            lhs_pairs = _atoms_only(lhs, p, name)
            rhs_pairs = _atoms_only(rhs, p, name)
            if lhs_pairs is None or rhs_pairs is None:
                return
            lhs, rhs = _expand_wrap_rule(lhs_pairs, rhs_pairs)
        elif arrow.kind == "=>":
            residue = _fresh_residue(spans)
            lhs = lhs.union(OpenTerm([residue]))
            rhs = rhs.union(OpenTerm([residue]))

        try:
            rule = validate_rule(lhs, rhs, rate=rate, rule_id=name.text)
        except RuleValidationError as e:
            # a nonlinear variable at its second occurrence, these first and in
            # source order; any other issue at its variable's first occurrence
            first = list(spans)
            for issue in sorted((i for i in e.issues if i.code == "nonlinear-pattern"),
                                key=lambda i: first.index(i.variable)):
                tok = spans[issue.variable][1]
                self.diags.append(Diagnostic(
                    tok.line, tok.col,
                    f"variable {tok.describe()} occurs more than once in the left-hand side",
                    issue.code,
                ))
            for issue in e.issues:
                if issue.code != "nonlinear-pattern":
                    tok = spans[issue.variable][0] if issue.variable in spans else name
                    self.diags.append(Diagnostic(
                        tok.line, tok.col, f"rule '{name.text}': {issue.message}", issue.code
                    ))
            return
        self.rules.append(rule)

    def parse_observe(self, p: _Parser):
        name = p.atom_name("an observable name")
        if name.text in self.obs_names:
            p.note(name, f"duplicate observable name '{name.text}'")
        self.obs_names[name.text] = name
        p.expect(":", "':' after the observable name")
        atom = Atom(p.atom_name().text)
        kw = p.atom_name("'in'")
        if kw.text != "in":
            p.fail(kw, f"expected 'in', got {kw.describe()}")
        scope_tok = p.cur
        if scope_tok.kind != "name" or scope_tok.text in _RESERVED:
            p.fail(
                scope_tok,
                "expected a scope (top, anywhere, inside, on-wrap), "
                f"got {scope_tok.describe()}",
            )
        p.advance()
        kind, marker = scope_tok.text, None
        if kind == "inside":
            marker = Atom(p.atom_name("a marker atom").text)
        elif kind == "on-wrap":
            if p.cur.kind == "name" and p.cur.text not in _RESERVED:
                marker = Atom(p.advance().text)
        elif kind not in ("top", "anywhere"):
            p.fail(
                scope_tok,
                "expected one of top, anywhere, inside, on-wrap, "
                f"got {scope_tok.describe()}",
            )
        self.observables.append(Observable(name.text, atom, Scope(kind, marker)))

    def parse_directive(self, p: _Parser, keyword: _Token):
        tok = p.expect("number", f"a value after '{keyword.text}'")
        if keyword.text in self.directives:
            p.note(keyword, f"duplicate directive '{keyword.text}'")
            return
        if keyword.text in _INT_DIRECTIVES:
            if not tok.text.isdigit():
                p.fail(tok, f"'{keyword.text}' takes an integer, got '{tok.text}'")
            value = int(tok.text)
            if keyword.text != "seed" and value < 1:
                p.fail(tok, f"'{keyword.text}' must be at least 1")
            self.directives[keyword.text] = value
        else:
            value = p.number_value(tok)
            if not value > 0:
                p.fail(tok, f"'{keyword.text}' must be positive")
            self.directives[keyword.text] = value

    # ------------------------------------------------------------------

    def finish(self):
        for tok in self.inits[1:]:
            self.diags.append(
                Diagnostic(tok.line, tok.col, "more than one init", "duplicate-init")
            )
        if not self.inits:
            self.diags.append(Diagnostic(1, 1, "model has no init", "missing-init"))
        if self.diags:
            raise ModelError(self.diags, self.source)
        return ModelFile(
            init=self.init,
            rules=tuple(self.rules),
            observables=tuple(self.observables),
            directives=Directives(**self.directives),
            source=self.source,
        )


def parse_model(text: str, source: str = "<model>") -> ModelFile:
    """Parse and validate a model; raises ModelError with every diagnostic."""
    return _ModelBuilder(source).parse(text)


def parse_term(text: str) -> Term:
    """Parse a ground term (repetition allowed), for tests and the CLI."""
    diags: list = []
    p = _Parser(_lex(text, diags), diags)
    try:
        t = ground_term(p.term(None))
        if p.cur.kind != "eof":
            p.note(p.cur, f"trailing input: {p.cur.describe()}")
    except _Recover:
        pass
    if diags:
        raise ModelError(diags, "<term>")
    return t


def parse_rule(text: str, rule_id: str = "r"):
    """Parse one rule body like `a a $X -> a c $X @ 1`, for tests."""
    model = parse_model(f"init a\nrule {rule_id}: {text}\n")
    return model.rules[0]


# formatting -----------------------------------------------------------


def _word(el) -> str:
    return str(el) if type(el) is Variable else el.name


def format_term(t) -> str:
    """Canonical text of a term or an open term in the model syntax; parsing
    a term's text back yields an equal term."""
    if not t.items:
        return "*"
    parts = []
    for el, n in t.items:
        if type(el) in (Atom, Variable):
            s = _word(el)
        else:
            wrap = el.wrap if type(el) is Compartment else el.wrap_atoms + el.wrap_vars
            words = " ".join(_word(w) for w, k in wrap for _ in range(k))
            s = f"({words} | {format_term(el.content)})"
        parts.extend([s] * n)
    return " ".join(parts)


def format_path(path) -> str:
    """Compartment element indices from the top, `top` for the empty path."""
    if not path:
        return "top"
    return "/".join(str(i) for i, _ in path)


def format_rate(spec) -> str:
    if isinstance(spec, MassAction):
        return repr(spec.k)
    return str(spec)


def format_rule(rule) -> str:
    return (
        f"rule {rule.id}: {format_term(rule.lhs_open)} -> "
        f"{format_term(rule.rhs)} @ {format_rate(rule.rate)}"
    )

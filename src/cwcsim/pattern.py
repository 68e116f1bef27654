"""Open terms, rewrite-rule patterns, and substitution.

Patterns are linear open terms of a restricted shape: every level of the
left-hand side carries exactly one residue term variable, and every
non-ground compartment on the left carries exactly one wrap variable next
to its wrap atoms.  The right-hand side is an arbitrary open term over the
left-hand side's variables.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from .errors import CwcError
from .terms import Atom, AtomBag, Compartment, Term, _canonical, _checked, atom_bag

TERM = "term"
WRAP = "wrap"


class Variable:
    """A rule variable; term variables stand for terms, wrap variables for
    atom multisets.  The two kinds live in disjoint namespaces."""

    __slots__ = ("kind", "name", "_key", "_hash")

    def __init__(self, kind: str, name: str):
        if kind not in (TERM, WRAP):
            raise ValueError(f"unknown variable kind {kind!r}")
        self.kind = kind
        self.name = name
        self._key = (2, kind, name)
        self._hash = hash(self._key)

    def __eq__(self, other):
        return self is other or (
            type(other) is Variable and other._key == self._key
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        sigil = "$" if self.kind == TERM else "~"
        return f"Variable({sigil}{self.name})"


def term_var(name: str) -> Variable:
    return Variable(TERM, name)


def wrap_var(name: str) -> Variable:
    return Variable(WRAP, name)


class OpenCompartment:
    """A compartment that may carry variables on its wrap and in its content.

    Ground compartments inside open terms use this representation too (with
    empty variable parts) so that open-term elements sort uniformly.
    """

    __slots__ = ("wrap_atoms", "wrap_vars", "content", "_key", "_hash", "is_ground")

    def __init__(self, wrap_atoms, wrap_vars, content: "OpenTerm"):
        self.wrap_atoms = atom_bag(wrap_atoms)
        self.wrap_vars = _canonical(_checked(wrap_vars, Variable, "wrap variable expected"))
        if not isinstance(content, OpenTerm):
            raise TypeError("open compartment content must be an OpenTerm")
        self.content = content
        self._key = (
            1,
            tuple((a.name, n) for a, n in self.wrap_atoms),
            tuple((v.kind, v.name, n) for v, n in self.wrap_vars),
            content._key,
        )
        self._hash = hash(self._key)
        self.is_ground = not self.wrap_vars and content.is_ground

    def __eq__(self, other):
        return self is other or (
            type(other) is OpenCompartment and other._key == self._key
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"OpenCompartment({self.wrap_atoms!r}, {self.wrap_vars!r}, {self.content!r})"


class OpenTerm:
    """A canonical multiset of atoms, term variables, and open compartments."""

    __slots__ = ("items", "_key", "_hash", "is_ground")

    def __init__(self, elements: Iterable = ()):
        what = "open term element expected"
        self.items = _canonical(_checked(elements, (Atom, Variable, OpenCompartment), what))
        self._key = tuple((el._key, n) for el, n in self.items)
        self._hash = hash(self._key)
        self.is_ground = all(
            type(el) is Atom or (type(el) is OpenCompartment and el.is_ground)
            for el, _ in self.items
        )

    def __eq__(self, other):
        return self is other or (type(other) is OpenTerm and other._key == self._key)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        from .dsl import format_term

        return f"OpenTerm[{format_term(self)}]"

    def union(self, other: "OpenTerm") -> "OpenTerm":
        return OpenTerm(self.items + other.items)


def open_of_term(t: Term) -> OpenTerm:
    """Embed a ground term as an open term."""
    out = []
    for el, n in t.items:
        if type(el) is Atom:
            out.append((el, n))
        else:
            out.append((OpenCompartment(el.wrap, (), open_of_term(el.content)), n))
    return OpenTerm(out)


def ground_term(o: OpenTerm) -> Term:
    """Convert a variable-free open term back to a term."""
    if not o.is_ground:
        raise ValueError("open term contains variables")
    out = []
    for el, n in o.items:
        if type(el) is Atom:
            out.append((el, n))
        else:
            out.append((Compartment(el.wrap_atoms, ground_term(el.content)), n))
    return Term(out)


def vars_of(o: OpenTerm) -> set:
    """All variables occurring in an open term."""
    occurrences: dict = {}
    _count_occurrences(o, occurrences)
    return set(occurrences)


class SubstitutionError(CwcError):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def apply_subst(o: OpenTerm, subst: Mapping) -> Term:
    """Instantiate an open term: term variables splice terms into their level,
    wrap variables splice atom multisets into their wrap.  The result is
    canonical."""
    out = []
    for el, n in o.items:
        if type(el) is Atom:
            out.append((el, n))
        elif type(el) is Variable:
            value = _lookup(subst, el)
            if not isinstance(value, Term):
                raise SubstitutionError(
                    "kind-mismatch", f"variable ${el.name} needs a Term value"
                )
            for sub_el, k in value.items:
                out.append((sub_el, k * n))
        else:
            wrap = list(el.wrap_atoms)
            for v, k in el.wrap_vars:
                value = _lookup(subst, v)
                if not isinstance(value, tuple):
                    raise SubstitutionError(
                        "kind-mismatch", f"variable ~{v.name} needs an atom multiset"
                    )
                wrap.extend((a, m * k) for a, m in value)
            content = apply_subst(el.content, subst)
            out.append((Compartment(wrap, content), n))
    return Term._of(_canonical(out))


def _lookup(subst: Mapping, v: Variable):
    try:
        return subst[v]
    except KeyError:
        sigil = "$" if v.kind == TERM else "~"
        raise SubstitutionError(
            "unbound-variable", f"no value for variable {sigil}{v.name}"
        ) from None


@dataclass(frozen=True)
class CompartmentPattern:
    """One non-ground compartment of a left-hand side: consumed wrap atoms, a
    wrap variable for the rest of the wrap, and a nested level pattern."""

    wrap_atoms: AtomBag
    wrap_var: Variable
    content: "LevelPattern"


@dataclass(frozen=True)
class LevelPattern:
    """The pattern for one multiset level: ground atoms, ground compartments,
    compartment slots, and the residue variable absorbing everything else."""

    atoms: AtomBag
    grounds: tuple  # ((Compartment, count), ...)
    slots: tuple  # (CompartmentPattern, ...)
    residue: Variable


class RuleValidationError(CwcError):
    """Raised with the full list of rule issues found."""

    def __init__(self, issues):
        super().__init__("; ".join(i.message for i in issues))
        self.issues = list(issues)

    @property
    def codes(self):
        return [i.code for i in self.issues]


@dataclass(frozen=True)
class RuleIssue:
    code: str  # nonlinear-pattern | unbound-variable | malformed-pattern | kind-mismatch | empty-pattern
    message: str
    variable: Optional[Variable] = None


@dataclass(eq=False)
class Rule:
    """A validated rewrite rule with its compiled left-hand side."""

    id: str
    lhs: LevelPattern
    rhs: OpenTerm
    rate: object
    lhs_open: OpenTerm = field(repr=False, default=None)


def validate_rule(lhs: OpenTerm, rhs: OpenTerm, *, rate=None, rule_id: str = "1") -> Rule:
    """Check a rule against the pattern grammar and variable discipline.

    Every violation found is reported; the exception carries the full issue
    list (nonlinear-pattern, unbound-variable, malformed-pattern,
    kind-mismatch, empty-pattern).
    """
    issues: list = []
    _check_kinds(lhs, issues, "left-hand side")
    _check_kinds(rhs, issues, "right-hand side")

    occurrences: dict = {}
    _count_occurrences(lhs, occurrences)
    for v, n in occurrences.items():
        if n > 1:
            sigil = "$" if v.kind == TERM else "~"
            issues.append(
                RuleIssue(
                    "nonlinear-pattern",
                    f"variable {sigil}{v.name} occurs {n} times in the left-hand side",
                    v,
                )
            )

    level = _compile_level(lhs, issues, "top level")
    if level is not None and not (level.atoms or level.grounds or level.slots):
        issues.append(
            RuleIssue("empty-pattern", "left-hand side consumes nothing", None)
        )

    lhs_vars = set(occurrences)
    for v in sorted(vars_of(rhs) - lhs_vars, key=lambda v: (v.kind, v.name)):
        sigil = "$" if v.kind == TERM else "~"
        issues.append(
            RuleIssue(
                "unbound-variable",
                f"variable {sigil}{v.name} is not bound by the left-hand side",
                v,
            )
        )

    if issues:
        raise RuleValidationError(issues)
    if rate is None:
        from .rates import MassAction

        rate = MassAction(1.0)
    return Rule(id=rule_id, lhs=level, rhs=rhs, rate=rate, lhs_open=lhs)


def _check_kinds(o: OpenTerm, issues: list, side: str):
    for el, _ in o.items:
        if type(el) is Variable and el.kind != TERM:
            issues.append(
                RuleIssue(
                    "kind-mismatch",
                    f"wrap variable ~{el.name} used in content position ({side})",
                    el,
                )
            )
        elif type(el) is OpenCompartment:
            for v, _ in el.wrap_vars:
                if v.kind != WRAP:
                    issues.append(
                        RuleIssue(
                            "kind-mismatch",
                            f"term variable ${v.name} used on a wrap ({side})",
                            v,
                        )
                    )
            _check_kinds(el.content, issues, side)


def _count_occurrences(o: OpenTerm, acc: dict):
    for el, n in o.items:
        if type(el) is Variable:
            acc[el] = acc.get(el, 0) + n
        elif type(el) is OpenCompartment:
            for v, k in el.wrap_vars:
                acc[v] = acc.get(v, 0) + k * n
            _count_occurrences(el.content, acc)


def _compile_level(o: OpenTerm, issues: list, where: str) -> Optional[LevelPattern]:
    atoms = []
    grounds = []
    slots = []
    residue = None
    residue_occurrences = 0
    ok = True
    for el, n in o.items:
        if type(el) is Atom:
            atoms.append((el, n))
        elif type(el) is Variable:
            if el.kind != TERM:
                ok = False  # already reported as kind-mismatch
                continue
            residue = el
            residue_occurrences += n
        else:
            if el.is_ground:
                grounds.append((Compartment(el.wrap_atoms, ground_term(el.content)), n))
                continue
            wrap_var_occurrences = sum(k for _, k in el.wrap_vars)
            if wrap_var_occurrences != 1:
                issues.append(
                    RuleIssue(
                        "malformed-pattern",
                        f"compartment pattern at {where} needs exactly one wrap "
                        f"variable, found {wrap_var_occurrences}",
                    )
                )
                ok = False
            inner = _compile_level(el.content, issues, f"compartment at {where}")
            if inner is None:
                ok = False
            if n > 1:
                # Identical non-ground copies imply repeated variables; the
                # linearity check reports them, but keep compiling.
                ok = False
            if ok and inner is not None:
                slots.append(
                    CompartmentPattern(el.wrap_atoms, el.wrap_vars[0][0], inner)
                )
    if residue_occurrences != 1:
        issues.append(
            RuleIssue(
                "malformed-pattern",
                f"{where} needs exactly one residue term variable, "
                f"found {residue_occurrences}",
            )
        )
        return None
    if not ok:
        return None
    return LevelPattern(
        atoms=tuple(atoms), grounds=tuple(grounds), slots=tuple(slots), residue=residue
    )

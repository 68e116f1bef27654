"""Open terms, rewrite-rule patterns, and substitution.

Patterns are linear open terms of a restricted shape: every level of the
left-hand side carries exactly one residue term variable, and every
non-ground compartment on the left carries exactly one wrap variable next
to its wrap atoms.  The right-hand side is an arbitrary open term over the
left-hand side's variables.  validate_rule alone judges a rule against this
discipline, in one walk of each side and a compile of the left.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from .errors import CwcError
from .terms import (
    EMPTY, Atom, AtomBag, Compartment, Term, _bag_spliced, _canonical, _checked, atom_bag,
)

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

    def __str__(self):
        return ("$" if self.kind == TERM else "~") + self.name

    def __repr__(self):
        return f"Variable({self})"


def term_var(name: str) -> Variable:
    return Variable(TERM, name)


def wrap_var(name: str) -> Variable:
    return Variable(WRAP, name)


class OpenCompartment:
    """A compartment that may carry variables on its wrap and in its content.

    Ground compartments inside open terms use this representation too (with
    empty variable parts) so that open-term elements sort uniformly.
    carried is set on a validated rule's right-hand side only, to the
    left-hand-side compartment pattern equal to this compartment, under
    which a match binds the element that pattern took (validate_rule);
    otherwise it is None.
    """

    __slots__ = ("wrap_atoms", "wrap_vars", "content", "_key", "_hash", "is_ground", "carried")

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
        self.carried = None

    def __eq__(self, other):
        return self is other or (
            type(other) is OpenCompartment and other._key == self._key
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"OpenCompartment({self.wrap_atoms!r}, {self.wrap_vars!r}, {self.content!r})"


class OpenTerm:
    """A canonical multiset of atoms, term variables, and open compartments.

    splice is the level's last variable when it occurs once, and None when
    the level has no variable or its last occurs more often; rest is then
    the level's other items (apply_subst).
    """

    __slots__ = ("items", "_key", "_hash", "is_ground", "splice", "rest")

    def __init__(self, elements: Iterable = ()):
        what = "open term element expected"
        self.items = items = _canonical(
            _checked(elements, (Atom, Variable, OpenCompartment), what)
        )
        self._key = tuple((el._key, n) for el, n in items)
        self._hash = hash(self._key)
        self.is_ground = all(
            type(el) is Atom or (type(el) is OpenCompartment and el.is_ground)
            for el, _ in items
        )
        # variables sort after atoms and compartments
        once = items and type(items[-1][0]) is Variable and items[-1][1] == 1
        self.splice = items[-1][0] if once else None
        self.rest = items[:-1] if once else None

    def __eq__(self, other):
        return self is other or (type(other) is OpenTerm and other._key == self._key)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        from .dsl import format_term

        return f"OpenTerm[{format_term(self)}]"

    def union(self, other: "OpenTerm") -> "OpenTerm":
        return OpenTerm(self.items + other.items)


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


class SubstitutionError(CwcError):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def apply_subst(o: OpenTerm, subst: Mapping, consumed=()) -> Term:
    """Instantiate an open term: term variables splice terms into their level,
    wrap variables splice atom multisets into their wrap.  The result is
    canonical.

    Every level is built by Term._spliced.  A level whose last variable
    occurs once (OpenTerm.splice) starts from that variable's value, and
    its other items, instantiated, go in; an equal element of the value
    gets the count added and stays the value's object, and the level keeps
    the value's key but where it changed.  A level that is only the
    variable is its value itself.  consumed, (element, count) pairs of the
    top level's value, is removed from it in the same splice, after the
    insertions, so an element both consumed and produced stays the value's
    object too (matching.Outcome).  Any other level starts from the empty
    term, and a compartment's wrap from its wrap atoms.  A compartment that
    carries a left-hand-side pattern (OpenCompartment.carried) is the
    element subst binds that pattern to, when it binds it, and is not built
    again: the rebuilt one would equal it."""
    v = o.splice
    if v is None:
        return Term._spliced(EMPTY, _instantiated(o.items, subst))
    value = _term_value(subst, v)
    if not o.rest and not consumed:
        return value
    return Term._spliced(value, _instantiated(o.rest, subst), consumed)


def _instantiated(items: tuple, subst: Mapping) -> list:
    """The (element, count) pairs of open-term items instantiated: a term
    variable's items after the level's own, as they sort."""
    out = []
    for el, n in items:
        if type(el) is Atom:
            out.append((el, n))
        elif type(el) is Variable:
            for sub_el, k in _term_value(subst, el).items:
                out.append((sub_el, k * n))
        else:
            carried = subst.get(el.carried) if el.carried is not None else None
            if carried is not None:
                out.append((carried, n))
                continue
            wrap = []
            for v, k in el.wrap_vars:
                value = _lookup(subst, v)
                if not isinstance(value, tuple):
                    raise SubstitutionError(
                        "kind-mismatch", f"variable ~{v.name} needs an atom multiset"
                    )
                wrap.extend((a, m * k) for a, m in value)
            content = apply_subst(el.content, subst)
            out.append((Compartment._of(_bag_spliced(el.wrap_atoms, wrap), content), n))
    return out


def _term_value(subst: Mapping, v: Variable) -> Term:
    value = _lookup(subst, v)
    if not isinstance(value, Term):
        raise SubstitutionError("kind-mismatch", f"variable ${v.name} needs a Term value")
    return value


def _lookup(subst: Mapping, v: Variable):
    try:
        return subst[v]
    except KeyError:
        raise SubstitutionError(
            "unbound-variable", f"no value for variable {v}"
        ) from None


@dataclass(frozen=True)
class CompartmentPattern:
    """One non-ground compartment of a left-hand side: consumed wrap atoms, a
    wrap variable for the rest of the wrap, and a nested level pattern.
    carry is the pattern's OpenCompartment when the right-hand side holds an
    equal compartment, and a match then binds it to the element it took
    (matching._rows); otherwise None."""

    wrap_atoms: AtomBag
    wrap_var: Variable
    content: "LevelPattern"
    carry: Optional[OpenCompartment] = None


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
    """A validated rewrite rule with its compiled left-hand side.  A match
    rewrites the matched content to rhs instantiated with its bindings, the
    top residue variable bound to what the match leaves (matching.Outcome).
    splice_residue is set when rhs's top level splices that residue
    (OpenTerm.splice) and it occurs nowhere else in rhs.  Every compartment
    of rhs equal to a compartment pattern of lhs carries it
    (OpenCompartment.carried): linearity brings back every part of the
    element the pattern took unchanged, so the outcome holds that element.
    """

    id: str
    lhs: LevelPattern
    rhs: OpenTerm
    rate: object
    lhs_open: OpenTerm = field(repr=False, default=None)
    splice_residue: bool = field(repr=False, default=False)


def validate_rule(lhs: OpenTerm, rhs: OpenTerm, *, rate=None, rule_id: str = "1") -> Rule:
    """Check a rule against the pattern grammar and variable discipline; the
    one judge of a rule, which the model parser only places in the source.

    Every violation found is reported; the exception carries the full issue
    list in this order: kind-mismatch (left side, then right),
    nonlinear-pattern, malformed-pattern, empty-pattern, unbound-variable.
    A variable is nonlinear when it occurs more than once on the left, a
    repeated compartment pattern counting its variables once per copy.
    A right-hand-side compartment equal to a left-hand-side compartment
    pattern, at any depth of either side, carries it (Rule).
    """
    issues: list = []
    occurrences = _occurrences(lhs, issues, "left-hand side")
    rhs_occurrences = _occurrences(rhs, issues, "right-hand side")
    for v, n in occurrences.items():
        if n > 1:
            issues.append(
                RuleIssue(
                    "nonlinear-pattern",
                    f"variable {v} occurs {n} times in the left-hand side",
                    v,
                )
            )

    # the key of every right-hand-side compartment -> the pattern it carries
    carried = dict.fromkeys(_compartment_keys(rhs))
    level = _compile_level(lhs, issues, "top level", carried)
    if level is not None and not (level.atoms or level.grounds or level.slots):
        issues.append(
            RuleIssue("empty-pattern", "left-hand side consumes nothing", None)
        )

    unbound = set(rhs_occurrences) - set(occurrences)
    for v in sorted(unbound, key=lambda v: (v.kind, v.name)):
        issues.append(
            RuleIssue(
                "unbound-variable",
                f"variable {v} is not bound by the left-hand side",
                v,
            )
        )

    if issues:
        raise RuleValidationError(issues)
    if rate is None:
        from .rates import MassAction

        rate = MassAction(1.0)
    splice_residue = rhs.splice == level.residue and rhs_occurrences[level.residue] == 1
    return Rule(id=rule_id, lhs=level, rhs=_carrying(rhs, carried), rate=rate, lhs_open=lhs,
                splice_residue=splice_residue)


def _occurrences(o: OpenTerm, issues: list, side: str, copies: int = 1, acc=None) -> dict:
    """Each variable's occurrences in o, inside a compartment pattern once
    per copy of it; reports every variable of the wrong kind for its
    position (content or wrap) to issues."""
    acc = {} if acc is None else acc
    for el, n in o.items:
        n *= copies
        if type(el) is Variable:
            acc[el] = acc.get(el, 0) + n
            if el.kind != TERM:
                issues.append(
                    RuleIssue(
                        "kind-mismatch",
                        f"wrap variable {el} used in content position ({side})",
                        el,
                    )
                )
        elif type(el) is OpenCompartment:
            for v, k in el.wrap_vars:
                acc[v] = acc.get(v, 0) + k * n
                if v.kind != WRAP:
                    issues.append(
                        RuleIssue(
                            "kind-mismatch",
                            f"term variable {v} used on a wrap ({side})",
                            v,
                        )
                    )
            _occurrences(el.content, issues, side, n, acc)
    return acc


def _compartment_keys(o: OpenTerm) -> set:
    """The key of every compartment of o, at any depth."""
    keys = set()
    for el, _ in o.items:
        if type(el) is OpenCompartment:
            keys.add(el._key)
            keys |= _compartment_keys(el.content)
    return keys


def _carrying(o: OpenTerm, carried: dict) -> OpenTerm:
    """o with every compartment, at any depth, a copy that carries the
    pattern carried maps its key to, if any."""
    items = []
    for el, n in o.items:
        if type(el) is OpenCompartment:
            pattern = carried.get(el._key)
            content = el.content if pattern is not None else _carrying(el.content, carried)
            el = OpenCompartment(el.wrap_atoms, el.wrap_vars, content)
            el.carried = pattern
        items.append((el, n))
    return OpenTerm(items)


def _compile_level(o: OpenTerm, issues: list, where: str,
                   carried: dict) -> Optional[LevelPattern]:
    """The LevelPattern of o, or None with the issues found added; a
    compartment pattern whose key is in carried, the right-hand side's
    compartment keys, carries itself and goes in carried under its key."""
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
            inner = _compile_level(el.content, issues, f"compartment at {where}", carried)
            if inner is None:
                ok = False
            if n > 1:
                # Identical non-ground copies imply repeated variables; the
                # linearity check reports them, but keep compiling.
                ok = False
            if ok and inner is not None:
                carry = el if el._key in carried else None
                if carry is not None:
                    carried[el._key] = el
                slots.append(
                    CompartmentPattern(el.wrap_atoms, el.wrap_vars[0][0], inner, carry)
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

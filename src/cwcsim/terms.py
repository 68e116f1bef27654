"""Immutable multiset terms for a calculus of wrapped compartments.

A term is a multiset of simple terms; a simple term is either an atom or a
compartment ``(wrap | content)`` whose wrap is a multiset of atoms and whose
content is again a term.  Terms are kept in a canonical counted-sorted form
(atoms before compartments, atoms by name, compartments by wrap then content)
so that structural congruence coincides with plain equality.

Every multiset here and in ``pattern`` -- terms, wraps, open terms and wrap
variable bags -- gets that form from one function, ``_canonical``; the
public constructors check their input once, with ``_checked``, before it.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

from .errors import InvalidPathError

_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class Atom:
    """A named, indivisible element.  Names are case-sensitive identifiers."""

    __slots__ = ("name", "_key", "_hash")
    size = 1
    depth = 0
    has_atoms = True

    def __init__(self, name: str):
        if not isinstance(name, str) or not _IDENT.match(name):
            raise ValueError(f"invalid atom name: {name!r}")
        self.name = name
        self._key = (0, name)
        self._hash = hash(self._key)

    def __eq__(self, other):
        return self is other or (type(other) is Atom and other.name == self.name)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Atom({self.name!r})"


# A canonical multiset of atoms: name-sorted ((Atom, count), ...) pairs.
AtomBag = tuple


def _checked(items: Iterable, kinds, what: str) -> list:
    """(element, count) pairs from elements or pairs, with types and counts
    checked; the validation shared by every public multiset constructor."""
    pairs = []
    for it in items:
        el, n = it if isinstance(it, tuple) else (it, 1)
        if not isinstance(el, kinds):
            raise TypeError(f"{what}, got {el!r}")
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"multiplicity must be a nonnegative int, got {n!r}")
        pairs.append((el, n))
    return pairs


def _canonical(pairs: Iterable) -> tuple:
    """The canonical form of a multiset: counts of equal elements merged,
    zero counts dropped, pairs sorted by ``_key``.  Of equal elements the
    last is kept, so ``apply_subst`` outcomes share the residue's objects."""
    merged: dict = {}
    for el, n in pairs:
        if n:
            got = merged.get(el)
            merged[el] = (el, got[1] + n) if got else (el, n)
    return tuple(sorted(merged.values(), key=lambda p: p[0]._key))


def atom_bag(items: Iterable) -> AtomBag:
    """Build a canonical atom multiset from atoms or (atom, count) pairs."""
    return _canonical(_checked(items, Atom, "atom bag element must be Atom"))


def bag_count(bag: AtomBag, atom: Atom) -> int:
    for a, n in bag:
        if a.name == atom.name:
            return n
    return 0


def bag_total(bag: AtomBag) -> int:
    return sum(n for _, n in bag)


def bag_contains(sub: AtomBag, sup: AtomBag) -> bool:
    return all(bag_count(sup, a) >= n for a, n in sub)


def bag_diff(sup: AtomBag, sub: AtomBag) -> AtomBag:
    """Multiset difference sup - sub; sub must be contained in sup."""
    out = []
    for a, n in sup:
        k = n - bag_count(sub, a)
        if k < 0:
            raise ValueError(f"bag_diff: {a.name} occurs {n} < {n - k} times")
        if k:
            out.append((a, k))
    return tuple(out)


class Compartment:
    """A wrapped compartment: an atom multiset around a content term."""

    __slots__ = ("wrap", "content", "_key", "_hash", "size", "depth", "has_atoms")

    def __init__(self, wrap, content: "Term"):
        if not isinstance(content, Term):
            raise TypeError("compartment content must be a Term")
        self.wrap = bag = atom_bag(wrap)
        self.content = content
        self._key = (1, tuple((a.name, n) for a, n in bag), content._key)
        self._hash = hash(self._key)
        self.size = 1 + bag_total(bag) + content.size
        self.depth = 1 + content.depth
        self.has_atoms = bool(bag) or content.has_atoms

    def __eq__(self, other):
        return self is other or (
            type(other) is Compartment and other._key == self._key
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Compartment({self.wrap!r}, {self.content!r})"


SimpleTerm = Union[Atom, Compartment]


class Term:
    """A canonical multiset of simple terms.

    ``items`` is a tuple of (element, count) pairs sorted by the elements'
    canonical keys with every count positive, so structurally congruent terms
    are equal and hash alike.
    """

    __slots__ = ("items", "_key", "_hash", "size", "depth", "has_atoms")

    def __init__(self, elements: Iterable = ()):
        what = "term element must be Atom or Compartment"
        self._fill(_canonical(_checked(elements, (Atom, Compartment), what)))

    @classmethod
    def _of(cls, items: tuple) -> "Term":
        """A term from items already in canonical form; nothing is checked
        or sorted again."""
        t = object.__new__(cls)
        t._fill(items)
        return t

    def _fill(self, items: tuple):
        self.items = items
        self._key = tuple([(el._key, n) for el, n in items])
        self._hash = hash(self._key)
        size = depth = 0
        has_atoms = False
        for el, n in items:
            size += n * el.size
            if el.depth > depth:
                depth = el.depth
            if el.has_atoms:
                has_atoms = True
        self.size = size
        self.depth = depth
        self.has_atoms = has_atoms

    # Atoms have size 1 and depth 0; Compartment sets its own.
    def __eq__(self, other):
        return self is other or (type(other) is Term and other._key == self._key)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        from .dsl import format_term  # cycle-free at call time

        return f"Term[{format_term(self)}]"

    def count_atom_top(self, atom: Atom) -> int:
        for el, n in self.items:
            if type(el) is Atom and el.name == atom.name:
                return n
        return 0

    def atoms_top(self) -> Iterator[tuple]:
        for el, n in self.items:
            if type(el) is Atom:
                yield el, n

    def compartments(self) -> Iterator[tuple]:
        """Yield (index, compartment, count) for each compartment element."""
        for i, (el, n) in enumerate(self.items):
            if type(el) is Compartment:
                yield i, el, n

    def occurrences(self) -> Iterator[SimpleTerm]:
        """Every occurrence, with multiplicity copies expanded."""
        for el, n in self.items:
            for _ in range(n):
                yield el

    def union(self, other: "Term") -> "Term":
        return Term._of(_canonical(self.items + other.items))

    def subtract(self, pairs: Iterable) -> "Term":
        """Remove a (element, count) multiset; raises if not contained."""
        need: dict = {}
        for el, n in pairs:
            need[el._key] = need.get(el._key, 0) + n
        out = []
        for el, n in self.items:
            k = n - need.pop(el._key, 0)
            if k < 0:
                raise ValueError(f"subtract: {el!r} occurs only {n} times")
            if k:
                out.append((el, k))
        if need:
            raise ValueError("subtract: element not present in term")
        return Term._of(tuple(out))


EMPTY = Term()


# A path addresses a compartment occurrence per level as (element index,
# copy index).  Congruent copies are indistinguishable, so enumeration
# normalizes the copy index to 0.
Path = tuple


def _step(t: Term, step) -> tuple:
    """The (compartment, count) pair one path step addresses in t."""
    i, c = step
    if not 0 <= i < len(t.items):
        raise InvalidPathError(f"element index {i} out of range")
    el, n = t.items[i]
    if type(el) is not Compartment:
        raise InvalidPathError(f"element {i} is an atom, not a compartment")
    if not 0 <= c < n:
        raise InvalidPathError(f"copy index {c} out of range for count {n}")
    return el, n


def resolve(t: Term, path: Path) -> Term:
    """Return the content term addressed by path ((), the empty path, is t)."""
    for step in path:
        t = _step(t, step)[0].content
    return t


def replace_at(t: Term, path: Path, new_content: Term) -> Term:
    """Replace the content addressed by path in exactly one compartment copy."""
    if not path:
        return new_content
    el, n = _step(t, path[0])
    rebuilt = Compartment(el.wrap, replace_at(el.content, path[1:], new_content))
    rest = list(t.items)
    rest[path[0][0]] = (el, n - 1)
    rest.append((rebuilt, 1))
    return Term._of(_canonical(rest))


@dataclass(frozen=True)
class Scope:
    """Where an atom is counted: the top level, everywhere, the contents of
    compartments whose wrap carries a marker, or on wraps themselves."""

    kind: str  # "top" | "anywhere" | "inside" | "on-wrap"
    selector: Optional[Atom] = None

    @staticmethod
    def top() -> "Scope":
        return Scope("top")

    @staticmethod
    def anywhere() -> "Scope":
        return Scope("anywhere")

    @staticmethod
    def inside(marker: Atom) -> "Scope":
        return Scope("inside", marker)

    @staticmethod
    def on_wrap(marker: Optional[Atom] = None) -> "Scope":
        return Scope("on-wrap", marker)


@dataclass(frozen=True)
class Observable:
    name: str
    atom: Atom
    scope: Scope


def count_atom(t: Term, atom: Atom, scope: Scope) -> int:
    """Count occurrences of an atom under the given scope.

    Wraps are never counted except under the dedicated on-wrap scope, and
    the inside scope counts the top level of every matching compartment's
    content, however deeply the compartment itself is nested.
    """
    if scope.kind == "top":
        return t.count_atom_top(atom)
    if scope.kind == "anywhere":
        total = t.count_atom_top(atom)
        for _, el, n in t.compartments():
            total += n * count_atom(el.content, atom, scope)
        return total
    if scope.kind == "inside":
        total = 0
        for _, el, n in t.compartments():
            if bag_count(el.wrap, scope.selector) > 0:
                total += n * el.content.count_atom_top(atom)
            total += n * count_atom(el.content, atom, scope)
        return total
    if scope.kind == "on-wrap":
        total = 0
        for _, el, n in t.compartments():
            if scope.selector is None or bag_count(el.wrap, scope.selector) > 0:
                total += n * bag_count(el.wrap, atom)
            total += n * count_atom(el.content, atom, scope)
        return total
    raise ValueError(f"unknown scope kind {scope.kind!r}")

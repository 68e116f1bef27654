"""Immutable multiset terms for a calculus of wrapped compartments.

A term is a multiset of simple terms; a simple term is either an atom or a
compartment ``(wrap | content)`` whose wrap is a multiset of atoms and whose
content is again a term.  Terms are kept in a canonical counted-sorted form
(atoms before compartments, atoms by name, compartments by wrap then content)
so that structural congruence coincides with plain equality.
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


def atom_bag(items: Iterable) -> AtomBag:
    """Build a canonical atom multiset from atoms or (atom, count) pairs."""
    counts: dict = {}
    for it in items:
        if isinstance(it, tuple):
            a, n = it
        else:
            a, n = it, 1
        if not isinstance(a, Atom):
            raise TypeError(f"atom bag element must be Atom, got {a!r}")
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"atom multiplicity must be a nonnegative int, got {n!r}")
        if n:
            counts[a.name] = (a, counts[a.name][1] + n) if a.name in counts else (a, n)
    return tuple(counts[name] for name in sorted(counts))


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


def bag_union(*bags: AtomBag) -> AtomBag:
    merged = []
    for b in bags:
        merged.extend(b)
    return atom_bag(merged)


class Compartment:
    """A wrapped compartment: an atom multiset around a content term."""

    __slots__ = ("wrap", "content", "_key", "_hash", "size", "depth", "has_atoms")

    def __init__(self, wrap, content: "Term"):
        if not isinstance(content, Term):
            raise TypeError("compartment content must be a Term")
        bag = wrap if isinstance(wrap, tuple) and _is_bag(wrap) else atom_bag(wrap)
        self.wrap = bag
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


def _is_bag(wrap: tuple) -> bool:
    return all(
        isinstance(p, tuple) and len(p) == 2 and isinstance(p[0], Atom) for p in wrap
    )


SimpleTerm = Union[Atom, Compartment]


class Term:
    """A canonical multiset of simple terms.

    ``items`` is a tuple of (element, count) pairs sorted by the elements'
    canonical keys with every count positive, so structurally congruent terms
    are equal and hash alike.
    """

    __slots__ = ("items", "_key", "_hash", "size", "depth", "has_atoms")

    def __init__(self, elements: Iterable = ()):
        counts: dict = {}
        for it in elements:
            if isinstance(it, tuple):
                el, n = it
            else:
                el, n = it, 1
            if not isinstance(el, (Atom, Compartment)):
                raise TypeError(f"term element must be Atom or Compartment, got {el!r}")
            if not isinstance(n, int) or n < 0:
                raise ValueError(f"multiplicity must be a nonnegative int, got {n!r}")
            if n:
                key = el._key
                if key in counts:
                    counts[key] = (el, counts[key][1] + n)
                else:
                    counts[key] = (el, n)
        items = tuple(counts[k] for k in sorted(counts))
        self.items = items
        self._key = tuple((el._key, n) for el, n in items)
        self._hash = hash(self._key)
        self.size = sum(n * el.size for el, n in items) if items else 0
        self.depth = max((el.depth for el, n in items), default=0)
        self.has_atoms = any(el.has_atoms for el, _ in items)

    # Atoms have size 1 and depth 0; Compartment sets its own.
    def __eq__(self, other):
        return self is other or (type(other) is Term and other._key == self._key)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        from .dsl import format_term  # cycle-free at call time

        return f"Term[{format_term(self)}]"

    def is_empty(self) -> bool:
        return not self.items

    def count(self, element: SimpleTerm) -> int:
        key = element._key
        for el, n in self.items:
            if el._key == key:
                return n
        return 0

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
        return Term(self.items + other.items)

    def add(self, element: SimpleTerm, count: int = 1) -> "Term":
        return Term(self.items + ((element, count),))

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
        return Term(out)


EMPTY = Term()


# A path addresses a compartment occurrence per level as (element index,
# copy index).  Congruent copies are indistinguishable, so enumeration
# normalizes the copy index to 0.
Path = tuple


def resolve(t: Term, path: Path) -> Term:
    """Return the content term addressed by path ((), the empty path, is t)."""
    cur = t
    for step in path:
        i, c = step
        if not 0 <= i < len(cur.items):
            raise InvalidPathError(f"element index {i} out of range")
        el, n = cur.items[i]
        if type(el) is not Compartment:
            raise InvalidPathError(f"element {i} is an atom, not a compartment")
        if not 0 <= c < n:
            raise InvalidPathError(f"copy index {c} out of range for count {n}")
        cur = el.content
    return cur


def replace_at(t: Term, path: Path, new_content: Term) -> Term:
    """Replace the content addressed by path in exactly one compartment copy."""
    if not path:
        return new_content
    i, c = path[0]
    if not 0 <= i < len(t.items):
        raise InvalidPathError(f"element index {i} out of range")
    el, n = t.items[i]
    if type(el) is not Compartment:
        raise InvalidPathError(f"element {i} is an atom, not a compartment")
    if not 0 <= c < n:
        raise InvalidPathError(f"copy index {c} out of range for count {n}")
    rebuilt = Compartment(el.wrap, replace_at(el.content, path[1:], new_content))
    rest = list(t.items)
    rest[i] = (el, n - 1)
    return Term(rest).add(rebuilt)


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

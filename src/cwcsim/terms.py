"""Immutable multiset terms for a calculus of wrapped compartments.

A term is a multiset of simple terms; a simple term is either an atom or a
compartment ``(wrap | content)`` whose wrap is a multiset of atoms and whose
content is again a term.  Terms are kept in a canonical counted-sorted form
(atoms before compartments, atoms by name, compartments by wrap then content)
so that structural congruence coincides with plain equality.

Every multiset here and in ``pattern`` gets that form from one merge,
``_spliced``, which inserts and removes (element, count) pairs by bisect
on the elements' keys: the public constructors of terms, wraps, open terms
and wrap variable bags, checked once with ``_checked`` first, splice their
pairs into the empty level, and every subtraction, union and bag
difference, every level apply_subst instantiates, every level replace_at
rewrites and the outcome lists of matching.outcome_terms and the oracle
are spliced too.  A spliced term (Term._spliced) takes its key, size,
depth and atom flag from its base's and the changed pairs', so building
it costs no Python pass over the level.
"""
from __future__ import annotations

import re
import weakref
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

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
    checked and zero counts dropped; the validation shared by every public
    multiset constructor.  A count is an int, not a bool."""
    pairs = []
    for it in items:
        el, n = it if isinstance(it, tuple) else (it, 1)
        if not isinstance(el, kinds):
            raise TypeError(f"{what}, got {el!r}")
        if not isinstance(n, int) or type(n) is bool or n < 0:
            raise ValueError(f"multiplicity must be a nonnegative int, got {n!r}")
        if n:
            pairs.append((el, n))
    return pairs


def _spliced(items: list, keys: list, inserted=(), removed=()) -> list:
    """Edit canonical items, and keys, their (element key, count) pairs, in
    place: the (element, count) pairs of inserted added, then those of
    removed taken out, each found by bisect on keys.  An inserted element
    equal to one already there adds to its count and the object there
    stays, so of equal inserted elements the first is kept; a removed pair
    that is not contained raises ValueError.  Returns the elements removed
    entirely.  The one merge of (element, count) pairs: from empty lists it
    builds the canonical form of unsorted pairs with positive counts."""
    for el, n in inserted:
        key = el._key
        i = bisect_left(keys, (key,))
        if i < len(keys) and keys[i][0] == key:
            items[i] = (items[i][0], items[i][1] + n)
            keys[i] = (key, keys[i][1] + n)
        else:
            items.insert(i, (el, n))
            keys.insert(i, (key, n))
    gone = []
    for el, n in removed:
        key = el._key
        i = bisect_left(keys, (key,))
        if i == len(keys) or keys[i][0] != key or keys[i][1] < n:
            raise ValueError(f"{el!r} is not contained {n} times")
        if keys[i][1] == n:
            gone.append(items[i][0])
            del items[i], keys[i]
        else:
            items[i] = (items[i][0], items[i][1] - n)
            keys[i] = (key, keys[i][1] - n)
    return gone


def _merged(pairs: tuple, inserted=(), removed=()) -> tuple:
    """Canonical pairs, such as an atom bag, edited by _spliced; from () it
    is the canonical form of inserted."""
    items = list(pairs)
    _spliced(items, [(el._key, n) for el, n in pairs], inserted, removed)
    return tuple(items)


def atom_bag(items: Iterable) -> AtomBag:
    """Build a canonical atom multiset from atoms or (atom, count) pairs."""
    return _merged((), _checked(items, Atom, "atom bag element must be Atom"))


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
    return _merged(sup, (), sub)


class Compartment:
    """A wrapped compartment: an atom multiset around a content term."""

    __slots__ = ("wrap", "content", "_key", "_hash", "size", "depth", "has_atoms", "__weakref__")

    def __init__(self, wrap, content: "Term"):
        if not isinstance(content, Term):
            raise TypeError("compartment content must be a Term")
        self._fill(atom_bag(wrap), content)

    @classmethod
    def _of(cls, wrap: AtomBag, content: "Term") -> "Compartment":
        """A compartment from a wrap already in canonical form; nothing is
        checked or sorted again."""
        c = object.__new__(cls)
        c._fill(wrap, content)
        return c

    def _fill(self, bag: AtomBag, content: "Term"):
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

    def __reduce__(self):
        return Compartment._of, (self.wrap, self.content)


class Term:
    """A canonical multiset of simple terms.

    ``items`` is a tuple of (element, count) pairs sorted by the elements'
    canonical keys with every count positive, so structurally congruent terms
    are equal and hash alike.  Term(elements) checks its elements, merges
    them by _spliced and reads its key, size, depth and atom flag in a full
    pass over the merged items; Term._spliced builds every other term, and
    the tests hold it to that pass.
    """

    __slots__ = ("items", "_key", "_hash", "size", "depth", "has_atoms", "__weakref__")

    def __init__(self, elements: Iterable = ()):
        what = "term element must be Atom or Compartment"
        self.items = items = _merged((), _checked(elements, (Atom, Compartment), what))
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

    @classmethod
    def _spliced(cls, base: "Term", inserted=(), removed=(), taken=None) -> "Term":
        """base with one copy of its element at index taken taken out, if
        given, then inserted and removed spliced in (terms._spliced): the
        spliced constructor.  The key is base's, edited where the pairs
        changed, and size, depth and has_atoms come from base's and the
        changed elements'; only when an element removed entirely held the
        depth, or atoms, and no inserted element left in place holds them
        too are the remaining elements read again."""
        items, keys = list(base.items), list(base._key)
        size, depth, has_atoms = base.size, base.depth, base.has_atoms
        gone = []
        if taken is not None:
            el, n = items[taken]
            size -= el.size
            if n > 1:
                items[taken], keys[taken] = (el, n - 1), (keys[taken][0], n - 1)
            else:
                gone.append(el)
                del items[taken], keys[taken]
        for el, n in inserted:
            size += n * el.size
            if el.depth > depth:
                depth = el.depth
            if el.has_atoms:
                has_atoms = True
        for el, n in removed:
            size -= n * el.size
        gone += _spliced(items, keys, inserted, removed)
        lost_depth = lost_atoms = False
        for g in gone:
            lost_depth = lost_depth or g.depth == depth
            lost_atoms = lost_atoms or g.has_atoms
        if lost_depth or lost_atoms:
            for el, _ in inserted:
                for g in gone:  # equal elements hash alike
                    if el is g or el._hash == g._hash and el == g:
                        break  # removed again
                else:
                    lost_depth = lost_depth and el.depth < depth
                    lost_atoms = lost_atoms and not el.has_atoms
            if lost_depth:
                depth = max([el.depth for el, _ in items], default=0)
            if lost_atoms:
                has_atoms = any([el.has_atoms for el, _ in items])
        t = object.__new__(cls)
        t.items = tuple(items)
        t._key = tuple(keys)
        t._hash = hash(t._key)
        t.size, t.depth, t.has_atoms = size, depth, has_atoms
        return t

    # Atoms have size 1 and depth 0; Compartment sets its own.
    def __eq__(self, other):
        return self is other or (type(other) is Term and other._key == self._key)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        from .dsl import format_term  # cycle-free at call time

        return f"Term[{format_term(self)}]"

    def __reduce__(self):
        return _unflatten, (_flatten(self),)

    def count_atom_top(self, atom: Atom) -> int:
        for el, n in self.items:  # atoms sort before compartments
            if type(el) is not Atom:
                break
            if el.name == atom.name:
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

    def union(self, other: "Term") -> "Term":
        return Term._spliced(self, other.items)

    def subtract(self, pairs: Iterable) -> "Term":
        """Remove a (element, count) multiset; raises if not contained."""
        return Term._spliced(self, (), pairs)


EMPTY = Term()


def _flatten(t: Term) -> tuple:
    """t and every term inside it, each once and after every term its
    compartments hold, as item tuples in which a compartment is (wrap,
    index of its content's tuple): the encoding a term pickles by, built by
    a loop, so that no nesting depth makes pickle recurse."""
    index: dict = {}  # id of a term -> its position in out
    out = []
    stack = [t]
    while stack:
        top = stack[-1]
        inner = [
            el.content for el, _ in top.items
            if type(el) is Compartment and id(el.content) not in index
        ]
        if inner:
            stack.extend(inner)
        elif id(stack.pop()) not in index:
            index[id(top)] = len(out)
            out.append(tuple(
                (el if type(el) is Atom else (el.wrap, index[id(el.content)]), n)
                for el, n in top.items
            ))
    return tuple(out)


def _unflatten(flat: tuple) -> Term:
    """The term _flatten encoded, its last tuple, built innermost first and
    each term and compartment through shared, so that a decoded term shares
    its equal subterms with every other one alive in the process."""
    built = []
    for items in flat:
        built.append(shared(Term._spliced(EMPTY, tuple(
            (el if type(el) is Atom else shared(Compartment._of(el[0], built[el[1]])), n)
            for el, n in items
        ))))
    return built[-1]


# The deepest compartment nesting that every recursive walk of a term (the
# parser, the engine's node builder, shared) handles within Python's default
# recursion limit; pickling walks none (_flatten).  The parser rejects
# deeper terms, and SimConfig.max_depth may not exceed it.
MAX_DEPTH = 256


# Every live term and compartment passed through shared, by key.  One table
# per process, so that the results of separate runs share; it holds its
# objects weakly and keeps nothing alive.
_SHARED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def shared(t):
    """An equal term or compartment whose equal subterms are the objects of
    every other result of shared still alive, so that results kept side by
    side, such as the final states of many trajectories, hold each distinct
    subterm once.  Entries go when their object does."""
    got = _SHARED.get(t._key)
    if got is None:
        if type(t) is Compartment:
            content = shared(t.content)
            if content is not t.content:
                t = Compartment._of(t.wrap, content)
        else:
            items = tuple(
                (shared(el) if type(el) is Compartment else el, n) for el, n in t.items
            )
            if any(a is not b for (a, _), (b, _) in zip(items, t.items)):
                t = Term._spliced(EMPTY, items)
        got = _SHARED.setdefault(t._key, t)
    return got


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


def replace_at(t: Term, path: Path, new_content: Term) -> Term:
    """Replace the content addressed by path in exactly one compartment copy.
    The copy is taken out by its index, before the rebuilt compartment goes
    in: the two differ only where the path ends, and comparing their keys
    costs time quadratic in that depth."""
    if not path:
        return new_content
    el, _ = _step(t, path[0])
    rebuilt = Compartment._of(el.wrap, replace_at(el.content, path[1:], new_content))
    return Term._spliced(t, ((rebuilt, 1),), taken=path[0][0])


@dataclass(frozen=True)
class Scope:
    """Where an atom is counted: the top level, everywhere, the contents of
    compartments whose wrap carries a marker, or on wraps themselves."""

    kind: str  # "top" | "anywhere" | "inside" | "on-wrap"
    selector: Optional[Atom] = None


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

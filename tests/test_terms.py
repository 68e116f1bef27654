"""Canonical multiset terms: congruence as equality, paths, counting scopes."""
import pickle
import time

import pytest
from hypothesis import given, settings, strategies as st

from cwcsim import Term, parse_term, format_term
from cwcsim.errors import InvalidPathError
from cwcsim.pattern import (
    OpenCompartment,
    OpenTerm,
    apply_subst,
    term_var,
    wrap_var,
)
from cwcsim.terms import (
    EMPTY,
    MAX_DEPTH,
    Atom,
    Compartment,
    Scope,
    atom_bag,
    bag_contains,
    bag_count,
    bag_diff,
    bag_total,
    count_atom,
    replace_at,
    _flatten,
    _spliced,
)
from tests.conftest import ATOM_NAMES, canonical, gen_term, levels, occurrences, resolve

atoms = st.sampled_from("a b c d".split()).map(Atom)
bags = st.lists(atoms, max_size=3).map(atom_bag)
simples = st.recursive(
    atoms,
    lambda ch: st.builds(Compartment, bags, st.lists(ch, max_size=3).map(Term)),
    max_leaves=8,
)
terms = st.lists(simples, max_size=6).map(Term)


def all_paths(t: Term, prefix=()):
    yield prefix
    for i, el, n in t.compartments():
        for c in range(n):
            yield from all_paths(el.content, prefix + ((i, c),))


@given(st.lists(simples, max_size=6), st.randoms(use_true_random=False))
def test_construction_is_order_insensitive(elements, rnd):
    shuffled = list(elements)
    rnd.shuffle(shuffled)
    assert Term(elements) == Term(shuffled)
    assert hash(Term(elements)) == hash(Term(shuffled))


def test_counts_merge_on_construction():
    a, b = Atom("a"), Atom("b")
    assert Term([(a, 1), b, (a, 2)]) == parse_term("a a a b")
    assert Term([(a, 0)]) == EMPTY


def test_a_bool_count_is_rejected():
    a = Atom("a")
    for make in (Term, atom_bag, OpenTerm, lambda w: Compartment(w, EMPTY)):
        with pytest.raises(ValueError):
            make([(a, True)])
    with pytest.raises(ValueError):
        OpenCompartment((), [(wrap_var("x"), False)], OpenTerm())


def _pairs(items) -> list:
    return [it if isinstance(it, tuple) else (it, 1) for it in items]


def _counted(elements):
    """Elements, or (element, count) pairs with zero counts, in any order."""
    return st.lists(st.one_of(elements, st.tuples(elements, st.integers(0, 3))), max_size=8)


open_simples = st.one_of(
    atoms,
    st.sampled_from("XYZ").map(term_var),
    st.builds(lambda wrap, ws, t: OpenCompartment(wrap, ws, _open(t)),
              bags, st.lists(st.sampled_from("xy").map(wrap_var), max_size=3), terms),
)


@settings(deadline=None)
@given(_counted(simples), _counted(atoms), _counted(open_simples))
def test_constructors_merge_unsorted_pairs_as_the_reference_does(elements, bag, open_elements):
    def same(got, want):
        assert got == want and all(a is b for (a, _), (b, _) in zip(got, want))

    want = canonical(_pairs(elements))
    t = Term(elements)
    same(t.items, want)
    assert t._key == tuple((el._key, n) for el, n in want) and hash(t) == hash(t._key)
    assert t.size == sum(n * _size(el) for el, n in want)
    assert t.depth == max((_depth(el) for el, _ in want), default=0)
    assert t.has_atoms == any(_has_atoms(el) for el, _ in want)
    same(atom_bag(bag), canonical(_pairs(bag)))
    want = canonical(_pairs(open_elements))
    o = OpenTerm(open_elements)
    same(o.items, want)
    assert o._key == tuple((el._key, n) for el, n in want) and hash(o) == hash(o._key)
    for el, _ in want:
        if type(el) is OpenCompartment:
            assert el.wrap_vars == canonical(el.wrap_vars)


def test_congruence_examples():
    assert parse_term("a b (c d | e f)") == parse_term("b a (d c | f e)")
    assert parse_term("(a | *) (a | *)") == Term([(Compartment(atom_bag([Atom("a")]), EMPTY), 2)])
    assert parse_term("a (b | c)") != parse_term("a (c | b)")
    assert parse_term("a b") == parse_term("b a")
    assert parse_term("a") != parse_term("a a")


def test_empty_term_renders_as_star():
    assert parse_term("*") == EMPTY
    assert format_term(EMPTY) == "*"
    assert not EMPTY.items and EMPTY.size == 0 and not EMPTY.has_atoms


def _size(el):
    if type(el) is Atom:
        return 1
    return 1 + bag_total(el.wrap) + sum(n * _size(e) for e, n in el.content.items)


def _depth(el):
    if type(el) is Atom:
        return 0
    return 1 + max((_depth(e) for e, _ in el.content.items), default=0)


def _has_atoms(el):
    if type(el) is Atom:
        return True
    return bool(el.wrap) or any(_has_atoms(e) for e, _ in el.content.items)


@settings(deadline=None)
@given(terms)
def test_canonical_form_invariants(t):
    keys = [el._key for el, _ in t.items]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert all(n > 0 for _, n in t.items)
    # atoms sort before compartments
    kinds = [key[0] for key in keys]
    assert kinds == sorted(kinds)
    assert t == Term(t.items) == Term(occurrences(t))
    assert t.size == sum(n * _size(el) for el, n in t.items)
    assert t.depth == max((_depth(el) for el, _ in t.items), default=0)
    assert t.has_atoms == any(_has_atoms(el) for el, _ in t.items)


@settings(deadline=None)
@given(terms)
def test_resolve_replace_roundtrip(t):
    for path in all_paths(t):
        assert replace_at(t, path, resolve(t, path)) == t


def test_replace_touches_one_copy():
    t = parse_term("(m | a) (m | a)")
    got = replace_at(t, ((0, 1), ), parse_term("b"))
    assert got == parse_term("(m | a) (m | b)")
    assert replace_at(t, (), parse_term("c")) == parse_term("c")


def test_replace_keeps_an_equal_siblings_object():
    t = parse_term("(m | a) (m | b)")
    got = replace_at(t, ((1, 0),), parse_term("a"))
    assert got == parse_term("(m | a) (m | a)") and got.items[0][0] is t.items[0][0]


def test_replace_at_a_deep_path_is_fast():
    # the rewritten copy leaves its level by index: comparing it with the
    # rebuilt compartment, which differs only at the path's end, takes
    # time quadratic in the depth, at every level of the path
    t = parse_term("a")
    for _ in range(MAX_DEPTH - 1):
        t = Term([Compartment([Atom("m")], t)])
    path = ((0, 0),) * (MAX_DEPTH - 1)
    started = time.perf_counter()
    for _ in range(10):
        got = replace_at(t, path, parse_term("b"))
    assert time.perf_counter() - started < 5.0
    assert got.depth == MAX_DEPTH - 1 and resolve(got, path) == parse_term("b")


@settings(deadline=None)
@given(terms, st.lists(st.tuples(simples, st.integers(1, 3)), max_size=6), simples, st.data())
def test_spliced_equals_a_merge_and_keeps_the_bases_objects(base, inserted, other, data):
    grown = canonical(base.items + tuple(inserted))
    removed = [(el, data.draw(st.integers(1, n))) for el, n in grown if data.draw(st.booleans())]
    items, keys = list(base.items), list(base._key)
    gone = _spliced(items, keys, inserted, removed)
    assert tuple(items) == canonical(grown + tuple((el, -n) for el, n in removed))
    assert keys == [(el._key, n) for el, n in items]
    assert set(gone) == {el for el, _ in grown} - {el for el, _ in items}
    mine = {el: el for el, _ in base.items}
    assert all(mine.get(el, el) is el for el, _ in items)
    taken = dict(grown)
    with pytest.raises(ValueError):
        _spliced(list(base.items), list(base._key), inserted,
                 [(other, taken.get(other, 0) + 1)])


@settings(deadline=None)
@given(terms, st.lists(st.tuples(simples, st.integers(1, 3)), max_size=4), st.data())
def test_a_spliced_term_equals_one_built_from_its_pairs(base, inserted, data):
    taken = None
    if base.items and data.draw(st.booleans()):
        taken = data.draw(st.integers(0, len(base.items) - 1))
    start = list(base.items)
    if taken is not None:
        start[taken] = (start[taken][0], start[taken][1] - 1)
    grown = canonical(tuple(start) + tuple(inserted))
    removed = [(el, data.draw(st.integers(1, n))) for el, n in grown if data.draw(st.booleans())]
    got = Term._spliced(base, inserted, removed, taken)
    want = Term(canonical(grown + tuple((el, -n) for el, n in removed)))
    _same(got, want)
    assert got._key == want._key
    mine = {el: el for el, n in start if n}
    assert all(mine.get(el, el) is el for el, _ in got.items)


def test_a_spliced_term_reads_its_elements_only_when_a_removed_one_held_what_it_lost():
    deep = parse_term("(m | (n | b))").items[0][0]
    base = parse_term("a (m | (n | b)) (k | c)")
    _same(Term._spliced(base, (), [(deep, 1)]), parse_term("a (k | c)"))  # depth 2 -> 1
    _same(Term._spliced(base, (), (), taken=2), parse_term("a (k | c)"))
    _same(Term._spliced(base, [(parse_term("(p | (q | *))").items[0][0], 1)], [(deep, 1)]),
          parse_term("a (k | c) (p | (q | *))"))  # an inserted element keeps the depth
    bare = Compartment((), EMPTY)
    _same(Term._spliced(Term([Atom("a"), bare]), (), [(Atom("a"), 1)]), Term([bare]))
    # an inserted element removed entirely again holds nothing
    _same(Term._spliced(Term([bare]), [(deep, 1)], [(deep, 1)]), Term([bare]))
    _same(Term._spliced(Term([bare]), [(Atom("a"), 2)], [(Atom("a"), 2)]), Term([bare]))


def test_path_errors():
    t = parse_term("a (m | b)")
    with pytest.raises(InvalidPathError):
        resolve(t, ((0, 0),))  # element 0 is the atom
    with pytest.raises(InvalidPathError):
        resolve(t, ((5, 0),))
    with pytest.raises(InvalidPathError):
        resolve(t, ((1, 1),))  # only one copy
    with pytest.raises(InvalidPathError):
        replace_at(t, ((1, 0), (0, 0)), EMPTY)  # path descends into an atom


def test_multiset_arithmetic():
    t = parse_term("a a b (m | c)")
    comp = Compartment(atom_bag([Atom("m")]), parse_term("c"))
    assert t == Term([(Atom("a"), 2), Atom("b"), (comp, 1)])
    assert t.count_atom_top(Atom("c")) == 0
    assert t.union(parse_term("a")) == parse_term("a a a b (m | c)")
    assert t.union(Term([(comp, 2)])) == Term([(Atom("a"), 2), Atom("b"), (comp, 3)])
    assert t.subtract([(Atom("a"), 1), (comp, 1)]) == parse_term("a b")
    with pytest.raises(ValueError):
        t.subtract([(Atom("a"), 3)])
    with pytest.raises(ValueError):
        t.subtract([(Atom("z"), 1)])


def _same(got: Term, want: Term):
    assert got == want and got.items == want.items
    assert (got.size, got.depth, got.has_atoms) == (want.size, want.depth, want.has_atoms)
    assert hash(got) == hash(want)


def _replace_by_elements(t: Term, path, new_content: Term) -> Term:
    if not path:
        return new_content
    i, _ = path[0]
    el, n = t.items[i]
    rebuilt = Compartment(el.wrap, _replace_by_elements(el.content, path[1:], new_content))
    return Term([p if j != i else (el, n - 1) for j, p in enumerate(t.items)] + [rebuilt])


def _open(t: Term) -> OpenTerm:
    """t as a variable-free open term."""
    return OpenTerm([
        (el if type(el) is Atom else OpenCompartment(el.wrap, (), _open(el.content)), n)
        for el, n in t.items
    ])


@settings(deadline=None)
@given(terms, terms, terms, bags, bags, st.data())
def test_trusted_constructions_equal_validated_ones(t, u, c, wrap, x_val, data):
    taken = [(el, data.draw(st.integers(0, n))) for el, n in t.items]
    _same(t.subtract(taken), Term([(el, n - k) for (el, n), (_, k) in zip(t.items, taken)]))
    _same(t.union(u), Term(occurrences(t) + occurrences(u)))
    for path in all_paths(t):
        _same(replace_at(t, path, c), _replace_by_elements(t, path, c))
    X, x = term_var("X"), wrap_var("x")
    rhs = OpenTerm([(X, 2), OpenCompartment(wrap, [x], _open(u))]).union(_open(c))
    want = Term(list(t.items) * 2 + [Compartment(wrap + x_val, u)] + list(c.items))
    _same(apply_subst(rhs, {X: t, x: x_val}), want)


@settings(deadline=None)
@given(bags, terms)
def test_trusted_compartment_equals_validated_one(wrap, content):
    got, want = Compartment._of(wrap, content), Compartment(wrap, content)
    assert got == want and got.wrap == want.wrap and got._key == want._key
    assert (got.size, got.depth, got.has_atoms) == (want.size, want.depth, want.has_atoms)
    assert hash(got) == hash(want)


def test_wrap_pairs_are_canonical():
    a, b = Atom("a"), Atom("b")
    for make in (lambda w: Compartment(w, EMPTY),
                 lambda w: OpenCompartment(w, (), OpenTerm())):
        assert make(((b, 1), (a, 1))) == make(atom_bag([a, b]))
        assert make(((a, 1), (a, 1))) == make(atom_bag([(a, 2)]))
        assert make(((a, 0), (b, 1))) == make(atom_bag([b]))
        with pytest.raises(ValueError):
            make(((a, -2),))
    assert Compartment(((b, 1), (a, 1)), EMPTY).wrap == ((a, 1), (b, 1))
    assert Compartment(((a, 1), (a, 1)), EMPTY).size == 3


def test_atom_validation():
    with pytest.raises(ValueError):
        Atom("9lives")
    with pytest.raises(ValueError):
        Atom("")
    with pytest.raises(ValueError):
        Atom("has space")
    assert Atom("PhoB_P2").name == "PhoB_P2"


def test_bag_operations():
    a, b = Atom("a"), Atom("b")
    bag = atom_bag([a, b, a])
    assert bag_count(bag, a) == 2 and bag_count(bag, Atom("z")) == 0
    assert bag_total(bag) == 3
    assert bag_contains(atom_bag([a]), bag)
    assert not bag_contains(atom_bag([(a, 3)]), bag)
    assert bag_diff(bag, atom_bag([a])) == atom_bag([a, b])
    with pytest.raises(ValueError):
        bag_diff(atom_bag([a]), atom_bag([(a, 2)]))
    with pytest.raises(ValueError):
        atom_bag([(a, -1)])


def test_count_atom_scopes():
    t = parse_term("a (m p | a b (m | a a)) (n | a m)")
    a, m = Atom("a"), Atom("m")
    assert count_atom(t, a, Scope("top")) == 1
    assert count_atom(t, a, Scope("anywhere")) == 5
    # wraps are not counted outside the on-wrap scope
    assert count_atom(t, m, Scope("anywhere")) == 1
    assert count_atom(t, a, Scope("inside", m)) == 3
    assert count_atom(t, a, Scope("inside", Atom("n"))) == 1
    assert count_atom(t, m, Scope("on-wrap")) == 2
    assert count_atom(t, m, Scope("on-wrap", Atom("p"))) == 1
    assert count_atom(t, Atom("p"), Scope("on-wrap", m)) == 1
    assert count_atom(t, a, Scope("on-wrap", Atom("n"))) == 0


def test_count_atom_weights_congruent_copies():
    t = parse_term("(m | a a) (m | a a) (m | a a)")
    assert count_atom(t, Atom("a"), Scope("inside", Atom("m"))) == 6
    assert count_atom(t, Atom("m"), Scope("on-wrap")) == 3


def test_count_atom_top_equals_a_sum_over_the_top_atoms(rng):
    """count_atom_top stops at the first compartment, since atoms sort
    first; on random states, at every level, it must still count every top
    atom, and 0 for an atom absent there."""
    for _ in range(300):
        for _, content in levels(gen_term(rng, depth=3)):
            for name in ATOM_NAMES + ("e",):
                want = sum(n for el, n in content.atoms_top() if el.name == name)
                assert content.count_atom_top(Atom(name)) == want


def test_a_deep_term_pickles_without_recursing():
    # pickle recursed about ten frames per level, past the default
    # recursion limit at 98 levels
    t = Term([Atom("a")])
    for depth in range(MAX_DEPTH):
        if depth == 100:  # one subterm held by two compartments
            t = Term([Atom("b"), Compartment([Atom("m")], t), (Compartment([], t), 2)])
        else:
            t = Term([Compartment([Atom("m")], t)])
    u = pickle.loads(pickle.dumps(t))
    assert u == t and u.depth == MAX_DEPTH and u.size == t.size
    assert len(_flatten(t)) == MAX_DEPTH + 1  # the shared subterm once
    c = Compartment([Atom("k")], t)
    assert pickle.loads(pickle.dumps(c)) == c

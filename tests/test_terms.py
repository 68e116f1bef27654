"""Canonical multiset terms: congruence as equality, paths, counting scopes."""
import pytest
from hypothesis import given, settings, strategies as st

from cwcsim import Term, parse_term, format_term
from cwcsim.errors import InvalidPathError
from cwcsim.pattern import (
    OpenCompartment,
    OpenTerm,
    apply_subst,
    open_of_term,
    term_var,
    wrap_var,
)
from cwcsim.terms import (
    EMPTY,
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
    resolve,
)

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
    assert t == Term(t.items) == Term(list(t.occurrences()))
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
    assert sorted(a.name for a in parse_term("a a b").occurrences()) == ["a", "a", "b"]


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


@settings(deadline=None)
@given(terms, terms, terms, bags, bags, st.data())
def test_trusted_constructions_equal_validated_ones(t, u, c, wrap, x_val, data):
    taken = [(el, data.draw(st.integers(0, n))) for el, n in t.items]
    _same(t.subtract(taken), Term([(el, n - k) for (el, n), (_, k) in zip(t.items, taken)]))
    _same(t.union(u), Term(list(t.occurrences()) + list(u.occurrences())))
    for path in all_paths(t):
        _same(replace_at(t, path, c), _replace_by_elements(t, path, c))
    X, x = term_var("X"), wrap_var("x")
    rhs = OpenTerm([(X, 2), OpenCompartment(wrap, [x], open_of_term(u))]).union(open_of_term(c))
    want = Term(list(t.items) * 2 + [Compartment(wrap + x_val, u)] + list(c.items))
    _same(apply_subst(rhs, {X: t, x: x_val}), want)


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
    assert count_atom(t, a, Scope.top()) == 1
    assert count_atom(t, a, Scope.anywhere()) == 5
    # wraps are not counted outside the on-wrap scope
    assert count_atom(t, m, Scope.anywhere()) == 1
    assert count_atom(t, a, Scope.inside(m)) == 3
    assert count_atom(t, a, Scope.inside(Atom("n"))) == 1
    assert count_atom(t, m, Scope.on_wrap()) == 2
    assert count_atom(t, m, Scope.on_wrap(Atom("p"))) == 1
    assert count_atom(t, Atom("p"), Scope.on_wrap(m)) == 1
    assert count_atom(t, a, Scope.on_wrap(Atom("n"))) == 0


def test_count_atom_weights_congruent_copies():
    t = parse_term("(m | a a) (m | a a) (m | a a)")
    assert count_atom(t, Atom("a"), Scope.inside(Atom("m"))) == 6
    assert count_atom(t, Atom("m"), Scope.on_wrap()) == 3

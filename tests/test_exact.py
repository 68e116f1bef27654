"""Exact transient distributions of tiny models, the arbiter for changes
that move the seeded streams.

The reachable state space is enumerated with enumerate_transitions; every
state's counts are checked against the labeled-enumeration oracle, and its
generator row against one built from the grouped outcomes.  The transient
distribution is solved by uniformization (Jensen 1953; Grassmann 1977)
with dict-based sparse products.  A generator row sums the rates of all
transitions into each target, so a store that splits one outcome over
several transitions gives the same row.

(a) compares seeded simulation ensembles with the exact solution: a z-score
of the ensemble mean at each sample time, as in the DSMTS suite (Evans,
Gillespie & Wilkinson 2008), and a bound on the total-variation distance
of the observable's marginal.  (b) checks, exactly, that a folded state and
a marked variant give one distribution of the lumped observable under every
rate law.
"""
import math
from collections import Counter

import pytest

from cwcsim import (
    Model,
    SimConfig,
    enumerate_transitions,
    oracle_outcomes,
    parse_model,
    parse_term,
    run,
)
from cwcsim.matching import outcome_terms
from cwcsim.rates import rate_of
from cwcsim.terms import Atom, Scope, count_atom, replace_at
from tests.conftest import levels

OUT = "out"  # absorbing sink for transitions leaving a truncated space


def content_at(state, path):
    for i, _ in path:
        state = state.items[i][0].content
    return state


def grouped_row(state, rules) -> dict:
    """The generator row built independently of the store: per level, the
    grouped outcomes of each rule rated on the built outcome term, times
    the level's copy count."""
    row: dict = {}
    for path, content in levels(state):
        mult = 1
        t = state
        for i, _ in path:
            el, copies = t.items[i]
            mult, t = mult * copies, el.content
        for rule in rules:
            for outcome, n in outcome_terms(rule, content):
                rate = mult * rate_of(rule.rate, content, outcome, n)
                if rate > 0:
                    target = replace_at(state, path, outcome)
                    row[target] = row.get(target, 0.0) + rate
    return row


def check_counts(state, rules, transitions):
    """Per (rule, path) with transitions, the store's summed local counts
    per outcome are the oracle's outcomes and counts."""
    by_rule = {r.id: r for r in rules}
    per_context: dict = {}
    for t in transitions:
        assert t.n % t.multiplicity == 0
        outcomes = per_context.setdefault((t.rule_id, t.path), Counter())
        outcomes[t.outcome_local] += t.n // t.multiplicity
    for (rule_id, path), outcomes in per_context.items():
        assert outcomes == dict(oracle_outcomes(by_rule[rule_id], content_at(state, path)))


def generator(init, rules, keep=lambda s: True, limit=2000) -> dict:
    """state -> {target: summed rate} over the reachable space; targets
    outside keep() lead to the absorbing OUT."""
    rows: dict = {OUT: {}}
    frontier = [init]
    seen = {init}
    while frontier:
        state = frontier.pop()
        transitions = enumerate_transitions(state, rules)
        check_counts(state, rules, transitions)
        row: dict = {}
        for t in transitions:
            target = replace_at(state, t.path, t.outcome_local)
            row[target] = row.get(target, 0.0) + t.rate
        grouped = grouped_row(state, rules)
        assert row.keys() == grouped.keys()
        assert all(math.isclose(row[k], grouped[k], rel_tol=1e-12) for k in row)
        rows[state] = {}
        for target, rate in row.items():
            if not keep(target):
                target = OUT
            elif target not in seen:
                seen.add(target)
                frontier.append(target)
            rows[state][target] = rows[state].get(target, 0.0) + rate
    assert len(rows) <= limit
    return rows


def transient(rows: dict, init, times, tol=1e-12) -> list:
    """The distribution over states at each time, by uniformization:
    p(t) = sum_k Poisson(k; q t) p0 P^k with P = I + Q / q."""
    exits = {s: math.fsum(row.values()) for s, row in rows.items()}
    q = max(exits.values()) or 1.0
    weights = [math.exp(-q * t) for t in times]
    reached = list(weights)
    dists = [{} for _ in times]
    v = {init: 1.0}
    k = 0
    while True:
        for j, w in enumerate(weights):
            for s, p in v.items():
                dists[j][s] = dists[j].get(s, 0.0) + w * p
        if min(reached) > 1.0 - tol and k > q * max(times):
            return dists
        nxt: dict = {}
        for s, p in v.items():
            stay = p * (1.0 - exits[s] / q)
            if stay:
                nxt[s] = nxt.get(s, 0.0) + stay
            for target, rate in rows[s].items():
                nxt[target] = nxt.get(target, 0.0) + p * rate / q
        v = nxt
        k += 1
        weights = [w * q * t / k for w, t in zip(weights, times)]
        reached = [r + w for r, w in zip(reached, weights)]


def marginal(dist: dict, observe) -> dict:
    out: dict = {}
    for s, p in dist.items():
        assert s is not OUT or p < 1e-9, f"{p} of the mass left the truncated space"
        if s is not OUT:
            x = observe(s)
            out[x] = out.get(x, 0.0) + p
    return out


def moments(pmf: dict) -> tuple:
    mean = math.fsum(x * p for x, p in pmf.items())
    var = math.fsum((x - mean) ** 2 * p for x, p in pmf.items())
    return mean, var


def model_of(text: str):
    mf = parse_model(text)
    return Model(mf.init, mf.rules, mf.observables)


def observer(model):
    o, = model.observables
    return lambda s: count_atom(s, o.atom, o.scope)


IMMIGRATION_DEATH = (
    "init (m | *)\n"
    "rule imm: (m ~x | $X) => (m ~x | a $X) @ 1\n"
    "rule death: a => * @ 1\n"
    "observe a: a in inside m\n"
)
TRANSPORT = (
    "init a * 5 (m | *)\n"
    "rule in: a (m ~x | $X) => (m ~x | a $X) @ 0.4\n"
    "rule out: (m ~x | a $X) => a (m ~x | $X) @ 0.6\n"
    "observe a_in: a in inside m\n"
)
WRAP = (
    "init (a a | *) (a a | *)\n"
    "rule on: wrap a => b @ 1\n"
    "rule off: wrap b => a @ 0.5\n"
    "observe b: b in on-wrap\n"
)
BIND = (
    "init (m | *) (m | *) (v | c) (v | c)\n"
    "rule bind: (m ~u | $x) (v ~w | $y) => (m ~u | e $x (v ~w | $y)) @ 0.5\n"
    "rule release: (m ~u | e (v ~w | $y) $x) => (m ~u | $x) (v ~w | $y) @ 1\n"
    "observe bound: e in inside m\n"
)


# One pho cell (pho.cwc without express and decay, which make the state
# space infinite) with small copy numbers and faster rates: Pi plus bound
# PhoR stays 4, PhoR plus PhoRP 3, PhoB plus PhoBP 2.
PHO_CELL = (
    "init Pi*3 (pore | (PhoR*2 PhoRP | PhoB*2 PhoGenes))\n"
    "rule in1: Pi (pore ~x | $X) => (pore ~x | Pi $X) @ 0.5\n"
    "rule out1: (pore ~x | Pi $X) => Pi (pore ~x | $X) @ 0.5\n"
    "rule bind: Pi (PhoR ~x | $X) => (PhoRP ~x | $X) @ 0.3\n"
    "rule unbind: (PhoRP ~x | $X) => Pi (PhoR ~x | $X) @ 0.4\n"
    "rule kinase: (PhoR ~x | PhoB $X) => (PhoR ~x | PhoBP $X) @ 0.5\n"
    "rule phosphatase: (PhoRP ~x | PhoBP $X) => (PhoRP ~x | PhoB $X) @ 0.4\n"
    "observe PhoBP: PhoBP in anywhere\n"
)
# Both slots of pair can take one compartment class, here two copies of
# it, so the store enumerates pair's matches; back takes (m | b) and
# (m | b c) once both exist, which it counts without enumerating.
SAME_CLASS = (
    "init (m | a) (m | a) (m | a) (m | a c)\n"
    "rule pair: (m ~u | a $x) (m ~v | a $y) => (m ~u | b $x) (m ~v | b $y) @ 0.5\n"
    "rule back: (m ~u | b $x) => (m ~u | a $x) @ 1\n"
    "observe b: b in inside m\n"
)
# A ground compartment next to a slot: the catalyst (g | *) is consumed
# and put back, and cat's matches are enumerated.
GROUND = (
    "init (g | *) (m | a) (m | a) (m | a b)\n"
    "rule cat: (g | *) (m ~u | a $x) => (g | *) (m ~u | c $x) @ 1\n"
    "rule back: (m ~u | c $x) => (m ~u | a $x) @ 0.5\n"
    "observe c: c in inside m\n"
)

# Two slots that can take one compartment class, on a level nested inside
# a wrapping compartment (the shape of macrophage's release and engulf),
# with copies at both levels: pair's rows on each (w | ...) enumerate the
# inner placements, which nothing memoises.
NESTED_PAIR = (
    "init (w | (m | a) (m | a) (m | a c)) (w | (m | a) (m | a) (m | a c))\n"
    "rule pair: (w ~z | (m ~u | a $x) (m ~v | a $y) $Z)"
    " => (w ~z | (m ~u | b $x) (m ~v | b $y) $Z) @ 0.5\n"
    "rule back: (m ~u | b $x) => (m ~u | a $x) @ 1\n"
    "observe b: b in inside m\n"
)


def shared_outcome(law: str) -> str:
    # the matches x = p, y = q and x = q, y = p share one outcome
    return (
        "init (m | a p) (m | a q) (m | a r)\n"
        "rule pair: (m ~u | a $x) (m ~v | a $y) $z -> (m ~u | b $x) (m ~v | b $y) $z"
        f" @ {law}\n"
        "rule back: (m ~u | b $x) => (m ~u | a $x) @ 1\n"
        "observe b: b in inside m\n"
    )


def test_solver_matches_closed_forms():
    # immigration-death from empty is Poisson with mean 1 - e^-t; each
    # transported molecule is inside with probability 0.4 (1 - e^-t)
    times = [0.5, 1.0, 3.0]
    m = model_of(IMMIGRATION_DEATH)
    rows = generator(m.init, m.rules, keep=lambda s: observer(m)(s) <= 14)
    for t, dist in zip(times, transient(rows, m.init, times)):
        lam = 1.0 - math.exp(-t)
        for x, p in marginal(dist, observer(m)).items():
            assert math.isclose(p, math.exp(-lam) * lam**x / math.factorial(x),
                                rel_tol=1e-8, abs_tol=1e-12)
    m = model_of(TRANSPORT)
    rows = generator(m.init, m.rules)
    assert len(rows) == 7  # six states and the unused sink
    for t, dist in zip(times, transient(rows, m.init, times)):
        p_in = 0.4 * (1.0 - math.exp(-t))
        for x, p in marginal(dist, observer(m)).items():
            assert math.isclose(p, math.comb(5, x) * p_in**x * (1 - p_in) ** (5 - x),
                                rel_tol=1e-8)


CASES = [
    ("immigration-death", IMMIGRATION_DEATH, 14),
    ("transport", TRANSPORT, None),
    ("wrap", WRAP, None),
    ("bind", BIND, None),
    ("shared @ k", shared_outcome("1"), None),
    ("shared fn(n * n)", shared_outcome("fn(n * n)"), None),
    ("pho cell", PHO_CELL, None),
    ("same class", SAME_CLASS, None),
    ("ground", GROUND, None),
    ("nested pair", NESTED_PAIR, None),
]
REPLICATES = 300
TIMES = [0.5, 1.0, 2.0, 4.0]


@pytest.mark.parametrize("name, text, cap", CASES, ids=[c[0] for c in CASES])
def test_simulation_matches_exact_distribution(name, text, cap):
    m = model_of(text)
    observe = observer(m)
    keep = (lambda s: observe(s) <= cap) if cap else (lambda s: True)
    rows = generator(m.init, m.rules, keep)
    exact = [marginal(d, observe) for d in transient(rows, m.init, TIMES)]
    cfg = SimConfig(t_max=TIMES[-1], sample_dt=0.5, seed=16)
    trajs = [run(m, cfg, i) for i in range(REPLICATES)]
    at = {t: i for i, t in enumerate(trajs[0].times)}
    for t, pmf in zip(TIMES, exact):
        values = [tr.samples[at[t]][0] for tr in trajs]
        mean, var = moments(pmf)
        z = (math.fsum(values) / REPLICATES - mean) / math.sqrt(var / REPLICATES)
        assert abs(z) < 4.0, (name, t, z)
    # total variation at the last time, against three times its expected
    # size under sampling noise alone
    pmf = exact[-1]
    seen = Counter(tr.samples[at[TIMES[-1]]][0] for tr in trajs)
    tv = 0.5 * math.fsum(
        abs(seen.get(x, 0) / REPLICATES - pmf.get(x, 0.0)) for x in set(seen) | set(pmf)
    )
    noise = 0.5 * math.fsum(
        math.sqrt(2 * p * (1 - p) / (math.pi * REPLICATES)) for p in pmf.values()
    )
    assert tv < 3 * noise, (name, tv, noise)


def test_shared_outcome_law_changes_the_chain():
    # the grouped law sees n = 2 per outcome: rate 4 against 2 under @ 1,
    # so the two chains differ and the checks above can tell them apart
    means = []
    for law in ("1", "fn(n * n)"):
        m = model_of(shared_outcome(law))
        rows = generator(m.init, m.rules)
        assert len(rows) == 9  # eight states and the unused sink
        dist, = transient(rows, m.init, [1.0])
        means.append(moments(marginal(dist, observer(m)))[0])
    assert means[1] > means[0] + 0.2


LAWS = ["1", "fn(n * n)", "fn(1)", "fn(count_l(a))", "fn(2 * n)"]
PAIRS = [
    ("(m | a) (m | a)", "(m | a) (m x | a)"),
    ("(m | a a) (m | a a)", "(m | a a) (m x | a a)"),
]


@pytest.mark.parametrize("law", LAWS)
def test_folded_and_marked_states_have_one_distribution(law):
    rules = parse_model(
        f"init *\nrule fwd: a $X -> b $X @ {law}\nrule rev: b $X -> a $X @ 0.5\n"
    ).rules
    lumped = lambda s: count_atom(s, Atom("b"), Scope("anywhere"))  # noqa: E731
    times = [0.25, 1.0, 3.0]
    for folded, marked in PAIRS:
        got = []
        for text in (folded, marked):
            init = parse_term(text)
            dists = transient(generator(init, rules), init, times)
            got.append([marginal(d, lumped) for d in dists])
        for a, b in zip(*got):
            assert a.keys() == b.keys()
            assert all(math.isclose(a[x], b[x], rel_tol=1e-9, abs_tol=1e-15) for x in a)



CARRIED_PAIR = (
    "init (m | (n | *)) (m | (n | *)) (m | (n | *))\n"
    "rule r: (m ~x | (n ~y | $Y) $X) (m ~u | (n ~v | $V) $U)\n"
    "  => (k | (n ~y | $Y) (n ~v | $V)) @ 1\n"
)


def test_a_carried_compartment_counts_like_the_oracle():
    # each (n | *) is carried into k as the element it matched; were that
    # binding read as carrying atoms, the slots would pick ordered copies
    # of the atom-free cells (m | (n | *)) and count 6 in place of 3
    m = model_of(CARRIED_PAIR)
    rule, = m.rules
    k = rule.rhs.items[0][0]  # (k | (n ~y | $Y) (n ~v | $V)), then the residue
    sources = [slot.content.slots[0].source for slot in rule.lhs.slots]
    assert sorted(el._key for el, _ in k.content.items) == sorted(s._key for s in sources)
    want = oracle_outcomes(rule, m.init)
    assert [n for _, n in want] == [3]
    assert outcome_terms(rule, m.init) == want
    assert [t.n for t in enumerate_transitions(m.init, m.rules)] == [3]
    generator(m.init, m.rules)  # every reachable state against the oracle

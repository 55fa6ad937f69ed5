"""Automaton layer: relation builders checked against plain arithmetic,
combinators checked for language preservation and zero closure, and the
automaton-with-output text format round-tripped bit for bit."""

import itertools
import operator
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ranktwo import automata as A
from ranktwo.analysis import shift_sequence
from ranktwo.errors import (
    BudgetExceededError,
    DfaoFormatError,
    EnumerationLimitError,
    InfiniteLanguageError,
)
from ranktwo.fixtures import FIXTURE_NAMES, load_fixture
from ranktwo.formula_text import parse_formula
from ranktwo.logic import CompileLimits, compile_formula

from oracles import (
    FIXTURE_ORACLES,
    canonical_dfa,
    ref_canonical_dfa,
    ref_distinguishable,
    ref_double_reversal,
    ref_enumerate_accepted,
    ref_minimize,
    ref_prefix,
    ref_product,
    ref_seq_rel,
    ref_shortest_accepted,
    ref_subsets,
)


def grid(*ranges):
    if len(ranges) == 1:
        return [(x,) for x in range(ranges[0])]
    return [(x,) + rest for x in range(ranges[0]) for rest in grid(*ranges[1:])]


# ---------------------------------------------------------------------------
# arithmetic relations vs arithmetic itself

def lin(k, op, **coeffs):
    """{v : sum of coeffs[x] * v_x op 0}."""
    return A.linear_rel(k, coeffs, op)


def test_eq_rel():
    for k in (2, 3):
        eq = lin(k, "=", x=1, y=-1)
        assert eq.num_states == 2
        assert eq.delta[0][0] == 0
        rows = grid(40, 40)
        got = [eq.accepts(r) for r in rows]
        assert got == [x == y for x, y in rows]


def test_order_rels():
    for k in (2, 3):
        lt = lin(k, "<", x=1, y=-1)
        le = lin(k, "<=", x=1, y=-1)
        assert lt.num_states == 3 and le.num_states == 3
        rows = grid(40, 40)
        assert [lt.accepts(r) for r in rows] == [x < y for x, y in rows]
        assert [le.accepts(r) for r in rows] == [x <= y for x, y in rows]
        # the three orderings partition pairs
        gt = A.intersect(A.complement(lt), A.complement(lin(k, "=", x=1, y=-1)))
        assert [gt.accepts(r) for r in rows] == [x > y for x, y in rows]
        assert gt == lin(k, "<", x=-1, y=1)


def test_add_rel():
    for k in (2, 3, 4):
        add = lin(k, "=", x=1, y=1, z=-1)
        assert add.var_order == ("x", "y", "z")
        assert add.delta[0][0] == 0
        rows = grid(18, 18, 36)
        assert [add.accepts(r) for r in rows] == [x + y == z for x, y, z in rows]


def test_add_rel_aliased():
    # x + x = z, x + y = x and x + x = x, with like terms collected
    k = 2
    double = lin(k, "=", x=2, z=-1)
    assert [double.accepts(r) for r in grid(20, 40)] == [2 * x == z for x, z in grid(20, 40)]
    zero_y = lin(k, "=", x=0, y=1)
    assert zero_y.var_order == ("x", "y")
    assert [zero_y.accepts(r) for r in grid(20, 20)] == [y == 0 for x, y in grid(20, 20)]
    zero_x = lin(k, "=", x=1)
    assert [zero_x.accepts(r) for r in grid(20)] == [x == 0 for (x,) in grid(20)]


def test_const_mul_rel():
    for k in (2, 3):
        for c in (0, 1, 2, 3, 5, 7):
            rel = lin(k, "=", x=c, y=-1)
            rows = grid(30, 30 * max(c, 1) + 5)
            assert [rel.accepts(r) for r in rows] == [c * x == y for x, y in rows], (k, c)
            assert rel.delta[0][0] == 0


def test_const_mul_rel_random(seeded_rng=random.Random(21)):
    for _ in range(300):
        k = seeded_rng.randint(2, 5)
        c = seeded_rng.randint(1, 9)
        x = seeded_rng.randint(0, 10**6)
        rel = lin(k, "=", x=c, y=-1)
        assert rel.accepts([x, c * x])
        assert not rel.accepts([x, c * x + seeded_rng.randint(1, 3)])


_OPS = {"=": lambda g: g == 0, "<=": lambda g: g <= 0, "<": lambda g: g < 0}


@settings(max_examples=80, deadline=None, database=None)
@given(
    st.lists(st.integers(-6, 6), min_size=1, max_size=3),
    st.sampled_from((2, 3)),
    st.sampled_from(sorted(_OPS)),
)
def test_linear_rel_matches_arithmetic(coeffs, k, op):
    names = "xyz"[:len(coeffs)]
    rel = A.linear_rel(k, dict(zip(names, coeffs)), op)
    assert rel.var_order == tuple(names)
    assert rel.delta[0][0] == 0 and _is_canonical(rel)
    rows = grid(*[{1: 60, 2: 24, 3: 10}[len(coeffs)]] * len(coeffs))
    want = [_OPS[op](sum(c * v for c, v in zip(coeffs, r))) for r in rows]
    assert [rel.accepts(r) for r in rows] == want


def test_const_rel():
    for k in (2, 3):
        for c in (0, 1, 2, 5, 12):
            rel = A.const_rel(k, "x", c)
            assert [n for n in range(40) if rel.accepts([n])] == [c]
            assert rel.delta[0][0] == 0 and _is_canonical(rel)


# ---------------------------------------------------------------------------
# combinators

def test_boolean_ops_language_level():
    k = 2
    lt = lin(k, "<", x=1, y=-1)
    eq = lin(k, "=", x=1, y=-1)
    le = lin(k, "<=", x=1, y=-1)
    assert le == A.union(lt, eq)
    assert A.is_empty(A.intersect(lt, eq))
    assert lt == A.complement(A.complement(lt))
    # De Morgan
    lhs = A.complement(A.union(lt, eq))
    rhs = A.intersect(A.complement(lt), A.complement(eq))
    assert lhs == rhs


def test_canonical_dfa_ignores_unreachable_states():
    # {x : x odd}; in the second table states 0 and 1 are unreachable from
    # the initial state 2, and each has a language of its own
    trimmed = canonical_dfa(2, ("x",), [[0, 1], [0, 1]], [False, True], 0)
    full = canonical_dfa(
        2, ("x",), [[1, 0], [1, 1], [2, 3], [2, 3]], [False, True, False, True], 2
    )
    assert full == trimmed
    assert trimmed.num_states == 2


def test_product_aligns_tracks_by_name():
    k = 2
    lt_xy = lin(k, "<", x=1, y=-1)
    lt_yz = lin(k, "<", y=1, z=-1)
    both = A.intersect(lt_xy, lt_yz)
    assert both.var_order == ("x", "y", "z")
    rows = grid(12, 12, 12)
    assert [both.accepts(r) for r in rows] == [x < y < z for x, y, z in rows]


def test_rename_tracks():
    tm = load_fixture("thue-morse")

    def rel(x, y, z):  # x + y = z and x[x] = x[z]: no two tracks alike
        return A.intersect(A.linear_rel(2, {x: 1, y: 1, z: -1}, "="), A.seq_rel(tm, [({x: 1}, 0), ({z: 1}, 0)]))

    a = rel("x", "y", "z")
    same = A.rename_tracks(a, {"x": "b", "y": "c", "z": "d"})
    assert same.delta is a.delta
    assert same == rel("b", "c", "d")
    for names in itertools.permutations("bcd"):
        assert A.rename_tracks(a, dict(zip("xyz", names))) == rel(*names)
    with pytest.raises(ValueError, match="collides"):
        A.rename_tracks(a, {"x": "b", "y": "b", "z": "d"})


def test_projection_saturates_leading_zeros():
    # y = 3x needs more digits on the y track; after dropping it the
    # remaining encoding must still be accepted in its minimal width.
    k = 2
    rel = lin(k, "=", x=3, y=-1)
    ex_y = A.project(rel, "y")
    assert ex_y == A.true_dfa(k, ("x",))
    ex_x = A.project(rel, "x")
    assert [n for n in range(40) if ex_x.accepts([n])] == [n for n in range(40) if n % 3 == 0]


def test_projection_matches_brute_quantifier():
    k = 2
    add = lin(k, "=", x=1, y=1, z=-1)
    c = A.const_rel(k, "z", 9)
    ex = A.project(A.project(A.intersect(add, c), "z"), "y")
    assert [n for n in range(20) if ex.accepts([n])] == list(range(10))


def test_sentence_decision():
    k = 2
    lt = lin(k, "<", x=1, y=-1)
    sat = A.project(A.project(lt, "x"), "y")
    assert sat.var_order == ()
    assert sat.accepts([])
    unsat = A.project(A.project(A.intersect(lt, lin(k, "=", x=1, y=-1)), "x"), "y")
    assert not unsat.accepts([])


def test_zero_closure_preserved_by_pipeline():
    rng = random.Random(22)
    k = 2
    pool = [
        lin(k, "<", x=1, y=-1),
        lin(k, "=", y=1, z=-1),
        lin(k, "=", x=1, y=1, z=-1),
        lin(k, "=", x=3, z=-1),
        A.const_rel(k, "y", 6),
    ]
    for _ in range(40):
        a = rng.choice(pool)
        b = rng.choice(pool)
        c = rng.choice([A.intersect, A.union])(a, b)
        assert c.delta[0][0] == 0 and _is_canonical(c)
        if rng.random() < 0.7 and len(c.var_order) > 1:
            c = A.project(c, rng.choice(c.var_order))
            assert c.delta[0][0] == 0
        cc = A.complement(c)
        assert cc.delta[0][0] == 0 and _is_canonical(cc)


def test_padding_invariance_random():
    rng = random.Random(23)
    k = 2
    rel = A.intersect(lin(k, "=", x=1, y=1, z=-1), lin(k, "<", x=1, z=-1))
    for _ in range(200):
        vals = [rng.randint(0, 400) for _ in range(3)]
        enc = A.encode_tuple(k, vals)
        padded = [0] * rng.randint(1, 4) + enc
        assert rel.accepts_encoded(enc) == rel.accepts_encoded(padded)


def test_negative_components_are_refused():
    # base-k digits of a negative number never run out
    with pytest.raises(ValueError):
        A.digits_of(2, -1)
    with pytest.raises(ValueError):
        load_fixture("thue-morse").eval(-1)
    with pytest.raises(ValueError):
        compile_formula(parse_formula("x < 3"), k=2).accepts((-1,))
    rel = lin(3, "=", x=1, y=1, z=-1)
    with pytest.raises(ValueError):
        rel.accepts({"x": 2, "y": -5, "z": 0})


def test_shortest_accepted():
    k = 2
    assert A.shortest_accepted(A.const_rel(k, "x", 13)) == (13,)
    assert A.shortest_accepted(A.complement(A.true_dfa(k, ("x",)))) is None
    assert A.shortest_accepted(A.true_dfa(k, ("x", "y"))) == (0, 0)
    # least string witness of x + y = 5 by column encoding
    w = A.shortest_accepted(A.intersect(lin(k, "=", x=1, y=1, z=-1), A.const_rel(k, "z", 5)))
    assert w is not None and w[0] + w[1] == 5 and w[2] == 5


def test_shortest_accepted_is_least_single_track():
    k = 2
    # multiples of 3 that are at least 5: least is 6
    rel = A.project(lin(k, "=", x=3, y=-1), "x")
    five = A.project(
        A.intersect(lin(k, "<=", c=1, y=-1), A.const_rel(k, "c", 5)), "c"
    )
    assert A.shortest_accepted(A.intersect(rel, five)) == (6,)


def test_enumerate_accepted():
    k = 2
    le9 = A.project(
        A.intersect(lin(k, "<=", x=1, c=-1), A.const_rel(k, "c", 9)), "c"
    )
    assert A.enumerate_accepted(le9, 20) == [(n,) for n in range(10)]
    with pytest.raises(EnumerationLimitError):
        A.enumerate_accepted(le9, 3)
    with pytest.raises(InfiniteLanguageError):
        A.enumerate_accepted(A.true_dfa(k, ("x",)), 10)
    # an infinite set is reported as such whatever the limit
    with pytest.raises(InfiniteLanguageError):
        A.enumerate_accepted(A.true_dfa(k, ("x",)), 0)
    with pytest.raises(InfiniteLanguageError):
        A.enumerate_accepted(lin(k, "<", x=1, y=-1), 10)
    # the all-zero tuple counts toward the limit like any other
    assert A.enumerate_accepted(A.true_dfa(k), 1) == [()]
    with pytest.raises(EnumerationLimitError):
        A.enumerate_accepted(A.true_dfa(k), 0)


def test_enumeration_past_its_limit_stops_early():
    # {x : x < 10^30} is finite, and the walk stops at its 11th member
    k = 2
    below = A.project(A.intersect(lin(k, "<", x=1, c=-1), A.const_rel(k, "c", 10**30)), "c")
    start = time.perf_counter()
    with pytest.raises(EnumerationLimitError):
        A.enumerate_accepted(below, 10)
    assert time.perf_counter() - start < 1.0


def _random_canonical(seed, k, tracks, n, sink):
    """The canonical form of a random n-state table from state 0.  With
    sink, state n - 1 is a rejecting sink, entered by each transition of
    another state with probability 0.6, and most other transitions lead
    to a higher state, so finite relations of a few tuples come up."""
    rng = random.Random(seed)
    delta = []
    for q in range(n):
        row = []
        for _ in range(k ** tracks):
            if sink and (q == n - 1 or rng.random() < 0.6):
                row.append(n - 1)
            elif sink and rng.random() < 0.9:
                row.append(rng.randint(min(q + 1, n - 1), n - 1))
            else:
                row.append(rng.randrange(n))
        delta.append(row)
    accepting = [rng.random() < 0.4 and not (sink and q == n - 1) for q in range(n)]
    return canonical_dfa(k, _TRACKS[:tracks], delta, accepting, 0)


def _enumeration(enumerate_accepted, a, limit):
    try:
        return enumerate_accepted(a, limit)
    except (InfiniteLanguageError, EnumerationLimitError) as e:
        return type(e)


@settings(max_examples=300, deadline=None, database=None)
@given(
    st.integers(0, 2**32), st.sampled_from((2, 3)), st.integers(0, 3), st.integers(1, 9), st.booleans()
)
def test_queries_match_the_searches(seed, k, tracks, n, sink):
    # the queries read the canonical numbering; the references search
    a = _random_canonical(seed, k, tracks, n, sink)
    assert A.shortest_accepted(a) == ref_shortest_accepted(a)
    for limit in (0, 3, 50):
        got = _enumeration(A.enumerate_accepted, a, limit)
        assert got == _enumeration(ref_enumerate_accepted, a, limit), limit


def test_budget_errors_name_their_stage():
    k = 2
    a = lin(k, "=", x=1, y=1, z=-1)
    b = lin(k, "=", u=1, v=1, w=-1)
    with pytest.raises(BudgetExceededError) as ei:
        A.intersect(a, b, max_states=4)
    assert ei.value.stage == "intersect" and ei.value.cap == 4
    with pytest.raises(BudgetExceededError) as ei:
        A.project(lin(k, "=", x=7, y=-1), "x", max_states=2)
    assert ei.value.stage == "project"


# ---------------------------------------------------------------------------
# minimization and subset construction against the pure-Python reference

# sizes on both sides of the 8-state chunks and the 64-bit words of the
# subset masks, plus anything in between
_SIZES = st.one_of(st.sampled_from((1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 70)), st.integers(1, 70))
_TRACKS = ("a", "b", "c")
# subsets per pass beyond which the references give up
_SUBSET_LIMIT = 3000
# the forward construction, kept as the language oracle, meets up to
# about 15,000 subsets on these tables
_FORWARD_LIMIT = 50_000


def _random_table(rng, n, n_letters, n_labels, min_classes=1):
    """A complete table on n states whose quotient has at most m states,
    m drawn from [min_classes, n]: state q copies class q % m, and each
    transition goes to a random member of the class its class's
    transition names.  min(m, n_labels) distinct labels occur."""
    m = rng.randint(min(min_classes, n), n)
    members = [list(range(c, n, m)) for c in range(m)]
    core = [[rng.randrange(m) for _ in range(n_letters)] for _ in range(m)]
    label = [c if c < n_labels else rng.randrange(n_labels) for c in range(m)]
    rng.shuffle(label)
    delta = [[rng.choice(members[c]) for c in core[q % m]] for q in range(n)]
    return delta, [label[q % m] for q in range(n)], rng.randrange(n)


def _random_dfa(seed, k, tracks, n):
    """A complete table on n states in m copied classes, as _random_table
    draws them, of a sparse relation: class 0 is a rejecting sink, and
    each other class leaves it on a letter with probability 1/10.  Dense
    random tables almost always project to the empty or the full
    relation; these keep structure (test_random_relations_have_structure)."""
    rng = random.Random(seed)
    m = rng.randint(1, n)
    members = [list(range(c, n, m)) for c in range(m)]
    core = [
        [rng.randrange(m) if c and rng.random() < 0.1 else 0 for _ in range(k ** tracks)]
        for c in range(m)
    ]
    accepting = [False] + [rng.random() < 0.5 for _ in range(1, m)]
    delta = [[rng.choice(members[c]) for c in core[q % m]] for q in range(n)]
    return delta, [accepting[q % m] for q in range(n)], rng.randrange(n)


def _initial_first(delta, accepting, initial):
    """The table with states 0 and initial swapped, so that the drawn
    initial state is state 0, as a Dfa's initial state is."""
    swap = {0: initial, initial: 0}
    order = [swap.get(q, q) for q in range(len(delta))]  # its own inverse
    return [[order[t] for t in delta[q]] for q in order], [accepting[q] for q in order]


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(0, 2**32), st.sampled_from((2, 3)), st.integers(1, 3), _SIZES)
def test_canonical_dfa_matches_reference(seed, k, tracks, n):
    delta, accepting, initial = _random_dfa(seed, k, tracks, n)
    got = canonical_dfa(k, _TRACKS[:tracks], delta, accepting, initial)
    assert (got.delta, got.accepting) == ref_canonical_dfa(delta, accepting, initial)
    assert got.var_order == _TRACKS[:tracks]


def _quotient_classes(delta, initial, new_delta):
    """The class of each state reachable from initial, read off the
    quotient: a word leads initial to q iff it leads class 0 to q's class."""
    cls = {initial: 0}
    order = [initial]
    for q in order:
        for t, c in zip(delta[q], new_delta[cls[q]]):
            if t not in cls:
                cls[t] = c
                order.append(t)
            assert cls[t] == c
    return cls


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(0, 2**32), st.sampled_from((1, 2, 3, 4)), _SIZES, st.integers(1, 4))
def test_minimize_classes_are_nerode_classes(seed, n_letters, n, n_labels):
    rng = random.Random(seed)
    delta, labels, initial = _random_table(rng, n, n_letters, n_labels)
    # the minimizer takes a table numbered breadth-first from state 0
    order, table = A._explore(initial, delta.__getitem__)
    bfs_labels = [labels[q] for q in order]
    reps, new_delta = A._minimize(table, bfs_labels)
    assert (reps, tuple(map(tuple, new_delta))) == ref_minimize(table, bfs_labels, 0)
    cls = _quotient_classes(delta, initial, new_delta)
    assert sorted(cls) == sorted(order)
    assert sorted(set(cls.values())) == list(range(len(reps)))
    apart = ref_distinguishable(delta, labels)

    def same(p, q):
        return p == q or (min(p, q), max(p, q)) not in apart

    # one class iff no word tells the two states apart
    for p, q in itertools.combinations(sorted(cls), 2):
        assert (cls[p] == cls[q]) == same(p, q)
    # reps[c] is the first state of class c in the breadth-first numbering
    for q, c in cls.items():
        assert reps[c] == min(i for i, s in enumerate(order) if same(s, q))


def test_minimize_edge_cases():
    # zero tracks: one letter, so a state's successor getter returns an
    # int, not a tuple
    assert A._minimize([[1], [2], [2]], [False, True, False]) == ([0, 1, 2], [[1], [2], [2]])
    # all labels equal: one class
    assert A._minimize([[1, 2], [2, 0], [0, 0]], [True] * 3) == ([0], [[0, 0]])
    # state 3 is unreachable
    a = canonical_dfa(2, (), [[1], [2], [2], [0]], [False, True, False, True], 0)
    assert (a.delta, a.accepting) == (((1,), (2,), (2,)), (False, True, False))
    delta = [[1, 2], [2, 0], [0, 0]]
    assert canonical_dfa(2, ("x",), delta, [True] * 3, 1) == A.true_dfa(2, ("x",))
    c = A.Dfao(2, (0,), (0,) * 3, tuple(map(tuple, delta)), 1).canonical()
    assert (c.delta, c.outputs) == (((0, 0),), (0,))


def test_minimize_long_chain_against_table_filling():
    # 0 -> 1 -> ... -> 199 -> 199 accepting only 199: state q accepts
    # exactly the words of length >= 199 - q, so Moore refinement takes
    # 199 rounds to split all 200 states
    n = 200
    delta = [[min(q + 1, n - 1)] * 2 for q in range(n)]
    accepting = [q == n - 1 for q in range(n)]
    assert len(ref_distinguishable(delta, accepting)) == n * (n - 1) // 2
    a = canonical_dfa(2, ("x",), delta, accepting, 0)
    assert (a.delta, a.accepting) == (tuple(map(tuple, delta)), tuple(accepting))


@settings(max_examples=60, deadline=None, database=None)
@given(
    st.integers(0, 2**32), st.sampled_from((2, 3)), st.integers(1, 3), _SIZES, st.integers(0, 2)
)
def test_project_matches_reference(seed, k, tracks, n, pos):
    pos %= tracks
    delta, accepting = _initial_first(*_random_dfa(seed, k, tracks, n))
    # a complete table that is not minimal, so the subset loop sees all n states
    a = A.Dfa(k, _TRACKS[:tracks], tuple(map(tuple, delta)), tuple(accepting))
    var = _TRACKS[pos]
    passes = ref_double_reversal(k, tracks, pos, delta, accepting, 0, _SUBSET_LIMIT)
    if passes is None:
        with pytest.raises(BudgetExceededError):
            A.project(a, var, max_states=_SUBSET_LIMIT)
        return
    (ref_delta, ref_acc), counts = passes
    cap = max(counts)
    got = A.project(a, var, max_states=cap)
    assert (got.delta, got.accepting) == (tuple(map(tuple, ref_delta)), tuple(ref_acc))
    assert got.var_order == tuple(v for v in _TRACKS[:tracks] if v != var)
    # the forward subset construction, minimized, fixes the language
    forward = ref_subsets(k, tracks, pos, delta, accepting, 0, _FORWARD_LIMIT)
    if forward is not None:
        assert (got.delta, got.accepting) == ref_canonical_dfa(*forward, 0)
    if cap > 1:
        with pytest.raises(BudgetExceededError) as ei:
            A.project(a, var, max_states=cap - 1)
        assert (ei.value.stage, ei.value.cap) == ("project", cap - 1)


def test_random_relations_have_structure():
    # 200 seeded draws over two and three tracks: every projection agrees
    # with the reference, and 121 of them have two or more states
    rng = random.Random(1)
    structured = 0
    for seed in range(200):
        k, tracks, n = rng.choice((2, 3)), rng.choice((2, 3)), rng.randint(1, 70)
        pos = rng.randrange(tracks)
        delta, accepting = _initial_first(*_random_dfa(seed, k, tracks, n))
        (ref_delta, ref_acc), counts = ref_double_reversal(
            k, tracks, pos, delta, accepting, 0, _SUBSET_LIMIT
        )
        a = A.Dfa(k, _TRACKS[:tracks], tuple(map(tuple, delta)), tuple(accepting))
        got = A.project(a, _TRACKS[pos], max_states=max(counts))
        assert (got.delta, got.accepting) == (tuple(map(tuple, ref_delta)), tuple(ref_acc))
        structured += got.num_states >= 2
    assert structured == 121


def test_project_budget_counts_raw_subsets():
    # {(y, z) : exists x < y. x + y = z} = {y <= z < 2y}; dropping x from
    # the 5-state relation meets 4 subsets in the reversed pass and 6 in
    # the second, which is the minimal result
    k = 2
    a = A.intersect(lin(k, "=", x=1, y=1, z=-1), lin(k, "<", x=1, y=-1))
    _, counts = ref_double_reversal(k, 3, 0, a.delta, a.accepting, 0, _SUBSET_LIMIT)
    assert (a.num_states, counts) == (5, (4, 6))
    got = A.project(a, "x", max_states=6)
    assert got.num_states == 6
    rows = grid(20, 40)
    assert [got.accepts(r) for r in rows] == [y <= z < 2 * y for y, z in rows]
    for cap in (5, 3):  # the second pass, then the first, goes over
        with pytest.raises(BudgetExceededError) as ei:
            A.project(a, "x", max_states=cap)
        assert (ei.value.stage, ei.value.cap) == ("project", cap)


# ---------------------------------------------------------------------------
# witness walks against the automata they stand for

def _least(a, want):
    """shortest_accepted of a, or of its complement, by track."""
    got = A.shortest_accepted(a if want else A.complement(a))
    return None if got is None else dict(zip(a.var_order, got))


@settings(max_examples=80, deadline=None, database=None)
@given(
    st.integers(0, 2**32), st.sampled_from((2, 3)), st.integers(1, 3), st.integers(1, 24),
    st.integers(0, 2), st.integers(0, 2), st.sampled_from(("drawn", "empty", "track absent")),
)
def test_projection_walk_reads_the_projections_least_tuple(seed, k, tracks, n, pos, absent, shape):
    pos, absent = pos % tracks, absent % tracks
    delta, accepting = _initial_first(*_random_dfa(seed, k, tracks, n))
    if shape == "empty":
        accepting = [False] * n
    elif shape == "track absent":
        # each letter moves as the one with a 0 on that track does
        zeroed = []
        for x in range(k ** tracks):
            digits = list(A.decode_letter(k, tracks, x))
            digits[absent] = 0
            zeroed.append(A.encode_letter(k, digits))
        delta = [[row[y] for y in zeroed] for row in delta]
    a = A.Dfa(k, _TRACKS[:tracks], tuple(map(tuple, delta)), tuple(accepting))
    var = _TRACKS[pos]
    projected = A.project(a, var)
    forward = ref_subsets(k, tracks, pos, delta, accepting, 0, _FORWARD_LIMIT)
    for want in (True, False):
        got = A.least_projected(a, var, want)
        assert got == _least(projected, want)
        if forward is None:
            continue
        # the walk meets the forward subsets up to the first labelled want
        labels = forward[1]
        met = labels.index(want) + 1 if want in labels else len(labels)
        assert A.least_projected(a, var, want, max_states=met) == got
        if met > 1:
            with pytest.raises(BudgetExceededError) as ei:
                A.least_projected(a, var, want, max_states=met - 1)
            assert (ei.value.stage, ei.value.cap) == ("project", met - 1)


@settings(max_examples=80, deadline=None, database=None)
@given(
    st.integers(0, 2**32), st.sampled_from((2, 3)), st.integers(1, 3), st.integers(1, 3),
    st.integers(1, 9), st.integers(1, 9), st.booleans(), st.booleans(),
    st.sampled_from((operator.and_, operator.or_, operator.xor)),
)
def test_pair_walk_reads_the_products_least_tuple(seed, k, ta, tb, na, nb, sink, empty, op):
    a = _random_canonical(seed, k, ta, na, sink)
    # b's tracks are the last tb names, so the two share some or none
    b = A.rename_tracks(_random_canonical(seed + 1, k, tb, nb, sink), dict(zip(_TRACKS, _TRACKS[3 - tb:])))
    if empty:
        b = A.Dfa(k, b.var_order, b.delta, (False,) * b.num_states)
    full = A.product(a, b, op)
    for want in (True, False):
        got = A.least_meeting(a, b, op, want, stage="walk")
        assert got == _least(full, want)
        assert A.meets(a, b, op, want) == (got is not None)
        # the least cap the walk fits in; one less is a breach at its stage
        for cap in itertools.count(1):
            try:
                assert A.least_meeting(a, b, op, want, cap, "walk") == got
                break
            except BudgetExceededError as exc:
                assert (exc.stage, exc.cap) == ("walk", cap)


def _pairs(a, b, absorbing):
    """The pairs of states reachable from (0, 0) in the product of a and b,
    not going on past a pair that holds a state in absorbing[0] (of a) or
    absorbing[1] (of b)."""
    merged = tuple(sorted(set(a.var_order) | set(b.var_order)))
    letters = list(zip(A._letter_map(a.k, merged, a.var_order), A._letter_map(a.k, merged, b.var_order)))
    seen = {(0, 0)}
    frontier = [(0, 0)]
    for qa, qb in frontier:
        if qa in absorbing[0] or qb in absorbing[1]:
            continue
        for x, y in letters:
            pair = (a.delta[qa][x], b.delta[qb][y])
            if pair not in seen:
                seen.add(pair)
                frontier.append(pair)
    return seen


def test_product_budget_counts_live_pairs():
    # every pair that holds the dead state (intersect) or the full state
    # (union) is one absorbing state, so the cap counts the other pairs
    # and that one: x + y = z and x < y meet 9 pairs, 5 of them absorbing,
    # and so do x < y and y < z
    k = 2
    lt_xy = lin(k, "<", x=1, y=-1)
    cases = [
        (A.intersect, lin(k, "=", x=1, y=1, z=-1), lt_xy, False, "intersect"),
        (A.union, lt_xy, lin(k, "<", y=1, z=-1), True, "union"),
    ]
    for combine, a, b, label, stage in cases:
        absorbing = [{q for q, row in enumerate(m.delta) if set(row) == {q} and m.accepting[q] == label}
                     for m in (a, b)]
        assert all(len(s) == 1 for s in absorbing)
        every = _pairs(a, b, (set(), set()))
        live = {p for p in _pairs(a, b, absorbing) if p[0] not in absorbing[0] and p[1] not in absorbing[1]}
        assert (len(every), len(live)) == (9, 4)
        got = combine(a, b, max_states=len(live) + 1)
        assert got == combine(a, b)
        with pytest.raises(BudgetExceededError) as ei:
            combine(a, b, max_states=len(live))
        assert (ei.value.stage, ei.value.cap) == (stage, len(live))


@settings(max_examples=150, deadline=None, database=None)
@given(
    st.integers(0, 2**32), st.integers(0, 2**32), st.sampled_from((2, 3)),
    st.integers(0, 2), st.integers(0, 2), st.integers(1, 7), st.integers(1, 7),
    st.integers(0, 2), st.booleans(), st.booleans(),
)
def test_product_matches_reference(seed_a, seed_b, k, tracks_a, tracks_b, n_a, n_b, shift, full_a, full_b):
    # canonical inputs with a dead sink, or with a full sink when
    # complemented; b's tracks start shift letters after a's, so the
    # track sets overlap, or at shift 2 are disjoint; n = 1 gives the
    # empty and the full relation
    a = _random_canonical(seed_a, k, tracks_a, n_a, sink=True)
    b = _random_canonical(seed_b, k, tracks_b, n_b, sink=True)
    b = A.rename_tracks(b, dict(zip(_TRACKS, "abcdef"[shift:])))
    if full_a:
        a = A.complement(a)
    if full_b:
        b = A.complement(b)
    merged = tuple(sorted(set(a.var_order) | set(b.var_order)))
    ops = [
        (A.intersect, lambda x, y: x and y),
        (A.union, lambda x, y: x or y),
        (lambda a, b: A.product(a, b, operator.xor), operator.xor),  # no absorbing state
    ]
    for combine, op in ops:
        got = combine(a, b)
        assert (got.delta, got.accepting) == ref_product(a, b, op)
        assert got.var_order == merged


def _is_canonical(a):
    return canonical_dfa(a.k, a.var_order, a.delta, a.accepting, 0) == a


def test_compiled_formulas_are_canonical():
    # the queries read the numbering of what compile_formula returns
    for name, text in [
        ("thue-morse", "E j. j > i & x[j] = x[i]"),
        ("thue-morse", "n > 0 & (A t. t < n -> x[i + t] = x[j + t])"),
        ("ternary-tm", "x[2*i + 1] = 2 & i + 3 = j"),
        ("mod3", "E i. x[i] = 1 & i > 4"),
    ]:
        a = compile_formula(parse_formula(text), seq=load_fixture(name))
        assert _is_canonical(a), text


@settings(max_examples=60, deadline=None, database=None)
@given(
    st.integers(0, 2**32), st.sampled_from((2, 3)), st.integers(1, 3), _SIZES, st.integers(0, 2)
)
def test_project_and_rename_tracks_are_minimal_by_construction(seed, k, tracks, n, pos):
    delta, accepting = _initial_first(*_random_dfa(seed, k, tracks, n))
    names = _TRACKS[:tracks]
    raw = A.Dfa(k, names, tuple(map(tuple, delta)), tuple(accepting))
    try:
        projected = A.project(raw, names[pos % tracks], max_states=_SUBSET_LIMIT)
    except BudgetExceededError:
        pass
    else:
        assert _is_canonical(projected)
    a = canonical_dfa(k, names, delta, accepting, 0)
    for new in itertools.permutations("xyz"[:tracks]):
        got = A.rename_tracks(a, dict(zip(names, new)))
        assert _is_canonical(got)
        # the letter permutation followed by a full canonical_dfa pass
        order = tuple(sorted(new))
        perm = [
            A.encode_letter(k, [A.decode_letter(k, tracks, x)[order.index(v)] for v in new])
            for x in range(k ** tracks)
        ]
        permuted = [[row[ell] for ell in perm] for row in a.delta]
        assert got == canonical_dfa(k, order, permuted, a.accepting, 0)


# ---------------------------------------------------------------------------
# automata with output

def test_fixture_values_match_independent_generators():
    for name in FIXTURE_NAMES:
        m = load_fixture(name)
        expected = FIXTURE_ORACLES[name](4096)
        assert m.prefix(4096) == expected, name
        idx = list(range(64)) + [511, 512, 1000, 4095]
        assert [m.eval(n) for n in idx] == [expected[n] for n in idx], name


def test_fixture_prefixes_frozen():
    assert load_fixture("thue-morse").prefix(16) == [0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0]
    assert load_fixture("ternary-tm").prefix(16) == [0, 1, 2, 0, 2, 0, 0, 1, 2, 0, 0, 1, 0, 1, 2, 0]
    assert load_fixture("mod3").prefix(7) == [0, 1, 2, 0, 1, 2, 0]
    assert [n for n in range(70) if load_fixture("pow2-char").eval(n)] == [1, 2, 4, 8, 16, 32, 64]


def test_prefix_matches_eval_at_level_boundaries():
    """prefix(n) gathers one base-k level at a time; check it around
    every level boundary against one eval per position."""
    golden = Path(__file__).parent / "golden"
    seqs = [load_fixture(name) for name in FIXTURE_NAMES]
    seqs += [A.loads_dfao((golden / f"{name}.dfao").read_text()) for name in ("TWELVE", "POW23")]
    # k = 3: the digit sum mod 3, with outputs no fixed-width integer
    # holds, started from a copy of the zero state so that the canonical
    # form differs from the input
    seqs.append(A.Dfao(
        3,
        (300, 2 ** 70, 2 ** 80),
        (300, 2 ** 70, 2 ** 80, 300),
        ((0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 1, 2)),
        3,
    ))
    # k = 2, delta(r, d) = (2r + d) mod 257 with output r: 257 canonical
    # states and symbols up to 256, more than one byte holds
    seqs.append(A.Dfao(
        2,
        tuple(range(257)),
        tuple(range(257)),
        tuple(((2 * r) % 257, (2 * r + 1) % 257) for r in range(257)),
        0,
    ))
    assert seqs[-1].canonical().num_states == 257
    for m in seqs:
        levels = [m.k ** j for j in range(12) if m.k ** j <= 2 ** 11]
        sizes = {0, 1} | {p + d for p in levels for d in (-1, 0, 1)}
        want = ref_prefix(m, max(sizes))
        for n in sorted(sizes):
            assert m.prefix(n) == want[:n], (m.k, n)


def test_canonical_dfao_has_zero_self_loop():
    for name in FIXTURE_NAMES:
        c = load_fixture(name).canonical()
        assert c.delta[c.initial][0] == c.initial
        assert c.initial == 0


def test_dfao_roundtrip_bit_exact():
    for name in FIXTURE_NAMES:
        c = load_fixture(name).canonical()
        text = c.dumps()
        again = A.loads_dfao(text)
        assert again.dumps() == text


def test_dfao_format_errors():
    good = load_fixture("thue-morse").dumps()
    with pytest.raises(DfaoFormatError) as ei:
        A.loads_dfao(good.replace("trans 1 1 0\n", ""))  # missing transition
    assert ei.value.line == 0
    with pytest.raises(DfaoFormatError) as ei:
        A.loads_dfao(good + "bogus 1 2\n")
    assert ei.value.line == good.count("\n") + 1
    with pytest.raises(DfaoFormatError):
        A.loads_dfao(good.replace("k 2", "k one"))
    with pytest.raises(DfaoFormatError):
        A.loads_dfao(good.replace("initial 0", "initial 7"))
    # leading zeros must not change outputs
    bad = """k 2
alphabet 0 1
states 2
initial 0
output 0 0
output 1 1
trans 0 0 1
trans 0 1 0
trans 1 0 0
trans 1 1 1
"""
    with pytest.raises(DfaoFormatError):
        A.loads_dfao(bad)


@pytest.mark.parametrize(
    "line, directive",
    [
        ("trans 1 1 0 7", "trans"),
        ("states 2 9", "states"),
        ("k 2 3", "k"),
        ("initial 0 1", "initial"),
        ("output 1 1 0", "output"),
    ],
)
def test_dfao_directives_take_exactly_their_arguments(line, directive):
    good = load_fixture("thue-morse").dumps()
    lines = good.splitlines()
    at = next(i for i, text in enumerate(lines) if text.split()[0] == directive)
    lines[at] = line
    with pytest.raises(DfaoFormatError) as ei:
        A.loads_dfao("\n".join(lines) + "\n")
    assert ei.value.line == at + 1
    assert str(ei.value) == f"line {at + 1}: malformed {directive!r} line"


@pytest.mark.parametrize(
    "line, directive",
    [("k 3", "k"), ("alphabet 0 1 2", "alphabet"), ("states 2", "states"), ("initial 0", "initial")],
)
def test_dfao_directives_appear_once(line, directive):
    # a repeat is refused even when a later line would be valid on its own
    good = load_fixture("thue-morse").dumps()
    lines = good.splitlines()
    at = next(i for i, text in enumerate(lines) if text.split()[0] == directive)
    lines.insert(at + 1, line)
    with pytest.raises(DfaoFormatError) as ei:
        A.loads_dfao("\n".join(lines) + "\n")
    assert str(ei.value) == f"line {at + 2}: repeated {directive!r} directive"


def test_dfao_output_on_undeclared_state():
    good = load_fixture("thue-morse").dumps()
    assert "states 2\n" in good
    with pytest.raises(DfaoFormatError, match="undeclared state 5") as ei:
        A.loads_dfao(good + "output 5 1\n")
    assert ei.value.line == good.count("\n") + 1


def test_dfao_missing_output_costs_what_the_text_holds():
    # a set of every declared state would not fit under the 1 GiB limit
    # of the child process, and its message would list millions of states
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from ranktwo.automata import loads_dfao\n"
        "from ranktwo.errors import DfaoFormatError\n"
        "for n in (3, 3000000, 1000000000):\n"
        "    try:\n"
        "        loads_dfao(f'k 2\\nalphabet 0\\nstates {n}\\ninitial 0\\noutput 0 0\\n')\n"
        "    except DfaoFormatError as exc:\n"
        "        print(exc)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "line 0: missing output for state 1\n" * 3


@pytest.mark.parametrize(
    "find, repl, line, message",
    [
        ("trans 1 1 0\n", "trans 1 1 7\n", 10, "transition 1 1 -> 7 out of range"),
        ("output 0 0\n", "trans 5 0 0\noutput 0 0\n", 5, "transition on undeclared state or digit: (5, 0)"),
        ("output 0 0\n", "trans 0 2 0\noutput 0 0\n", 5, "transition on undeclared state or digit: (0, 2)"),
        # checked once every line is read, but named by the line they come from
        ("initial 0\n", "initial 7\n", 4, "initial state out of range"),
        ("output 1 1\n", "output 1 5\n", 6, "state 1 outputs 5 outside the alphabet"),
    ],
)
def test_dfao_transition_errors_name_their_line(find, repl, line, message):
    good = load_fixture("thue-morse").dumps()
    assert good.count(find) == 1
    with pytest.raises(DfaoFormatError) as ei:
        A.loads_dfao(good.replace(find, repl))
    assert str(ei.value) == f"line {line}: {message}"


def test_seq_rel_single_index():
    tm = load_fixture("thue-morse")
    ones = A.seq_rel(tm, [({"n": 1}, 0)], 1)
    assert ones.delta[0][0] == 0
    # a lone variable's windows are the states of the canonical form
    assert ones.num_states == tm.canonical().num_states
    prefix = tm.prefix(512)
    assert [n for n in range(512) if ones.accepts([n])] == [
        n for n in range(512) if prefix[n] == 1
    ]
    t3 = load_fixture("ternary-tm")
    twos = A.seq_rel(t3, [({"n": 1}, 0)], 2)
    prefix3 = t3.prefix(256)
    assert [n for n in range(256) if twos.accepts([n])] == [
        n for n in range(256) if prefix3[n] == 2
    ]
    # a symbol outside the reachable outputs yields the empty set
    assert A.is_empty(A.seq_rel(tm, [({"n": 1}, 0)], 9))
    # an index with no variables is a sentence
    assert A.seq_rel(tm, [({}, 7)], 1) == A.true_dfa(2)
    assert A.seq_rel(tm, [({}, 7)], 0) == A.complement(A.true_dfa(2))


def test_seq_rel_pair_of_indices():
    tm = load_fixture("thue-morse")
    prefix = tm.prefix(512)
    same = A.seq_rel(tm, [({"s": 1}, 0), ({"t": 1}, 0)])
    assert same.var_order == ("s", "t") and same.delta[0][0] == 0
    rows = grid(40, 40)
    assert [same.accepts(r) for r in rows] == [prefix[s] == prefix[t] for s, t in rows]
    # x[i + t] = x[j + t]: shared tracks, coefficient sums of 2
    shifted = A.seq_rel(tm, [({"i": 1, "t": 1}, 0), ({"j": 1, "t": 1}, 0)])
    rows = grid(12, 12, 12)
    assert [shifted.accepts(r) for r in rows] == [prefix[i + t] == prefix[j + t] for i, j, t in rows]
    # one index against itself, and a zero coefficient that keeps its track
    assert A.seq_rel(tm, [({"n": 1}, 3), ({"n": 1}, 3)]) == A.true_dfa(2, ("n",))
    assert A.seq_rel(tm, [({"n": 0, "m": 1}, 0), ({"m": 1}, 1)]).var_order == ("m", "n")
    with pytest.raises(ValueError):
        A.seq_rel(tm, [({"n": 1}, 0)])
    with pytest.raises(ValueError):
        A.seq_rel(tm, [({"n": 1}, 0), ({"m": 1}, 0)], 1)


def test_sequence_builders_least_caps():
    # the least raw-state caps that succeed; one less trips at the index
    tm, t3 = load_fixture("thue-morse"), load_fixture("ternary-tm")
    cases = [
        (lambda cap: A.seq_rel(tm, [({"s": 1}, 0), ({"t": 1}, 1)], max_states=cap), 8),
        (lambda cap: A.seq_rel(t3, [({"i": 1, "j": 1}, 0), ({"j": 2}, 3)], max_states=cap), 24),
        (lambda cap: A.seq_rel(tm, [({"n": 2}, 5)], 1, max_states=cap), 6),
        (lambda cap: shift_sequence(t3, 37, CompileLimits(max_automaton_states=cap)), 88),
    ]
    for build, least in cases:
        build(least)
        with pytest.raises(BudgetExceededError) as ei:
            build(least - 1)
        assert (ei.value.stage, ei.value.cap) == ("sequence-index", least - 1)


def _seq_indices(draw, n_vars, count):
    names = _TRACKS[:n_vars]
    return [
        ({x: draw(st.integers(0, 3)) for x in names if draw(st.booleans())}, draw(st.integers(0, 40)))
        for _ in range(count)
    ]


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(st.data(), st.sampled_from((2, 3)), st.integers(1, 4), st.integers(1, 3), st.booleans())
def test_seq_rel_matches_helper_tracks_and_prefix(data, k, n, n_vars, pair):
    draw = data.draw
    # state 0 loops on digit 0, so leading zeros change no output
    delta = [[draw(st.integers(0, n - 1)) for _ in range(k)] for _ in range(n)]
    delta[0][0] = 0
    outputs = tuple(draw(st.integers(0, 2)) for _ in range(n))
    m = A.Dfao(k, (0, 1, 2), outputs, tuple(map(tuple, delta)), 0)
    indices = _seq_indices(draw, n_vars, 2 if pair else 1)
    symbol = None if pair else draw(st.integers(0, 2))
    got = A.seq_rel(m, indices, symbol)
    assert got == ref_seq_rel(m, indices, symbol)
    assert got.delta[0][0] == 0 and _is_canonical(got)
    names = got.var_order
    assert set(names) == {x for coeffs, _ in indices for x in coeffs}
    bound = 6 if len(names) == 3 else 12
    prefix = ref_prefix(m, 3 * 3 * bound + 41)
    for values in itertools.product(range(bound), repeat=len(names)):
        env = dict(zip(names, values))
        at = [prefix[sum(a * env[x] for x, a in coeffs.items()) + c] for coeffs, c in indices]
        want = at[0] == at[1] if pair else at[0] == symbol
        assert got.accepts(values) == want, (indices, env)


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(0, 2**32), st.sampled_from((2, 3)), _SIZES, st.integers(3, 5))
def test_canonical_dfao_matches_reference(seed, k, n, n_codes):
    rng = random.Random(seed)
    delta, codes, initial = _random_table(rng, n, k, n_codes, min_classes=n_codes)
    # symbols out of order, sparse and one beyond 64 bits, passed to the
    # minimizer as they are
    symbols = rng.sample(range(10), n_codes - 1) + [2**70]
    rng.shuffle(symbols)
    outputs = tuple(symbols[c] for c in codes)
    m = A.Dfao(k, tuple(sorted(symbols)), outputs, tuple(map(tuple, delta)), initial)
    reps, new_delta = ref_minimize(delta, outputs, initial)
    c = m.canonical()
    assert (c.delta, c.outputs, c.initial) == (new_delta, tuple(outputs[q] for q in reps), 0)

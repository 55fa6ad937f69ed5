"""Automaton layer: relation builders checked against plain arithmetic,
combinators checked for language preservation and zero closure, and the
automaton-with-output text format round-tripped bit for bit."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ranktwo import automata as A
from ranktwo.errors import (
    BudgetExceededError,
    DfaoFormatError,
    EnumerationLimitError,
    InfiniteLanguageError,
)
from ranktwo.fixtures import fixture_names, load_fixture

from oracles import FIXTURE_ORACLES, ref_canonical_dfa, ref_minimize, ref_subsets


def grid(*ranges):
    if len(ranges) == 1:
        return [(x,) for x in range(ranges[0])]
    return [(x,) + rest for x in range(ranges[0]) for rest in grid(*ranges[1:])]


# ---------------------------------------------------------------------------
# arithmetic relations vs arithmetic itself

def test_eq_rel():
    for k in (2, 3):
        eq = A.eq_rel(k, "x", "y")
        assert eq.num_states == 2
        assert A.is_zero_closed(eq)
        rows = grid(40, 40)
        got = [eq.accepts(r) for r in rows]
        assert got == [x == y for x, y in rows]


def test_order_rels():
    for k in (2, 3):
        lt = A.less_rel(k, "x", "y")
        le = A.leq_rel(k, "x", "y")
        assert lt.num_states == 3 and le.num_states == 3
        rows = grid(40, 40)
        assert [lt.accepts(r) for r in rows] == [x < y for x, y in rows]
        assert [le.accepts(r) for r in rows] == [x <= y for x, y in rows]
        # the three orderings partition pairs
        gt = A.intersect(A.complement(lt), A.complement(A.eq_rel(k, "x", "y")))
        assert [gt.accepts(r) for r in rows] == [x > y for x, y in rows]


def test_add_rel():
    for k in (2, 3, 4):
        add = A.add_rel(k, "x", "y", "z")
        assert add.var_order == ("x", "y", "z")
        assert A.is_zero_closed(add)
        rows = grid(18, 18, 36)
        assert [add.accepts(r) for r in rows] == [x + y == z for x, y, z in rows]


def test_add_rel_aliased():
    k = 2
    double = A.add_rel(k, "x", "x", "z")
    assert [double.accepts(r) for r in grid(20, 40)] == [2 * x == z for x, z in grid(20, 40)]
    zero_y = A.add_rel(k, "x", "y", "x")
    assert [zero_y.accepts(r) for r in grid(20, 20)] == [y == 0 for x, y in grid(20, 20)]
    zero_x = A.add_rel(k, "x", "x", "x")
    assert [zero_x.accepts(r) for r in grid(20)] == [x == 0 for (x,) in grid(20)]


def test_const_mul_rel():
    for k in (2, 3):
        for c in (0, 1, 2, 3, 5, 7):
            rel = A.const_mul_rel(k, c, "x", "y")
            rows = grid(30, 30 * max(c, 1) + 5)
            assert [rel.accepts(r) for r in rows] == [c * x == y for x, y in rows], (k, c)
            assert A.is_zero_closed(rel)


def test_const_mul_rel_random(seeded_rng=random.Random(21)):
    for _ in range(300):
        k = seeded_rng.randint(2, 5)
        c = seeded_rng.randint(1, 9)
        x = seeded_rng.randint(0, 10**6)
        rel = A.const_mul_rel(k, c, "x", "y")
        assert rel.accepts([x, c * x])
        assert not rel.accepts([x, c * x + seeded_rng.randint(1, 3)])


def test_const_rel():
    for k in (2, 3):
        for c in (0, 1, 2, 5, 12):
            rel = A.const_rel(k, "x", c)
            assert [n for n in range(40) if rel.accepts([n])] == [c]
            assert A.is_zero_closed(rel)


# ---------------------------------------------------------------------------
# combinators

def test_boolean_ops_language_level():
    k = 2
    lt = A.less_rel(k, "x", "y")
    eq = A.eq_rel(k, "x", "y")
    le = A.leq_rel(k, "x", "y")
    assert A.language_equal(le, A.union(lt, eq))
    assert A.is_empty(A.intersect(lt, eq))
    assert A.language_equal(lt, A.complement(A.complement(lt)))
    # De Morgan
    lhs = A.complement(A.union(lt, eq))
    rhs = A.intersect(A.complement(lt), A.complement(eq))
    assert A.language_equal(lhs, rhs)


def test_canonical_dfa_ignores_unreachable_states():
    # {x : x odd}; in the second table states 0 and 1 are unreachable from
    # the initial state 2, and each has a language of its own
    trimmed = A.canonical_dfa(2, ("x",), [[0, 1], [0, 1]], [False, True], 0)
    full = A.canonical_dfa(
        2, ("x",), [[1, 0], [1, 1], [2, 3], [2, 3]], [False, True, False, True], 2
    )
    assert full == trimmed
    assert trimmed.num_states == 2


def test_product_aligns_tracks_by_name():
    k = 2
    lt_xy = A.less_rel(k, "x", "y")
    lt_yz = A.less_rel(k, "y", "z")
    both = A.intersect(lt_xy, lt_yz)
    assert both.var_order == ("x", "y", "z")
    rows = grid(12, 12, 12)
    assert [both.accepts(r) for r in rows] == [x < y < z for x, y, z in rows]


def test_projection_saturates_leading_zeros():
    # y = 3x needs more digits on the y track; after dropping it the
    # remaining encoding must still be accepted in its minimal width.
    k = 2
    rel = A.const_mul_rel(k, 3, "x", "y")
    ex_y = A.project(rel, "y")
    assert A.language_equal(ex_y, A.true_dfa(k, ("x",)))
    ex_x = A.project(rel, "x")
    assert [n for n in range(40) if ex_x.accepts([n])] == [n for n in range(40) if n % 3 == 0]


def test_projection_matches_brute_quantifier():
    k = 2
    add = A.add_rel(k, "x", "y", "z")
    c = A.const_rel(k, "z", 9)
    ex = A.project(A.project(A.intersect(add, c), "z"), "y")
    assert [n for n in range(20) if ex.accepts([n])] == list(range(10))


def test_sentence_decision():
    k = 2
    lt = A.less_rel(k, "x", "y")
    sat = A.project(A.project(lt, "x"), "y")
    assert sat.var_order == ()
    assert sat.accepts([])
    unsat = A.project(A.project(A.intersect(lt, A.eq_rel(k, "x", "y")), "x"), "y")
    assert not unsat.accepts([])


def test_zero_closure_preserved_by_pipeline():
    rng = random.Random(22)
    k = 2
    pool = [
        A.less_rel(k, "x", "y"),
        A.eq_rel(k, "y", "z"),
        A.add_rel(k, "x", "y", "z"),
        A.const_mul_rel(k, 3, "x", "z"),
        A.const_rel(k, "y", 6),
    ]
    for _ in range(40):
        a = rng.choice(pool)
        b = rng.choice(pool)
        c = rng.choice([A.intersect, A.union])(a, b)
        assert A.is_zero_closed(c)
        if rng.random() < 0.7 and len(c.var_order) > 1:
            c = A.project(c, rng.choice(c.var_order))
            assert A.is_zero_closed(c)
        cc = A.complement(c)
        assert A.is_zero_closed(cc)


def test_padding_invariance_random():
    rng = random.Random(23)
    k = 2
    rel = A.intersect(A.add_rel(k, "x", "y", "z"), A.less_rel(k, "x", "z"))
    for _ in range(200):
        vals = [rng.randint(0, 400) for _ in range(3)]
        enc = A.encode_tuple(k, vals)
        padded = [0] * rng.randint(1, 4) + enc
        assert rel.accepts_encoded(enc) == rel.accepts_encoded(padded)


def test_shortest_accepted():
    k = 2
    assert A.shortest_accepted(A.const_rel(k, "x", 13)) == (13,)
    assert A.shortest_accepted(A.false_dfa(k, ("x",))) is None
    assert A.shortest_accepted(A.true_dfa(k, ("x", "y"))) == (0, 0)
    # least string witness of x + y = 5 by column encoding
    w = A.shortest_accepted(A.intersect(A.add_rel(k, "x", "y", "z"), A.const_rel(k, "z", 5)))
    assert w is not None and w[0] + w[1] == 5 and w[2] == 5


def test_shortest_accepted_is_least_single_track():
    k = 2
    # multiples of 3 that are at least 5: least is 6
    rel = A.project(A.const_mul_rel(k, 3, "x", "y"), "x")
    five = A.project(
        A.intersect(A.leq_rel(k, "c", "y"), A.const_rel(k, "c", 5)), "c"
    )
    assert A.shortest_accepted(A.intersect(rel, five)) == (6,)


def test_enumerate_accepted():
    k = 2
    le9 = A.project(
        A.intersect(A.leq_rel(k, "x", "c"), A.const_rel(k, "c", 9)), "c"
    )
    assert A.enumerate_accepted(le9, 20) == [(n,) for n in range(10)]
    with pytest.raises(EnumerationLimitError):
        A.enumerate_accepted(le9, 3)
    with pytest.raises(InfiniteLanguageError):
        A.enumerate_accepted(A.true_dfa(k, ("x",)), 10)
    with pytest.raises(InfiniteLanguageError):
        A.enumerate_accepted(A.less_rel(k, "x", "y"), 10)


def test_budget_errors_name_their_stage():
    k = 2
    a = A.add_rel(k, "x", "y", "z")
    b = A.add_rel(k, "u", "v", "w")
    with pytest.raises(BudgetExceededError) as ei:
        A.intersect(a, b, max_states=4)
    assert ei.value.stage == "intersect" and ei.value.cap == 4
    with pytest.raises(BudgetExceededError) as ei:
        A.project(A.const_mul_rel(k, 7, "x", "y"), "x", max_states=2)
    assert ei.value.stage == "project"


# ---------------------------------------------------------------------------
# minimization and subset construction against the pure-Python reference

# sizes on both sides of the 8-state chunks and the 64-bit words of the
# subset masks, plus anything in between
_SIZES = st.one_of(st.sampled_from((1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 70)), st.integers(1, 70))
_TRACKS = ("a", "b", "c")
# raw subset count beyond which the reference gives up
_SUBSET_LIMIT = 3000


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
    rng = random.Random(seed)
    delta, labels, initial = _random_table(rng, n, k ** tracks, 2)
    return delta, [bool(x) for x in labels], initial


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(0, 2**32), st.sampled_from((2, 3)), st.integers(1, 3), _SIZES)
def test_canonical_dfa_matches_reference(seed, k, tracks, n):
    delta, accepting, initial = _random_dfa(seed, k, tracks, n)
    got = A.canonical_dfa(k, _TRACKS[:tracks], delta, accepting, initial)
    assert (got.delta, got.accepting) == ref_canonical_dfa(delta, accepting, initial)
    assert got.initial == 0 and got.var_order == _TRACKS[:tracks]


@settings(max_examples=60, deadline=None, database=None)
@given(
    st.integers(0, 2**32), st.sampled_from((2, 3)), st.integers(1, 3), _SIZES, st.integers(0, 2)
)
def test_project_matches_reference(seed, k, tracks, n, pos):
    pos %= tracks
    delta, accepting, initial = _random_dfa(seed, k, tracks, n)
    # a complete table that is not minimal, so the subset loop sees all n states
    a = A.Dfa(k, _TRACKS[:tracks], tuple(map(tuple, delta)), tuple(accepting), initial)
    var = _TRACKS[pos]
    raw = ref_subsets(k, tracks, pos, delta, accepting, initial, _SUBSET_LIMIT)
    if raw is None:
        with pytest.raises(BudgetExceededError):
            A.project(a, var, max_states=_SUBSET_LIMIT)
        return
    raw_delta, raw_acc = raw
    got = A.project(a, var, max_states=len(raw_delta))
    assert (got.delta, got.accepting) == ref_canonical_dfa(raw_delta, raw_acc, 0)
    assert got.var_order == tuple(v for v in _TRACKS[:tracks] if v != var)
    if len(raw_delta) > 1:
        with pytest.raises(BudgetExceededError) as ei:
            A.project(a, var, max_states=len(raw_delta) - 1)
        assert (ei.value.stage, ei.value.cap) == ("project", len(raw_delta) - 1)


def test_project_budget_counts_raw_subsets():
    # {(y, z) : exists x < y. x + y = z} = {y <= z < 2y}; dropping x from
    # the 5-state relation meets exactly 6 subsets
    k = 2
    a = A.intersect(A.add_rel(k, "x", "y", "z"), A.less_rel(k, "x", "y"))
    raw_delta, _ = ref_subsets(k, 3, 0, a.delta, a.accepting, a.initial, _SUBSET_LIMIT)
    assert (a.num_states, len(raw_delta)) == (5, 6)
    got = A.project(a, "x", max_states=6)
    rows = grid(20, 40)
    assert [got.accepts(r) for r in rows] == [y <= z < 2 * y for y, z in rows]
    with pytest.raises(BudgetExceededError) as ei:
        A.project(a, "x", max_states=5)
    assert (ei.value.stage, ei.value.cap) == ("project", 5)


# ---------------------------------------------------------------------------
# automata with output

def test_fixture_values_match_independent_generators():
    for name in fixture_names():
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


def test_canonical_dfao_has_zero_self_loop():
    for name in fixture_names():
        c = load_fixture(name).canonical()
        assert c.delta[c.initial][0] == c.initial
        assert c.initial == 0


def test_dfao_roundtrip_bit_exact():
    for name in fixture_names():
        c = load_fixture(name).canonical()
        text = c.dumps()
        again = A.loads_dfao(text)
        assert again.dumps() == text


def test_dfao_format_errors():
    good = load_fixture("thue-morse").dumps()
    with pytest.raises(DfaoFormatError):
        A.loads_dfao(good.replace("trans 1 1 0\n", ""))  # missing transition
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


def test_seq_at_dfa():
    tm = load_fixture("thue-morse")
    ones = A.seq_at_dfa(tm, "n", 1)
    assert A.is_zero_closed(ones)
    prefix = tm.prefix(512)
    assert [n for n in range(512) if ones.accepts([n])] == [
        n for n in range(512) if prefix[n] == 1
    ]
    t3 = load_fixture("ternary-tm")
    twos = A.seq_at_dfa(t3, "n", 2)
    prefix3 = t3.prefix(256)
    assert [n for n in range(256) if twos.accepts([n])] == [
        n for n in range(256) if prefix3[n] == 2
    ]
    # a symbol outside the reachable outputs yields the empty set
    assert A.is_empty(A.seq_at_dfa(tm, "n", 9))


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(0, 2**32), st.sampled_from((2, 3)), _SIZES, st.integers(3, 5))
def test_canonical_dfao_matches_reference(seed, k, n, n_codes):
    rng = random.Random(seed)
    delta, codes, initial = _random_table(rng, n, k, n_codes, min_classes=n_codes)
    # symbols out of order, so the canonical form's output coding is exercised
    symbols = rng.sample(range(10), n_codes)
    outputs = tuple(symbols[c] for c in codes)
    m = A.Dfao(k, tuple(sorted(symbols)), outputs, tuple(map(tuple, delta)), initial)
    reps, new_delta = ref_minimize(delta, outputs, initial)
    c = m.canonical()
    assert (c.delta, c.outputs, c.initial) == (new_delta, tuple(outputs[q] for q in reps), 0)

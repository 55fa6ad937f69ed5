"""Formula compiler against brute-force evaluation and frozen values."""

import dataclasses
import itertools
import random
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ranktwo import automata
from ranktwo import logic as L
from ranktwo.automata import is_empty, shortest_accepted
from ranktwo.errors import BudgetExceededError
from ranktwo.fixtures import load_fixture
from ranktwo.formula_text import parse_formula
from ranktwo.logic import (
    CompileLimits,
    Const,
    add,
    and_,
    compile_formula,
    decide,
    eq,
    exists,
    forall,
    ge,
    gt,
    implies,
    le,
    lt,
    mul,
    ne,
    not_,
    or_,
    seq_at,
    seq_eq,
    witness,
)
from ranktwo import predicates as P
from ranktwo.rank import Budget, pattern_prefixes, run_chain

from oracles import FIXTURE_ORACLES, eval_formula, setup2_formula, setup_formula

TM = load_fixture("thue-morse")
T3 = load_fixture("ternary-tm")
P2 = load_fixture("pow2-char")
M3 = load_fixture("mod3")

TM_PREF = TM.prefix(1 << 14)
T3_PREF = T3.prefix(1 << 14)


def test_arithmetic_sentences():
    cases = [
        (forall("x", exists("y", lt("x", "y"))), True),
        (exists("y", forall("x", le("x", "y"))), False),
        (forall("x", forall("y", eq(add("x", "y"), add("y", "x")))), True),
        (exists("x", and_(gt("x", 5), eq(mul(3, "x"), 21))), True),
        (exists("x", and_(gt("x", 7), eq(mul(3, "x"), 21))), False),
        (forall("x", implies(eq(mul(2, "x"), "x"), eq("x", 0))), True),
        (forall("x", exists("y", eq("x", mul(2, "y")))), False),
        (forall("x", exists("y", or_(eq("x", mul(2, "y")),
                                     eq("x", add(mul(2, "y"), 1))))), True),
    ]
    for f, want in cases:
        for k in (2, 3):
            assert decide(f, k=k) is want


def test_divisibility_relation():
    for k in (2, 3, 5):
        for c in (2, 3, 4, 7):
            a = compile_formula(exists("y", eq("x", mul(c, "y"))), k=k)
            for n in range(200):
                assert a.accepts((n,)) == (n % c == 0)


def test_term_lowering_nested():
    # x[2n + 3] = 1 on thue-morse
    f = seq_at(add(mul(2, "n"), 3), 1)
    a = compile_formula(f, seq=TM)
    for n in range(500):
        assert a.accepts((n,)) == (TM_PREF[2 * n + 3] == 1)


def test_seq_atoms_match_prefix_on_all_fixtures():
    for name, gen in FIXTURE_ORACLES.items():
        seq = load_fixture(name)
        pref = gen(512)
        for sym in sorted(set(pref)):
            a = compile_formula(seq_at("n", sym), seq=seq)
            for n in range(256):
                assert a.accepts((n,)) == (pref[n] == sym)
        b = compile_formula(seq_eq("i", "j"), seq=seq)
        assert b.var_order == ("i", "j")
        rows = [(i, j) for i in range(40) for j in range(40)]
        got = [b.accepts(r) for r in rows]
        want = [pref[i] == pref[j] for i, j in rows]
        assert got == want


def test_quantifier_dualities():
    body = and_(seq_at("t", 0), lt("t", "n"))
    a = compile_formula(not_(exists("t", body)), seq=TM)
    b = compile_formula(forall("t", not_(body)), seq=TM)
    assert a == b

    c = compile_formula(not_(forall("t", implies(lt("t", "n"), seq_at("t", 0)))), seq=TM)
    d = compile_formula(exists("t", and_(lt("t", "n"), not_(seq_at("t", 0)))), seq=TM)
    assert c == d

    # forall and implies spelled by hand as not-exists-not and (not a) or b
    bodies = [
        ("t", body),
        ("t", seq_eq("t", add("t", "n"))),
        ("j", implies(lt("i", "j"), seq_at("j", 1))),
        ("d", P.factoreq("i", add("i", "d"), "n")),
    ]
    for v, b in bodies:
        by_hand = compile_formula(not_(exists(v, not_(b))), seq=TM)
        assert by_hand == compile_formula(forall(v, b), seq=TM), (v, b)
    sides = [
        (seq_at("n", 0), lt("n", 9)),
        (eq(add("i", 1), "j"), seq_eq("i", "j")),
        (exists("t", lt("n", "t")), forall("t", seq_at(add("n", "t"), 1))),
    ]
    for a, b in sides:
        by_hand = compile_formula(or_(not_(a), b), seq=TM)
        assert by_hand == compile_formula(implies(a, b), seq=TM), (a, b)


_NODE_TYPES = {L.Cmp, L.SeqAt, L.SeqEq, L.Not, L.And, L.Or, L.Exists}
_TERM_TYPES = (L.Var, L.Const, L.Sum, L.ConstMul)


def _formula_node_types(f):
    """The types of every formula node in f, found by reading the fields
    of each node rather than by dispatching on the known types."""
    if isinstance(f, L.Cmp):
        assert f.op in ("=", "<=", "<"), f
    found = {type(f)}
    for field in dataclasses.fields(f):
        value = getattr(f, field.name)
        for child in value if isinstance(value, tuple) else (value,):
            if dataclasses.is_dataclass(child) and not isinstance(child, _TERM_TYPES):
                found |= _formula_node_types(child)
    return found


def _readme_sentences():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    examples = text.split("or another `x[...]`.  Examples:\n\n```\n", 1)[1].split("```", 1)[0]
    return examples.splitlines() + re.findall(r"ranktwo decide [^']*'([^']+)'", text)


def test_formulas_have_seven_node_types():
    defined = {
        obj for obj in vars(L).values()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj)
        and obj.__module__ == L.__name__ and not issubclass(obj, _TERM_TYPES)
    }
    assert defined - {L.CompileLimits} == _NODE_TYPES

    constructed = [
        L.TRUE, L.FALSE, eq("a", 1), le("a", "b"), lt(2, "b"), ge("a", "b"), gt("a", 3),
        ne("a", "b"), seq_at("a", 1), seq_eq("a", add("b", 1)), not_(lt("a", "b")),
        and_(), and_(eq("a", 0)), and_(eq("a", 0), lt("a", "b")),
        or_(), or_(eq("a", 0)), or_(eq("a", 0), lt("a", "b")),
        implies(eq("a", 0), lt("a", "b")), exists("a", eq("a", "b")), exists(("a", "b"), le("a", "b")),
        forall("a", eq("a", "b")), forall(("a", "b"), implies(lt("a", "b"), seq_eq("a", "b"))),
    ]
    sentences = _readme_sentences()
    assert len(sentences) >= 5, sentences
    sentences += ["A i. x[i] = 0 -> x[i+1] != 1", "E i, j. i >= j & j > 2 -> i <= 7"]
    parsed = [parse_formula(text) for text in sentences]

    builders = {
        "agrees_with_rotation": P.agrees_with_rotation("n", (0, 1), 0),
        "appearance_formula": P.appearance_formula(),
        "block_run": P.block_run("b", "n", 1, 2),
        "factoreq": P.factoreq("i", "j", "n"),
        "power_occurs": P.power_occurs("s", "n", [(0, 1), (1,)]),
        "prefix_in_periodic_orbit": P.prefix_in_periodic_orbit("m", (0, 1, 1)),
        "prefx": P.prefx("i", "j", "x", "y"),
        "pure_period_formula": P.pure_period_formula(),
        "suffx": P.suffx("i", "j", "x", "y"),
        "ultimate_period_formula": P.ultimate_period_formula(),
        "unbounded_period_formula": P.unbounded_period_formula(),
        "unbounded_powers_formula": P.unbounded_powers_formula("i", "n", "p"),
        "unbounded_primitive_factors_formula": P.unbounded_primitive_factors_formula(),
        "word_at": P.word_at("j", (1, 0)),
    }
    src = Path(L.__file__).parent
    used = set()
    for module in ("rank.py", "analysis.py"):
        used |= set(re.findall(r"\bP\.(\w+)\(", (src / module).read_text(encoding="utf-8")))
    assert used == set(builders)

    for f in constructed + parsed + list(builders.values()):
        assert _formula_node_types(f) <= _NODE_TYPES, f


def test_alpha_renaming_shares_cache():
    f = exists("a", and_(lt("a", "n"), seq_at("a", 1)))
    g = exists("b", and_(lt("b", "n"), seq_at("b", 1)))
    assert compile_formula(f, seq=TM) is compile_formula(g, seq=TM)


def _count_projections(monkeypatch):
    calls = []
    real = automata.project

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(automata, "project", counted)
    return calls


def test_equal_subtrees_at_equal_depth_compile_once(monkeypatch):
    calls = _count_projections(monkeypatch)
    L._compile.cache_clear()
    f = or_(exists("i", seq_at("i", 1)), exists("j", seq_at("j", 1)))
    assert decide(f, seq=TM)
    assert len(calls) == 1


def test_shared_conjunct_costs_no_projection(monkeypatch):
    calls = _count_projections(monkeypatch)
    other = exists("m", and_(lt("m", 5), seq_at(add("m", 2), 0)))
    L._compile.cache_clear()
    decide(other, seq=TM)
    alone = len(calls)

    L._compile.cache_clear()
    shared = exists("i", and_(seq_at("i", 1), seq_at(add("i", 1), 1)))
    assert decide(shared, seq=TM)
    del calls[:]
    renamed = exists("j", and_(seq_at("j", 1), seq_at(add("j", 1), 1)))
    assert decide(and_(other, renamed), seq=TM)
    assert len(calls) == alone


def test_renamed_free_variables_compile_once(monkeypatch):
    calls = _count_projections(monkeypatch)
    L._compile.cache_clear()
    f = or_(exists("i", seq_at(add("i", "n"), 1)), exists("j", seq_at(add("j", "m"), 1)))
    a = compile_formula(f, seq=TM)
    assert a == automata.true_dfa(2, ("m", "n"))
    # one projection for i; none for the index i + n, none for the copy
    assert len(calls) == 1


def test_linear_atoms_match_brute_evaluation():
    cases = [
        eq(add(mul(2, "i"), 3), add("i", "j", 1)),
        lt(add("i", "i"), 3),
        seq_eq(add("i", "j", 1), mul(2, "j")),
        eq("j", "j"),
    ]
    for f in cases:
        a = compile_formula(f, seq=TM)
        names = sorted(L.free_vars(f))
        assert a.var_order == tuple(names)
        for vals in itertools.product(range(30), repeat=len(names)):
            env = dict(zip(names, vals))
            assert a.accepts(vals) == eval_formula(f, env, TM_PREF, 0), (f, env)
    # a coefficient that cancels keeps its track
    assert compile_formula(eq("j", "j"), k=2) == automata.true_dfa(2, ("j",))
    assert compile_formula(lt(add("j", 1), "j"), k=2) == automata.complement(automata.true_dfa(2, ("j",)))


def test_sum_of_variables_needs_no_helper(monkeypatch):
    calls = _count_projections(monkeypatch)
    L._compile.cache_clear()
    a = compile_formula(eq("q", add("q2", "r", "n")), k=2)
    assert calls == []
    assert a == automata.linear_rel(2, {"q": 1, "q2": -1, "r": -1, "n": -1}, "=")
    # an index with a constant compiles to one window automaton
    compile_formula(seq_at(add("i", "j", 1), 1), seq=TM)
    assert calls == []


def test_shadowed_binder_and_outer_binder_free_inside():
    # the inner x rebinds x; the exists over y has the outer x free in it
    inner = exists("x", and_(lt("x", 3), eq(add("x", "y"), "n")))
    middle = exists("y", and_(lt("y", 4), seq_at(add("x", "y"), 0), inner))
    f = exists("x", and_(lt("x", 4), seq_at(add("x", "n"), 1), middle))
    L._compile.cache_clear()
    a = compile_formula(f, seq=TM)
    assert a.var_order == ("n",)
    got = [a.accepts((n,)) for n in range(16)]
    assert got == [eval_formula(f, {"n": n}, TM_PREF, bound=4) for n in range(16)]
    assert got == [1 <= n <= 5 for n in range(16)]


# Small formulas over a few names; quantifiers carry explicit bounds so
# the brute evaluator over range(_BOUND) is exact.
_BOUND = 4
_NAMES = ("a", "b", "x")


_VARS = st.sampled_from(_NAMES)
_TERMS = st.one_of(
    _VARS,
    st.builds(add, _VARS, st.integers(0, 3)),
    st.builds(mul, st.integers(0, 3), _VARS),
)
_ATOMS = st.one_of(
    st.builds(seq_at, _TERMS, st.integers(0, 1)),
    st.builds(seq_eq, _TERMS, _TERMS),
    st.builds(lt, _TERMS, _TERMS),
    st.builds(lambda c, v, t: eq(mul(c, v), t), st.integers(2, 3), _VARS, _TERMS),
)


def _bounded_exists(v, body):
    return exists(v, and_(lt(v, _BOUND), body))


def _bounded_forall(v, body):
    return forall(v, implies(lt(v, _BOUND), body))


def _extend(children):
    return st.one_of(
        st.builds(not_, children),
        st.builds(and_, children, children),
        st.builds(or_, children, children),
        st.builds(implies, children, children),
        st.builds(_bounded_exists, _VARS, children),
        st.builds(_bounded_forall, _VARS, children),
    )


_FORMULAS = st.recursive(_ATOMS, _extend, max_leaves=5)


def _rename_binders(f, env, fresh):
    """The same formula with every binder given a name never used before."""
    def term_(t):
        if isinstance(t, L.Var):
            return L.Var(env.get(t.name, t.name))
        if isinstance(t, L.Sum):
            return L.Sum(term_(t.left), term_(t.right))
        if isinstance(t, L.ConstMul):
            return L.ConstMul(t.c, term_(t.arg))
        return t

    if isinstance(f, L.Cmp):
        return L.Cmp(f.op, term_(f.left), term_(f.right))
    if isinstance(f, L.SeqAt):
        return L.SeqAt(term_(f.index), f.symbol)
    if isinstance(f, L.SeqEq):
        return L.SeqEq(term_(f.left), term_(f.right))
    if isinstance(f, L.Not):
        return L.Not(_rename_binders(f.body, env, fresh))
    if isinstance(f, (L.And, L.Or)):
        return type(f)(tuple(_rename_binders(p, env, fresh) for p in f.parts))
    name = f"r{next(fresh)}"
    return type(f)(name, _rename_binders(f.body, {**env, f.var: name}, fresh))


def _assert_matches_brute(f, a):
    free = sorted(L.free_vars(f))
    assert a.var_order == tuple(free)
    for values in itertools.product(range(_BOUND), repeat=len(free)):
        env = dict(zip(free, values))
        assert a.accepts(env) == eval_formula(f, env, TM_PREF, bound=_BOUND), (f, env)


@settings(max_examples=50, deadline=None, database=None)
@given(_FORMULAS, _FORMULAS)
def test_cache_hits_agree_with_brute_evaluation(f, h):
    L._compile.cache_clear()
    _assert_matches_brute(f, compile_formula(f, seq=TM))
    g = and_(h, _rename_binders(f, {}, itertools.count()))
    _assert_matches_brute(g, compile_formula(g, seq=TM))


@settings(max_examples=50, deadline=None, database=None)
@given(_FORMULAS, st.permutations(("c", "m", "y")))
def test_renamed_free_variables_match_renamed_tracks(f, targets):
    # targets in every order, so some renamings re-sort the tracks
    L._compile.cache_clear()
    a = compile_formula(f, seq=TM)
    names = dict(zip(sorted(L.free_vars(f)), targets))
    g = _rename_binders(f, names, itertools.count())
    b = compile_formula(g, seq=TM)
    assert b == automata.rename_tracks(a, names)
    _assert_matches_brute(g, b)


def test_shadowing_and_capture():
    # same name bound twice at different depths
    f = exists("x", and_(eq("x", 3), exists("x", eq("x", 5)), eq("x", 3)))
    assert decide(f, k=2)
    # args of a predicate reuse its internal letter choices: factoreq picks
    # fresh names even when the caller passes variables named like them
    fe = P.factoreq(".0", add(".0", 1), ".1")
    a = compile_formula(fe, seq=TM)
    for i in range(30):
        for n in range(12):
            want = TM_PREF[i:i + n] == TM_PREF[i + 1:i + 1 + n]
            assert a.accepts({".0": i, ".1": n}) == want


def test_engine_matches_bounded_brute_evaluation():
    """Formulas whose deciding witnesses fit under the brute bound."""
    n, m = "n", "m"
    fams = [
        P.factoreq("i", "j", n),
        P.period_f("i", n, "p"),
        P.match_f("i", "j", m, "r"),
        P.prefx("i", "j", "x", "y"),
        P.suffx("i", "j", "x", "y"),
    ]
    rng = random.Random(31)
    for f in fams:
        a = compile_formula(f, seq=TM)
        order = a.var_order
        for _ in range(120):
            env = {v: rng.randrange(16) for v in order}
            got = a.accepts(env)
            want = eval_formula(f, env, TM_PREF, bound=64)
            assert got == want, (f, env)


def test_factoreq_grid_against_slices():
    for seq, pref in ((TM, TM_PREF), (T3, T3_PREF)):
        a = compile_formula(P.factoreq("i", "j", "n"), seq=seq)
        rows, want = [], []
        for i in range(40):
            for j in range(40):
                for n in range(0, 24, 3):
                    rows.append({"i": i, "j": j, "n": n})
                    want.append(pref[i:i + n] == pref[j:j + n])
        got = [a.accepts(r) for r in rows]
        assert got == want


def test_factoreq_known_values():
    a = compile_formula(P.factoreq("i", "j", "n"), seq=TM)
    assert a.accepts({"i": 0, "j": 3, "n": 1})
    assert not a.accepts({"i": 0, "j": 1, "n": 2})
    # reflexivity, symmetry, window monotonicity as decided sentences
    assert decide(forall(("i", "n"), P.factoreq("i", "i", "n")), seq=TM)
    assert decide(
        forall(("i", "j", "n"),
               implies(P.factoreq("i", "j", "n"), P.factoreq("j", "i", "n"))),
        seq=TM)
    assert decide(
        forall(("i", "j", "n", "m"),
               implies(and_(P.factoreq("i", "j", "n"), le("m", "n")),
                       P.factoreq("i", "j", "m"))),
        seq=TM)


def brute_period(word, p):
    return all(word[t] == word[t + p] for t in range(len(word) - p))


def test_period_and_earliest_occurrence():
    a = compile_formula(P.period_f("i", "n", "p"), seq=TM)
    for i in range(20):
        for n in range(14):
            for p in range(10):
                want = brute_period(TM_PREF[i:i + n], p) if p <= n else True
                assert a.accepts({"i": i, "n": n, "p": p}) == want

    e = compile_formula(P.earliestfac("i", "j", "n"), seq=TM)
    for j in range(24):
        for n in range(10):
            fac = TM_PREF[j:j + n]
            first = next(t for t in range(j + 1) if TM_PREF[t:t + n] == fac)
            for i in range(24):
                want = (TM_PREF[i:i + n] == fac) and i == first
                assert e.accepts({"i": i, "j": j, "n": n}) == want


def test_prefix_suffix_windows():
    a = compile_formula(P.prefx("i", "j", "x", "y"), seq=TM)
    b = compile_formula(P.suffx("i", "j", "x", "y"), seq=TM)
    for i in range(12):
        for j in range(8):
            for x in range(12):
                for y in range(8):
                    u, w = TM_PREF[i:i + j], TM_PREF[x:x + y]
                    wp = j <= y and w[:j] == u
                    ws = j <= y and (w[len(w) - j:] == u if j else True)
                    assert a.accepts({"i": i, "j": j, "x": x, "y": y}) == wp
                    assert b.accepts({"i": i, "j": j, "x": x, "y": y}) == ws


def brute_primitive(word):
    n = len(word)
    for d in range(1, n):
        if n % d == 0 and word == word[:d] * (n // d):
            return False
    return n > 0


def test_primitivity_window():
    for seq, pref in ((TM, TM_PREF), (T3, T3_PREF)):
        a = compile_formula(P.prim("i", "n"), seq=seq)
        for i in range(28):
            for n in range(1, 14):
                assert a.accepts({"i": i, "n": n}) == brute_primitive(pref[i:i + n]), (i, n)
    a = compile_formula(P.prim("i", "n"), seq=TM)
    assert a.accepts({"i": 0, "n": 2})        # "01"
    assert not a.accepts({"i": 5, "n": 2})    # "00"


def test_word_at_and_rotation_predicates():
    a = compile_formula(P.word_at("j", (0, 1, 1)), seq=TM)
    for j in range(200):
        assert a.accepts((j,)) == (TM_PREF[j:j + 3] == [0, 1, 1])

    b = compile_formula(P.congruent("t", 2, 3), k=2)
    for t in range(60):
        assert b.accepts((t,)) == (t % 3 == 2)

    # pow2-char: x[0..m) a factor of (0)^omega iff the prefix is all zero,
    # which fails from m = 2 on
    c = compile_formula(P.prefix_in_periodic_orbit("m", (0,)), seq=P2)
    got = [m for m in range(10) if c.accepts((m,))]
    assert got == [0, 1]

    # thue-morse 0110... agrees with (01)^omega on its first two letters
    e = compile_formula(P.agrees_with_rotation("n", (0, 1), 0), seq=TM)
    got = [n for n in range(8) if e.accepts((n,))]
    assert got == [0, 1, 2]


def test_witness_values():
    assert witness(seq_at("n", 1), seq=TM) == {"n": 1}
    assert witness(and_(seq_at("n", 0), seq_at(add("n", 1), 0)), seq=TM) == {"n": 5}
    assert witness(seq_at("n", 9), seq=TM) is None
    w = witness(and_(P.factoreq("i", add("i", "n"), "n"), ge("n", 2)), seq=TM)
    i, n = w["i"], w["n"]
    assert TM_PREF[i:i + n] == TM_PREF[i + n:i + 2 * n] and n >= 2


def test_covered_matches_brute():
    a = compile_formula(P.covered("n", "m"), seq=TM)

    def brute(n, m):
        facs = {tuple(TM_PREF[s:s + n]) for s in range(256)}
        have = {tuple(TM_PREF[j:j + n]) for j in range(max(0, m - n + 1))}
        return facs <= have

    for n in range(5):
        for m in range(20):
            assert a.accepts({"n": n, "m": m}) == brute(n, m)


def test_setup_formula_matches_brute_scan():
    pref = P2.prefix(4096)

    def brute(r, blocks):
        v = tuple(pref[:r])
        if v[:1] == (1,) or v[-1:] == (1,):
            return False

        def rec(pos, vleft):
            if vleft == 0:
                return True
            e = 0
            while pos + e + r <= len(pref):
                if tuple(pref[pos + e:pos + e + r]) == v and rec(pos + e + r, vleft - 1):
                    return True
                if pref[pos + e] != 1:
                    return False
                e += 1
            return False

        return rec(r, blocks - 1)

    for blocks in (1, 2, 3):
        want = [r for r in range(1, 30) if brute(r, blocks)]
        unrolled = compile_formula(setup_formula(i=1, d=1, L=blocks, N=1), seq=P2)
        iterated = run_chain(P2, 1, 1, blocks, Budget())
        for a in (unrolled, iterated):
            assert [r for r in range(1, 30) if a.accepts((r,))] == want


def test_setup2_witness_is_genuine():
    """Satisfiability plus a hand check of one satisfying assignment."""
    pattern = (0, 1)
    root, extend = pattern_prefixes(T3, [], Budget())
    rel = extend(root, 1)
    assert not is_empty(rel)
    # E q. R_w is the body of the unrolled sentence, the first block at 0
    blocks = automata.project(rel, "q")
    body = setup2_formula(pattern)
    while isinstance(body, L.Exists):
        body = body.body
    assert blocks == compile_formula(body, seq=T3)
    vals = dict(zip(blocks.var_order, shortest_accepted(blocks)))
    j, r, s = vals["j"], vals["r"], vals["s"]
    assert r >= 1 and s >= 1
    u0, u1 = T3_PREF[:r], T3_PREF[j:j + s]
    assert T3_PREF[:r + s] == u0 + u1
    # neither block is a prefix or a suffix of the other
    assert not (r <= s and (u1[:r] == u0 or u1[s - r:] == u0))
    assert not (s <= r and (u0[:s] == u1 or u0[r - s:] == u1))


def test_multiplication_budget_is_enforced():
    # y = c x has c + 1 raw states, and a cap below that is refused
    # before any automaton is built
    f = exists("y", eq("y", mul(10 ** 10, "y")))
    with pytest.raises(BudgetExceededError) as ei:
        decide(f, seq=TM, limits=CompileLimits(max_automaton_states=1000))
    assert ei.value.stage == "multiplication" and ei.value.cap == 1000
    assert str(ei.value) == "budget exceeded at multiplication (cap 1000): c = 10000000000"
    rel = automata.linear_rel(2, {"x": 999, "y": -1}, "=", max_states=1000)
    assert rel.accepts((3, 2997)) and not rel.accepts((3, 2996))
    with pytest.raises(BudgetExceededError) as ei:
        automata.linear_rel(2, {"x": 999, "y": -1}, "=", max_states=999)
    assert ei.value.stage == "linear"
    g = exists("x", eq("y", mul(999, "x")))
    assert compile_formula(g, k=2, limits=CompileLimits(max_automaton_states=1000)).accepts((2997,))
    with pytest.raises(BudgetExceededError) as ei:
        compile_formula(g, k=2, limits=CompileLimits(max_automaton_states=999))
    assert ei.value.stage == "multiplication"


def test_budget_is_enforced():
    f = P.factoreq("i", "j", "n")
    # a result built without a cap is never served under one
    compile_formula(f, seq=TM)
    with pytest.raises(BudgetExceededError) as ei:
        compile_formula(f, seq=TM, limits=CompileLimits(max_automaton_states=3))
    assert ei.value.cap == 3


def test_huge_index_constant_breaches_the_state_cap_quickly():
    # each window of n + 10^6 carries about 40 offsets; the cap bounds
    # how many windows are built before the breach
    f = seq_eq(add("n", 10 ** 6), "n")
    started = time.perf_counter()
    with pytest.raises(BudgetExceededError) as ei:
        compile_formula(f, seq=TM, limits=CompileLimits(max_automaton_states=2000))
    assert time.perf_counter() - started < 1.0
    assert ei.value.stage == "sequence-index" and ei.value.cap == 2000


def test_error_on_free_variables_and_missing_sequence():
    with pytest.raises(ValueError, match="free"):
        decide(lt("x", "y"), k=2)
    with pytest.raises(ValueError):
        compile_formula(seq_at("n", 1), k=2)
    with pytest.raises(ValueError):
        L.Var("%oops")
    with pytest.raises(ValueError):
        L.Const(-1)

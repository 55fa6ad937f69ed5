"""Acceptance gate: eight criteria, one test (one pass/fail line) each.

Pinned tolerances and scales:

  1. 24 sentences over the four fixtures; engine vs. brute evaluation on
     prefixes of length 2^12; every quantifier relativized to an explicit
     cap <= 2^10 (the same cap on both sides); total time <= 300 s.
  2. Exact verdicts, zero tolerance; the explicit-pair certificate for
     ternary-tm is re-validated by an independent DP factorization that
     covers the length-2^14 prefix exactly.
  3. Fixed-pair decisions, each <= 10 s.
  4. Lemma-constant formulas exact on the full grid [1,100]^2; power
     bound exactly k^r * C; brute appearance (prefix 2^15) <= C*n for
     n <= 128 on every fixture.
  5. Exact repetition values, each call <= 60 s.
  6. 10^4 seeded trials per property (seed pinned per family) plus an
     exhaustive binary cross-check for |u|+|v| <= 12; zero failures.
  7. Counterexample searches at bounds (|u|+|v| <= 4, |w| <= 14) and
     (|u|+|v| <= 5, |w|,|w'| <= 6) return none, each <= 600 s.
  8. Pattern budget 0 with fast paths disabled yields Inconclusive naming
     Step5 and the 2^D pattern count; assume-D 4 runs Step 5 end to end
     on ternary-tm and the output carries the unsound flag.
"""

import json
import random
import time
from fractions import Fraction

from ranktwo import predicates as P
from ranktwo.analysis import (
    UNBOUNDED,
    appearance_constant,
    max_exponent,
    power_bound,
    unbounded_primitive_factors,
)
from ranktwo.cli import main as cli_main
from ranktwo.fixtures import FIXTURE_NAMES, load_fixture
from ranktwo.logic import (
    Const,
    add,
    and_,
    decide,
    eq,
    exists,
    forall,
    ge,
    gt,
    implies,
    le,
    lt,
    not_,
    or_,
    seq_at,
    term,
)
from ranktwo.oracle import (
    appearance_values,
    dp_factorize,
    search_comb_counterexample,
    search_depsilon_counterexample,
)
from ranktwo.rank import (
    Budget,
    ExplicitPair,
    Inconclusive,
    Rank1,
    RankTwo,
    decide_fixed_pair,
    lemma_D_constant,
    lemma_L_constant,
    rank2_decide,
)
from ranktwo.words import (
    Pair,
    Single,
    commutes,
    free_reduce,
    period,
    primitive_root,
    solve_conjugation,
    word,
)


# =====================================================================
# Criterion 1: logic-engine oracle equivalence
# =====================================================================
#
# Sentences are written in a tiny description language evaluated two ways:
# once through the full formula-to-automaton engine (deciding over all
# of N), and once by a direct evaluator on a sequence prefix.  Both
# readings agree by construction because every quantifier carries an
# explicit numeric cap inside the sentence itself.
#
# Syntax: terms are lists of summands (variable names and integer
# constants); formulas are tuples
#   ("E", var, cap, body)    ("A", var, cap, body)
#   ("and", f, ...) ("or", f, ...) ("not", f)
#   ("factoreq", i, j, n)  ("period", i, n, p)  ("match", i, j, m, r)
#   ("prefx", i, j, a, b)  ("suffx", i, j, a, b)  ("prim", i, n)
#   ("at", t, letter)  ("eq"|"lt"|"le"|"gt"|"ge", s, t)

PREFIX_LEN = 2 ** 12
MAX_CAP = 2 ** 10


def _eterm(t):
    out = None
    for part in t:
        piece = term(part) if isinstance(part, str) else Const(part)
        out = piece if out is None else add(out, piece)
    return out


_CMPS = {"eq": eq, "lt": lt, "le": le, "gt": gt, "ge": ge}


def _build(spec):
    op = spec[0]
    if op in ("E", "A"):
        _, var, cap, body = spec
        assert cap <= MAX_CAP
        guard = lt(term(var), Const(cap))
        if op == "E":
            return exists(var, and_(guard, _build(body)))
        return forall(var, implies(guard, _build(body)))
    if op == "and":
        return and_(*[_build(s) for s in spec[1:]])
    if op == "or":
        return or_(*[_build(s) for s in spec[1:]])
    if op == "not":
        return not_(_build(spec[1]))
    if op == "factoreq":
        return P.factoreq(_eterm(spec[1]), _eterm(spec[2]), _eterm(spec[3]))
    if op == "period":
        return P.period_f(_eterm(spec[1]), _eterm(spec[2]), _eterm(spec[3]))
    if op == "match":
        return P.match_f(*[_eterm(s) for s in spec[1:]])
    if op == "prefx":
        return P.prefx(*[_eterm(s) for s in spec[1:]])
    if op == "suffx":
        return P.suffx(*[_eterm(s) for s in spec[1:]])
    if op == "prim":
        return P.prim(_eterm(spec[1]), _eterm(spec[2]))
    if op == "at":
        return seq_at(_eterm(spec[1]), spec[2])
    return _CMPS[op](_eterm(spec[1]), _eterm(spec[2]))


def _bterm(t, env):
    return sum(env[p] if isinstance(p, str) else p for p in t)


def _window(x, start, stop):
    assert 0 <= start <= stop <= len(x), "sentence reads past the prefix"
    return x[start:stop]


def _beval(spec, env, x):
    op = spec[0]
    if op == "E":
        _, var, cap, body = spec
        return any(_beval(body, {**env, var: val}, x) for val in range(cap))
    if op == "A":
        _, var, cap, body = spec
        return all(_beval(body, {**env, var: val}, x) for val in range(cap))
    if op == "and":
        return all(_beval(s, env, x) for s in spec[1:])
    if op == "or":
        return any(_beval(s, env, x) for s in spec[1:])
    if op == "not":
        return not _beval(spec[1], env, x)
    if op == "factoreq":
        i, j, n = (_bterm(s, env) for s in spec[1:])
        return _window(x, i, i + n) == _window(x, j, j + n)
    if op == "period":
        i, n, p = (_bterm(s, env) for s in spec[1:])
        return n <= p or _window(x, i, i + n - p) == _window(x, i + p, i + n)
    if op == "match":
        i, j, m, r = (_bterm(s, env) for s in spec[1:])
        return _window(x, i, i + r) == _window(x, j, j + r) and _window(
            x, j, j + m
        ) == _window(x, j + r, j + r + m)
    if op == "prefx":
        i, j, a, b = (_bterm(s, env) for s in spec[1:])
        return j <= b and _window(x, i, i + j) == _window(x, a, a + j)
    if op == "suffx":
        i, j, a, b = (_bterm(s, env) for s in spec[1:])
        if j > b:
            return False
        w = a + b - j
        return _window(x, i, i + j) == _window(x, w, w + j)
    if op == "prim":
        i, n = (_bterm(s, env) for s in spec[1:])
        w = _window(x, i, i + n)
        return not any(n % q == 0 and w[:q] * (n // q) == w for q in range(1, n))
    if op == "at":
        t = _bterm(spec[1], env)
        return _window(x, t, t + 1) == bytes([spec[2]])
    s, t = _bterm(spec[1], env), _bterm(spec[2], env)
    return {"eq": s == t, "lt": s < t, "le": s <= t, "gt": s > t, "ge": s >= t}[op]


SENTENCES = [
    # thue-morse
    ("thue-morse", ("A", "i", 1024, ("E", "j", 1024,
        ("and", ("gt", ["j"], ["i"]), ("factoreq", ["i"], ["j"], [4]))))),
    ("thue-morse", ("E", "i", 1024, ("prim", ["i"], [7]))),
    ("thue-morse", ("A", "i", 512, ("not", ("period", ["i"], [9], [1])))),
    ("thue-morse", ("E", "i", 1024,
        ("and", ("period", ["i"], [8], [4]), ("prim", ["i"], [4])))),
    ("thue-morse", ("E", "i", 1024, ("E", "j", 1024,
        ("and", ("lt", ["i"], ["j"]), ("match", ["i"], ["j"], [4], [4]))))),
    ("thue-morse", ("A", "n", 16, ("E", "i", 512,
        ("or", ("eq", ["n"], [0]), ("prim", ["i"], ["n"]))))),
    ("thue-morse", ("E", "i", 256, ("suffx", ["i"], [2], [0], [8]))),
    ("thue-morse", ("A", "j", 256, ("prefx", [0], [1], ["j"], [2]))),
    ("thue-morse", ("E", "j", 1024,
        ("and", ("gt", ["j"], [0]), ("prefx", [0], [4], ["j"], [8])))),
    ("thue-morse", ("A", "i", 1024, ("not", ("match", ["i"], ["i"], [8], [4])))),
    # mod3
    ("mod3", ("A", "i", 1024, ("period", ["i"], [64], [3]))),
    ("mod3", ("A", "i", 1024, ("not", ("period", ["i"], [64], [2])))),
    ("mod3", ("and", ("E", "i", 512, ("prim", ["i"], [3])),
        ("A", "i", 512, ("not", ("prim", ["i"], [6]))))),
    ("mod3", ("A", "i", 512, ("factoreq", ["i"], ["i", 3], [7]))),
    ("mod3", ("E", "i", 256,
        ("and", ("match", ["i"], ["i"], [13], [3]), ("prim", ["i"], [3])))),
    ("mod3", ("A", "i", 256, ("suffx", ["i"], [1], ["i"], [3]))),
    # pow2-char
    ("pow2-char", ("E", "i", 1024, ("period", ["i"], [32], [1]))),
    ("pow2-char", ("A", "i", 1024,
        ("not", ("and", ("at", ["i"], 1), ("at", ["i", 1], 1))))),
    ("pow2-char", ("E", "j", 512, ("suffx", [2], [3], [0], ["j"]))),
    ("pow2-char", ("A", "i", 128, ("E", "j", 1024,
        ("and", ("gt", ["j"], ["i"]), ("at", ["j"], 1))))),
    # ternary-tm
    ("ternary-tm", ("A", "i", 1024, ("E", "j", 1024,
        ("and", ("gt", ["j"], ["i"]), ("factoreq", ["i"], ["j"], [3]))))),
    ("ternary-tm", ("E", "i", 512,
        ("and", ("prim", ["i"], [2]), ("period", ["i"], [4], [2])))),
    ("ternary-tm", ("A", "i", 512, ("not", ("period", ["i"], [7], [1])))),
    ("ternary-tm", ("E", "i", 256, ("E", "j", 256,
        ("and", ("lt", ["j"], ["i"]), ("suffx", ["j"], [2], ["i"], [6]))))),
]


def test_criterion_1_logic_engine_oracle_equivalence():
    assert len(SENTENCES) >= 20
    started = time.monotonic()
    prefixes = {
        name: bytes(load_fixture(name).prefix(PREFIX_LEN)) for name in FIXTURE_NAMES
    }
    results = []
    for fixture, spec in SENTENCES:
        seq = load_fixture(fixture)
        engine = decide(_build(spec), seq=seq)
        brute = _beval(spec, {}, prefixes[fixture])
        assert engine is brute, (fixture, spec, engine, brute)
        results.append(engine)
    # the battery exercises both outcomes
    assert True in results and False in results
    assert time.monotonic() - started <= 300.0


# =====================================================================
# Criterion 2: headline verdicts
# =====================================================================


def test_criterion_2_fixture_verdicts():
    v = rank2_decide(load_fixture("mod3")).verdict
    assert isinstance(v, Rank1) and v.period == 3

    v = rank2_decide(load_fixture("thue-morse")).verdict
    assert isinstance(v, RankTwo)

    v = rank2_decide(load_fixture("pow2-char")).verdict
    assert isinstance(v, RankTwo)

    v = rank2_decide(load_fixture("ternary-tm")).verdict
    assert isinstance(v, RankTwo) and isinstance(v.certificate, ExplicitPair)
    cert = v.certificate
    assert cert.validated_prefix >= 2 ** 14
    # independent DP factorization covering the length-2^14 prefix exactly
    pref = tuple(load_fixture("ternary-tm").prefix(2 ** 14))
    cuts = dp_factorize(pref, cert.u, cert.v)
    assert cuts is not None and cuts[-1] == 2 ** 14


# =====================================================================
# Criterion 3: fixed-pair decisions
# =====================================================================


def test_criterion_3_fixed_pair_decisions():
    seq = load_fixture("ternary-tm")
    started = time.monotonic()
    assert decide_fixed_pair(seq, "01", "20") is True
    assert time.monotonic() - started <= 10.0
    started = time.monotonic()
    assert decide_fixed_pair(seq, "01", "21") is False
    assert time.monotonic() - started <= 10.0


# =====================================================================
# Criterion 4: constants
# =====================================================================


def test_criterion_4_constants():
    for kappa in range(1, 101):
        for p in range(1, 101):
            assert lemma_L_constant(kappa, p) == (15 * p + 4) * kappa
            assert lemma_D_constant(kappa, p) == 10 * p * p * kappa + p + 1
    for name in FIXTURE_NAMES:
        seq = load_fixture(name)
        B, r = power_bound(seq)
        C = appearance_constant(seq)
        assert B == seq.k ** r * C
        values = appearance_values(seq.prefix(2 ** 15), 128)
        for n in range(1, 129):
            assert values[n - 1] <= C * n, (name, n)


# =====================================================================
# Criterion 5: repetition analysis
# =====================================================================


def _timed(fn, *args, cap=60.0):
    started = time.monotonic()
    result = fn(*args)
    assert time.monotonic() - started <= cap
    return result


def test_criterion_5_repetition_analysis():
    tm = load_fixture("thue-morse")
    assert _timed(max_exponent, tm, word("0")) == Fraction(2)
    assert _timed(max_exponent, tm, word("00")) == Fraction(1)
    assert _timed(unbounded_primitive_factors, tm) == []
    p2 = load_fixture("pow2-char")
    members = _timed(unbounded_primitive_factors, p2)
    assert (0,) in {w for (_, _, w) in members}
    for _, _, w in members:
        assert _timed(max_exponent, p2, w) is UNBOUNDED


# =====================================================================
# Criterion 6: word-core properties
# =====================================================================

TRIALS = 10 ** 4


def _random_word(rng, max_len=32, letters=3):
    return tuple(rng.randrange(letters) for _ in range(rng.randint(1, max_len)))


def test_criterion_6_word_core_properties():
    rng = random.Random(60901)
    for _ in range(TRIALS):
        w = _random_word(rng)
        p = period(w)
        assert 1 <= p <= len(w)
        assert all(w[i] == w[i + p] for i in range(len(w) - p))
        assert not any(
            all(w[i] == w[i + q] for i in range(len(w) - q)) for q in range(1, p)
        )

    rng = random.Random(60902)
    for _ in range(TRIALS):
        w = _random_word(rng)
        root, e = primitive_root(w)
        assert root * e == w
        assert e == len(w) // len(root)
        n = len(root)
        assert not any(
            n % q == 0 and root[:q] * (n // q) == root for q in range(1, n)
        )

    rng = random.Random(60903)
    for t in range(TRIALS):
        d = _random_word(rng, max_len=8)
        if t % 2 == 0:
            u = d * rng.randint(0, 3) + d[: rng.randrange(len(d))]
        else:
            u = _random_word(rng, max_len=12)
        sol = solve_conjugation(d, u)
        solvable = (d + u)[: len(u)] == u
        assert (sol is not None) == solvable
        if sol is not None:
            assert sol.r + sol.s == d
            assert sol.c == sol.s + sol.r
            assert (sol.r + sol.s) * sol.alpha + sol.r == u
            assert d + u == u + sol.c
            assert sol.alpha == len(u) // len(d)

    rng = random.Random(60904)
    for _ in range(TRIALS):
        u = _random_word(rng, max_len=6)
        v = _random_word(rng, max_len=6)
        res = free_reduce(u, v)
        if isinstance(res, Single):
            assert commutes(u, v)
            t = res.root
            assert t * (len(u) // len(t)) == u and t * (len(v) // len(t)) == v
            assert primitive_root(t)[1] == 1
        else:
            assert not commutes(u, v)
            a, b = res.a, res.b
            assert a[: len(b)] != b and b[: len(a)] != a
            assert _generates(u, a, b) and _generates(v, a, b)

    # exhaustive minimality over the binary alphabet: a non-commuting pair
    # is always generated by the two letters, so the minimal total is 2
    count = 0
    for total in range(2, 13):
        for la in range(1, total):
            lb = total - la
            for ua in range(2 ** la):
                u = tuple((ua >> s) & 1 for s in range(la))
                for vb in range(2 ** lb):
                    v = tuple((vb >> s) & 1 for s in range(lb))
                    count += 1
                    res = free_reduce(u, v)
                    if commutes(u, v):
                        root, _ = primitive_root(u + v)
                        assert res == Single(root)
                    else:
                        assert res == Pair((0,), (1,))
    assert count == sum((s - 1) * 2 ** s for s in range(2, 13))


def _generates(w, a, b):
    ok = [False] * (len(w) + 1)
    ok[0] = True
    for m in range(len(w)):
        if ok[m]:
            if w[m : m + len(a)] == a:
                ok[m + len(a)] = True
            if w[m : m + len(b)] == b:
                ok[m + len(b)] = True
    return ok[len(w)]


# =====================================================================
# Criterion 7: counterexample searches
# =====================================================================


def test_criterion_7_lemma_searches_find_nothing():
    started = time.monotonic()
    assert search_comb_counterexample(max_pair_total=4, max_w_len=14, min_xy=5) is None
    assert time.monotonic() - started <= 600.0
    started = time.monotonic()
    assert search_depsilon_counterexample(max_pair_total=5, max_w_len=6) is None
    assert time.monotonic() - started <= 600.0


# =====================================================================
# Criterion 8: budget behavior
# =====================================================================


def test_criterion_8_budget_behavior(capsys):
    seq = load_fixture("ternary-tm")
    budget = Budget(max_patterns=0)
    report = rank2_decide(seq, budget, disable_fast_paths=True)
    v = report.verdict
    assert isinstance(v, Inconclusive)
    assert v.stage == "Step5"
    assert v.required.startswith(f"2^{v.patterns_log2} patterns")
    assert v.patterns_log2 >= 2

    code = cli_main(
        [
            "rank2",
            "--fixture",
            "ternary-tm",
            "--assume-D",
            "4",
            "--disable-fast-paths",
            "--format",
            "json",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "rank_two"
    assert data["certificate"] == {
        "kind": "explicit_pair", "u": [0, 1], "v": [2, 0], "validated_prefix": 2 ** 14 + 2,
    }
    assert data["soundness_flags"]["unsound"] is True
    assert "Step5" in data["budget_report"]["stages_run"]

"""Rank pipeline: trace decision, case split, constants, and verdicts."""

import ast
import collections
import itertools
import json
import os
import random
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import ranktwo
import ranktwo.rank as rank_module
from ranktwo import analysis as An
from ranktwo import automata as A
from ranktwo import logic as L
from ranktwo import predicates as P
from ranktwo.analysis import bounded_form, constants, strip_max_power_prefix, unbounded_primitive_factors
from ranktwo.automata import Dfao
from ranktwo.errors import BudgetExceededError, EnumerationLimitError, RankTwoError
from ranktwo.fixtures import load_fixture
from ranktwo.logic import Exists, compile_formula, decide, witness
from ranktwo.oracle import certified_cut, dp_factorize, parse_reach, search_pairs
from ranktwo.rank import (
    Budget,
    ExistenceByFormula,
    ExplicitPair,
    Inconclusive,
    LemmaConstants,
    Rank1,
    RankAtLeastThree,
    RankReport,
    RankTwo,
    decide_fixed_pair,
    decide_with_unbounded,
    lemma_D_constant,
    lemma_L_constant,
    pair_omega_membership,
    pattern_prefixes,
    rank2_decide,
    run_chain,
    validate_explicit_pair,
)

from oracles import campaign_draw, ref_decide_fixed_pair, setup2_formula, setup_formula

TM = load_fixture("thue-morse")
T3 = load_fixture("ternary-tm")
P2 = load_fixture("pow2-char")
M3 = load_fixture("mod3")

# x[n] = 1 at n = 2^k, 2 at n = 3*2^k, 0 elsewhere: aperiodic, unbounded
# zeros, but the nonzero letters never line up into two blocks
POW23 = Dfao(
    k=2,
    alphabet=(0, 1, 2),
    outputs=(0, 1, 1, 2, 2, 0),
    delta=((0, 1), (2, 3), (2, 5), (4, 5), (4, 5), (5, 5)),
    initial=0,
)

# x[n] = 1 at n = 2^k (k >= 2), 2 right after, 0 elsewhere: the word 12
# repeats at positions 4, 8, 16, ... so x = 0^4 12 00 12 0^6 12 ...
TWELVE = Dfao(
    k=2,
    alphabet=(0, 1, 2),
    outputs=(0, 0, 0, 1, 2, 0),
    delta=((0, 1), (2, 5), (3, 4), (3, 4), (5, 5), (5, 5)),
    initial=0,
)

# x[n] = t(n+1) - t(n) + 1 over Thue-Morse t: square-free on three letters
VTM = Dfao(
    k=2,
    alphabet=(0, 1, 2),
    outputs=(2, 1, 0, 1),
    delta=((0, 3), (0, 2), (2, 1), (2, 0)),
    initial=0,
)

# x = 1 0 0 0 ...
ONE_THEN_ZEROS = Dfao(
    k=2,
    alphabet=(0, 1),
    outputs=(1, 0),
    delta=((0, 1), (1, 1)),
    initial=0,
)

# x[n] = 1 iff 4^j <= n < 3 * 4^j / 2 for some j: aperiodic, with runs
# of both letters of unbounded length
TWO_RUNS = Dfao(
    k=2,
    alphabet=(0, 1),
    outputs=(0, 1, 0, 1, 0),
    delta=((0, 1), (2, 4), (3, 3), (2, 2), (4, 4)),
    initial=0,
)

SEVEN = {"mod3": M3, "thue-morse": TM, "pow2-char": P2, "ternary-tm": T3, "TWELVE": TWELVE, "POW23": POW23, "vtm": VTM}


def test_crafted_automata_match_their_arithmetic_rules():
    def pow23_rule(n):
        if n <= 0:
            return 0
        while n % 2 == 0:
            n //= 2
        # odd part 1: a power of two; odd part 3: three times a power of two
        return {1: 1, 3: 2}.get(n, 0)

    def twelve_rule(n):
        if n >= 4 and n & (n - 1) == 0:
            return 1
        if n >= 5 and (n - 1) & (n - 2) == 0:
            return 2
        return 0

    got = POW23.prefix(2 ** 12)
    assert got == [pow23_rule(n) for n in range(2 ** 12)]
    got = TWELVE.prefix(2 ** 12)
    assert got == [twelve_rule(n) for n in range(2 ** 12)]


def test_lemma_constants_frozen_values():
    assert lemma_L_constant(2, 3) == 98
    assert lemma_D_constant(2, 3) == 184
    assert lemma_L_constant(1, 1) == 19
    assert lemma_D_constant(1, 1) == 12
    with pytest.raises(ValueError):
        lemma_L_constant(0, 1)
    with pytest.raises(ValueError):
        lemma_D_constant(1, 0)


def test_budget_validation():
    with pytest.raises(ValueError):
        Budget(max_automaton_states=0)
    with pytest.raises(ValueError):
        Budget(max_patterns=-1)
    with pytest.raises(ValueError):
        Budget(max_enumeration=0)
    with pytest.raises(ValueError):
        Budget(wall_time=0)
    with pytest.raises(ValueError):
        Budget(wall_time=float("nan"))
    with pytest.raises(ValueError, match="finite"):
        Budget(wall_time=float("inf"))
    assert Budget(max_patterns=0).max_patterns == 0


def test_pair_omega_membership_known_cases():
    assert pair_omega_membership(TM, ((0,), (1,)))
    assert pair_omega_membership(TM, ((1,), (0,)))
    assert pair_omega_membership(TM, ((0, 1), (1, 0)))
    assert pair_omega_membership(TM, ((1, 0), (0, 1)))
    assert not pair_omega_membership(TM, ((0,), (1, 1)))
    assert pair_omega_membership(T3, ((0, 1), (2, 0)))
    assert not pair_omega_membership(T3, ((0, 1), (2, 1)))
    assert pair_omega_membership(M3, ((0, 1, 2),))
    assert pair_omega_membership(M3, ((0,), (1, 2)))
    assert not pair_omega_membership(M3, ((1,), (2, 0)))
    assert not pair_omega_membership(P2, ((0,),))
    with pytest.raises(ValueError):
        pair_omega_membership(TM, ())
    with pytest.raises(ValueError):
        pair_omega_membership(TM, ((0,), ()))
    with pytest.raises(BudgetExceededError):
        pair_omega_membership(TM, ((0, 1), (1, 0)), max_levels=1)


def test_pair_omega_membership_agrees_with_finite_parses():
    # membership forces deep dynamic-programming cuts; an early stuck
    # parser refutes membership
    rng = random.Random(40917)
    seqs = [TM, T3, P2, M3, POW23, TWELVE]
    prefixes = {id(s): tuple(s.prefix(2 ** 12)) for s in seqs}
    for _ in range(300):
        seq = rng.choice(seqs)
        sigma = sorted(set(seq.alphabet))
        u = tuple(rng.choice(sigma) for _ in range(rng.randint(1, 3)))
        v = tuple(rng.choice(sigma) for _ in range(rng.randint(1, 3)))
        if u == v:
            continue
        member = pair_omega_membership(seq, (u, v))
        w = prefixes[id(seq)]
        cuts = parse_reach(w, u, v)
        slack = len(u) + len(v)
        if member:
            assert cuts[-1] >= len(w) - slack
        if cuts[-1] < 512:
            assert not member


def test_decide_fixed_pair_ternary_fixture():
    t0 = time.monotonic()
    assert decide_fixed_pair(T3, (0, 1), (2, 0)) is True
    assert decide_fixed_pair(T3, (0, 1), (2, 1)) is False
    assert time.monotonic() - t0 < 10.0


def test_decide_fixed_pair_cases():
    # commuting pair: products collapse to powers of the shared root
    assert decide_fixed_pair(M3, (0, 1, 2), (0, 1, 2, 0, 1, 2)) is True
    assert decide_fixed_pair(P2, (0,), (0, 0)) is False
    # not a prefix code: free reduction of {0, 01} is {0, 1}, which covers
    # Thue-Morse, but the direct check still fails
    assert decide_fixed_pair(TM, (0,), (0, 1)) is False
    assert decide_fixed_pair(TM, (0,), (1,)) is True
    with pytest.raises(ValueError):
        decide_fixed_pair(TM, (), (1,))
    with pytest.raises(ValueError):
        decide_fixed_pair(TM, (0,), "")


@pytest.mark.parametrize("name", list(SEVEN))
def test_decide_fixed_pair_needs_no_shortcuts(name):
    # the one membership check agrees with the commuting-pair and
    # free-reduction shortcuts on every pair with |u| + |v| <= 4 over the
    # sequence's letters, commuting and prefix-related pairs included
    seq = SEVEN[name]
    words = [w for n in (1, 2, 3) for w in itertools.product(seq.alphabet, repeat=n)]
    pairs = [(u, v) for u in words for v in words if len(u) + len(v) <= 4]
    assert any(u == v for u, v in pairs) and any(v[:len(u)] == u != v for u, v in pairs)
    got = [decide_fixed_pair(seq, u, v) for u, v in pairs]
    assert got == [ref_decide_fixed_pair(seq, u, v) for u, v in pairs]


def test_validate_explicit_pair_cut_values():
    assert validate_explicit_pair(T3, (0, 1), (2, 0)) == 2 ** 14 + 2
    assert validate_explicit_pair(TM, (0,), (1,)) == 2 ** 14 + 1
    assert validate_explicit_pair(T3, (0, 1), (2, 1)) is None


def test_step0d_pair_without_a_cut_is_a_fault(monkeypatch):
    # a pair decided true always has a cut, so a missing one raises at
    # Step 0d instead of passing to the next candidate
    monkeypatch.setattr(rank_module, "validate_explicit_pair", lambda *args: None)
    monkeypatch.setattr(rank_module, "unbounded_primitive_factors", lambda *args, **kw: pytest.fail("Step 0d moved on"))
    with pytest.raises(RankTwoError, match=r"u = \[0, 1\], v = \[2, 0\] has no factorization cut"):
        rank2_decide(T3)


def test_validate_explicit_pair_cross_check_survives_optimize_flag():
    # under python -O asserts vanish; a cut the DP rejects, and a witness
    # query that finds nothing where one must exist, must still raise
    script = "\n".join([
        "import ranktwo.analysis as An",
        "import ranktwo.oracle as O",
        "import ranktwo.rank as R",
        "from ranktwo.errors import RankTwoError",
        "from ranktwo.fixtures import load_fixture",
        "assert False, 'asserts must be stripped'",
        "O._feasible_chunks = lambda *args: [0]",
        "try:",
        "    R.validate_explicit_pair(load_fixture('ternary-tm'), '01', '20')",
        "except RankTwoError:",
        "    print('raised')",
        "An.witness = lambda *args, **kwargs: None",
        "try:",
        "    An.max_exponent(load_fixture('thue-morse'), (0,))",
        "except RankTwoError:",
        "    print('raised')",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(ranktwo.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=300
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["raised", "raised"]


def test_library_has_no_assert_statements():
    # every check in the library must hold under python -O, where assert
    # statements are compiled away
    paths = sorted(Path(ranktwo.__file__).parent.glob("*.py"))
    assert "automata.py" in [p.name for p in paths]
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _handoff(seq):
    """Step 2's list and the depth L that rank2_decide hands to Step 3."""
    c = constants(seq)
    return [w for _, _, w in unbounded_primitive_factors(seq)], lemma_L_constant(c.kappa, c.B)


def test_decide_with_unbounded_short_companion():
    pair = decide_with_unbounded(P2, (0,), *_handoff(P2))
    assert pair == ExplicitPair((0,), (1,), pair.validated_prefix)
    assert pair.validated_prefix >= 2 ** 14
    cuts = dp_factorize(tuple(P2.prefix(pair.validated_prefix)), pair.u, pair.v)
    assert cuts is not None and cuts[-1] == pair.validated_prefix


# x[n] = the second binary digit of n, 0 for n < 2: x = 000 1 00 11 0^4 1^4 ...,
# so both letters have unbounded runs
RUNS = Dfao(k=2, alphabet=(0, 1), outputs=(0, 0, 0, 1), delta=((0, 1), (2, 3), (2, 2), (3, 3)), initial=0)


def test_decide_with_unbounded_companion_from_step2_list():
    # only stage (i) tries the companion 1: it is a word of Step 2's list,
    # which stage (iv) skips, and the tail 1 00 11 ... has no prefix in
    # Fac(0^omega) for stage (iii)
    unbounded, L = _handoff(RUNS)
    assert sorted(unbounded) == [(0,), (1,)]
    pair = decide_with_unbounded(RUNS, (0,), unbounded, L)
    assert pair == ExplicitPair((0,), (1,), 2 ** 14 + 1)


def test_decide_with_unbounded_rejects_periodic_sequences():
    # Step 0c decides every ultimately periodic sequence, so the
    # unbounded stage only takes aperiodic ones
    with pytest.raises(ValueError, match="aperiodic"):
        decide_with_unbounded(M3, (0, 1, 2), *_handoff(M3))
    with pytest.raises(ValueError, match="aperiodic"):
        decide_with_unbounded(ONE_THEN_ZEROS, (0,), *_handoff(ONE_THEN_ZEROS))
    for off in (False, True):
        assert rank2_decide(M3, disable_fast_paths=off).verdict == Rank1(3)
    rep = rank2_decide(ONE_THEN_ZEROS)
    assert rep.verdict == RankTwo(ExplicitPair((0,), (1,), 2 ** 14 + 1))
    assert rep.budget_report["stages_run"] == ["Step0", "Step0b"]
    rep = rank2_decide(ONE_THEN_ZEROS, disable_fast_paths=True)
    assert rep.verdict == RankTwo(ExplicitPair((1,), (0,), 2 ** 14 + 1))
    assert rep.budget_report["stages_run"] == ["Step0", "Step0c"]


def test_decide_with_unbounded_preconditions():
    # u must be a word of Step 2's list
    tm, p2 = _handoff(TM), _handoff(P2)
    with pytest.raises(ValueError, match="unbounded exponent"):
        decide_with_unbounded(TM, (0,), *tm)  # exponent 2, not unbounded
    with pytest.raises(ValueError, match="unbounded exponent"):
        decide_with_unbounded(P2, (0, 0), *p2)  # imprimitive
    with pytest.raises(ValueError, match="unbounded exponent"):
        decide_with_unbounded(P2, (), *p2)
    with pytest.raises(ValueError, match="unbounded exponent"):
        decide_with_unbounded(TM, (9,), *tm)  # not a factor at all


def test_decide_with_unbounded_run_tower_finds_pair():
    unbounded, L = _handoff(TWELVE)
    # the run chain reaches its fixed point long before this depth
    assert L > 10 ** 40
    pair = decide_with_unbounded(TWELVE, (0,), unbounded, L)
    assert pair == ExplicitPair((0,), (1, 2), 2 ** 14 + 2)
    assert decide_fixed_pair(TWELVE, pair.u, pair.v) is True


def test_decide_with_unbounded_run_tower_exhausts():
    unbounded, L = _handoff(POW23)
    assert L > 10 ** 40
    pair = decide_with_unbounded(POW23, (0,), unbounded, L)
    assert pair is None


def _count_calls(monkeypatch, calls, func):
    """Count calls to func under every name a ranktwo module binds it to."""
    def counted(*args, **kwargs):
        calls[func.__name__] += 1
        return func(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "ranktwo":
            for attr, obj in list(vars(mod).items()):
                if obj is func:
                    monkeypatch.setattr(mod, attr, counted)


@pytest.mark.parametrize("seq, off", [(POW23, False), (P2, True)], ids=["POW23", "pow2-char-no-fast-paths"])
def test_rank_stages_hand_their_results_forward(monkeypatch, seq, off):
    # Step 2's list is computed once and handed to Step 3, which proves
    # no exponent unbounded again; no stage passes a floor of the lemma
    # constants, so none computes them; Step 0b reads the letters off the
    # canonical DFAO and compiles nothing
    calls = collections.Counter()
    for func in (An.constants, An.unbounded_primitive_factors, An.max_exponent, L.compile_formula):
        _count_calls(monkeypatch, calls, func)
    letters = rank_module.occurring_letters

    def step0b_letters(*args):
        before = calls["compile_formula"]
        out = letters(*args)
        calls["letter compiles"] += calls["compile_formula"] - before
        return out

    monkeypatch.setattr(rank_module, "occurring_letters", step0b_letters)
    rep = rank2_decide(seq, disable_fast_paths=off)
    stages = rep.budget_report["stages_run"]
    assert "Step3" in stages and ("Step0b" in stages) == (not off)
    assert calls["constants"] == 0 and rep.constants is None
    assert calls["unbounded_primitive_factors"] == 1
    assert calls["max_exponent"] == 0
    assert calls["letter compiles"] == 0


def _stripped_tail(seq, u):
    _, tail = strip_max_power_prefix(seq, u)
    return tail, witness(P.word_at("i", u), seq=tail)["i"]


@pytest.mark.parametrize("name", ["TWELVE", "POW23", "pow2-char"])
def test_run_chain_matches_unrolled_sentence(name):
    seq = {"TWELVE": TWELVE, "POW23": POW23, "pow2-char": P2}[name]
    tail, i = _stripped_tail(seq, (0,))
    for L in range(1, 25):
        unrolled = compile_formula(setup_formula(i, 1, L, 1), seq=tail)
        assert run_chain(tail, i, 1, L, Budget()) == unrolled, L


def test_run_chain_rounds_without_fixed_point_are_capped():
    # TWELVE's chain shrinks in two rounds, and the third changes nothing
    tail, i = _stripped_tail(TWELVE, (0,))
    deep = run_chain(tail, i, 1, 25_690_161, Budget())
    assert run_chain(tail, i, 1, 25_690_161, Budget(max_enumeration=3)) == deep
    with pytest.raises(BudgetExceededError) as ei:
        run_chain(tail, i, 1, 25_690_161, Budget(max_enumeration=2))
    assert str(ei.value) == "budget exceeded at run-tower-depth (cap 2): L = 25690161"
    # at depth 3 the two rounds are all there is to do
    assert run_chain(tail, i, 1, 3, Budget(max_enumeration=2)) == run_chain(tail, i, 1, 3, Budget())
    with pytest.raises(ValueError):
        run_chain(tail, i, 1, 0, Budget())


def test_lemma_floors_bound_the_constants():
    # C >= k^2 >= 4, kappa >= 5 and B >= 8 on every sequence
    lemma = LemmaConstants(TM, Budget().limits())
    assert (lemma.L_floor, lemma.D_floor) == (620, 3209)
    hooked = LemmaConstants(TM, Budget().limits(), assume_D=4)
    assert (hooked.L_floor, hooked.D_floor, hooked.D(), hooked.view) == (245, 4, 4, None)
    for seq in (TM, P2, M3, TWELVE):
        lemma = LemmaConstants(seq, Budget().limits())
        assert lemma.known_D() is None
        assert lemma.L() >= lemma.L_floor and lemma.D() >= lemma.D_floor
        assert lemma.known_D() == lemma.view["D"]


def test_run_chain_asks_for_the_exact_L_only_past_its_floor(monkeypatch):
    # TWELVE's chain shrinks in two rounds, and the third changes nothing
    tail, i = _stripped_tail(TWELVE, (0,))
    c = constants(TWELVE)
    exact = lemma_L_constant(c.kappa, c.B)
    deep = run_chain(tail, i, 1, exact, Budget())
    calls = collections.Counter()
    _count_calls(monkeypatch, calls, An.constants)
    lemma = LemmaConstants(TWELVE, Budget().limits())
    assert run_chain(tail, i, 1, lemma, Budget()) == deep
    assert calls["constants"] == 0 and lemma.view is None
    # a floor of 2 passes round 1 without a fixed point: the chain reads
    # the exact L and goes on to the relation it gives
    lemma.L_floor = 2
    assert run_chain(tail, i, 1, lemma, Budget()) == deep
    assert calls["constants"] == 1 and lemma.view["L"] == exact
    # a cap on the rounds below the floor names the floor, not a value
    with pytest.raises(BudgetExceededError) as ei:
        run_chain(tail, i, 1, LemmaConstants(TWELVE, Budget().limits()), Budget(max_enumeration=1))
    assert str(ei.value) == "budget exceeded at run-tower-depth (cap 1): L >= 620"
    assert calls["constants"] == 1


@pytest.mark.parametrize("name", ["mod3", "thue-morse", "pow2-char", "ternary-tm", "POW23", "TWELVE", "vtm"])
def test_pattern_prefixes_match_unrolled_sentences(name):
    # E q. R_w has the language of the unrolled sentence's body, with the
    # first block pinned at 0, for every pattern w of length 2 and 3 that
    # starts with 0
    seq = SEVEN[name]
    unbounded = [w for _, _, w in unbounded_primitive_factors(seq)]
    root, extend = pattern_prefixes(seq, unbounded, Budget())
    assert root.var_order == ("j", "q", "r", "s")
    rel = {(0,): root}
    for n in (2, 3):
        for w in itertools.product((0, 1), repeat=n - 1):
            w = (0,) + w
            rel[w] = extend(rel[w[:-1]], w[-1])
            body = setup2_formula(w)
            while isinstance(body, Exists):
                body = body.body
            assert A.project(rel[w], "q") == compile_formula(body, seq=seq), w
    viable = [w for w in rel if len(w) == 3 and not A.is_empty(rel[w])]
    assert viable == ([(0, 1, 0)] if name in ("mod3", "POW23", "vtm") else [(0, 1, 0), (0, 1, 1)])


@pytest.mark.parametrize("name", ["thue-morse", "POW23"])
def test_pattern_symmetry_pins_the_first_block(name):
    # a pattern survives exactly when its complement does, and pinning
    # the first block of a pattern that starts with 0 loses nothing
    seq = {"thue-morse": TM, "POW23": POW23}[name]
    for w in itertools.product((0, 1), repeat=3):
        free = decide(setup2_formula(w, pin_first=False), seq=seq)
        assert free == decide(setup2_formula(tuple(1 - b for b in w), pin_first=False), seq=seq), w
        if w[0] == 0:
            assert free == decide(setup2_formula(w), seq=seq), w


def test_rank2_decide_fixture_verdicts():
    rep = rank2_decide(M3)
    assert rep.verdict == Rank1(3)
    rep = rank2_decide(TM)
    assert rep.verdict == RankTwo(ExplicitPair((0,), (1,), 2 ** 14 + 1))
    rep = rank2_decide(P2)
    assert rep.verdict == RankTwo(ExplicitPair((0,), (1,), 2 ** 14 + 1))
    rep = rank2_decide(T3)
    cert = rep.verdict.certificate
    assert (cert.u, cert.v) == ((0, 1), (2, 0))
    assert cert.validated_prefix >= 2 ** 14
    assert not rep.soundness_flags["unsound"]


def test_rank2_decide_crafted_sequences():
    rep = rank2_decide(TWELVE)
    cert = rep.verdict.certificate
    assert (cert.u, cert.v) == ((0,), (1, 2))
    # the run chain of the zeros has a fixed point with no companion,
    # and no pattern survives past depth 3
    rep = rank2_decide(POW23, assume_D=4)
    assert rep.verdict == RankAtLeastThree()
    assert rep.soundness_flags["unsound"] is True
    assert rep.budget_report["stages_run"][-1] == "Step5"
    # no constant enters a formula, so the computed ones decide it too
    rep = rank2_decide(POW23)
    assert rep.verdict == RankAtLeastThree()
    assert rep.soundness_flags["unsound"] is False
    assert rep.budget_report["stages_run"][-1] == "Step5"


def test_vtm_is_rank_at_least_three_because_it_is_square_free():
    def tm(n):
        return bin(n).count("1") & 1

    assert VTM.prefix(2 ** 14) == [tm(n + 1) - tm(n) + 1 for n in range(2 ** 14)]
    # every binary word of length 4 holds a square, so the first four
    # blocks of a product over {u, v} would put a square into x
    for w in itertools.product((0, 1), repeat=4):
        assert any(w[i:i + h] == w[i + h:i + 2 * h] for h in (1, 2) for i in range(5 - 2 * h)), w
    square = L.exists(("i", "n"), L.and_(L.ge("n", 1), P.factoreq("i", L.add("i", "n"), "n")))
    assert not decide(square, seq=VTM)
    for off in (False, True):
        rep = rank2_decide(VTM, disable_fast_paths=off)
        assert rep.verdict == RankAtLeastThree() and not rep.soundness_flags["unsound"]


def test_step2_enumeration_breach_is_inconclusive():
    assert TWO_RUNS.prefix(2 ** 12) == [
        int(any(4 ** j <= n and 2 * n < 3 * 4 ** j for j in range(7))) for n in range(2 ** 12)
    ]
    assert [w for _, _, w in unbounded_primitive_factors(TWO_RUNS)] == [(0,), (1,)]
    # more words than max_enumeration is a budget breach, not an
    # inconsistent infinite set
    with pytest.raises(EnumerationLimitError):
        unbounded_primitive_factors(TWO_RUNS, max_results=1)
    rep = rank2_decide(TWO_RUNS, Budget(max_enumeration=1), disable_fast_paths=True)
    assert rep.verdict == Inconclusive("Step2", "more than 1 accepted tuples")
    assert rep.budget_report["stages_run"][-1] == "Step2"


def test_step2_builds_its_window_relation_once(monkeypatch):
    # the ∃j relation of unbounded_powers_formula, spelled as the compile
    # cache keys it; each lookup is a miss exactly when it counts one
    exists_j = P.unbounded_powers_formula("i", "n", "p").parts[1]
    key = L._normal(exists_j, {}, 0, {})
    real = L._compile
    missed = []

    def spy(f, *args):
        if f != key:
            return real(f, *args)
        before = real.cache_info().misses
        out = real(f, *args)
        missed.append(real.cache_info().misses > before)
        return out

    monkeypatch.setattr(L, "_compile", spy)
    real.cache_clear()
    rep = rank2_decide(P2, disable_fast_paths=True)
    assert "Step2" in rep.budget_report["stages_run"]
    # built by Step 2 alone: Step 1 computes no constants on this run
    assert missed == [True]


def test_rank2_decide_budget_breach_names_pattern_stage():
    rep = rank2_decide(T3, Budget(max_patterns=0), disable_fast_paths=True)
    v = rep.verdict
    assert isinstance(v, Inconclusive)
    assert v.stage == "Step5"
    assert v.required.startswith("2^")
    # the count is the genuinely computed D, far beyond any budget
    p = rep.constants["p"]
    kappa = rep.constants["kappa"]
    assert v.patterns_log2 == 10 * p * p * kappa + p + 1
    assert v.patterns_log2 > 10 ** 100
    assert rep.constants["C"] == 65536


def test_max_patterns_exit_computes_the_constants_once(monkeypatch):
    calls = collections.Counter()
    _count_calls(monkeypatch, calls, An.constants)
    for budget in (Budget(max_patterns=0), Budget(max_patterns=2)):
        calls.clear()
        rep = rank2_decide(T3, budget, disable_fast_paths=True)
        D = rep.constants["D"]
        required = f"2^{bounded_form(D)} patterns exceed max_patterns = {budget.max_patterns}"
        assert rep.verdict == Inconclusive("Step5", required, D)
        assert calls["constants"] == 1


@pytest.mark.parametrize("late", ["unbounded_primitive_factors", "pattern_prefixes"])
@pytest.mark.parametrize("assume_D", [None, 2])
def test_wall_time_exits_start_no_constants_compile(monkeypatch, late, assume_D):
    # the deadline passes as Step 2 starts, or as Step 5 starts building
    # its root relation: the verdict names the stage that was running and
    # D only when it is assumed, and no constants are computed
    calls = collections.Counter()
    for func in (An.constants, rank_module.pattern_prefixes):
        _count_calls(monkeypatch, calls, func)
    # one clock sets the deadline and checks it: the one automata reads
    clock = [0.0]
    monkeypatch.setattr(A, "time", types.SimpleNamespace(monotonic=lambda: clock[0]))
    real = getattr(rank_module, late)

    def deadline_passes(*args, **kwargs):
        clock[0] = 1e9
        return real(*args, **kwargs)

    monkeypatch.setattr(rank_module, late, deadline_passes)
    # a cached compile builds no automaton, so it would not see the deadline
    L._compile.cache_clear()
    rep = rank2_decide(TM, disable_fast_paths=True, assume_D=assume_D)
    stage = {"unbounded_primitive_factors": "Step2", "pattern_prefixes": "Step5"}[late]
    assert rep.verdict == Inconclusive(stage, "wall_time exhausted", assume_D if stage == "Step5" else None)
    assert rep.constants is None and calls["constants"] == 0
    # the root relation is not compiled after a deadline that Step 2 passed
    assert calls["pattern_prefixes"] == (late == "pattern_prefixes")


@pytest.mark.parametrize("stage", ["Step2", "Step3", "Step5"])
@pytest.mark.parametrize("where", ["rows", "states"])
def test_deadline_inside_a_projection_is_a_verdict_and_caches_nothing(monkeypatch, stage, where):
    # a fake clock passes the deadline inside the first projection of the
    # stage: in _reversed_rows at its second row, or in _explore at the
    # first subset of pass 1, after one read per row
    seq, enter = {
        "Step2": (TM, "unbounded_primitive_factors"),
        "Step3": (P2, "decide_with_unbounded"),
        "Step5": (TM, "pattern_prefixes"),
    }[stage]
    clock = {"now": 0.0, "reads_left": None}

    def monotonic():
        if clock["reads_left"] is not None:
            clock["reads_left"] -= 1
            if clock["reads_left"] == 0:
                clock["now"] = 1e9
        return clock["now"]

    monkeypatch.setattr(A, "time", types.SimpleNamespace(monotonic=monotonic))
    in_stage, breached = [], []
    real_enter = getattr(rank_module, enter)

    def entered(*args, **kwargs):
        in_stage.append(True)
        return real_enter(*args, **kwargs)

    monkeypatch.setattr(rank_module, enter, entered)
    real_project = A.project

    def project(a, var, max_states=None):
        if in_stage and clock["reads_left"] is None and a.num_states > 2:
            clock["reads_left"] = 2 if where == "rows" else a.num_states + 1
        try:
            return real_project(a, var, max_states)
        except BudgetExceededError as exc:
            breached.append(exc.stage)
            raise

    monkeypatch.setattr(A, "project", project)
    real_subsets, passes = A._subsets, []

    def subsets(*args):
        if clock["reads_left"] is not None:
            passes.append(True)
        return real_subsets(*args)

    monkeypatch.setattr(A, "_subsets", subsets)
    # the innermost compile that the breach interrupted, with its arguments
    real_compile, interrupted = L.compile_formula, []

    def compile_formula(*args, **kwargs):
        try:
            return real_compile(*args, **kwargs)
        except BudgetExceededError as exc:
            if exc.stage == "wall_time" and not interrupted:
                interrupted.append((args, kwargs))
            raise

    for mod in (L, An, rank_module):
        monkeypatch.setattr(mod, "compile_formula", compile_formula)
    L._compile.cache_clear()
    rep = rank2_decide(seq, disable_fast_paths=True)
    assert rep.verdict == Inconclusive(stage, "wall_time exhausted")
    assert rep.budget_report["stages_run"][-1] == stage
    assert breached == ["wall_time"]
    assert len(passes) == (where == "states")
    assert A.deadline.get() is None
    # compiled again with no deadline, the interrupted formula is what a
    # fresh compile gives: the breach left nothing in the compile cache
    (args, kwargs), = interrupted
    again = real_compile(*args, **kwargs)
    L._compile.cache_clear()
    assert again == real_compile(*args, **kwargs)


def test_deadline_is_reset_when_an_exception_leaves_rank2_decide(monkeypatch):
    def fails(*args):
        assert A.deadline.get() is not None
        raise RuntimeError("stop")

    monkeypatch.setattr(rank_module, "is_purely_periodic", fails)
    with pytest.raises(RuntimeError, match="stop"):
        rank2_decide(TM)
    assert A.deadline.get() is None


def test_deadline_inside_pattern_witness_is_no_formula_verdict(monkeypatch):
    # the clock is past the deadline only while a pattern witness is
    # re-validated; at depth D = 2 a witness that stopped early would
    # otherwise become an ExistenceByFormula verdict
    clock = [0.0]
    monkeypatch.setattr(A, "time", types.SimpleNamespace(monotonic=lambda: clock[0]))
    real = rank_module._pattern_pair

    def late_witness(*args):
        clock[0] = 1e9
        try:
            return real(*args)
        finally:
            clock[0] = 0.0

    monkeypatch.setattr(rank_module, "_pattern_pair", late_witness)
    rep = rank2_decide(TM, disable_fast_paths=True, assume_D=2)
    assert rep.verdict == Inconclusive("Step5", "wall_time exhausted", 2)
    assert rep.soundness_flags["notes"] == []


def test_wall_time_stops_step2_of_campaign_draw_23():
    # with the deadline polled only between stages, this run spent 25 s and
    # 1.4 GB in one Step 2 compile and was reported as Step5; checked
    # inside the automaton loops, it stops about when the second passes
    budget = Budget(wall_time=1, max_patterns=256, max_automaton_states=20000)
    t0 = time.monotonic()
    rep = rank2_decide(campaign_draw(23), budget, disable_fast_paths=True)
    assert time.monotonic() - t0 < 4.0
    assert rep.verdict == Inconclusive("Step2", "wall_time exhausted")


def test_step0d_stops_at_the_first_proven_pair(monkeypatch):
    drawn = []
    real = rank_module.tiling_pairs

    def spy(*args):
        for pair in real(*args):
            drawn.append(pair)
            yield pair

    monkeypatch.setattr(rank_module, "tiling_pairs", spy)
    rep = rank2_decide(TWELVE)
    assert rep.budget_report["stages_run"][-1] == "Step0d"
    cert = rep.verdict.certificate
    assert drawn == [(cert.u, cert.v)]
    assert search_pairs(TWELVE.prefix(2 ** 12), 6)[0] == drawn[0]
    assert len(search_pairs(TWELVE.prefix(2 ** 12), 6)) > 1


@pytest.mark.parametrize("draw, pair", [(0, ((0,), (1,))), (48, ((1,), (2,)))])
def test_campaign_frontier_draws_get_certified_pairs(draw, pair):
    # the campaign's caps with fast paths off; the deadline is raised from
    # 5 s so that the verdict does not hang on the host's speed (these
    # runs take about 2 s)
    seq = campaign_draw(draw)
    budget = Budget(wall_time=30, max_patterns=256, max_automaton_states=20000)
    rep = rank2_decide(seq, budget, disable_fast_paths=True)
    cert = rep.verdict.certificate
    assert isinstance(cert, ExplicitPair) and (cert.u, cert.v) == pair
    assert rep.constants is None and rep.budget_report["stages_run"][-1] == "Step5"
    u, v = pair
    assert certified_cut(seq.prefix(2 ** 14 + 1), u, v, 2 ** 14) == cert.validated_prefix


def test_rank2_decide_small_state_budget_reaches_pattern_stage():
    # the forward subset constructions of Step 1 meet more than 20,000
    # subsets here; the two reversed passes stay under 2,000
    rep = rank2_decide(
        T3, Budget(max_automaton_states=2000, max_patterns=0), disable_fast_paths=True
    )
    v = rep.verdict
    assert isinstance(v, Inconclusive)
    assert v.stage == "Step5"
    assert v.patterns_log2 is not None


def test_rank2_decide_assumed_constants_run_pattern_stage():
    # the blocks of 0110 are the first pair that proves itself
    rep = rank2_decide(T3, disable_fast_paths=True, assume_D=4)
    assert rep.verdict == RankTwo(ExplicitPair((0, 1), (2, 0), 2 ** 14 + 2))
    flags = rep.soundness_flags
    assert flags["unsound"] is True
    assert any("D = 4" in a for a in flags["assumptions"])
    assert any("p = 3" in a for a in flags["assumptions"])
    assert flags["notes"] == ["pattern-stage pair re-validated exactly"]
    assert rep.budget_report["stages_run"][-1] == "Step5"


def test_pattern_search_counts_nodes_against_max_patterns():
    # the search visits 0, 00 (empty, pruned), 01, 011 and 0110
    rep = rank2_decide(T3, Budget(max_patterns=5), disable_fast_paths=True, assume_D=4)
    assert rep.verdict == RankTwo(ExplicitPair((0, 1), (2, 0), 2 ** 14 + 2))
    rep = rank2_decide(T3, Budget(max_patterns=4), disable_fast_paths=True, assume_D=4)
    assert rep.verdict == Inconclusive("Step5", "2^4 patterns exceed max_patterns = 4", 4)
    assert rep.budget_report["stages_run"][-1] == "Step5"


@pytest.mark.parametrize("seq", [TM, T3, TWELVE, P2], ids=["thue-morse", "ternary-tm", "TWELVE", "pow2-char"])
def test_pattern_search_pairs_are_exact_without_hooks(seq, monkeypatch):
    # with no assumed constant, Step 5 proves rank two only through an
    # explicit pair, and every pair it returns holds exactly
    tried = []
    real = rank_module._pattern_pair

    def spy(*args):
        out = real(*args)
        tried.append(out)
        return out

    monkeypatch.setattr(rank_module, "_pattern_pair", spy)
    rep = rank2_decide(seq, disable_fast_paths=True)
    cert = rep.verdict.certificate
    assert isinstance(cert, ExplicitPair) and not rep.soundness_flags["unsound"]
    assert decide_fixed_pair(seq, cert.u, cert.v) is True
    if rep.budget_report["stages_run"][-1] == "Step5":
        assert tried[-1] == ((cert.u, cert.v), "")
        assert all(pair is None for pair, _ in tried[:-1])


def test_pattern_search_witness_tries_are_capped(monkeypatch):
    # ternary-tm's pair comes from depth 4, the third try: with two tries
    # the search runs on to its node cap
    calls = []
    real = rank_module._pattern_pair
    monkeypatch.setattr(rank_module, "_pattern_pair", lambda *args: calls.append(1) or real(*args))
    rep = rank2_decide(T3, Budget(max_patterns=50, max_enumeration=2), disable_fast_paths=True)
    assert isinstance(rep.verdict, Inconclusive) and rep.verdict.stage == "Step5"
    assert rep.verdict.required.endswith("patterns exceed max_patterns = 50")
    assert len(calls) == 2
    calls.clear()
    rep = rank2_decide(T3, Budget(max_patterns=50, max_enumeration=3), disable_fast_paths=True)
    assert rep.verdict == RankTwo(ExplicitPair((0, 1), (2, 0), 2 ** 14 + 2))
    assert len(calls) == 3


def test_rank2_decide_formula_certificate_can_outrun_its_witness():
    # at D = 2 the first satisfiable pattern is u v with single letters,
    # whose extracted witness does not cover the third letter; the
    # verdict must still carry the unsound flag and record the failure
    rep = rank2_decide(T3, disable_fast_paths=True, assume_D=2)
    assert rep.verdict == RankTwo(ExistenceByFormula((0, 1)))
    assert rep.soundness_flags["unsound"] is True
    assert any("failed exact re-validation" in n for n in rep.soundness_flags["notes"])


def test_rank2_decide_assume_hooks_validate():
    with pytest.raises(ValueError):
        rank2_decide(TM, assume_D=1)


def test_rank2_decide_assumed_constants_taint_every_verdict():
    # mod3 is settled at Step 0, before any assumed constant is used
    rep = rank2_decide(M3, assume_D=4)
    assert rep.verdict == Rank1(3)
    assert rep.soundness_flags["unsound"] is True


def test_rank2_decide_monotone_under_budget_growth():
    big = Budget(
        max_automaton_states=400_000,
        max_patterns=8192,
        max_enumeration=8192,
        wall_time=1200.0,
    )
    for seq in (M3, TM, P2, T3, TWELVE):
        assert rank2_decide(seq).verdict == rank2_decide(seq, big).verdict


def test_report_json_shape_and_determinism():
    rep = rank2_decide(M3)
    assert rep.to_json() == rank2_decide(M3).to_json()
    data = json.loads(rep.to_json())
    assert data["verdict"] == "rank_one"
    assert data["period"] == 3
    assert data["constants"] is None
    assert data["soundness_flags"]["unsound"] is False

    rep = rank2_decide(T3)
    data = json.loads(rep.to_json())
    assert data["verdict"] == "rank_two"
    assert data["certificate"]["kind"] == "explicit_pair"
    assert data["certificate"]["u"] == [0, 1]
    assert data["certificate"]["v"] == [2, 0]
    assert data["budget_report"]["max_patterns"] == 4096

    rep = rank2_decide(T3, Budget(max_patterns=0), disable_fast_paths=True)
    data = json.loads(rep.to_json())
    assert data["verdict"] == "inconclusive"
    assert data["stage"] == "Step5"
    assert data["constants"]["C"] == 65536


def test_inconclusive_repr_prints_huge_constants_in_bounded_form():
    v = Inconclusive("Step5", "r", 10 ** 5000)
    assert repr(v) == "Inconclusive(stage='Step5', required='r', patterns_log2='~2^16610')"
    assert repr(Inconclusive("Step5", "r")) == "Inconclusive(stage='Step5', required='r', patterns_log2=None)"
    assert repr(Inconclusive("Step5", "r", 7)) == "Inconclusive(stage='Step5', required='r', patterns_log2=7)"


def test_report_repr_prints_huge_constants_in_bounded_form():
    rep = RankReport(
        Inconclusive("Step5", "r", 10 ** 5000), {"C": 4, "D": 10 ** 5000}, {"max_patterns": 0}, {"unsound": False}
    )
    text = repr(rep)
    assert text.startswith("RankReport(verdict=Inconclusive(stage='Step5', required='r', patterns_log2='~2^16610')")
    assert "constants={'C': 4, 'D': '~2^16610'}" in text
    assert "budget_report={'max_patterns': 0}" in text and "soundness_flags={'unsound': False}" in text
    # the JSON form is the one it always was
    assert rep.to_dict()["constants"] == {"C": 4, "D": "~2^16610"}
    assert rep.to_dict()["patterns_log2"] == "~2^16610"
    assert "constants=None" in repr(RankReport(RankAtLeastThree(), None, {}, {}))

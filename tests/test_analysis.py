"""Sequence-level quantities against brute force and frozen values."""

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from ranktwo import automata as A, logic as L, predicates as P

from ranktwo.analysis import (
    NOT_A_FACTOR,
    UNBOUNDED,
    appearance_constant,
    appearance_value,
    bounded_form,
    constants,
    is_purely_periodic,
    is_ultimately_periodic,
    max_exponent,
    occurring_letters,
    power_bound,
    shift_sequence,
    strip_max_power_prefix,
    unbounded_primitive_factors,
)
from ranktwo.automata import Dfao, loads_dfao
from ranktwo.errors import BudgetExceededError
from ranktwo.fixtures import load_fixture
from ranktwo.logic import and_, compile_formula, decide, eq, ge, witness
from ranktwo.oracle import appearance_values

from oracles import (
    FIXTURE_ORACLES,
    brute_max_run_exponent,
    mul_power_occurs,
    ref_occurring_letters,
    unbounded_exponent_sentence,
    unbounded_power_sentence,
    unbounded_primitive_factors_sentence,
)

TM = load_fixture("thue-morse")
T3 = load_fixture("ternary-tm")
P2 = load_fixture("pow2-char")
M3 = load_fixture("mod3")
ALL = {"thue-morse": TM, "ternary-tm": T3, "pow2-char": P2, "mod3": M3}

# n = 0 is special-cased by every ultimately periodic sequence: 0111...
EVENTUALLY_ONES = loads_dfao(
    """
k 2
alphabet 0 1
states 2
initial 0
output 0 0
output 1 1
trans 0 0 0
trans 0 1 1
trans 1 0 1
trans 1 1 1
"""
)


def brute_appearance_from(pref, n):
    if n == 0:
        return 0
    facs = {tuple(pref[s:s + n]) for s in range(len(pref) - n)}
    seen = set()
    for j in range(len(pref) - n + 1):
        seen.add(tuple(pref[j:j + n]))
        if seen >= facs:
            return j + n
    raise AssertionError("prefix too short")


def test_constants_are_internally_consistent():
    for name, seq in ALL.items():
        c = constants(seq)
        assert c.C == seq.k ** (c.appearance_states + 1)
        assert c.kappa == c.C + 1
        assert c.B == seq.k ** c.power_states * c.C
        assert appearance_constant(seq) == c.C
        assert power_bound(seq) == (c.B, c.power_states)


def test_appearance_bound_holds_on_prefixes():
    for name, seq in ALL.items():
        C = appearance_constant(seq)
        pref = seq.prefix(1 << 13)
        for n in range(1, 65):
            assert brute_appearance_from(pref, n) <= C * n, (name, n)


def test_bounded_form_keeps_printable_constants():
    assert bounded_form(10 ** 999) == 10 ** 999
    assert bounded_form(2 ** 4000) == "~2^4000"
    assert bounded_form(10 ** 5000) == "~2^16610"
    assert bounded_form(0) == 0


def test_periodicity_classification():
    assert is_purely_periodic(M3) == 3
    assert is_purely_periodic(TM) is None
    assert is_purely_periodic(P2) is None
    assert is_purely_periodic(T3) is None
    assert is_purely_periodic(EVENTUALLY_ONES) is None

    assert is_ultimately_periodic(M3) == (0, 3)
    assert is_ultimately_periodic(EVENTUALLY_ONES) == (1, 1)
    assert is_ultimately_periodic(TM) is None
    assert is_ultimately_periodic(T3) is None
    assert is_ultimately_periodic(P2) is None


def test_occurring_letters():
    assert occurring_letters(TM) == (0, 1)
    assert occurring_letters(T3) == (0, 1, 2)
    assert occurring_letters(P2) == (0, 1)
    assert occurring_letters(M3) == (0, 1, 2)


def test_occurring_letters_matches_compiled_query():
    # seeded DFAOs with a state that no transition enters and declared
    # letters that no state may output
    rng = random.Random(4417)
    unused_letter = unreachable_letter = 0
    for _ in range(300):
        k, n = rng.choice((2, 3)), rng.randint(1, 5)
        alphabet = tuple(range(rng.randint(1, 4)))
        delta = [[rng.randrange(n) for _ in range(k)] for _ in range(n)]
        init = rng.randrange(n)
        delta[init][0] = init  # leading zeros leave the initial state
        delta.append([rng.randrange(n + 1) for _ in range(k)])
        outputs = tuple(rng.choice(alphabet) for _ in range(n + 1))
        seq = Dfao(k, alphabet, outputs, tuple(map(tuple, delta)), init)
        got = occurring_letters(seq)
        assert got == ref_occurring_letters(seq), seq
        unused_letter += len(got) < len(alphabet)
        unreachable_letter += outputs[n] not in got
    assert unused_letter > 50 and unreachable_letter > 20


def test_max_exponent_frozen_values():
    assert max_exponent(TM, (0,)) == Fraction(2)
    assert max_exponent(TM, (0, 0)) == Fraction(1)
    assert max_exponent(TM, (0, 1)) == Fraction(2)
    assert max_exponent(TM, (9,)) is NOT_A_FACTOR
    assert max_exponent(P2, (0,)) is UNBOUNDED
    assert max_exponent(M3, (0, 1, 2)) is UNBOUNDED
    with pytest.raises(ValueError):
        max_exponent(TM, ())


def test_max_exponent_against_bounded_scan():
    # for short factors of these linearly recurrent sequences the maximal
    # window occurs well inside the materialised prefix
    for seq, gen in ((TM, FIXTURE_ORACLES["thue-morse"]),
                     (T3, FIXTURE_ORACLES["ternary-tm"])):
        pref = gen(1 << 13)
        seen = set()
        for start in range(48):
            for ln in range(1, 5):
                z = tuple(pref[start:start + ln])
                if z in seen:
                    continue
                seen.add(z)
                got = max_exponent(seq, z)
                want = brute_max_run_exponent(pref, list(z))
                assert got == want, (z, got, want)


def test_unbounded_primitive_factor_sets():
    assert unbounded_primitive_factors(TM) == []
    assert unbounded_primitive_factors(T3) == []
    assert unbounded_primitive_factors(P2) == [(0, 1, (0,))]
    assert unbounded_primitive_factors(M3) == [
        (0, 3, (0, 1, 2)),
        (1, 3, (1, 2, 0)),
        (2, 3, (2, 0, 1)),
    ]


GOLDEN = Path(__file__).parent / "golden"
WITH_CRAFTED = {**ALL, **{name: loads_dfao((GOLDEN / f"{name}.dfao").read_text()) for name in ("POW23", "TWELVE")}}
SEVEN = {**WITH_CRAFTED, "vtm": loads_dfao((GOLDEN / "vtm.dfao").read_text())}


def _assert_every_window_matches_every_bound(seq, words):
    # Step 2's relation, and max_exponent's unbounded test on each word,
    # against the sentences that quantify "for every m, some n > m"
    old = compile_formula(unbounded_primitive_factors_sentence("i", "p"), seq=seq)
    new = compile_formula(P.unbounded_primitive_factors_formula("i", "p"), seq=seq)
    assert old == new
    for z in words:
        if max_exponent(seq, z) is not NOT_A_FACTOR:
            want = decide(unbounded_exponent_sentence(z), seq=seq)
            assert (max_exponent(seq, z) is UNBOUNDED) == want, z


@pytest.mark.parametrize("name", sorted(WITH_CRAFTED))
def test_every_window_matches_every_bound(name):
    seq = WITH_CRAFTED[name]
    letters = sorted(set(seq.alphabet))
    words = [z for ln in (1, 2) for z in itertools.product(letters, repeat=ln)]
    words += sorted({tuple(seq.prefix(64)[s:s + 3]) for s in range(62)})
    _assert_every_window_matches_every_bound(seq, words)


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(st.integers(0, 2**32), st.sampled_from((2, 3)), st.integers(1, 3))
def test_every_window_matches_every_bound_on_random_sequences(seed, k, n):
    rng = random.Random(seed)
    delta = [[rng.randrange(n) for _ in range(k)] for _ in range(n)]
    delta[0][0] = 0  # leading zeros leave the initial state
    outputs = tuple(rng.randrange(2) for _ in range(n))
    seq = Dfao(k, (0, 1), outputs, tuple(map(tuple, delta)), 0)
    _assert_every_window_matches_every_bound(seq, [(0,), (1,), (0, 1), (1, 0), (0, 0, 1)])


def _assert_power_occurs_is_unbounded_exponent(seq):
    # the predicate over Step 2's list against "for every m, a window of
    # length m"
    words = [w for _, _, w in unbounded_primitive_factors(seq)]
    new = compile_formula(P.power_occurs("i", "n", words), seq=seq)
    assert new.var_order == ("i", "n")
    assert new == compile_formula(unbounded_power_sentence("i", "n"), seq=seq)
    return new


@pytest.mark.parametrize("name", sorted(SEVEN))
def test_power_occurs_is_unbounded_exponent(name):
    seq = SEVEN[name]
    new = _assert_power_occurs_is_unbounded_exponent(seq)
    # on these sequences every cube already has unbounded exponent, so
    # the multiplication by p = 3 gives the same relation
    old = compile_formula(and_(ge("n", 1), mul_power_occurs("i", "n", 3)), seq=seq)
    assert old == new
    assert compile_formula(
        P.power_occurs(0, "n", [w for _, _, w in unbounded_primitive_factors(seq)]), seq=seq
    ) == compile_formula(unbounded_power_sentence(0, "n"), seq=seq)


@settings(max_examples=15, deadline=None, database=None, derandomize=True)
@given(st.integers(0, 2**32), st.sampled_from((2, 3)), st.integers(1, 3))
def test_power_occurs_is_unbounded_exponent_on_random_sequences(seed, k, n):
    rng = random.Random(seed)
    delta = [[rng.randrange(n) for _ in range(k)] for _ in range(n)]
    delta[0][0] = 0  # leading zeros leave the initial state
    outputs = tuple(rng.randrange(2) for _ in range(n))
    _assert_power_occurs_is_unbounded_exponent(Dfao(k, (0, 1), outputs, tuple(map(tuple, delta)), 0))


def test_power_occurs_of_no_words_keeps_its_tracks():
    rel = compile_formula(P.power_occurs("i", "n", []), k=2)
    assert rel.var_order == ("i", "n") and A.is_empty(rel)


def test_step2_after_constants_builds_no_five_track_automaton(monkeypatch):
    # Step 2's window relation is the one constants compiled; what is left
    # works on (i, n, p) and the primitivity tracks
    for seq in ALL.values():
        L._compile.cache_clear()
        constants(seq)
        widths = []
        for name in ("product", "project"):
            real = getattr(A, name)

            def spy(a, *args, _real=real, **kwargs):
                out = _real(a, *args, **kwargs)
                widths.append(max(len(a.var_order), len(out.var_order)))
                return out

            monkeypatch.setattr(A, name, spy)
        unbounded_primitive_factors(seq)
        monkeypatch.undo()
        assert widths and max(widths) < 5


def _unbounded_periods_and_factors(seq, limits=None):
    # G, Step 2's early exit, and the (i, p) relation it stands in for
    periods = compile_formula(P.unbounded_period_formula("p"), seq=seq, limits=limits)
    rel = compile_formula(P.unbounded_primitive_factors_formula("i", "p"), seq=seq, limits=limits)
    assert periods.var_order == ("p",)
    assert A.is_empty(periods) == A.is_empty(rel)
    words = [w for _, _, w in unbounded_primitive_factors(seq, limits)]
    assert A.is_empty(periods) == (words == [])
    if words:
        # G holds at the length of each primitive word with unbounded
        # exponent, and its least element is the shortest such length
        assert A.shortest_accepted(periods) == (min(map(len, words)),)
    return words


@pytest.mark.parametrize("name", sorted(SEVEN))
def test_step2_early_exit_is_exact(name):
    words = _unbounded_periods_and_factors(SEVEN[name])
    assert (words == []) == (name not in ("mod3", "pow2-char", "POW23", "TWELVE"))


def _random_dfao(seed, k, n, letters):
    rng = random.Random(seed)
    delta = [[rng.randrange(n) for _ in range(k)] for _ in range(n)]
    delta[0][0] = 0  # leading zeros leave the initial state
    outputs = tuple(rng.randrange(letters) for _ in range(n))
    return Dfao(k, tuple(range(letters)), outputs, tuple(map(tuple, delta)), 0)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.integers(0, 2**32), st.sampled_from((2, 3)), st.integers(1, 3), st.integers(2, 3))
def test_step2_early_exit_is_exact_on_random_sequences(seed, k, n, letters):
    seq = _random_dfao(seed, k, n, letters)
    try:
        words = _unbounded_periods_and_factors(seq, L.CompileLimits(max_automaton_states=1000))
    except BudgetExceededError:
        assume(False)
    # on a 512-letter prefix a word with unbounded exponent shows a run
    # of more than 100 copies on these draws, and the short factors of a
    # sequence without one stay below 10
    pref = seq.prefix(1 << 9)
    if words:
        assert min(brute_max_run_exponent(pref, w) for w in words) >= 32
    else:
        factors = {tuple(pref[s:s + ln]) for ln in (1, 2, 3) for s in range(len(pref) - ln + 1)}
        assert max(brute_max_run_exponent(pref, z) for z in factors) < 32


def test_shift_sequence_matches_reindexing():
    n = 1 << 12
    for name, seq in SEVEN.items():
        for t in (0, 1, 2, 5, 12, 37, 1000):
            assert shift_sequence(seq, t).prefix(n) == seq.prefix(n + t)[t:], (name, t)
        with pytest.raises(BudgetExceededError) as ei:
            shift_sequence(seq, 10 ** 30, limits=L.CompileLimits(max_automaton_states=1))
        assert ei.value.stage == "sequence-index"


@pytest.mark.parametrize("name", sorted(SEVEN))
def test_appearance_value_is_the_least_cover_length(name):
    # Step 3 (i) scans x[0..A(|u|)) for its short companions
    seq = SEVEN[name]
    want = appearance_values(seq.prefix(1 << 12), 12)
    got = [appearance_value(seq, n) for n in range(1, 13)]
    assert max(got) <= 1 << 11
    assert got == want


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(st.integers(0, 2**32), st.sampled_from((2, 3)), st.integers(1, 3), st.integers(2, 3))
def test_appearance_value_at_a_constant_is_the_relations_witness(seed, k, n, letters):
    # appearance_value compiles the relation at a constant n; conjoining
    # n = c to the (n, m) relation that constants builds gives the same m
    seq = _random_dfao(seed, k, n, letters)
    relation = P.appearance_formula("n", "m")
    for c in range(1, 5):
        assert appearance_value(seq, c) == witness(and_(relation, eq("n", c)), seq=seq)["m"]


def test_strip_max_power_prefix():
    i, rest = strip_max_power_prefix(T3, (0, 1))
    assert i == 1
    assert rest.prefix(10) == T3.prefix(12)[2:]
    assert rest.prefix(4)[:4] == [2, 0, 2, 0]

    i, rest = strip_max_power_prefix(P2, (0,))
    assert i == 1
    assert rest.prefix(8) == P2.prefix(9)[1:]

    # word that is not a prefix at all strips zero copies
    i, rest = strip_max_power_prefix(TM, (1,))
    assert i == 0
    assert rest.prefix(64) == TM.prefix(64)

    with pytest.raises(ValueError):
        strip_max_power_prefix(M3, (0, 1, 2))
    with pytest.raises(ValueError):
        strip_max_power_prefix(TM, ())

"""Tests for the brute-force reference module and counterexample searches."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ranktwo.analysis import max_exponent
from ranktwo.automata import Dfao
from ranktwo.fixtures import load_fixture
from ranktwo.oracle import (
    _CHUNK,
    appearance_values,
    brute_appearance,
    certified_cut,
    dp_factorize,
    in_pair_star,
    is_minimal_pair,
    minimal_pairs,
    parse_reach,
    rank_prefix,
    search_comb_counterexample,
    search_depsilon_counterexample,
    search_pairs,
)

from ranktwo.rank import validate_explicit_pair

from oracles import (
    FIXTURE_ORACLES,
    brute_appearance_value,
    brute_max_run_exponent,
    factor_of_pair_omega,
    is_prefix_code_pair,
    random_word,
    ref_dp_factorize,
    ref_parse_reach,
    ref_prefix,
    ref_tiling_pairs,
    regex_member,
)

TM = load_fixture("thue-morse")
T3 = load_fixture("ternary-tm")


def test_dp_factorize_examples():
    # "abcab" over a=0, b=1, c=2 with u="ab", v="c"
    assert dp_factorize((0, 1, 2, 0, 1), (0, 1), (2,)) == [0, 2, 3, 5]
    assert dp_factorize((0, 1, 0), (0, 1), (2,)) is None
    assert dp_factorize((), (0, 1), (2,)) == [0]
    with pytest.raises(ValueError):
        dp_factorize((0,), (), (1,))


def test_dp_factorize_prefers_u_at_each_cut():
    # (0,0,0) splits as u,u,u or u,v or v,u for u=0, v=00; the leftmost
    # greedy rule picks u whenever the remainder stays feasible
    assert dp_factorize((0, 0, 0), (0,), (0, 0)) == [0, 1, 2, 3]
    assert dp_factorize((0, 0, 0), (0, 0), (0,)) == [0, 2, 3]


def test_dp_factorize_covers_ternary_fixture_prefix():
    """The 0->01, 1->20, 2->20 fixed point tiles into 01 and 20 blocks."""
    w = tuple(FIXTURE_ORACLES["ternary-tm"](2 ** 14))
    cuts = dp_factorize(w, (0, 1), (2, 0))
    assert cuts is not None and cuts[-1] == 2 ** 14
    pieces = {w[a:b] for a, b in zip(cuts, cuts[1:])}
    assert pieces <= {(0, 1), (2, 0)}


def test_dp_factorize_agrees_with_greedy_parse():
    """For prefix code pairs a word factorizes at most one way, and a
    greedy left-to-right parse finds it: at most one block matches at any
    cut.  dp_factorize must accept exactly the {u, v}* members and return
    the greedy cuts; 10^4 seeded trials."""
    rng = random.Random(1105)
    trials = 0
    while trials < 10_000:
        alphabet = (0, 1) if rng.random() < 0.6 else (0, 1, 2)
        u = random_word(rng, alphabet, 1, 4)
        v = random_word(rng, alphabet, 1, 4)
        if not is_prefix_code_pair(u, v):
            continue
        trials += 1
        if rng.random() < 0.5:
            w = sum((u if rng.random() < 0.5 else v for _ in range(rng.randint(0, 6))), ())
        else:
            w = random_word(rng, alphabet, 0, 12)
        cuts = dp_factorize(w, u, v)
        assert (cuts is not None) == regex_member(w, u, v), (u, v, w)
        if cuts is not None:
            greedy = [0]
            while greedy[-1] < len(w):
                i = greedy[-1]
                greedy.append(i + len(u) if w[i:i + len(u)] == u else i + len(v))
            assert cuts == greedy, (u, v, w)


def test_parse_reach_tracks_every_cut():
    assert parse_reach((0, 1, 0, 1), (0,), (0, 1)) == [0, 1, 2, 3, 4]
    assert parse_reach((1, 1), (0,), (0, 1)) == [0]


# letters of the random words: small ones, and naturals too large for
# any fixed-width integer
_LETTERS = ((0, 1, 2), (300, 2 ** 70, 0))


# word lengths within one letter of one, two and three chunks of the
# oracle's scans
_NEAR_CHUNKS = tuple(k * _CHUNK + d for k in (1, 2, 3) for d in (-1, 0, 1))


@st.composite
def _words_and_blocks(draw):
    """(w, u, v) over 1 to 3 letters.  Half the time v extends u, so the
    pair is not a prefix code; half the time w is a u/v product with a
    short tail, so parses run long.  About half the words end near a
    chunk boundary of the scans, and about a quarter of the pairs have
    blocks of one to two chunks."""
    letter = st.sampled_from(draw(st.sampled_from(_LETTERS))[:draw(st.integers(1, 3))])
    if draw(st.booleans()) and draw(st.booleans()):
        block = st.lists(letter, min_size=_CHUNK - 1, max_size=2 * _CHUNK + 1)
    else:
        block = st.lists(letter, min_size=1, max_size=4)
    u = tuple(draw(block))
    if draw(st.booleans()):
        v = u + tuple(draw(st.lists(letter, max_size=3)))
    else:
        v = tuple(draw(block))
    near = draw(st.sampled_from(_NEAR_CHUNKS)) if draw(st.booleans()) else None
    if draw(st.booleans()):
        picks = draw(st.lists(st.booleans(), min_size=1, max_size=16))
        w = sum(((v if b else u) for b in picks), ())
        if near:
            w = (w * (near // len(w) + 1))[:near]
        else:
            w += tuple(draw(st.lists(letter, max_size=3)))
    else:
        w = tuple(draw(st.lists(letter, min_size=near or 0, max_size=near or 40)))
    return w, u, v


@settings(max_examples=300, deadline=None, database=None)
@given(_words_and_blocks(), st.integers(-1, 1))
def test_chunked_scans_match_slice_loops(wuv, off):
    w, u, v = wuv
    reach = ref_parse_reach(w, u, v)
    assert parse_reach(w, u, v) == reach
    assert dp_factorize(w, u, v) == ref_dp_factorize(w, u, v)
    assert dp_factorize(w[:reach[-1]], u, v) == ref_dp_factorize(w[:reach[-1]], u, v)
    min_cut = max(reach[-1] + off, 0)
    assert certified_cut(w, u, v, min_cut) == (reach[-1] if off <= 0 else None)
    assert parse_reach(w[:0], u, v) == [0] and dp_factorize(w[:0], u, v) == [0]
    # an empty block never occurs
    for a, b in ((u, ()), ((), v), ((), ())):
        assert parse_reach(w, a, b) == ref_parse_reach(w, a, b)
        assert in_pair_star(w, a, b) == (ref_parse_reach(w, a, b)[-1] == len(w))


@settings(max_examples=150, deadline=None, database=None)
@given(_words_and_blocks(), st.integers(0, 6), st.one_of(st.none(), st.integers(0, 4)))
def test_search_pairs_matches_slice_loop(wuv, max_total, limit):
    w = wuv[0]
    want = sorted(ref_tiling_pairs(w, max_total), key=lambda p: (len(p[0]) + len(p[1]), p))
    assert search_pairs(w, max_total, limit=limit) == want[:limit]


def test_word_checks_past_one_byte_of_letters():
    """Words with 300 distinct letters, ten of them 2**70 or larger, so
    the letter ranks take two bytes: a letter ranked 256 + r must not be
    taken for the one ranked r."""
    rng = random.Random(257)
    letters = list(range(290)) + [2 ** 70 + i for i in range(10)]
    rng.shuffle(letters)
    u, v = tuple(letters[:150]), tuple(letters[150:])
    w = sum((u if rng.random() < 0.5 else v for _ in range(8)), ()) + v[:40]
    assert len(set(w)) == 300
    for a, b in ((u, v), (v, u), (u[:70], u[70:]), (v[:1], w[:3]), (u, (2 ** 80,))):
        reach = ref_parse_reach(w, a, b)
        assert parse_reach(w, a, b) == reach
        assert dp_factorize(w, a, b) == ref_dp_factorize(w, a, b)
        assert dp_factorize(w[:reach[-1]], a, b) == ref_dp_factorize(w[:reach[-1]], a, b)
        for min_cut in (0, reach[-1], reach[-1] + 1):
            assert certified_cut(w, a, b, min_cut) == (reach[-1] if reach[-1] >= min_cut else None)
    shuffled = tuple(rng.sample(w, len(w)))
    for x in (w[:700], shuffled[:700]):
        assert search_pairs(x, 5) == list(ref_tiling_pairs(x, 5))
        assert appearance_values(x, 12) == [brute_appearance_value(x, n) for n in range(1, 13)]


@st.composite
def _dfaos(draw):
    """A Dfao whose letters start at 0 or at 2**70.  Half of them have
    1 to 6 states with random moves, so at most 256 canonical states
    (prefix_states' byte gather); the rest have p = 257 or 263 states,
    delta(r, d) = (k r + d) mod p and pairwise distinct outputs, so p
    canonical states (its list gather) and p letters."""
    k, base = draw(st.integers(2, 3)), draw(st.sampled_from((0, 2 ** 70)))
    if draw(st.booleans()):
        n = draw(st.integers(1, 6))
        delta = [[draw(st.integers(0, n - 1)) for _ in range(k)] for _ in range(n)]
        delta[0][0] = 0
        outputs = [base + draw(st.integers(0, 3)) for _ in range(n)]
    else:
        n = draw(st.sampled_from((257, 263)))
        delta = [[(k * r + d) % n for d in range(k)] for r in range(n)]
        outputs = list(range(base, base + n))
        random.Random(draw(st.integers(0, 2 ** 32))).shuffle(outputs)
    m = Dfao(k, tuple(sorted(set(outputs))), tuple(outputs), tuple(map(tuple, delta)), 0)
    assert m.canonical().num_states == n or n <= 6
    return m


@settings(max_examples=60, deadline=None, database=None)
@given(_dfaos(), st.integers(0, 700), st.data())
def test_rank_prefix_is_the_prefix_and_certifies_as_the_tuple(m, n, data):
    text, code = rank_prefix(m, n)
    letters = list(code)
    assert letters == sorted(set(m.canonical().outputs))
    assert [letters[ord(c)] for c in text] == ref_prefix(m, n) == m.prefix(n)
    # blocks cut from the prefix, so that parses run long
    head = ref_prefix(m, 64)
    i, j = data.draw(st.integers(0, 63)), data.draw(st.integers(0, 63))
    u = tuple(head[i:i + data.draw(st.integers(1, 4))])
    v = tuple(head[j:j + data.draw(st.integers(1, 4))])
    min_prefix = data.draw(st.integers(0, 300))
    want = certified_cut(tuple(ref_prefix(m, min_prefix + max(len(u), len(v)))), u, v, min_prefix)
    assert validate_explicit_pair(m, u, v, min_prefix) == want
    # a letter the prefix lacks, in both blocks, parses nothing
    absent = max(letters) + 1
    assert validate_explicit_pair(m, u + (absent,), (absent,) + v, max(min_prefix, 1)) is None


def test_search_pairs_thue_morse():
    w = FIXTURE_ORACLES["thue-morse"](2 ** 10)
    out = search_pairs(w, 4)
    assert ((0,), (1,)) in out
    assert ((0, 1), (1, 0)) in out
    for u, v in out:
        assert tuple(w[: len(u)]) == u and u != v


def test_search_pairs_mod3():
    w = FIXTURE_ORACLES["mod3"](384)
    out = search_pairs(w, 4)
    assert ((0,), (1, 2)) in out
    assert all(u != v for u, v in out)
    # two single letters cannot cover three distinct ones
    assert search_pairs(w, 2) == []
    assert search_pairs(w, 1) == []


def test_search_pairs_ternary_fixture_first_hit():
    w = FIXTURE_ORACLES["ternary-tm"](2 ** 10)
    out = search_pairs(w, 4)
    assert out and out[0] == ((0, 1), (2, 0))


def test_brute_appearance_values():
    assert brute_appearance((0,) * 64, 5) == 5
    assert brute_appearance((0,) * 64, 0) == 0
    tm = FIXTURE_ORACLES["thue-morse"](2 ** 12)
    for n in range(1, 9):
        assert brute_appearance(tm, n) == brute_appearance_value(tm, n)
    with pytest.raises(ValueError):
        brute_appearance((1, 2), 3)
    assert brute_appearance((1, 2, 3), 3) == 3


@pytest.mark.parametrize("name", sorted(FIXTURE_ORACLES))
def test_appearance_values_match_factor_sets(name):
    # the one pass over the factors against the tuple sets of each length
    pref = FIXTURE_ORACLES[name](2 ** 11)
    assert appearance_values(pref, 24) == [brute_appearance_value(pref, n) for n in range(1, 25)]
    assert appearance_values(pref[:5], 5) == [brute_appearance_value(pref[:5], n) for n in range(1, 6)]
    assert appearance_values((), 0) == []


def test_brute_max_exponent_on_thue_morse():
    tm = FIXTURE_ORACLES["thue-morse"](2 ** 16)
    assert brute_max_run_exponent(tm, (0,)) == Fraction(2)
    assert brute_max_run_exponent(tm, (9,)) is None
    # scans lower-bound the automaton answer and match it once the
    # prefix is long enough
    for z in ((0, 1, 1, 0), (0, 1), (1, 0, 0), (0, 1, 1, 0, 1, 0, 0, 1)):
        assert brute_max_run_exponent(tm, z) == max_exponent(TM, z)


def test_minimal_pairs_frozen():
    assert minimal_pairs((0, 1), 4) == [((0,), (1,)), ((1,), (0,))]
    ternary = minimal_pairs((0, 1, 2), 4)
    assert len(ternary) == 90
    assert ((0, 1), (2, 0)) in ternary
    assert ((0, 0), (1, 2)) not in ternary
    assert is_minimal_pair((0,), (1, 2, 0, 1))
    assert not is_minimal_pair((0, 1), (0, 1))
    assert not is_minimal_pair((0,), (0, 0))
    assert not is_minimal_pair((0, 1, 0, 1), (0, 1))


def test_in_pair_star():
    assert in_pair_star((0, 1, 1, 0), (0, 1), (1, 0))
    assert not in_pair_star((0, 1, 1), (0, 1), (1, 0))
    assert in_pair_star((), (0, 1), (1, 0))
    assert in_pair_star((0, 0, 0), (0,), ())
    assert not in_pair_star((1,), (0,), ())


def test_factor_of_pair_omega():
    # straddles a block boundary: 1001 sits inside 01.10.01
    assert factor_of_pair_omega((1, 0, 0, 1), (0, 1), (1, 0))
    assert not factor_of_pair_omega((2,), (0, 1), (1, 0))
    assert not factor_of_pair_omega((1, 1, 1), (0, 1), (2, 0))
    assert factor_of_pair_omega(FIXTURE_ORACLES["ternary-tm"](64), (0, 1), (2, 0))


def test_factor_of_pair_omega_accepts_product_windows():
    rng = random.Random(7321)
    for _ in range(200):
        u = random_word(rng, (0, 1, 2), 1, 3)
        v = random_word(rng, (0, 1, 2), 1, 3)
        w = sum(((u, v)[rng.randint(0, 1)] for _ in range(8)), ())
        a = rng.randint(0, len(w) - 1)
        b = rng.randint(a + 1, len(w))
        assert factor_of_pair_omega(w[a:b], u, v), (u, v, a, b)


def test_comb_search_finds_nothing():
    """Empty over two letters (no qualifying z exists for the single
    minimal pair) and, substantively, over three letters."""
    assert search_comb_counterexample(4, 14) is None
    assert search_comb_counterexample(4, 14, alphabet=(0, 1, 2)) is None


def test_depsilon_search_finds_nothing_over_two_letters():
    # the only binary minimal pair is a pair of single letters, so no
    # nonempty d passes the length filter; the run must still be clean
    assert search_depsilon_counterexample(5, 6) is None


def test_depsilon_search_three_letter_witness_replays():
    """Over three letters the overhang search does find a qualifying
    instance; freeze it and replay every filter condition plus the
    equation itself so the boundary of the expected-empty claim stays
    visible."""
    hit = search_depsilon_counterexample(5, 6, alphabet=(0, 1, 2))
    assert hit == ((0,), (1, 2, 0, 1), (0, 1, 2), (0, 1))
    u, v, d, wp = hit
    assert is_minimal_pair(u, v)
    assert 0 < len(d) < max(len(u), len(v))
    assert d[len(d) - len(u):] != u  # d does not end with u
    assert wp[0] == 0 and 1 in wp

    def sigma(w):
        return tuple(c for bit in w for c in (u, v)[bit])

    # with w = w' = (u-block, v-block): d . sigma(w) = sigma(w') . d'
    lhs = d + sigma((0, 1))
    assert lhs[: len(sigma(wp))] == sigma(wp)
    assert lhs[len(sigma(wp)):] == (2, 0, 1)

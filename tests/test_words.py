import random

from fractions import Fraction

import pytest

from ranktwo.words import (
    ConjugationSolution,
    Pair,
    Single,
    commutes,
    exponent,
    free_reduce,
    period,
    primitive_root,
    solve_conjugation,
    word,
)

from oracles import (
    brute_period,
    brute_primitive_root,
    generating_pairs_below,
    is_prefix_code_pair,
    random_word,
    regex_member,
)


def letters(s):
    """Map a lowercase-letter string to a word, a=0, b=1, ..."""
    return tuple(ord(c) - ord("a") for c in s)


def test_period_examples():
    assert period(letters("entente")) == 3
    assert period(letters("abcab")) == 3
    assert period(letters("aaaa")) == 1
    assert period(letters("ab")) == 2


def test_exponent_examples():
    assert exponent(letters("abcab")) == Fraction(5, 3)
    assert exponent(letters("abab")) == 2
    assert exponent(letters("a")) == 1


def test_primitive_root_examples():
    assert primitive_root(letters("ababab")) == (letters("ab"), 3)
    assert primitive_root(letters("aba")) == (letters("aba"), 1)
    assert primitive_root(letters("aa")) == (letters("a"), 2)


def test_period_empty_rejected():
    with pytest.raises(ValueError):
        period(())


def test_period_random_against_brute():
    rng = random.Random(11)
    for trial in range(2000):
        w = random_word(rng, (0, 1, 2), 1, 24)
        assert period(w) == brute_period(w), f"seed 11 trial {trial}: {w}"


def test_primitive_root_random_against_brute():
    rng = random.Random(12)
    for trial in range(2000):
        w = random_word(rng, (0, 1), 1, 24)
        root, e = primitive_root(w)
        assert (root, e) == brute_primitive_root(w), f"seed 12 trial {trial}: {w}"
        assert root * e == w


def test_solve_conjugation_examples():
    sol = solve_conjugation(letters("ab"), letters("ababa"))
    assert sol == ConjugationSolution(r=letters("a"), s=letters("b"), alpha=2)
    assert sol.c == letters("ba")

    sol = solve_conjugation(letters("a"), letters("aaa"))
    assert sol == ConjugationSolution(r=(), s=letters("a"), alpha=3)

    assert solve_conjugation(letters("b"), letters("a")) is None


def test_solve_conjugation_random_identities():
    rng = random.Random(13)
    for trial in range(2000):
        d = random_word(rng, (0, 1), 1, 8)
        u = random_word(rng, (0, 1), 0, 16)
        sol = solve_conjugation(d, u)
        du = d + u
        if sol is None:
            # unsolvable exactly when u is not a prefix of d u
            assert du[: len(u)] != u, f"seed 13 trial {trial}: {d} {u}"
        else:
            assert sol.r + sol.s == d
            assert (d * sol.alpha) + sol.r == u
            assert du == u + sol.c, f"seed 13 trial {trial}: {d} {u}"


def test_free_reduce_examples():
    assert free_reduce(letters("ab"), letters("abab")) == Single(letters("ab"))
    assert free_reduce(letters("aba"), letters("ab")) == Pair(letters("a"), letters("b"))
    assert free_reduce(letters("a"), letters("ab")) == Pair(letters("a"), letters("b"))


def test_free_reduce_beats_plain_stripping():
    # (0, 11) is stable under prefix stripping but still reducible.
    assert free_reduce((0,), (1, 1)) == Pair((0,), (1,))


def test_free_reduce_ternary_minimal_pairs():
    assert free_reduce((0, 1), (2, 0)) == Pair((0, 1), (2, 0))
    assert free_reduce((0,), (1, 2)) == Pair((0,), (1, 2))
    assert free_reduce((0, 1, 2), (0, 1)) == Pair((2,), (0, 1))


def test_free_reduce_random_minimality():
    rng = random.Random(14)
    for trial in range(300):
        # keep ternary inputs short: the oracle enumerates every candidate
        # pair below the reported total, which grows as 3^total
        alphabet, top = ((0, 1), 6) if trial % 2 == 0 else ((0, 1, 2), 3)
        u = random_word(rng, alphabet, 1, top)
        v = random_word(rng, alphabet, 1, top)
        red = free_reduce(u, v)
        if isinstance(red, Single):
            assert commutes(u, v)
            root, _ = brute_primitive_root(u + v)
            assert red.root == root
            continue
        a, b = red.a, red.b
        assert regex_member(u, a, b) and regex_member(v, a, b)
        assert is_prefix_code_pair(a, b)
        smaller = generating_pairs_below(u, v, len(a) + len(b), alphabet)
        assert smaller == [], f"seed 14 trial {trial}: {u} {v} -> {red}, smaller {smaller}"


def test_is_prefix_code_pair():
    assert is_prefix_code_pair((0, 1), (2, 0))
    assert is_prefix_code_pair((0, 0), (0, 1))
    assert not is_prefix_code_pair((0,), (0, 1))
    assert not is_prefix_code_pair((0, 1), (0,))
    assert not is_prefix_code_pair((0, 1), (0, 1))

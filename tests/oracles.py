"""Independent brute-force oracles shared by the test modules.

Everything here is deliberately written against the definitions, not
against the library internals: periods by direct scanning, monoid
membership by regex, factorizations by explicit dynamic programming.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction


def brute_period(w):
    n = len(w)
    for p in range(1, n + 1):
        if all(w[i] == w[i + p] for i in range(n - p)):
            return p
    raise AssertionError("unreachable")


def brute_primitive_root(w):
    n = len(w)
    for d in range(1, n + 1):
        if n % d == 0 and tuple(w[:d]) * (n // d) == tuple(w):
            return tuple(w[:d]), n // d
    raise AssertionError("unreachable")


def regex_member(w, a, b):
    """w in {a, b}* decided by the re module."""
    to_str = lambda t: "".join(str(c) for c in t)
    pat = "(?:%s|%s)*" % (re.escape(to_str(a)), re.escape(to_str(b)))
    return re.fullmatch(pat, to_str(w)) is not None


def all_words(alphabet, length):
    if length == 0:
        yield ()
        return
    for rest in all_words(alphabet, length - 1):
        for c in alphabet:
            yield (c,) + rest


def generating_pairs_below(u, v, total, alphabet):
    """All pairs (a, b) with |a|+|b| < total and u, v in {a, b}*."""
    found = []
    for t in range(2, total):
        for la in range(1, t):
            lb = t - la
            for a in all_words(alphabet, la):
                for b in all_words(alphabet, lb):
                    if a >= b:
                        continue
                    if regex_member(u, a, b) and regex_member(v, a, b):
                        found.append((a, b))
    return found


def random_word(rng: random.Random, alphabet, min_len, max_len):
    n = rng.randint(min_len, max_len)
    return tuple(rng.choice(alphabet) for _ in range(n))


def brute_max_run_exponent(prefix, z):
    """Largest exponent of a z-power occurring in the prefix, as a Fraction.

    Returns None if z does not occur at all.  Runs reaching the end of the
    prefix are counted with the length seen, so the value is a lower bound
    for the true sequence; tests pick prefixes long enough for exactness.
    """
    z = tuple(z)
    n, m = len(prefix), len(z)
    best = None
    for i in range(n - m + 1):
        if tuple(prefix[i : i + m]) != z:
            continue
        j = i + m
        while j < n and prefix[j] == prefix[j - m]:
            j += 1
        e = Fraction(j - i, m)
        if best is None or e > best:
            best = e
    return best


def brute_appearance_value(prefix, n):
    """Least m such that every length-n factor of the prefix lies inside
    the first m positions (first start + n, maximised over factors)."""
    seen = {}
    for i in range(len(prefix) - n + 1):
        f = tuple(prefix[i : i + n])
        if f not in seen:
            seen[f] = i
    if not seen:
        return 0
    return max(i + n for i in seen.values())


# ---------------------------------------------------------------------------
# independent generators for the bundled sequences

def tm_value(n):
    return bin(n).count("1") % 2


def mod3_value(n):
    return n % 3


def pow2_value(n):
    return 1 if n > 0 and n & (n - 1) == 0 else 0


def ternary_tm_prefix(n):
    """Prefix of the fixed point of 0 -> 01, 1 -> 20, 2 -> 20 from 0."""
    images = {0: (0, 1), 1: (2, 0), 2: (2, 0)}
    s = [0]
    while len(s) < n:
        s = [c for a in s for c in images[a]]
    return s[:n]


FIXTURE_ORACLES = {
    "thue-morse": lambda n: [tm_value(i) for i in range(n)],
    "mod3": lambda n: [mod3_value(i) for i in range(n)],
    "pow2-char": lambda n: [pow2_value(i) for i in range(n)],
    "ternary-tm": ternary_tm_prefix,
}


# ---------------------------------------------------------------------------
# brute-force first-order evaluation over a materialised prefix

def eval_term(t, env):
    from ranktwo import logic as L

    if isinstance(t, L.Var):
        return env[t.name]
    if isinstance(t, L.Const):
        return t.value
    if isinstance(t, L.Sum):
        return eval_term(t.left, env) + eval_term(t.right, env)
    if isinstance(t, L.ConstMul):
        return t.c * eval_term(t.arg, env)
    raise TypeError(t)


def eval_formula(f, env, prefix, bound):
    """Evaluate with quantifiers restricted to range(bound).

    Agrees with the automaton semantics whenever every relevant witness
    and every sequence access stays below the given bounds.
    """
    from ranktwo import logic as L

    def rec(f, env):
        if isinstance(f, L.Cmp):
            a, b = eval_term(f.left, env), eval_term(f.right, env)
            return {L.CmpOp.EQ: a == b, L.CmpOp.LE: a <= b, L.CmpOp.LT: a < b}[f.op]
        if isinstance(f, L.SeqAt):
            return prefix[eval_term(f.index, env)] == f.symbol
        if isinstance(f, L.SeqEq):
            return prefix[eval_term(f.left, env)] == prefix[eval_term(f.right, env)]
        if isinstance(f, L.Not):
            return not rec(f.body, env)
        if isinstance(f, L.And):
            return all(rec(p, env) for p in f.parts)
        if isinstance(f, L.Or):
            return any(rec(p, env) for p in f.parts)
        if isinstance(f, L.Implies):
            return (not rec(f.left, env)) or rec(f.right, env)
        if isinstance(f, L.Exists):
            return any(rec(f.body, {**env, f.var: v}) for v in range(bound))
        if isinstance(f, L.Forall):
            return all(rec(f.body, {**env, f.var: v}) for v in range(bound))
        raise TypeError(f)

    return rec(f, env)


# ---------------------------------------------------------------------------
# reference automaton constructions: plain dicts, tuples and frozensets

def ref_minimize(delta, labels, initial):
    """Moore refinement keyed by signature tuples, then the quotient.

    Returns (reps, new_delta) as the library's minimizer does: classes
    numbered breadth-first from the class of initial, reps[i] the least
    state of class i, new_delta[i] the classes of its successors.
    """
    cls = list(labels)
    while True:
        sigs = {}
        new = [
            sigs.setdefault((cls[q],) + tuple(cls[t] for t in row), len(sigs))
            for q, row in enumerate(delta)
        ]
        if len(sigs) == len(set(cls)):
            break
        cls = new
    rep = {}
    for q, c in enumerate(cls):
        rep.setdefault(c, q)
    ids = {cls[initial]: 0}
    order = [cls[initial]]
    new_delta = []
    for c in order:
        row = []
        for t in delta[rep[c]]:
            if cls[t] not in ids:
                ids[cls[t]] = len(order)
                order.append(cls[t])
            row.append(ids[cls[t]])
        new_delta.append(tuple(row))
    return [rep[c] for c in order], tuple(new_delta)


def ref_canonical_dfa(delta, accepting, initial):
    """(delta, accepting) of the minimal breadth-first-numbered recogniser."""
    reps, new_delta = ref_minimize(delta, [bool(a) for a in accepting], initial)
    return new_delta, tuple(bool(accepting[q]) for q in reps)


def ref_subsets(k, tracks, pos, delta, accepting, initial, limit):
    """Subset construction for dropping track pos, letters as base-k digit
    columns with track 0 most significant.

    One successor set per (state, reduced letter) is precomputed; a
    subset's successor on a letter is the union of its members' sets.
    The start set is saturated under the all-zero reduced letter.
    Returns (delta, accepting) of the raw subset automaton, numbered
    breadth-first, or None when it has more than limit subsets.
    """
    n_reduced = k ** (tracks - 1)
    nfa = [[set() for _ in range(n_reduced)] for _ in delta]
    for q, row in enumerate(delta):
        for letter, t in enumerate(row):
            digits = [(letter // k ** (tracks - 1 - i)) % k for i in range(tracks)]
            del digits[pos]
            reduced = 0
            for d in digits:
                reduced = reduced * k + d
            nfa[q][reduced].add(t)
    start = {initial}
    while True:
        grown = start.union(*(nfa[q][0] for q in start))
        if grown == start:
            break
        start = grown
    start = frozenset(start)
    ids = {start: 0}
    order = [start]
    out = []
    for subset in order:
        row = []
        for letter in range(n_reduced):
            t = frozenset().union(*(nfa[q][letter] for q in subset))
            if t not in ids:
                ids[t] = len(order)
                order.append(t)
                if len(order) > limit:
                    return None
            row.append(ids[t])
        out.append(row)
    return out, [any(accepting[q] for q in s) for s in order]

"""Combinatorics on finite words.

Words are tuples of small non-negative integers.  The helpers here are the
ground layer for the rank decision procedure: periods, primitive roots,
conjugation equations, reduction of a word pair to a minimal generating
pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

from .oracle import in_pair_star

Word = tuple[int, ...]

WordLike = Union[str, Iterable[int]]


def word(w: WordLike) -> Word:
    """Coerce a digit string or an int iterable to a Word tuple."""
    return tuple(int(c) for c in w)


def period(w: WordLike) -> int:
    """Smallest p >= 1 with w[i] == w[i+p] for all valid i.

    Computed from the border (failure-function) table: the minimal period
    of w is len(w) minus the length of its longest proper border.
    """
    w = word(w)
    n = len(w)
    if n == 0:
        raise ValueError("period of the empty word is undefined")
    border = [0] * (n + 1)
    border[0] = -1
    b = -1
    for i in range(n):
        while b >= 0 and w[b] != w[i]:
            b = border[b]
        b += 1
        border[i + 1] = b
    return n - border[n]


def exponent(w: WordLike) -> Fraction:
    """len(w) / period(w) as an exact fraction."""
    w = word(w)
    return Fraction(len(w), period(w))


def primitive_root(w: WordLike) -> tuple[Word, int]:
    """Return (t, e) with w == t^e, t primitive and e maximal."""
    w = word(w)
    n = len(w)
    p = period(w)
    if p < n and n % p == 0:
        return w[:p], n // p
    return w, 1


def commutes(u: WordLike, v: WordLike) -> bool:
    """True iff uv == vu, i.e. u and v are powers of a common word."""
    u, v = word(u), word(v)
    return u + v == v + u


@dataclass(frozen=True)
class ConjugationSolution:
    """Solution of d u = u c: d = rs, c = sr, u = (rs)^alpha r."""

    r: Word
    s: Word
    alpha: int

    @property
    def c(self) -> Word:
        return self.s + self.r


def solve_conjugation(d: WordLike, u: WordLike) -> Optional[ConjugationSolution]:
    """Solve d u = u c for c, if possible.

    The equation is solvable iff u is a prefix of d u, which forces
    u = d^alpha d[:rho] for alpha = len(u) // len(d), rho = len(u) % len(d).
    The returned split d = r s has maximal alpha (r as short as possible);
    r may be empty.
    """
    d, u = word(d), word(u)
    if not d:
        raise ValueError("d must be nonempty")
    alpha, rho = divmod(len(u), len(d))
    if d * alpha + d[:rho] != u:
        return None
    return ConjugationSolution(r=d[:rho], s=d[rho:], alpha=alpha)


@dataclass(frozen=True)
class Single:
    """Reduction outcome for a commuting pair: both are powers of root."""

    root: Word


@dataclass(frozen=True)
class Pair:
    """A minimal generating pair; neither word is a prefix of the other."""

    a: Word
    b: Word


FreeReduction = Union[Single, Pair]


def _strip_to_fixed_point(u: Word, v: Word) -> tuple[Word, Word]:
    # While one word is a prefix of the other, replace the longer word by
    # its remainder.  Total length strictly decreases, so this terminates.
    while True:
        if len(u) > len(v):
            u, v = v, u
        if not u or v[: len(u)] != u:
            return u, v
        v = v[len(u) :]


def free_reduce(u: WordLike, v: WordLike) -> FreeReduction:
    """Reduce {u, v} to a minimal generating set.

    If u and v commute the result is Single(t) with t their common
    primitive root.  Otherwise the result is Pair(a, b) such that u and v
    are concatenations of a and b, neither of a, b is a prefix of the
    other, and |a| + |b| is minimal among all generating pairs.

    Prefix stripping alone does not always reach the minimum (for example
    (0, 11) is stripping-stable but is generated by (0, 1)), so after
    stripping we search candidate pairs in order of total length.  The
    search is complete: in any generating pair one word starts u or v, and
    both words occur as factors of u or v.
    """
    u, v = word(u), word(v)
    if not u or not v:
        raise ValueError("free_reduce requires nonempty words")
    if commutes(u, v):
        return Single(primitive_root(u + v)[0])
    u, v = _strip_to_fixed_point(u, v)

    prefixes = {u[:i] for i in range(1, len(u) + 1)}
    prefixes |= {v[:i] for i in range(1, len(v) + 1)}
    factors = set()
    for w in (u, v):
        for i in range(len(w)):
            for j in range(i + 1, len(w) + 1):
                factors.add(w[i:j])
    key = lambda w: (len(w), w)
    prefix_list = sorted(prefixes, key=key)
    factor_list = sorted(factors, key=key)

    best: Optional[tuple[Word, Word]] = None
    best_total = len(u) + len(v) + 1
    for a in prefix_list:
        if len(a) + 1 >= best_total:
            break
        for b in factor_list:
            if len(a) + len(b) >= best_total:
                break
            if a == b or a[: len(b)] == b or b[: len(a)] == a:
                continue
            if in_pair_star(u, a, b) and in_pair_star(v, a, b):
                cand = tuple(sorted((a, b), key=key))
                total = len(a) + len(b)
                if total < best_total or (total == best_total and cand < best):
                    best, best_total = cand, total
    if best is None:
        best = tuple(sorted((u, v), key=key))
    return Pair(*best)

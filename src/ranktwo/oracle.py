"""Brute-force reference computations on materialised prefixes.

Everything in this module works on concrete finite words and makes no
use of the formula engine, so its answers can be compared against the
automaton-based ones.  The counterexample searches at the bottom look
for violations of the combinatorial facts the rank decision relies on;
they are expected to come back empty.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import islice, product
from typing import Optional

from .automata import Dfao


class PrefixView:
    """A growable window onto the letters of a sequence."""

    def __init__(self, seq: Dfao, initial: int = 1024):
        self._seq = seq
        self._buf = seq.prefix(max(1, initial))

    def take(self, n: int) -> tuple[int, ...]:
        if n > len(self._buf):
            self._buf = self._seq.prefix(max(n, 2 * len(self._buf)))
        return tuple(self._buf[:n])

    def __getitem__(self, i: int) -> int:
        if i >= len(self._buf):
            self.take(i + 1)
        return self._buf[i]


def _feasible_suffixes(word, u, v) -> list[bool]:
    """feasible[i] is true when word[i:] splits into u/v blocks exactly."""
    n = len(word)
    lu, lv = len(u), len(v)
    feasible = [False] * (n + 1)
    feasible[n] = True
    for i in range(n - 1, -1, -1):
        if i + lu <= n and feasible[i + lu] and word[i:i + lu] == u:
            feasible[i] = True
        elif i + lv <= n and feasible[i + lv] and word[i:i + lv] == v:
            feasible[i] = True
    return feasible


def dp_factorize(word, u, v) -> Optional[list[int]]:
    """Cut positions of a factorization of word into u and v blocks.

    Returns [0, ..., len(word)] or None when no factorization exists.
    Among all factorizations this picks the one preferring a u block at
    every cut, scanning left to right.
    """
    word, u, v = tuple(word), tuple(u), tuple(v)
    if not u or not v:
        raise ValueError("blocks must be nonempty")
    feasible = _feasible_suffixes(word, u, v)
    if not feasible[0]:
        return None
    cuts = [0]
    i = 0
    n = len(word)
    while i < n:
        if word[i:i + len(u)] == u and feasible[i + len(u)]:
            i += len(u)
        else:
            i += len(v)
        cuts.append(i)
    return cuts


def parse_reach(word, u, v) -> list[int]:
    """All cut positions reachable by u/v block parses from the left."""
    word, u, v = tuple(word), tuple(u), tuple(v)
    n = len(word)
    reach = [False] * (n + 1)
    reach[0] = True
    for i in range(n):
        if not reach[i]:
            continue
        for b in (u, v):
            if b and word[i:i + len(b)] == b:
                reach[i + len(b)] = True
    return [i for i in range(n + 1) if reach[i]]


def search_pairs(word, max_total: int, limit: Optional[int] = None) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Candidate block pairs (u, v) that tile the given finite word.

    u ranges over nonempty prefixes of the word and v over its factors,
    with |u| + |v| <= max_total and u != v.  A pair qualifies when block
    parses reach a cut whose residual is shorter than the longer block
    and is a prefix of one of the blocks, so the word could be a prefix
    of an infinite u/v product.  The search stops after limit pairs, if
    given; the pairs found come out sorted by total length.
    """
    if limit is not None and limit < 0:
        raise ValueError("pair limits are naturals")
    found = islice(_tiling_pairs(tuple(word), max_total), limit)
    return sorted(found, key=lambda p: (len(p[0]) + len(p[1]), p))


def _tiling_pairs(word, max_total: int):
    n = len(word)
    factors = set()
    for ln in range(1, max_total):
        for s in range(n - ln + 1):
            factors.add(word[s:s + ln])
    for lu in range(1, min(max_total, n + 1)):
        u = word[:lu]
        for v in sorted(f for f in factors if len(f) <= max_total - lu):
            if v == u:
                continue
            best = parse_reach(word, u, v)[-1]
            rest = word[best:]
            if len(rest) < max(len(u), len(v)) and (
                rest == u[:len(rest)] or rest == v[:len(rest)]
            ):
                yield u, v


def brute_appearance(word, n: int) -> int:
    """Least m such that every length-n factor of word starts before m - n."""
    if n < 0:
        raise ValueError("factor lengths are naturals")
    if n == 0:
        return 0
    word = tuple(word)
    facs = {word[s:s + n] for s in range(len(word) - n + 1)}
    seen = set()
    for j in range(len(word) - n + 1):
        seen.add(word[j:j + n])
        if seen >= facs:
            return j + n
    raise ValueError("word too short to cover its own factors")


def brute_max_exponent(word, z) -> Optional[Fraction]:
    """Largest (t/|z|) over periodic windows in word starting with z.

    None when z does not occur.  This scans a finite word, so it lower
    bounds the true exponent of z in the infinite sequence.
    """
    word, z = tuple(word), tuple(z)
    r = len(z)
    if r == 0:
        raise ValueError("the empty word has no exponent")
    best = None
    for j in range(len(word) - r + 1):
        if word[j:j + r] != z:
            continue
        t = r
        while j + t < len(word) and word[j + t] == word[j + t - r]:
            t += 1
        e = Fraction(t, r)
        if best is None or e > best:
            best = e
    return best


# ---------------------------------------------------------------------------
# combinatorial counterexample searches

def in_pair_star(word, a, b) -> bool:
    """word splits exactly into a/b blocks (empty blocks are ignored)."""
    return parse_reach(word, a, b)[-1] == len(word)


def is_minimal_pair(u, v) -> bool:
    """No generating pair (a, b) with |a| + |b| < |u| + |v| exists.

    b may be empty, so commuting pairs are never minimal.  Both words
    must be nonempty and distinct.
    """
    u, v = tuple(u), tuple(v)
    if not u or not v or u == v:
        return False
    letters = sorted(set(u) | set(v))
    total = len(u) + len(v)
    for la in range(1, total):
        for a in product(letters, repeat=la):
            if in_pair_star(u, a, ()) and in_pair_star(v, a, ()):
                return False
            for lb in range(la, total - la):
                for b in product(letters, repeat=lb):
                    if in_pair_star(u, a, b) and in_pair_star(v, a, b):
                        return False
    return True


def minimal_pairs(alphabet, max_total: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All ordered minimal pairs over the alphabet with |u|+|v| <= max_total."""
    return list(_minimal_pairs_cached(tuple(sorted(set(alphabet))), max_total))


@lru_cache(maxsize=16)
def _minimal_pairs_cached(alphabet, max_total):
    words = []
    for ln in range(1, max_total):
        words.extend(product(alphabet, repeat=ln))
    out = []
    for u in words:
        for v in words:
            if len(u) + len(v) <= max_total and is_minimal_pair(u, v):
                out.append((u, v))
    return tuple(out)


def _omega_start_states(u, v) -> set[tuple[int, int]]:
    """(block, offset) pairs: 0 is inside u, 1 inside v."""
    states = set()
    for b, w in ((0, u), (1, v)):
        for off in range(len(w)):
            states.add((b, off))
    return states


def _omega_step(states, letter, u, v) -> set[tuple[int, int]]:
    words = (u, v)
    nxt = set()
    for b, off in states:
        w = words[b]
        if w[off] == letter:
            if off + 1 == len(w):
                nxt.add((0, 0))
                nxt.add((1, 0))
            else:
                nxt.add((b, off + 1))
    return nxt


def factor_of_pair_omega(t, u, v) -> bool:
    """Is t a factor of some one-sided infinite product of u and v?"""
    u, v, t = tuple(u), tuple(v), tuple(t)
    if not u or not v:
        raise ValueError("blocks must be nonempty")
    states = _omega_start_states(u, v)
    for a in t:
        states = _omega_step(states, a, u, v)
        if not states:
            return False
    return True


def search_comb_counterexample(
    max_pair_total: int = 4,
    max_w_len: int = 14,
    min_xy: int = 5,
    alphabet=(0, 1),
) -> Optional[tuple]:
    """Search for (u, v, w, z) violating the five-occurrence fact.

    For every ordered minimal pair over the alphabet, every block
    pattern w over {0, 1} (0 = u, 1 = v) of length <= max_w_len
    containing at least min_xy occurrences of the sub-pattern 01, and
    every word z of length max(|u|, |v|) starting with neither u nor v,
    the concatenation sigma(w) z should never be a factor of an
    infinite u/v product.  Returns the first violating tuple, or None.
    """
    for u, v in minimal_pairs(alphabet, max_pair_total):
        m = max(len(u), len(v))
        letters = sorted(set(u) | set(v))
        zs = [
            z
            for z in product(letters, repeat=m)
            if z[:len(u)] != u and z[:len(v)] != v
        ]
        if not zs:
            continue
        blocks = (u, v)
        found = None

        def dfs(states, w, xy_count):
            nonlocal found
            if found is not None:
                return
            if xy_count >= min_xy:
                for z in zs:
                    st = states
                    for a in z:
                        st = _omega_step(st, a, u, v)
                        if not st:
                            break
                    else:
                        found = (u, v, tuple(w), z)
                        return
            if len(w) >= max_w_len:
                return
            # remaining letters cannot produce enough 01 transitions
            remaining = max_w_len - len(w)
            if xy_count + (remaining + 1) // 2 < min_xy:
                return
            for bit in (0, 1):
                st = states
                for a in blocks[bit]:
                    st = _omega_step(st, a, u, v)
                    if not st:
                        break
                else:
                    w.append(bit)
                    dfs(st, w, xy_count + (1 if bit == 1 and w[-2:-1] == [0] else 0))
                    w.pop()

        dfs(_omega_start_states(u, v), [], 0)
        if found is not None:
            return found
    return None


def _sigma_prefix_extends(rest, u, v, max_blocks: int) -> bool:
    """Can rest be a prefix of sigma(w) for w starting with u-block,
    containing a v-block, of at most max_blocks blocks?"""

    def go(pos, blocks_used, saw_v, first):
        if blocks_used > max_blocks:
            return False
        if pos >= len(rest):
            # pad with a v block if none was used yet
            return saw_v or blocks_used < max_blocks
        options = ((0, u),) if first else ((0, u), (1, v))
        for bit, blk in options:
            piece = rest[pos:pos + len(blk)]
            if piece == blk[:len(piece)]:
                if go(pos + len(blk), blocks_used + 1, saw_v or bit == 1, False):
                    return True
        return False

    return go(0, 0, False, True)


def search_depsilon_counterexample(
    max_pair_total: int = 5,
    max_w_len: int = 6,
    alphabet=(0, 1),
) -> Optional[tuple]:
    """Search for (u, v, d, w') violating the unique-overhang fact.

    For a minimal pair over the alphabet and a nonempty word d shorter
    than the longer block and not ending in u, there should be no block
    patterns w, w' (both starting with a u-block and containing a
    v-block) with sigma(w') a prefix of d . sigma(w).  Returns the
    first violation.  Over two letters this comes back empty at the
    default bounds; over three letters it does not (see the tests for
    a replayable witness), so callers should treat an empty result as
    evidence at the searched bounds rather than a general fact.
    """
    for u, v in minimal_pairs(alphabet, max_pair_total):
        m = max(len(u), len(v))
        wprimes = []

        def gen(w, saw_v):
            if len(w) >= 1 and saw_v:
                wprimes.append(tuple(w))
            if len(w) >= max_w_len:
                return
            for bit in (0, 1):
                if not w and bit == 1:
                    continue
                w.append(bit)
                gen(w, saw_v or bit == 1)
                w.pop()

        gen([], False)
        for wp in wprimes:
            target = tuple(c for bit in wp for c in (u, v)[bit])
            # d must be a prefix of sigma(w'), shorter than the longer
            # block, nonempty, and not ending with u
            for dlen in range(1, min(m, len(target) + 1)):
                d = target[:dlen]
                if dlen >= len(u) and d[dlen - len(u):] == u:
                    continue
                rest = target[dlen:]
                if _sigma_prefix_extends(rest, u, v, max_w_len):
                    return (u, v, d, wp)
    return None

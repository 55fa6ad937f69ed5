"""Word computations on materialised prefixes.

Everything in this module works on concrete finite words and makes no
use of the formula engine, so its answers can be compared against the
automaton-based ones.  rank2_decide finds and certifies explicit pairs
here (Steps 0b to 0d): search_pairs proposes them, certified_cut finds
the furthest factorization cut and checks it with dp_factorize's DP.  These
run over block-occurrence sets, one int per block with bit i set where the
block starts at i, made once per word by C-speed byte-string and big-int
operations and read as one byte per cut by the scans.  The
counterexample searches at the bottom look for violations of the
combinatorial facts the rank decision relies on; they are expected to
come back empty.  Their block parser, parse_step, is also the one whose
subset construction rank.pair_omega_membership runs.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, islice, product
from typing import Optional

from .errors import RankTwoError


_ZEROS = b"0" * 256
_CUTS = bytes.maketrans(b"01", b"\0\1")


def _letter_sets(word, letters) -> dict:
    """Occurrence set of each given letter that occurs in word: an int
    with bit i set where word[i] is that letter.

    The word's letters are first relabelled to ranks, which keeps the
    sets exact for naturals of any size.  The ranks are written as
    base-256 digit planes, one byte string per digit (one string for up
    to 256 letters), last letter first so that int(..., 2) puts word[0]
    at bit 0; a letter's set is the AND over the planes of the positions
    holding its digit, each read off by one translate to "0"/"1".
    """
    index = {a: r for r, a in enumerate(set(word))}
    sets = {a: -1 for a in letters if a in index}
    for shift in range(0, max(len(index) - 1, 1).bit_length(), 8):
        digit = {a: r >> shift & 255 for a, r in index.items()}
        plane = bytes(map(digit.__getitem__, reversed(word)))
        for a in sets:
            d = digit[a]
            sets[a] &= int(b"0" + plane.translate(_ZEROS[:d] + b"1" + _ZEROS[d + 1:]), 2)
    return sets


def _cut_mask(occ: int, n: int) -> bytes:
    """The occurrence set occ as one byte per cut 0..n: byte i is bit i."""
    return format(occ, f"0{n + 1}b")[::-1].encode().translate(_CUTS)


def _masks(word, *blocks) -> list[bytes]:
    """Occurrence mask of each block in word, one byte per cut: the AND
    of its letters' sets, each shifted right by the letter's offset in
    the block.  An empty block never occurs."""
    sets = _letter_sets(word, {a for b in blocks for a in b})
    masks = []
    for b in blocks:
        occ = -1 if b else 0
        for j, a in enumerate(b):
            occ &= sets.get(a, 0) >> j
        masks.append(_cut_mask(occ, len(word)))
    return masks


def _reach(n: int, lu: int, mu: bytes, lv: int, mv: bytes) -> bytearray:
    """Byte i is 1 when the first i letters split into u/v blocks.

    The scan stops one block length past the furthest cut found, since
    no block can bridge that gap.
    """
    reach = bytearray(n + 1)
    reach[0] = 1
    last, span = 0, max(lu, lv)
    for i in range(n + 1):
        if reach[i]:
            last = i
            if mu[i]:
                reach[i + lu] = 1
            if mv[i]:
                reach[i + lv] = 1
        elif i - last >= span:
            break
    return reach


def _feasible_suffixes(n: int, lu: int, mu: bytes, lv: int, mv: bytes) -> bytearray:
    """Byte i is 1 when the letters from i to n split into u/v blocks
    exactly; the masks may run past n, but no block ending past n is taken."""
    feasible = bytearray(n + max(lu, lv) + 1)
    feasible[n] = 1
    for i in range(n - 1, -1, -1):
        if (mu[i] and feasible[i + lu]) or (mv[i] and feasible[i + lv]):
            feasible[i] = 1
    return feasible


def dp_factorize(word, u, v) -> Optional[list[int]]:
    """Cut positions of a factorization of word into u and v blocks.

    Returns [0, ..., len(word)] or None when no factorization exists.
    Among all factorizations this picks the one preferring a u block at
    every cut.  A backward pass over the blocks' occurrence masks marks
    the positions whose suffix factorizes; a greedy forward scan then
    takes a u block wherever the rest stays feasible.  The backward pass
    shares only the masks with parse_reach; certified_cut runs it alone.
    """
    word, u, v = tuple(word), tuple(u), tuple(v)
    if not u or not v:
        raise ValueError("blocks must be nonempty")
    n, lu, lv = len(word), len(u), len(v)
    mu, mv = _masks(word, u, v)
    feasible = _feasible_suffixes(n, lu, mu, lv, mv)
    if not feasible[0]:
        return None
    cuts = [0]
    i = 0
    while i < n:
        i += lu if mu[i] and feasible[i + lu] else lv
        cuts.append(i)
    return cuts


def parse_reach(word, u, v) -> list[int]:
    """All cut positions reachable by u/v block parses from the left,
    in ascending order; the last is the furthest cut.

    One forward scan over the blocks' occurrence masks, which stops
    once no block can reach past the furthest cut found.  Empty blocks
    are ignored.
    """
    word, u, v = tuple(word), tuple(u), tuple(v)
    mu, mv = _masks(word, u, v)
    reach = _reach(len(word), len(u), mu, len(v), mv)
    return list(compress(range(len(reach)), reach))


def certified_cut(word, u, v, min_cut: int) -> Optional[int]:
    """The furthest cut parse_reach finds, or None below min_cut, checked
    by dp_factorize's backward pass up to it on the same masks: a cut the
    DP cannot factorize raises RankTwoError."""
    mu, mv = _masks(word, u, v)
    best = _reach(len(word), len(u), mu, len(v), mv).rfind(1)
    if best < min_cut:
        return None
    if not _feasible_suffixes(best, len(u), mu, len(v), mv)[0]:
        raise RankTwoError(f"cut {best} of u = {list(u)}, v = {list(v)} fails the DP cross-check")
    return best


def search_pairs(word, max_total: int, limit: Optional[int] = None) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Candidate block pairs (u, v) that tile the given finite word.

    u ranges over nonempty prefixes of the word and v over its factors,
    with |u| + |v| <= max_total and u != v.  A pair qualifies when block
    parses reach a cut whose residual is shorter than the longer block
    and is a prefix of one of the blocks, so the word could be a prefix
    of an infinite u/v product.  Candidates are tried in (|u| + |v|, u,
    v) order, so the limit pairs kept, if limit is given, are the
    shortest; each distinct factor's occurrence mask is computed once
    and shared by every candidate.
    """
    if max_total < 0:
        raise ValueError("pair totals are naturals")
    if limit is not None and limit < 0:
        raise ValueError("pair limits are naturals")
    return list(islice(_tiling_pairs(tuple(word), max_total), limit))


def _factors(word, max_len: int):
    """For ln = 1..max_len, the distinct length-ln factors of word in
    lexicographic order, each with its occurrence set.

    A length-(ln + 1) factor extends a length-ln one by a letter, and its
    set is the parent's AND the letter's set shifted right by ln, so
    extending each factor by each letter in order keeps the order.
    """
    sets = _letter_sets(word, set(word))
    letters = sorted(sets)
    level = [((), -1)]
    for ln in range(max_len):
        shifted = [(a, sets[a] >> ln) for a in letters]
        level = [(f + (a,), occ) for f, parent in level for a, s in shifted if (occ := parent & s)]
        yield level


def _tiling_pairs(word, max_total: int):
    n = len(word)
    # factors[l - 1]: the distinct factors of length l in lexicographic
    # order, each mapped to its occurrence mask
    factors = [
        {f: _cut_mask(occ, n) for f, occ in level}
        for level in _factors(word, min(max_total - 1, n))
    ]
    for total in range(2, min(max_total, 2 * n) + 1):
        for lu in range(max(1, total - n), min(total - 1, n) + 1):
            u, lv = word[:lu], total - lu
            mu = factors[lu - 1][u]
            for v, mv in factors[lv - 1].items():
                if v == u:
                    continue
                best = _reach(n, lu, mu, lv, mv).rfind(1)
                rest = word[best:]
                if len(rest) < max(lu, lv) and (rest == u[:len(rest)] or rest == v[:len(rest)]):
                    yield u, v


def appearance_values(word, max_n: int) -> list[int]:
    """[brute_appearance(word, n) for n = 1..max_n], in one pass over the
    factors: the value for n is the largest first start of a length-n
    factor, the lowest bit of its set, plus n."""
    word = tuple(word)
    if max_n > len(word):
        raise ValueError("word too short to cover its own factors")
    return [
        max((occ & -occ).bit_length() - 1 for _, occ in level) + ln
        for ln, level in enumerate(_factors(word, max_n), 1)
    ]


def brute_appearance(word, n: int) -> int:
    """Least m such that every length-n factor of word starts before m - n."""
    if n < 0:
        raise ValueError("factor lengths are naturals")
    if n == 0:
        return 0
    return appearance_values(word, n)[-1]


# ---------------------------------------------------------------------------
# combinatorial counterexample searches

def in_pair_star(word, a, b) -> bool:
    """word splits exactly into a/b blocks (empty blocks are ignored);
    only a word that starts and ends with a block is parsed."""
    word, blocks = tuple(word), [tuple(x) for x in (a, b) if x]
    if word and not (any(word[:len(x)] == x for x in blocks) and any(word[-len(x):] == x for x in blocks)):
        return False
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


def parse_step(states, letter, blocks) -> frozenset[tuple[int, int]]:
    """One letter through the block parser of the given blocks.

    State (b, i) means i letters into blocks[b]; a block that ends opens
    every block at offset 0, so a parse of whole blocks starts at the set
    {(b, 0)}.  An empty result means no parse survives the letter.
    """
    nxt = set()
    for b, i in states:
        w = blocks[b]
        if w[i] == letter:
            if i + 1 == len(w):
                nxt.update((c, 0) for c in range(len(blocks)))
            else:
                nxt.add((b, i + 1))
    return frozenset(nxt)


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
    if min(max_pair_total, max_w_len, min_xy) < 0:
        raise ValueError("search bounds are naturals")
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
                        st = parse_step(st, a, blocks)
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
                    st = parse_step(st, a, blocks)
                    if not st:
                        break
                else:
                    w.append(bit)
                    dfs(st, w, xy_count + (1 if bit == 1 and w[-2:-1] == [0] else 0))
                    w.pop()

        dfs({(b, i) for b, blk in enumerate(blocks) for i in range(len(blk))}, [], 0)
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
    if min(max_pair_total, max_w_len) < 0:
        raise ValueError("search bounds are naturals")
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

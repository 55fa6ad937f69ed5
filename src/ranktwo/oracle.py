"""Word computations on materialised prefixes.

Everything in this module works on concrete finite words and makes no
use of the formula engine, so its answers can be compared against the
automaton-based ones.  rank2_decide finds and certifies explicit pairs
here (Steps 0b to 0d): tiling_pairs proposes them, ranked_cut finds the
furthest factorization cut and checks it with dp_factorize's DP.

The scans run on rank strings: a word over naturals is written as a str
with one character chr(r) per letter, r the letter's position in the
sorted alphabet (its code), so slicing, comparing and hashing a piece
of a word happens in C, and a letter past 255, or 2**70, is a wider
character on the same path.  The public functions take words and blocks
as sequences of naturals, encode them once on entry, and answer in
letters and cut positions; rank_prefix writes a Dfao prefix straight
into a rank string from Dfao.prefix_states' gather, and tiling_pairs
and ranked_cut, the two that rank calls, take it as it is.  A block
letter outside the code is chr(len(code)), which no word in that code
holds.  Rank strings stay inside this module and rank: words.word reads
a str as a digit string.

Both scans run one aligned chunk of _CHUNK cuts at a time, the forward
reach from the left and the DP from the right, each carrying a window
of cut bits between chunks and memoizing a chunk's result within the
call: a prefix of an automatic sequence has few distinct aligned chunks.
The counterexample searches at the bottom look for violations of the
combinatorial facts the rank decision relies on; they are expected to
come back empty.  Their block parser, parse_step, is also the one whose
subset construction rank.pair_omega_membership runs.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice, product
from typing import Optional

from .automata import Dfao
from .errors import RankTwoError


_CHUNK = 64  # cuts per chunk of the two scans

# A ranked word: a rank string and its code, which maps each letter of
# the sorted alphabet to its character.
Ranked = tuple[str, dict]


def _code(letters) -> dict:
    """Each of the letters to the character of its rank among them."""
    return {a: chr(r) for r, a in enumerate(sorted(set(letters)))}


def _ranked(word) -> Ranked:
    """word, naturals, as a rank string over its own letters."""
    word = tuple(word)
    code = _code(word)
    return "".join(map(code.__getitem__, word)), code


def _encode(code: dict, block) -> str:
    """A block in a word's code; a letter the code lacks is chr(len(code))."""
    absent = chr(len(code))
    return "".join([code.get(a, absent) for a in block])


def rank_prefix(seq: Dfao, n: int) -> Ranked:
    """seq's first n letters as a rank string, coded over the outputs of
    its canonical states.  At most 256 states come as a bytearray, which
    one translate takes to their ranks, below 256 as well."""
    outputs = seq.canonical().outputs
    code = _code(outputs)
    chars = "".join(map(code.__getitem__, outputs))  # chars[q]: state q's letter
    states = seq.prefix_states(n)
    if isinstance(states, bytearray):
        return states.translate(chars.encode("latin-1").ljust(256, b"\0")).decode("latin-1"), code
    return "".join(map(chars.__getitem__, states)), code


def _letter_sets(word: str) -> dict:
    """Occurrence set of each letter of a rank string: an int with bit i
    set where word[i] is that letter, read off by one translate of the
    reversed word to "0"/"1", so that int(..., 2) puts word[0] at bit 0."""
    letters = set(word)
    backward, zeros = word[::-1], dict.fromkeys(map(ord, letters), "0")
    return {a: int("0" + backward.translate({**zeros, ord(a): "1"}), 2) for a in letters}


def _reach_chunks(word: str, u: str, v: str) -> list[int]:
    """The cuts that u/v block parses reach from the left, one int per
    chunk: bit j of the c-th is cut c * _CHUNK + j.  Empty blocks are
    ignored.

    pending holds the reachable cuts from the chunk's start on, which a
    chunk's blocks can set up to one block length past its end.  The scan
    stops past the last pending cut, within a chunk and at the first chunk
    that starts with none, so the last chunk holds the furthest cut.
    """
    lu, lv = len(u), len(v)
    look = _CHUNK + max(lu, lv, 1) - 1
    memo, chunks, s, pending = {}, [], 0, 1
    while pending:
        key = (pending, word[s:s + look])
        got = memo.get(key)
        if got is None:
            seg = key[1]
            for j in range(min(_CHUNK, len(seg))):
                if pending >> j & 1:
                    if seg[j:j + lu] == u:
                        pending |= 1 << j + lu
                    if seg[j:j + lv] == v:
                        pending |= 1 << j + lv
                elif not pending >> j:
                    break
            got = memo[key] = (pending & (1 << _CHUNK) - 1, pending >> _CHUNK)
        bits, pending = got
        chunks.append(bits)
        s += _CHUNK
    return chunks


def _feasible_chunks(word: str, end: int, u: str, v: str) -> list[int]:
    """The cuts i <= end where word[i:end] splits into u/v blocks
    exactly, one int per chunk as in _reach_chunks.

    The DP f[i] = (u at i and f[i + |u|]) or (v at i and f[i + |v|]),
    f[end] = 1, runs from the right; feasible holds the known f bits from
    the chunk's start on, and the next chunk to the left starts with its
    first max(|u|, |v|).  No block ending past end is taken.
    """
    lu, lv = len(u), len(v)
    span = max(lu, lv, 1)
    look, low, carry = _CHUNK + span - 1, (1 << _CHUNK) - 1, (1 << span) - 1
    word, memo, chunks = word[:end], {}, []
    s = end - end % _CHUNK
    feasible = 1 << end - s
    while s >= 0:
        key = (feasible, word[s:s + look])
        got = memo.get(key)
        if got is None:
            seg = key[1]
            for j in range(min(_CHUNK, len(seg)) - 1, -1, -1):
                if (feasible >> j + lu & 1 and seg[j:j + lu] == u) or (
                    feasible >> j + lv & 1 and seg[j:j + lv] == v
                ):
                    feasible |= 1 << j
            got = memo[key] = (feasible & low, (feasible & carry) << _CHUNK)
        bits, feasible = got
        chunks.append(bits)
        s -= _CHUNK
    return chunks[::-1]


def _last_cut(chunks: list[int]) -> int:
    """The furthest cut of a forward scan."""
    return (len(chunks) - 1) * _CHUNK + chunks[-1].bit_length() - 1


def dp_factorize(word, u, v) -> Optional[list[int]]:
    """Cut positions of a factorization of word into u and v blocks.

    Returns [0, ..., len(word)] or None when no factorization exists.
    Among all factorizations this picks the one preferring a u block at
    every cut.  The backward DP marks the cuts whose suffix factorizes,
    and a greedy forward scan takes a u block wherever the rest stays
    feasible.
    """
    word, code = _ranked(word)
    u, v = _encode(code, u), _encode(code, v)
    if not u or not v:
        raise ValueError("blocks must be nonempty")
    n, lu, lv = len(word), len(u), len(v)
    chunks = _feasible_chunks(word, n, u, v)
    if not chunks[0] & 1:
        return None
    cuts = [0]
    i = 0
    while i < n:
        j = i + lu
        i = j if word[i:j] == u and chunks[j // _CHUNK] >> j % _CHUNK & 1 else i + lv
        cuts.append(i)
    return cuts


def ranked_cut(ranked: Ranked, u: tuple, v: tuple, min_cut: int) -> Optional[int]:
    """The furthest cut that u/v block parses of a ranked word reach from
    the left, or None below min_cut, checked by dp_factorize's backward
    DP up to it: a cut the DP cannot factorize raises RankTwoError.  The
    blocks are naturals, encoded here in the word's code."""
    word, code = ranked
    eu, ev = _encode(code, u), _encode(code, v)
    best = _last_cut(_reach_chunks(word, eu, ev))
    if best < min_cut:
        return None
    if not _feasible_chunks(word, best, eu, ev)[0] & 1:
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
    shortest; each candidate costs one forward reach.  tiling_pairs
    yields the same pairs one at a time.
    """
    if max_total < 0:
        raise ValueError("pair totals are naturals")
    if limit is not None and limit < 0:
        raise ValueError("pair limits are naturals")
    return list(islice(tiling_pairs(_ranked(word), max_total), limit))


def _factors(word: str, max_len: int):
    """For ln = 1..max_len, the distinct length-ln factors of a rank
    string in lexicographic order, each with its occurrence set.

    A length-(ln + 1) factor extends a length-ln one by a letter, and its
    set is the parent's AND the letter's set shifted right by ln, so
    extending each factor by each letter in order keeps the order.
    """
    sets = _letter_sets(word)
    letters = sorted(sets)
    level = [("", -1)]
    for ln in range(max_len):
        shifted = [(a, sets[a] >> ln) for a in letters]
        level = [(f + a, occ) for f, parent in level for a, s in shifted if (occ := parent & s)]
        yield level


def tiling_pairs(ranked: Ranked, max_total: int):
    """The pairs of search_pairs in its order, as a generator of pairs of
    naturals, so a caller that stops at the first pair it proves pays for
    no later candidate's reach.  Ranks order like their letters, so the
    rank strings' order is the pairs' order."""
    word, code = ranked
    letters = tuple(code)  # letters[r]: the letter of rank r
    n = len(word)
    # factors[l - 1]: the distinct factors of length l in lexicographic order
    factors = [[f for f, _ in level] for level in _factors(word, min(max_total - 1, n))]
    for total in range(2, min(max_total, 2 * n) + 1):
        for lu in range(max(1, total - n), min(total - 1, n) + 1):
            u, lv = word[:lu], total - lu
            for v in factors[lv - 1]:
                if v == u:
                    continue
                best = _last_cut(_reach_chunks(word, u, v))
                if n - best < max(lu, lv) and (u.startswith(rest := word[best:]) or v.startswith(rest)):
                    yield tuple(letters[ord(a)] for a in u), tuple(letters[ord(a)] for a in v)


def appearance_values(word, max_n: int) -> list[int]:
    """[brute_appearance(word, n) for n = 1..max_n], in one pass over the
    factors: the value for n is the largest first start of a length-n
    factor, the lowest bit of its set, plus n."""
    word, _ = _ranked(word)
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
    word, code = _ranked(word)
    a, b = _encode(code, a), _encode(code, b)
    blocks = [x for x in (a, b) if x]
    if word and not (any(map(word.startswith, blocks)) and any(map(word.endswith, blocks))):
        return False
    return _last_cut(_reach_chunks(word, a, b)) == len(word)


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

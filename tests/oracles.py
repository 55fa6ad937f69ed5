"""Independent brute-force oracles shared by the test modules.

Everything here is deliberately written against the definitions, not
against the library internals: periods by direct scanning, monoid
membership by regex, factorizations by explicit dynamic programming.
"""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction
from typing import Optional

from ranktwo import automata as A
from ranktwo import logic as L
from ranktwo.automata import Dfa
from ranktwo.errors import DfaoFormatError, EnumerationLimitError, InfiniteLanguageError
from ranktwo.formula_text import FormulaSyntaxError
from ranktwo.oracle import parse_step
from ranktwo.words import word


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


def campaign_draw(i: int):
    """Draw i of the seeded campaign of random DFAOs: k in {2, 3}, 2 or 3
    output letters, 2 to 5 states, state 0 initial and fixed by digit 0.
    Each draw consumes the generator's stream, so draw i is the same for
    every caller."""
    r = random.Random(7)
    for _ in range(i + 1):
        k, a, n = r.randint(2, 3), r.randint(2, 3), r.randint(2, 5)
        delta = [[r.randrange(n) for _ in range(k)] for _ in range(n)]
        delta[0][0] = 0
        outputs = [r.randrange(a) for _ in range(n)]
    return A.Dfao(k, tuple(sorted(set(outputs))), tuple(outputs), tuple(map(tuple, delta)), 0)


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
# word checks by slicing tuples at every position, one letter at a time:
# the loops that ranktwo.oracle runs one memoized chunk of cuts at a time


def ref_parse_reach(word, u, v):
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


def ref_feasible_suffixes(word, u, v):
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


def ref_dp_factorize(word, u, v):
    """Cuts of the factorization preferring a u block at every cut."""
    word, u, v = tuple(word), tuple(u), tuple(v)
    if not u or not v:
        raise ValueError("blocks must be nonempty")
    feasible = ref_feasible_suffixes(word, u, v)
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


def ref_tiling_pairs(word, max_total):
    """Every pair search_pairs qualifies, ordered by |u|, then v."""
    word = tuple(word)
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
            best = ref_parse_reach(word, u, v)[-1]
            rest = word[best:]
            if len(rest) < max(len(u), len(v)) and (
                rest == u[:len(rest)] or rest == v[:len(rest)]
            ):
                yield u, v


def ref_prefix(seq, n):
    """First n symbols of a Dfao, one eval per position."""
    return [seq.eval(i) for i in range(n)]


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
            return {"=": a == b, "<=": a <= b, "<": a < b}[f.op]
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
        if isinstance(f, L.Exists):
            return any(rec(f.body, {**env, f.var: v}) for v in range(bound))
        raise TypeError(f)

    return rec(f, env)


def free_vars(f) -> frozenset[str]:
    """The names a formula leaves free, by structural recursion."""
    from ranktwo import logic as L

    if isinstance(f, L.Cmp):
        return L.term_vars(f.left) | L.term_vars(f.right)
    if isinstance(f, L.SeqAt):
        return L.term_vars(f.index)
    if isinstance(f, L.SeqEq):
        return L.term_vars(f.left) | L.term_vars(f.right)
    if isinstance(f, L.Not):
        return free_vars(f.body)
    if isinstance(f, (L.And, L.Or)):
        out = frozenset()
        for p in f.parts:
            out |= free_vars(p)
        return out
    if isinstance(f, L.Exists):
        return free_vars(f.body) - {f.var}
    raise TypeError(f"not a formula: {f!r}")


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


def ref_distinguishable(delta, labels):
    """Table filling: the pairs (p, q), p < q, that some input word leads
    to different labels.  Marks the pairs whose labels differ, then walks
    the transitions backwards: a pair whose successors on some letter are
    a marked pair is marked too."""
    n = len(delta)
    pred = [[[] for _ in range(n)] for _ in delta[0]]
    for p, row in enumerate(delta):
        for a, t in enumerate(row):
            pred[a][t].append(p)
    marked = {(p, q) for q in range(n) for p in range(q) if labels[p] != labels[q]}
    stack = list(marked)
    while stack:
        p, q = stack.pop()
        for back in pred:
            for p2 in back[p]:
                for q2 in back[q]:
                    pair = (min(p2, q2), max(p2, q2))
                    if p2 != q2 and pair not in marked:
                        marked.add(pair)
                        stack.append(pair)
    return marked


def canonical_dfa(k, var_order, delta, accepting, initial) -> Dfa:
    """The tests' Dfa from any complete table: the library's canonical
    form of its states reachable from initial, numbered breadth-first by
    automata._explore, then minimized by automata._canonical."""
    order, delta = A._explore(initial, delta.__getitem__)
    return A._canonical(k, var_order, delta, [accepting[q] for q in order])


def ref_canonical_dfa(delta, accepting, initial):
    """(delta, accepting) of the minimal breadth-first-numbered recogniser."""
    reps, new_delta = ref_minimize(delta, [bool(a) for a in accepting], initial)
    return new_delta, tuple(bool(accepting[q]) for q in reps)


def ref_product(a: Dfa, b: Dfa, op):
    """(delta, accepting) of the canonical op-combination of a and b:
    every pair of states reachable from (0, 0) explored through a dict,
    a column of digits read per track name, then ref_canonical_dfa."""
    merged = sorted(set(a.var_order) | set(b.var_order))
    columns = [dict(zip(merged, ds)) for ds in itertools.product(range(a.k), repeat=len(merged))]

    def letter(m, column):
        idx = 0
        for v in m.var_order:
            idx = idx * m.k + column[v]
        return idx

    ids = {(0, 0): 0}
    order = [(0, 0)]
    delta = []
    for qa, qb in order:
        row = []
        for column in columns:
            pair = (a.delta[qa][letter(a, column)], b.delta[qb][letter(b, column)])
            if pair not in ids:
                ids[pair] = len(order)
                order.append(pair)
            row.append(ids[pair])
        delta.append(row)
    return ref_canonical_dfa(delta, [op(a.accepting[p], b.accepting[q]) for p, q in order], 0)


def ref_seq_rel(m, indices, symbol=None):
    """A sequence atom compiled the helper-track way: {n : x[n] = symbol}
    (or the pair product of m with itself for x[s] = x[t]) on one track
    per index, each track %a<i> bound to its index sum of coeffs[x] * v_x
    + c by a linear relation, the constant on a track %c bound by
    const_rel, every helper intersected in and projected away.  An index
    that is a lone variable is used as its own track."""
    k = m.k
    c = m.canonical()
    names, helpers = [], []
    for i, (coeffs, const) in enumerate(indices):
        coeffs = dict(coeffs)
        if const == 0 and list(coeffs.values()) == [1]:
            (name,) = coeffs
        else:
            name = f"%a{i}"
            coeffs[name] = -1
            if const:
                rel = A.linear_rel(k, {**coeffs, "%c": 1}, "=")
                rel = A.project(A.intersect(rel, A.const_rel(k, "%c", const)), "%c")
            else:
                rel = A.linear_rel(k, coeffs, "=")
            helpers.append((name, rel))
        names.append(name)
    if symbol is not None:
        (name,) = names
        acc = [out == symbol for out in c.outputs]
        rel = canonical_dfa(k, (name,), [list(row) for row in c.delta], acc, 0)
    elif names[0] == names[1]:
        rel = A.true_dfa(k, (names[0],))
    else:
        tracks = tuple(sorted(names))
        first = tracks.index(names[0])
        order, delta = [(0, 0)], []
        ids = {(0, 0): 0}
        for qa, qb in order:
            row = []
            for ell in range(k * k):
                d = A.decode_letter(k, 2, ell)
                t = (c.delta[qa][d[first]], c.delta[qb][d[1 - first]])
                if t not in ids:
                    ids[t] = len(order)
                    order.append(t)
                row.append(ids[t])
            delta.append(row)
        acc = [c.outputs[qa] == c.outputs[qb] for qa, qb in order]
        rel = canonical_dfa(k, tracks, delta, acc, 0)
    for name, h in helpers:
        rel = A.project(A.intersect(rel, h), name)
    return rel


def ref_projection_nfa(k, tracks, pos, delta, initial):
    """The automaton left by dropping track pos, letters as base-k digit
    columns with track 0 most significant.

    Returns (nfa, start): nfa[q][letter] is the set of successors of q
    on a reduced letter, and start is {initial} saturated under the
    all-zero reduced letter.
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
    return nfa, start


def ref_reverse(nfa):
    """The same edges, each pointing the other way."""
    rev = [[set() for _ in row] for row in nfa]
    for q, row in enumerate(nfa):
        for letter, targets in enumerate(row):
            for t in targets:
                rev[t][letter].add(q)
    return rev


def ref_determinize(nfa, start, final, limit):
    """Subset construction from the start set; a subset accepts when it
    meets final.  A subset's successor on a letter is the union of its
    members' successor sets.  Returns (delta, accepting) of the raw
    subset automaton, numbered breadth-first, or None when it has more
    than limit subsets.
    """
    start = frozenset(start)
    ids = {start: 0}
    order = [start]
    out = []
    for subset in order:
        row = []
        for letter in range(len(nfa[0])):
            t = frozenset().union(*(nfa[q][letter] for q in subset))
            if t not in ids:
                ids[t] = len(order)
                order.append(t)
                if len(order) > limit:
                    return None
            row.append(ids[t])
        out.append(row)
    return out, [not s.isdisjoint(final) for s in order]


def ref_subsets(k, tracks, pos, delta, accepting, initial, limit):
    """The forward subset construction for dropping track pos: (delta,
    accepting) of the raw subset automaton, or None above limit."""
    nfa, start = ref_projection_nfa(k, tracks, pos, delta, initial)
    return ref_determinize(nfa, start, {q for q, acc in enumerate(accepting) if acc}, limit)


def ref_double_reversal(k, tracks, pos, delta, accepting, initial, limit):
    """Brzozowski's two subset constructions for dropping track pos.

    The first determinizes the reverse of the projection's automaton,
    the second the reverse of the first's result.  Returns ((delta,
    accepting) of the second, (subsets of the first, subsets of the
    second)), or None when either pass has more than limit subsets.
    """
    nfa, start = ref_projection_nfa(k, tracks, pos, delta, initial)
    finals = {q for q, acc in enumerate(accepting) if acc}
    first = ref_determinize(ref_reverse(nfa), finals, start, limit)
    if first is None:
        return None
    rev_delta, rev_acc = first
    as_nfa = [[{t} for t in row] for row in rev_delta]
    finals = {i for i, acc in enumerate(rev_acc) if acc}
    second = ref_determinize(ref_reverse(as_nfa), finals, {0}, limit)
    if second is None:
        return None
    return second, (len(rev_delta), len(second[0]))


# ---------------------------------------------------------------------------
# the automaton queries as searches: a breadth-first search with parent
# pointers for the least witness, a co-reachability fixpoint and a cycle
# search for finiteness.  These read no numbering, only the transition
# table, with state 0 as the initial state.

def ref_shortest_accepted(a: Dfa) -> Optional[tuple[int, ...]]:
    """Values of the length-lexicographically least accepted encoding.

    Breadth-first search with letters in ascending order reaches every
    state first along its length-lex least path, so the first accepting
    state found yields the least witness tuple.
    """
    if a.accepting[0]:
        return (0,) * len(a.var_order)
    parent: dict[int, tuple[int, int]] = {0: (-1, -1)}
    queue = [0]
    found = None
    for q in queue:
        for ell, t in enumerate(a.delta[q]):
            if t not in parent:
                parent[t] = (q, ell)
                if a.accepting[t]:
                    found = t
                    break
                queue.append(t)
        if found is not None:
            break
    if found is None:
        return None
    letters = []
    q = found
    while q != 0:
        p, ell = parent[q]
        letters.append(ell)
        q = p
    letters.reverse()
    values = [0] * len(a.var_order)
    for ell in letters:
        digits = A.decode_letter(a.k, len(a.var_order), ell)
        for i, d in enumerate(digits):
            values[i] = values[i] * a.k + d
    return tuple(values)


def ref_useful_states(a: Dfa) -> tuple[set[int], set[int]]:
    """(states reachable by a minimal encoding, states co-reachable)."""
    # minimal encodings never begin with the all-zero column
    reach: set[int] = set()
    frontier = set()
    for ell in range(1, len(a.delta[0])):
        frontier.add(a.delta[0][ell])
    while frontier:
        reach |= frontier
        nxt = set()
        for q in frontier:
            for t in a.delta[q]:
                if t not in reach:
                    nxt.add(t)
        frontier = nxt - reach
    co: set[int] = {q for q in range(a.num_states) if a.accepting[q]}
    changed = True
    while changed:
        changed = False
        for q in range(a.num_states):
            if q in co:
                continue
            if any(t in co for t in a.delta[q]):
                co.add(q)
                changed = True
    return reach, co


def ref_language_is_infinite(a: Dfa) -> bool:
    """True iff the accepted set of tuples is infinite (cycle through a
    useful state on some minimal encoding path)."""
    reach, co = ref_useful_states(a)
    useful = reach & co
    color = {}

    def has_cycle(q: int) -> bool:
        stack = [(q, iter(a.delta[q]))]
        color[q] = 1
        while stack:
            s, it = stack[-1]
            advanced = False
            for t in it:
                if t not in useful:
                    continue
                c = color.get(t)
                if c == 1:
                    return True
                if c is None:
                    color[t] = 1
                    stack.append((t, iter(a.delta[t])))
                    advanced = True
                    break
            if not advanced:
                color[s] = 2
                stack.pop()
        return False

    return any(q in useful and color.get(q) is None and has_cycle(q) for q in range(a.num_states))


def ref_occurring_letters(seq) -> tuple[int, ...]:
    """The declared letters a for which x[n] = a compiles to a nonempty
    set of n, in increasing order."""
    from ranktwo import logic as L

    return tuple(
        a for a in sorted(set(seq.alphabet))
        if not A.is_empty(L.compile_formula(L.seq_at("n", a), seq=seq))
    )


def ref_enumerate_accepted(a: Dfa, limit: int) -> list[tuple[int, ...]]:
    """All accepted tuples, sorted; errors if infinite or above limit.

    A provably infinite language raises InfiniteLanguageError; a finite
    one larger than the limit raises EnumerationLimitError, so callers can
    tell budget pressure from genuine unboundedness.
    """
    if ref_language_is_infinite(a):
        raise InfiniteLanguageError(f"accepted set of {len(a.var_order)}-tuples is infinite")
    reach, co = ref_useful_states(a)
    useful = reach & co
    results = []
    if a.accepting[0]:
        results.append((0,) * len(a.var_order))
        if len(results) > limit:
            raise EnumerationLimitError(f"more than {limit} accepted tuples")

    t = len(a.var_order)
    steps = 0
    stack: list[tuple[int, tuple[int, ...]]] = []
    for ell in range(1, len(a.delta[0])):
        q = a.delta[0][ell]
        if q in useful:
            stack.append((q, A.decode_letter(a.k, t, ell)))
    while stack:
        q, values = stack.pop()
        steps += 1
        if steps > 4_000_000:
            raise EnumerationLimitError("enumeration walk exceeded its step bound")
        if a.accepting[q]:
            results.append(values)
            if len(results) > limit:
                raise EnumerationLimitError(f"more than {limit} accepted tuples")
        for ell in range(len(a.delta[0])):
            nq = a.delta[q][ell]
            if nq in useful:
                digits = A.decode_letter(a.k, t, ell)
                nv = tuple(values[i] * a.k + digits[i] for i in range(t))
                stack.append((nq, nv))
    results.sort()
    return results


# ---------------------------------------------------------------------------
# word checks that only the tests use

def is_prefix_code_pair(u, v) -> bool:
    """True iff neither word is a prefix of the other."""
    u, v = word(u), word(v)
    if not u or not v:
        return False
    return u[: len(v)] != v and v[: len(u)] != u


def factor_of_pair_omega(t, u, v) -> bool:
    """Is t a factor of some one-sided infinite product of u and v?"""
    u, v, t = tuple(u), tuple(v), tuple(t)
    if not u or not v:
        raise ValueError("blocks must be nonempty")
    blocks = (u, v)
    # a factor may start inside any block
    states = {(b, i) for b, w in enumerate(blocks) for i in range(len(w))}
    for a in t:
        states = parse_step(states, a, blocks)
        if not states:
            return False
    return True


# ---------------------------------------------------------------------------
# the unrolled sentences that the rank decider's iterations replace

def setup_formula(i: int, d: int, L: int, N: int, r_var: str = "r"):
    """Free r: writing u = x[i..i+d) and v = x[0..r), asserts r >= N, u is
    neither a prefix nor a suffix of v, and x starts with
    v u^{e_1} v u^{e_2} ... v u^{e_L} for some exponents e_t >= 0.

    The block positions are threaded through a chain of L nested
    existentials (P_t = P_{t-1} + r + run_t); each run is pinned to
    u-content by d-periodicity, a first-block match against position i,
    and divisibility by d.
    """
    from ranktwo.logic import Const, add, and_, eq, exists, ge, implies, mul, not_, term
    from ranktwo.predicates import _fresh, factoreq, period_f, prefx, suffx

    if L < 1 or d < 1:
        raise ValueError("need L >= 1 and d >= 1")
    r = term(r_var)
    iC, dC = Const(i), Const(d)

    def run_at(base, length):
        (q,) = _fresh((r, base, length), 1)
        return and_(
            exists(q, eq(length, mul(d, q))),
            period_f(base, length, dC),
            implies(ge(length, dC), factoreq(base, iC, dC)),
        )

    def chain(t, prev):
        # prev = start position of the t-th v block (0-based)
        if t == L - 1:
            (n,) = _fresh((r, prev), 1)
            return exists(n, run_at(add(prev, r), n))
        nxt, n = _fresh((r, prev), 2)
        body = and_(
            eq(add(prev, add(r, n)), nxt),
            run_at(add(prev, r), n),
            factoreq(Const(0), nxt, r),
            chain(t + 1, term(nxt)),
        )
        return exists((nxt, n), body)

    return and_(
        ge(r, N),
        not_(prefx(iC, dC, Const(0), r)),
        not_(suffx(iC, dC, Const(0), r)),
        chain(0, Const(0)),
    )


def setup2_formula(pattern, pin_first: bool = True):
    """Sentence: there exist blocks u0 = x[i..i+r), u1 = x[j..j+s), each
    nonempty, mutually neither prefix nor suffix of one another, neither
    occurring in x with unbounded exponent (unbounded_power_sentence),
    such that the concatenation described by the bit pattern is a prefix
    of x.  pin_first fixes i = 0, which the rank decider's pattern search
    does for patterns that start with 0; otherwise i is quantified too.

    Block t starts at a_t·r + b_t·s where a_t, b_t count the zeros and
    ones before position t.
    """
    from ranktwo.logic import Const, add, and_, exists, ge, mul, not_
    from ranktwo.predicates import factoreq, prefx, suffx

    bits = tuple(int(b) for b in pattern)
    if len(bits) < 2:
        raise ValueError("pattern needs length at least 2")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("pattern bits must be 0 or 1")

    i, j, r, s = (Const(0) if pin_first else "i"), "j", "r", "s"
    blocks = []
    a = b = 0
    for bit in bits:
        pos = add(mul(a, r), mul(b, s))
        if bit == 0:
            blocks.append(factoreq(i, pos, r))
            a += 1
        else:
            blocks.append(factoreq(j, pos, s))
            b += 1

    body = and_(
        ge(r, 1),
        ge(s, 1),
        not_(prefx(i, r, j, s)),
        not_(suffx(i, r, j, s)),
        not_(prefx(j, s, i, r)),
        not_(suffx(j, s, i, r)),
        *blocks,
        not_(unbounded_power_sentence(i, r)),
        not_(unbounded_power_sentence(j, s)),
    )
    return exists((j, r, s) if pin_first else (i, j, r, s), body)


def unbounded_power_sentence(start, n):
    """x[start..start+n) is nonempty and occurs with unbounded exponent:
    for every m some occurrence j starts an n-periodic window of length
    m."""
    from ranktwo.logic import and_, exists, forall, ge, term
    from ranktwo.predicates import _fresh, factoreq, period_f

    start, n = term(start), term(n)
    m, j = _fresh((start, n), 2)
    return and_(ge(n, 1), forall(m, exists(j, and_(factoreq(start, j, n), period_f(j, m, n)))))


def mul_power_occurs(start, n, p: int):
    """Some occurrence of x[start..start+n) begins its p-th power, p
    concrete, written with a multiplication by p."""
    from ranktwo.logic import and_, exists, mul, term
    from ranktwo.predicates import _fresh, factoreq, period_f

    start, n = term(start), term(n)
    (j,) = _fresh((start, n), 1)
    return exists(j, and_(period_f(j, mul(p, n), n), factoreq(start, j, n)))


# ---------------------------------------------------------------------------
# "unbounded" as first written, "for every m a window longer than m": the
# sentences that downward closure in the window length turns into "every
# window"

def unbounded_primitive_factors_sentence(i="i", p="p"):
    """Free (i, p): p >= 1, x[i..i+p) is primitive, and for every m some
    j with earliestfac(i, j, p) has a p-periodic window of length n > m."""
    from ranktwo.logic import and_, exists, forall, ge, gt, term
    from ranktwo.predicates import _fresh, earliestfac, period_f, prim

    i, p = term(i), term(p)
    m, j, n = _fresh((i, p), 3)
    return and_(
        ge(p, 1),
        prim(i, p),
        forall(m, exists((j, n), and_(gt(n, m), earliestfac(i, j, p), period_f(j, n, p)))),
    )


def unbounded_exponent_sentence(z):
    """Sentence: for every m the concrete word z starts an |z|-periodic
    window of length n + |z| for some n > m."""
    from ranktwo.logic import add, and_, exists, forall, gt
    from ranktwo.predicates import factoreq, word_at

    r = len(z)
    return forall("m", exists(("j", "n"), and_(
        gt("n", "m"), word_at("j", z), factoreq("j", add("j", r), "n"),
    )))


# ---------------------------------------------------------------------------
# the fixed-pair decision with the two shortcuts that ranktwo.rank dropped:
# a commuting pair checked through its primitive root, and a miss of the
# free reduction settling a pair that is not a prefix code

def ref_decide_fixed_pair(seq, u, v, budget=None):
    """x in {u, v}^omega, as decide_fixed_pair decided it with shortcuts."""
    from ranktwo.errors import RankTwoError
    from ranktwo.rank import Budget, pair_omega_membership
    from ranktwo.words import Pair, commutes, free_reduce, primitive_root

    budget = budget or Budget()
    u, v = word(u), word(v)
    if not u or not v:
        raise ValueError("blocks must be nonempty")
    cap = budget.max_enumeration
    if u == v or commutes(u, v):
        # both words are powers of the common primitive root, so the
        # products over {u, v} are exactly the root's omega power
        root, _ = primitive_root(u)
        return pair_omega_membership(seq, (root,), max_levels=cap)
    if not is_prefix_code_pair(u, v):
        red = free_reduce(u, v)
        if not isinstance(red, Pair):
            raise RankTwoError(f"non-commuting u = {list(u)}, v = {list(v)} reduced to one word")
        # the reduced pair generates a superset of the products, so a
        # miss there settles the question before the direct check
        if not pair_omega_membership(seq, (red.a, red.b), max_levels=cap):
            return False
    return pair_omega_membership(seq, (u, v), max_levels=cap)


# ---------------------------------------------------------------------------
# the text front ends as they were written before the one-pass versions

_REF_TOKEN = re.compile(
    r"""\s*(?:
        (?P<nat>\d+)
      | (?P<quant>[EA])\b
      | (?P<name>[a-z_][a-z0-9_']*)
      | (?P<op>->|!=|<=|>=|[=<>+*().,&|~!\[\]])
    )""",
    re.VERBOSE,
)


def _ref_tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REF_TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise FormulaSyntaxError(len(text) - len(rest), f"unexpected character {rest[0]!r}")
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


class _RefSeqRef:
    """Marker for an x[t] operand before the comparison is known."""

    def __init__(self, index):
        self.index = index


_REF_COMPARISONS = {"=": L.eq, "!=": L.ne, "<=": L.le, "<": L.lt, ">=": L.ge, ">": L.gt}


class _RefParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _ref_tokenize(text)
        self.i = 0

    def _peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else ("end", "", len(self.text))

    def _next(self):
        tok = self._peek()
        self.i += 1
        return tok

    def _expect(self, value: str):
        kind, val, pos = self._next()
        if val != value:
            raise FormulaSyntaxError(pos, f"expected {value!r}, found {val or 'end of input'!r}")

    def _joined(self, sep: str, item, build):
        """item { sep item }: a lone item as it is, several through build."""
        parts = [item()]
        while self._peek()[1] == sep:
            self._next()
            parts.append(item())
        return parts[0] if len(parts) == 1 else build(*parts)

    def parse(self) -> L.Formula:
        f = self.formula()
        if self.i != len(self.tokens):
            raise FormulaSyntaxError(self._peek()[2], "trailing input after formula")
        return f

    def formula(self) -> L.Formula:
        kind, val, _ = self._peek()
        if kind == "quant":
            self._next()
            names = self._joined(",", self.name, lambda *names: names)
            self._expect(".")
            body = self.formula()
            return L.exists(names, body) if val == "E" else L.forall(names, body)
        return self.implication()

    def implication(self) -> L.Formula:
        left = self.disjunction()
        if self._peek()[1] == "->":
            self._next()
            return L.implies(left, self.implication())
        return left

    def disjunction(self) -> L.Formula:
        return self._joined("|", self.conjunction, L.or_)

    def conjunction(self) -> L.Formula:
        return self._joined("&", self.negation, L.and_)

    def negation(self) -> L.Formula:
        kind, val, _ = self._peek()
        if val in ("~", "!"):
            self._next()
            return L.not_(self.negation())
        if val == "(":
            self._next()
            inner = self.formula()
            self._expect(")")
            return inner
        return self.atom()

    def atom(self) -> L.Formula:
        left = self.operand()
        kind, op, pos = self._next()
        if op not in _REF_COMPARISONS:
            raise FormulaSyntaxError(pos, f"expected a comparison, found {op or 'end of input'!r}")
        right = self.operand()
        seq_left = isinstance(left, _RefSeqRef)
        seq_right = isinstance(right, _RefSeqRef)
        if seq_left or seq_right:
            if op not in ("=", "!="):
                raise FormulaSyntaxError(pos, "sequence letters compare only with = or !=")
            if seq_left and seq_right:
                f = L.seq_eq(left.index, right.index)
            else:
                ref = left if seq_left else right
                other = right if seq_left else left
                if not isinstance(other, L.Const):
                    raise FormulaSyntaxError(
                        pos, "a sequence letter compares only to a numeral or another x[...]"
                    )
                f = L.seq_at(ref.index, other.value)
            return L.not_(f) if op == "!=" else f
        return _REF_COMPARISONS[op](left, right)

    def operand(self):
        kind, val, pos = self._peek()
        if kind == "name" and val == "x":
            self._next()
            self._expect("[")
            t = self.term()
            self._expect("]")
            return _RefSeqRef(t)
        return self.term()

    def term(self):
        return self._joined("+", self.part, L.add)

    def part(self):
        kind, val, pos = self._next()
        if kind == "nat":
            if self._peek()[1] == "*":
                self._next()
                return L.mul(int(val), self.part())
            return L.Const(int(val))
        if kind == "name":
            if val == "x":
                raise FormulaSyntaxError(pos, "'x' is reserved for the sequence; use x[term]")
            return L.term(val)
        raise FormulaSyntaxError(pos, f"expected a term, found {val or 'end of input'!r}")

    def name(self) -> str:
        kind, val, pos = self._next()
        if kind != "name" or val == "x":
            raise FormulaSyntaxError(pos, "expected a variable name")
        return val


def ref_parse_formula(text: str) -> L.Formula:
    """The recursive-descent parser, one method per grammar rule, over a
    tokenizer that matches one token at a time."""
    if not text.strip():
        raise FormulaSyntaxError(0, "empty formula")
    return _RefParser(text).parse()


def ref_loads_dfao(text: str) -> A.Dfao:
    """The automaton text format read line by line into dicts, then
    validated against sets of every state and digit.

    Directives: k, alphabet, states, initial, output, trans.  Comments
    start with '#'.  Every directive but alphabet takes exactly its
    number of integers, and k, alphabet, states and initial appear once.
    Every state needs one output line and a transition for every digit.
    An error in one line, such as an initial state out of range, names
    that line; a missing directive, output or transition, and leading
    zeros that change an output, name line 0.
    """
    k = alphabet = n_states = initial = None
    seen: set[str] = set()
    # each output and transition with the line it is on
    outputs: dict[int, tuple[int, int]] = {}
    trans: dict[tuple[int, int], tuple[int, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head, args = parts[0], parts[1:]
        if head in ("k", "alphabet", "states", "initial"):
            if head in seen:
                raise DfaoFormatError(lineno, f"repeated {head!r} directive")
            seen.add(head)
        try:
            if head == "k":
                (k,) = map(int, args)
                if k < 2:
                    raise DfaoFormatError(lineno, "base must be at least 2")
            elif head == "alphabet":
                if not args:
                    raise DfaoFormatError(lineno, "empty alphabet")
                alphabet = tuple(int(a) for a in args)
                if any(a < 0 for a in alphabet):
                    raise DfaoFormatError(lineno, "symbols are non-negative integers")
                if len(set(alphabet)) != len(alphabet):
                    raise DfaoFormatError(lineno, "duplicate symbol in alphabet")
            elif head == "states":
                (n_states,) = map(int, args)
                if n_states <= 0:
                    raise DfaoFormatError(lineno, "need at least one state")
            elif head == "initial":
                (initial,) = map(int, args)
                initial_line = lineno
            elif head == "output":
                q, s = map(int, args)
                if q in outputs:
                    raise DfaoFormatError(lineno, f"duplicate output for state {q}")
                outputs[q] = s, lineno
            elif head == "trans":
                q, d, t = map(int, args)
                if (q, d) in trans:
                    raise DfaoFormatError(lineno, f"duplicate transition {q} {d}")
                trans[(q, d)] = t, lineno
            else:
                raise DfaoFormatError(lineno, f"unknown directive {head!r}")
        except DfaoFormatError:
            raise
        except ValueError:
            raise DfaoFormatError(lineno, f"malformed {head!r} line") from None
    for name, val in (("k", k), ("alphabet", alphabet), ("states", n_states), ("initial", initial)):
        if val is None:
            raise DfaoFormatError(0, f"missing {name!r} directive")
    undeclared = sorted(set(outputs) - set(range(n_states)))
    if undeclared:
        raise DfaoFormatError(outputs[undeclared[0]][1], f"output for undeclared state {undeclared[0]}")
    if len(outputs) != n_states:
        missing = sorted(set(range(n_states)) - set(outputs))
        raise DfaoFormatError(0, f"missing output for states {missing}")
    delta = []
    for q in range(n_states):
        row = []
        for d in range(k):
            if (q, d) not in trans:
                raise DfaoFormatError(0, f"missing transition for state {q} digit {d}")
            t, lineno = trans[(q, d)]
            if not (0 <= t < n_states):
                raise DfaoFormatError(lineno, f"transition {q} {d} -> {t} out of range")
            row.append(t)
        delta.append(tuple(row))
    extra = sorted(set(trans) - {(q, d) for q in range(n_states) for d in range(k)})
    if extra:
        raise DfaoFormatError(trans[extra[0]][1], f"transition on undeclared state or digit: {extra[0]}")
    if not 0 <= initial < n_states:
        raise DfaoFormatError(initial_line, "initial state out of range")
    for q, (s, lineno) in sorted(outputs.items()):
        if s not in alphabet:
            raise DfaoFormatError(lineno, f"state {q} outputs {s} outside the alphabet")
    m = A.Dfao(k, alphabet, tuple(outputs[q][0] for q in range(n_states)), tuple(delta), initial)
    # leading zeros must not change any eventual output: the minimized
    # automaton must loop on zero at its initial state
    if m.canonical().delta[0][0] != 0:
        raise DfaoFormatError(0, "leading zeros change outputs (no zero self-loop up to equivalence)")
    return m

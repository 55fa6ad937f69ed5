"""Deterministic automata over base-k digit columns.

Two automaton kinds live here.  A Dfao is a deterministic finite automaton
with per-state output symbols; fed the base-k digits of n most significant
digit first, it produces the n-th symbol of an automatic sequence.  A Dfa
is a recogniser over tuples of naturals: each input letter is one column
of base-k digits, one digit per variable track, and a tuple is encoded by
writing all components to the same length with leading zeros.

Every public Dfa is kept in canonical form: complete, minimized, states
numbered in breadth-first order from the initial state, and closed under
leading all-zero columns (membership depends only on the decoded tuple,
never on how much padding the encoding carries).  Canonical form makes
num_states well defined and language equality a plain structural
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import (
    BudgetExceededError,
    DfaoFormatError,
    EnumerationLimitError,
    InfiniteLanguageError,
)


# ---------------------------------------------------------------------------
# letter encoding

@lru_cache(maxsize=None)
def _powers(k: int, tracks: int) -> tuple[int, ...]:
    return tuple(k ** (tracks - 1 - i) for i in range(tracks))


def letter_count(k: int, tracks: int) -> int:
    return k ** tracks


def encode_letter(k: int, digits: Sequence[int]) -> int:
    idx = 0
    for d in digits:
        idx = idx * k + d
    return idx


def decode_letter(k: int, tracks: int, idx: int) -> tuple[int, ...]:
    return tuple((idx // p) % k for p in _powers(k, tracks))


@lru_cache(maxsize=None)
def _letter_map(k: int, sup: tuple[str, ...], sub: tuple[str, ...]) -> tuple[int, ...]:
    """For each letter over the sup tracks, the induced letter over sub."""
    positions = [sup.index(v) for v in sub]
    out = []
    for idx in range(letter_count(k, len(sup))):
        digits = decode_letter(k, len(sup), idx)
        out.append(encode_letter(k, [digits[p] for p in positions]))
    return tuple(out)


def digits_of(k: int, n: int) -> tuple[int, ...]:
    """Base-k digits of n, most significant first; empty for n = 0."""
    if n == 0:
        return ()
    ds = []
    while n:
        n, r = divmod(n, k)
        ds.append(r)
    return tuple(reversed(ds))


def encode_tuple(k: int, values: Sequence[int]) -> list[int]:
    """Letter-index string for a tuple, using the minimal common length."""
    reps = [digits_of(k, v) for v in values]
    width = max((len(r) for r in reps), default=0)
    padded = [(0,) * (width - len(r)) + r for r in reps]
    return [encode_letter(k, [p[i] for p in padded]) for i in range(width)]


# ---------------------------------------------------------------------------
# Dfa

@dataclass(frozen=True)
class Dfa:
    """Canonical recogniser over tuples of naturals (see module docstring).

    delta[q][letter] is the successor state; accepting is a bool per
    state; var_order names one track per variable, sorted.
    """

    k: int
    var_order: tuple[str, ...]
    delta: tuple[tuple[int, ...], ...]
    accepting: tuple[bool, ...]
    initial: int

    @property
    def num_states(self) -> int:
        return len(self.delta)

    @property
    def alphabet_size(self) -> int:
        return letter_count(self.k, len(self.var_order))

    def accepts_encoded(self, letters: Iterable[int]) -> bool:
        q = self.initial
        for a in letters:
            q = self.delta[q][a]
        return self.accepting[q]

    def accepts(self, values) -> bool:
        """Membership of a tuple (components in var_order) or a mapping
        from track names to values."""
        if isinstance(values, Mapping):
            values = tuple(values[v] for v in self.var_order)
        if len(values) != len(self.var_order):
            raise ValueError("arity mismatch")
        return self.accepts_encoded(encode_tuple(self.k, values))


def _explore(start, successors, max_states=None, stage="explore"):
    """Number the states reachable from start breadth-first.

    successors(state) is called once per state, in numbering order, and
    lists its successor states letter by letter.  Returns (order, delta):
    order[i] is the state numbered i and delta[i] the numbers of its
    successors.  More than max_states states raise BudgetExceededError
    naming the stage.
    """
    ids = {start: 0}
    order = [start]
    delta = []
    for state in order:
        row = []
        for t in successors(state):
            i = ids.get(t)
            if i is None:
                i = ids[t] = len(order)
                order.append(t)
                if max_states is not None and len(order) > max_states:
                    raise BudgetExceededError(stage, max_states)
            row.append(i)
        delta.append(row)
    return order, delta


def _minimize(delta, labels, initial):
    """Moore refinement from integer state labels, then the quotient.

    labels are small naturals (accepting flags, output codes); two states
    end in one class iff every input word leads them to equal labels.
    Each round gives a state the signature (its class, the classes of its
    successors letter by letter), all int32; one np.lexsort over the
    signature columns brings equal signatures together, and a cumulative
    sum over adjacent-row differences numbers the new classes.  Rounds
    stop when the class count stays put.  Returns (reps, new_delta):
    classes are numbered breadth-first from the class of initial, reps[i]
    is a state of class i and new_delta[i] lists the classes of its
    successors.  Classes are language classes, so the breadth-first pass
    also drops every unreachable state.
    """
    succ = np.asarray(delta, dtype=np.int32).T.copy()  # succ[letter, state]
    cls = np.asarray(labels, dtype=np.int32)
    n_classes = int(cls.max(initial=0)) + 1
    sig = np.empty((succ.shape[0] + 1, succ.shape[1]), dtype=np.int32)
    while True:
        np.take(cls, succ, out=sig[:-1])
        sig[-1] = cls
        perm = np.lexsort(sig)
        ranked = sig[:, perm]
        fresh = (ranked[:, 1:] != ranked[:, :-1]).any(axis=0)
        new = np.empty_like(cls)
        new[perm[0]] = 0
        new[perm[1:]] = np.cumsum(fresh, dtype=np.int32)
        new_count = int(new[perm[-1]]) + 1
        if new_count == n_classes:
            break
        cls, n_classes = new, new_count
    cls = new.tolist()
    rep = {}
    for q, c in enumerate(cls):
        rep.setdefault(c, q)
    order, new_delta = _explore(cls[initial], lambda c: [cls[t] for t in delta[rep[c]]])
    return [rep[c] for c in order], new_delta


def canonical_dfa(k, var_order, delta, accepting, initial) -> Dfa:
    """Minimize, drop unreachable states, and renumber breadth-first."""
    if not delta:
        delta, accepting, initial = [[0]], [False], 0
    reps, new_delta = _minimize(delta, accepting, initial)
    return Dfa(
        k,
        tuple(var_order),
        tuple(map(tuple, new_delta)),
        tuple(bool(accepting[q]) for q in reps),
        0,
    )


def is_zero_closed(a: Dfa) -> bool:
    """In canonical form, closure under leading zero columns is exactly a
    zero-column self-loop on the initial state."""
    return a.delta[a.initial][0] == a.initial


def true_dfa(k: int, var_order: Sequence[str] = ()) -> Dfa:
    t = len(var_order)
    return Dfa(k, tuple(var_order), ((0,) * letter_count(k, t),), (True,), 0)


def false_dfa(k: int, var_order: Sequence[str] = ()) -> Dfa:
    t = len(var_order)
    return Dfa(k, tuple(var_order), ((0,) * letter_count(k, t),), (False,), 0)


def complement(a: Dfa) -> Dfa:
    """Complement; inputs are complete so this is an acceptance flip."""
    return Dfa(a.k, a.var_order, a.delta, tuple(not x for x in a.accepting), a.initial)


def product(a: Dfa, b: Dfa, op: Callable[[bool, bool], bool],
            max_states: Optional[int] = None, stage: str = "product") -> Dfa:
    """Boolean combination of two recognisers, tracks aligned by name."""
    if a.k != b.k:
        raise ValueError("base mismatch")
    k = a.k
    merged = tuple(sorted(set(a.var_order) | set(b.var_order)))
    amap = _letter_map(k, merged, a.var_order)
    bmap = _letter_map(k, merged, b.var_order)
    letter_pairs = list(zip(amap, bmap))

    def successors(pair):
        da, db = a.delta[pair[0]], b.delta[pair[1]]
        return [(da[x], db[y]) for x, y in letter_pairs]

    order, delta = _explore((a.initial, b.initial), successors, max_states, stage)
    acc = [op(a.accepting[qa], b.accepting[qb]) for qa, qb in order]
    return canonical_dfa(k, merged, delta, acc, 0)


def intersect(a: Dfa, b: Dfa, max_states=None) -> Dfa:
    return product(a, b, lambda x, y: x and y, max_states, "intersect")


def union(a: Dfa, b: Dfa, max_states=None) -> Dfa:
    return product(a, b, lambda x, y: x or y, max_states, "union")


def project(a: Dfa, var: str, max_states: Optional[int] = None) -> Dfa:
    """Existential projection of one track, with leading-zero saturation.

    Dropping a track makes the automaton nondeterministic.  The projected
    component may need more digits than the remaining tracks, so a tuple
    can be recognised only in paddings longer than its own minimal one;
    saturating the initial state set under all-zero columns (any digit on
    the dropped track) restores closure under leading zeros.

    Subsets of the n input states are n-bit masks.  State q's successors
    are packed into one int: the mask reached on reduced letter l sits at
    bit offset l*n.  The successors of a subset are the OR of its
    members' packed ints, taken one 8-state chunk at a time: the union
    for each (chunk, byte of the mask) pair is computed on first use and
    kept in that chunk's dict, so a chunk's table holds at most 256
    entries of n*L bits each (L reduced letters).
    """
    if var not in a.var_order:
        raise ValueError(f"unknown track {var!r}")
    k = a.k
    n = a.num_states
    new_vars = tuple(v for v in a.var_order if v != var)
    reduced = _letter_map(k, a.var_order, new_vars)
    shifts = range(0, letter_count(k, len(new_vars)) * n, n)
    full = (1 << n) - 1

    packed = []
    for row in a.delta:
        p = 0
        for t, ell in zip(row, reduced):
            p |= 1 << (ell * n + t)
        packed.append(p)
    tables = [{} for _ in range(0, n, 8)]
    n_bytes = len(tables)

    def packed_union(mask):
        out = 0
        for j, byte in enumerate(mask.to_bytes(n_bytes, "little")):
            if byte:
                table = tables[j]
                u = table.get(byte)
                if u is None:
                    u = 0
                    for i in range(8):
                        if byte >> i & 1:
                            u |= packed[8 * j + i]
                    table[byte] = u
                out |= u
        return out

    # saturate the start set under all-zero columns
    start = 1 << a.initial
    while True:
        grown = start | (packed_union(start) & full)
        if grown == start:
            break
        start = grown

    def successors(mask):
        out = packed_union(mask)
        return [out >> s & full for s in shifts]

    order, delta = _explore(start, successors, max_states, "project")
    acc_mask = sum(1 << q for q, acc in enumerate(a.accepting) if acc)
    acc = [bool(mask & acc_mask) for mask in order]
    del order, tables  # minimization needs neither the subsets nor the unions
    return canonical_dfa(k, new_vars, delta, acc, 0)


def is_empty(a: Dfa) -> bool:
    return not any(a.accepting)


def shortest_accepted(a: Dfa) -> Optional[tuple[int, ...]]:
    """Values of the length-lexicographically least accepted encoding.

    Breadth-first search with letters in ascending order reaches every
    state first along its length-lex least path, so the first accepting
    state found yields the least witness tuple.
    """
    if a.accepting[a.initial]:
        return (0,) * len(a.var_order)
    parent: dict[int, tuple[int, int]] = {a.initial: (-1, -1)}
    queue = [a.initial]
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
    while q != a.initial:
        p, ell = parent[q]
        letters.append(ell)
        q = p
    letters.reverse()
    values = [0] * len(a.var_order)
    for ell in letters:
        digits = decode_letter(a.k, len(a.var_order), ell)
        for i, d in enumerate(digits):
            values[i] = values[i] * a.k + d
    return tuple(values)


def _useful_states(a: Dfa) -> tuple[set[int], set[int]]:
    """(states reachable by a minimal encoding, states co-reachable)."""
    # minimal encodings never begin with the all-zero column
    reach: set[int] = set()
    frontier = set()
    for ell in range(1, a.alphabet_size):
        frontier.add(a.delta[a.initial][ell])
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


def language_is_infinite(a: Dfa) -> bool:
    """True iff the accepted set of tuples is infinite (cycle through a
    useful state on some minimal encoding path)."""
    reach, co = _useful_states(a)
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


def enumerate_accepted(a: Dfa, limit: int) -> list[tuple[int, ...]]:
    """All accepted tuples, sorted; errors if infinite or above limit.

    A provably infinite language raises InfiniteLanguageError; a finite
    one larger than the limit raises EnumerationLimitError, so callers can
    tell budget pressure from genuine unboundedness.
    """
    if language_is_infinite(a):
        raise InfiniteLanguageError(f"accepted set of {len(a.var_order)}-tuples is infinite")
    reach, co = _useful_states(a)
    useful = reach & co
    results = []
    if a.accepting[a.initial]:
        results.append((0,) * len(a.var_order))

    t = len(a.var_order)
    steps = 0
    stack: list[tuple[int, tuple[int, ...]]] = []
    for ell in range(1, a.alphabet_size):
        q = a.delta[a.initial][ell]
        if q in useful:
            stack.append((q, decode_letter(a.k, t, ell)))
    while stack:
        q, values = stack.pop()
        steps += 1
        if steps > 4_000_000:
            raise EnumerationLimitError("enumeration walk exceeded its step bound")
        if a.accepting[q]:
            results.append(values)
            if len(results) > limit:
                raise EnumerationLimitError(f"more than {limit} accepted tuples")
        for ell in range(a.alphabet_size):
            nq = a.delta[q][ell]
            if nq in useful:
                digits = decode_letter(a.k, t, ell)
                nv = tuple(values[i] * a.k + digits[i] for i in range(t))
                stack.append((nq, nv))
    results.sort()
    return results


def language_equal(a: Dfa, b: Dfa) -> bool:
    """Language equality; canonical form makes this structural."""
    return (
        a.k == b.k
        and a.var_order == b.var_order
        and a.delta == b.delta
        and a.accepting == b.accepting
        and a.initial == b.initial
    )


# ---------------------------------------------------------------------------
# arithmetic relation builders

def eq_rel(k: int, x: str, y: str) -> Dfa:
    """{(x, y) : x = y}."""
    if x == y:
        return true_dfa(k, (x,))
    vars_ = tuple(sorted((x, y)))
    delta, acc = [], []
    for q in range(2):  # 0 equal so far, 1 dead
        row = []
        for ell in range(k * k):
            dx, dy = decode_letter(k, 2, ell)
            row.append(0 if q == 0 and dx == dy else 1)
        delta.append(row)
        acc.append(q == 0)
    return canonical_dfa(k, vars_, delta, acc, 0)


def _cmp_rel(k: int, x: str, y: str, accept_eq: bool) -> Dfa:
    # state 0: equal so far; 1: x < y decided; 2: x > y decided
    if x == y:
        return true_dfa(k, (x,)) if accept_eq else false_dfa(k, (x,))
    vars_ = tuple(sorted((x, y)))
    xi = vars_.index(x)
    delta, acc = [], []
    for q in range(3):
        row = []
        for ell in range(k * k):
            digits = decode_letter(k, 2, ell)
            dx, dy = digits[xi], digits[1 - xi]
            if q == 0:
                row.append(0 if dx == dy else (1 if dx < dy else 2))
            else:
                row.append(q)
        delta.append(row)
    acc = [accept_eq, True, False]
    return canonical_dfa(k, vars_, delta, acc, 0)


def less_rel(k: int, x: str, y: str) -> Dfa:
    """{(x, y) : x < y}."""
    return _cmp_rel(k, x, y, accept_eq=False)


def leq_rel(k: int, x: str, y: str) -> Dfa:
    """{(x, y) : x <= y}."""
    return _cmp_rel(k, x, y, accept_eq=True)


def add_rel(k: int, x: str, y: str, z: str) -> Dfa:
    """{(x, y, z) : x + y = z}, digits most significant first.

    The state tracks t = (x + y - z) restricted to the prefixes read so
    far; only t in {0, -1} can still reach t = 0, everything else is dead.
    """
    names = (x, y, z)
    if len(set(names)) != 3:
        # degenerate aliases reduce to linear facts; build via generic path
        return _add_rel_aliased(k, x, y, z)
    vars_ = tuple(sorted(names))
    pix, piy, piz = (vars_.index(n) for n in names)
    tvals = {0: 0, -1: 1}
    delta, acc = [], []
    for q in range(3):  # 0 -> t=0, 1 -> t=-1, 2 dead
        row = []
        for ell in range(k ** 3):
            digits = decode_letter(k, 3, ell)
            if q == 2:
                row.append(2)
                continue
            t = (0 if q == 0 else -1) * k + digits[pix] + digits[piy] - digits[piz]
            row.append(tvals.get(t, 2))
        delta.append(row)
        acc.append(q == 0)
    return canonical_dfa(k, vars_, delta, acc, 0)


def _add_rel_aliased(k: int, x: str, y: str, z: str) -> Dfa:
    if x == y and y == z:
        return const_rel(k, x, 0)  # n + n = n
    if x == y:
        return const_mul_rel(k, 2, x, z)  # 2x = z
    if z == x:  # x + y = x  ->  y = 0, x free
        return intersect(const_rel(k, y, 0), true_dfa(k, (x,)))
    if z == y:
        return intersect(const_rel(k, x, 0), true_dfa(k, (y,)))
    raise AssertionError("unhandled aliasing")


def const_mul_rel(k: int, c: int, x: str, y: str) -> Dfa:
    """{(x, y) : y = c * x} by a digit-wise carry construction.

    On valid pairs the running value t = c*X - Y stays in (-c, 0]; any
    step leaving that window is dead.
    """
    if c < 0:
        raise ValueError("c must be a natural number")
    if c == 0:
        if x == y:
            return const_rel(k, x, 0)
        return intersect(const_rel(k, y, 0), true_dfa(k, (x,)))
    if c == 1:
        return eq_rel(k, x, y)
    if x == y:
        return const_rel(k, x, 0)  # y = c*y with c >= 2
    vars_ = tuple(sorted((x, y)))
    xi = vars_.index(x)
    n_live = c  # t in {0, -1, ..., -(c-1)} encoded as 0..c-1; dead = c
    delta, acc = [], []
    for q in range(n_live + 1):
        row = []
        for ell in range(k * k):
            digits = decode_letter(k, 2, ell)
            dx, dy = digits[xi], digits[1 - xi]
            if q == n_live:
                row.append(n_live)
                continue
            t = -q * k + c * dx - dy
            row.append(-t if -(c - 1) <= t <= 0 else n_live)
        delta.append(row)
        acc.append(q == 0)
    return canonical_dfa(k, vars_, delta, acc, 0)


def const_rel(k: int, x: str, c: int) -> Dfa:
    """{x : x = c}; accepts every padding of the representation of c."""
    if c < 0:
        raise ValueError("c must be a natural number")
    rep = digits_of(k, c)
    n = len(rep)
    # states: 0..n progress through rep (0 also absorbs leading zeros),
    # n+1 dead
    delta, acc = [], []
    for q in range(n + 2):
        row = []
        for d in range(k):
            if q == n + 1:
                row.append(n + 1)
            elif q == 0:
                if d == 0:
                    row.append(0)
                elif n > 0 and d == rep[0]:
                    row.append(1)
                else:
                    row.append(n + 1)
            elif q < n:
                row.append(q + 1 if d == rep[q] else n + 1)
            else:  # q == n, representation complete
                row.append(n + 1)
        delta.append(row)
        acc.append(q == n)
    # for c = 0 state 0 is both start and accept
    if n == 0:
        acc[0] = True
    return canonical_dfa(k, (x,), delta, acc, 0)


# ---------------------------------------------------------------------------
# Dfao

@dataclass(frozen=True)
class Dfao:
    """Automaton with output: state outputs give the sequence symbol.

    x[n] is the output of the state reached from initial on the base-k
    digits of n, most significant first (empty input for n = 0).  Loaders
    validate that leading zeros cannot change any eventual output.
    """

    k: int
    alphabet: tuple[int, ...]
    outputs: tuple[int, ...]
    delta: tuple[tuple[int, ...], ...]
    initial: int

    @property
    def num_states(self) -> int:
        return len(self.outputs)

    def eval(self, n: int) -> int:
        if n < 0:
            raise ValueError("sequence positions are naturals")
        q = self.initial
        for d in digits_of(self.k, n):
            q = self.delta[q][d]
        return self.outputs[q]

    def prefix(self, n: int) -> list[int]:
        """First n symbols, filled in one pass via x[k*m + d] = step(x[m], d).

        Uses the canonical form, whose initial state carries a genuine
        zero self-loop, so state_of(k*m + d) = delta[state_of(m)][d] holds
        for every m >= 0.
        """
        c = self.canonical()
        states = [0] * max(n, 1)
        states[0] = c.initial
        for m in range(n):
            base = self.k * m
            if base >= n and m > 0:
                break
            for d in range(self.k):
                i = base + d
                if 0 < i < n:
                    states[i] = c.delta[states[m]][d]
        return [c.outputs[q] for q in states[:n]]

    def canonical(self) -> "Dfao":
        return _canonical_dfao(self)

    def dumps(self) -> str:
        lines = [f"k {self.k}"]
        lines.append("alphabet " + " ".join(str(s) for s in self.alphabet))
        lines.append(f"states {self.num_states}")
        lines.append(f"initial {self.initial}")
        for q, s in enumerate(self.outputs):
            lines.append(f"output {q} {s}")
        for q, row in enumerate(self.delta):
            for d, t in enumerate(row):
                lines.append(f"trans {q} {d} {t}")
        return "\n".join(lines) + "\n"


@lru_cache(maxsize=64)
def _canonical_dfao(m: Dfao) -> Dfao:
    code = {s: i for i, s in enumerate(sorted(set(m.outputs)))}
    reps, new_delta = _minimize(m.delta, [code[s] for s in m.outputs], m.initial)
    new_out = tuple(m.outputs[q] for q in reps)
    return Dfao(m.k, m.alphabet, new_out, tuple(map(tuple, new_delta)), 0)


def validate_dfao(m: Dfao) -> None:
    """Structural checks plus leading-zero invariance of outputs."""
    n = m.num_states
    if not (0 <= m.initial < n):
        raise ValueError("initial state out of range")
    if len(m.delta) != n:
        raise ValueError("transition table size mismatch")
    for q, row in enumerate(m.delta):
        if len(row) != m.k:
            raise ValueError(f"state {q} is missing transitions")
        for t in row:
            if not (0 <= t < n):
                raise ValueError(f"state {q} has a transition out of range")
    alpha = set(m.alphabet)
    for q, s in enumerate(m.outputs):
        if s not in alpha:
            raise ValueError(f"state {q} outputs {s} outside the alphabet")
    # leading zeros must not affect any eventual output: the initial state
    # and its zero-successor must be output-equivalent, that is the
    # minimized automaton must loop on zero at its initial state
    if m.canonical().delta[0][0] != 0:
        raise ValueError("leading zeros change outputs (no zero self-loop up to equivalence)")


def seq_at_dfa(m: Dfao, var: str, symbol: int) -> Dfa:
    """{n : x[n] = symbol} over one track."""
    c = m.canonical()
    acc = [s == symbol for s in c.outputs]
    return canonical_dfa(c.k, (var,), [list(r) for r in c.delta], acc, c.initial)


def seq_eq_dfa(m: Dfao, var1: str, var2: str) -> Dfa:
    """{(s, t) : x[s] = x[t]} as a pair product of the automaton with
    itself; quadratic in states rather than linear in the alphabet."""
    k = m.k
    if var1 == var2:
        return true_dfa(k, (var1,))
    c = m.canonical()
    vars_ = tuple(sorted((var1, var2)))
    i1 = vars_.index(var1)
    letters = [decode_letter(k, 2, ell) for ell in range(k * k)]

    def successors(pair):
        da, db = c.delta[pair[0]], c.delta[pair[1]]
        return [(da[d[i1]], db[d[1 - i1]]) for d in letters]

    order, delta = _explore((c.initial, c.initial), successors)
    acc = [c.outputs[qa] == c.outputs[qb] for qa, qb in order]
    return canonical_dfa(k, vars_, delta, acc, 0)


# ---------------------------------------------------------------------------
# text format

def loads_dfao(text: str) -> Dfao:
    """Parse the automaton text format; validates before returning.

    Directives: k, alphabet, states, initial, output, trans.  Comments
    start with '#'.  Every state needs one output line and a transition
    for every digit.
    """
    k = alphabet = n_states = initial = None
    outputs: dict[int, int] = {}
    trans: dict[tuple[int, int], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head, args = parts[0], parts[1:]
        try:
            if head == "k":
                (k,) = (int(args[0]),)
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
                n_states = int(args[0])
                if n_states <= 0:
                    raise DfaoFormatError(lineno, "need at least one state")
            elif head == "initial":
                initial = int(args[0])
            elif head == "output":
                q, s = int(args[0]), int(args[1])
                if q in outputs:
                    raise DfaoFormatError(lineno, f"duplicate output for state {q}")
                outputs[q] = s
            elif head == "trans":
                q, d, t = int(args[0]), int(args[1]), int(args[2])
                if (q, d) in trans:
                    raise DfaoFormatError(lineno, f"duplicate transition {q} {d}")
                trans[(q, d)] = t
            else:
                raise DfaoFormatError(lineno, f"unknown directive {head!r}")
        except DfaoFormatError:
            raise
        except (ValueError, IndexError):
            raise DfaoFormatError(lineno, f"malformed {head!r} line") from None
    for name, val in (("k", k), ("alphabet", alphabet), ("states", n_states), ("initial", initial)):
        if val is None:
            raise DfaoFormatError(0, f"missing {name!r} directive")
    if set(outputs) != set(range(n_states)):
        missing = sorted(set(range(n_states)) - set(outputs))
        raise DfaoFormatError(0, f"missing output for states {missing}")
    delta = []
    for q in range(n_states):
        row = []
        for d in range(k):
            if (q, d) not in trans:
                raise DfaoFormatError(0, f"missing transition for state {q} digit {d}")
            t = trans[(q, d)]
            if not (0 <= t < n_states):
                raise DfaoFormatError(0, f"transition {q} {d} -> {t} out of range")
            row.append(t)
        delta.append(tuple(row))
    extra = set(trans) - {(q, d) for q in range(n_states) for d in range(k)}
    if extra:
        raise DfaoFormatError(0, f"transition on undeclared state or digit: {sorted(extra)[0]}")
    m = Dfao(k, alphabet, tuple(outputs[q] for q in range(n_states)), tuple(delta), initial)
    try:
        validate_dfao(m)
    except ValueError as e:
        raise DfaoFormatError(0, str(e)) from None
    return m


def load_dfao(path) -> Dfao:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_dfao(fh.read())

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
comparison (dataclass ==).  The queries read three facts off it:

- state 0 is the initial state;
- states are numbered breadth-first with letters in ascending order, so
  the least-numbered accepting state is the end of the least witness;
- at most one state is dead (accepts no word), and it is a rejecting
  sink.

Every builder is written one way: a successor function that _explore
runs breadth-first from the start state, numbering the states it meets,
and the table it returns goes to _canonical (or, for a Dfao, to
_minimize), which reads the canonical numbering off the classes' first
members instead of exploring the quotient again.  project's two subset
constructions and rename_tracks are _explore runs too, whose results
are minimal already.  Pairs of states are numbered (qa << s) | qb by
one loop, _pair_explore, which product, meets and seq_rel for two
indices run.

A question that needs only a least witness builds no automaton: a walk
stops _explore at the first state with the wanted label and keeps its
partial table, and _least_word reads the least word back off it, as
shortest_accepted reads it off a canonical Dfa.  meets and
least_meeting walk the pairs of a product, least_projected the forward
subsets of a projection (_subsets, which project's passes run too).
Breadth-first order with letters ascending is length-lexicographic, so
the first hit ends the word shortest_accepted gives on the automaton
the walk stands for.

rank2_decide puts its deadline (a time.monotonic value) in the context
variable deadline, None by default.  Every automaton build checks it per
state, row or refinement round and past it raises
BudgetExceededError("wall_time"), which caches nothing; the verdict
names the stage that was running.
"""

from __future__ import annotations

import operator
import time
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import (
    BudgetExceededError,
    DfaoFormatError,
    EnumerationLimitError,
    InfiniteLanguageError,
)

deadline: ContextVar[Optional[float]] = ContextVar("deadline", default=None)


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
    if n < 0:
        raise ValueError("only naturals have base-k digits")
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
    state; var_order names one track per variable, sorted.  State 0 is
    the initial state.
    """

    k: int
    var_order: tuple[str, ...]
    delta: tuple[tuple[int, ...], ...]
    accepting: tuple[bool, ...]

    @property
    def num_states(self) -> int:
        return len(self.delta)

    def accepts_encoded(self, letters: Iterable[int]) -> bool:
        q = 0
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


def _explore(start, successors, max_states=None, stage="explore", until=None):
    """Number the states reachable from start breadth-first.

    successors(state) is called once per state, in numbering order, and
    lists its successor states letter by letter.  Returns (order, delta):
    order[i] is the state numbered i and delta[i] the numbers of its
    successors.  More than max_states states raise BudgetExceededError
    naming the stage, and passing the deadline raises it at "wall_time".
    Given until, the walk ends at the first state met (start included)
    for which until(state) is true: that state is numbered last, and
    delta ends with the row that met it, cut just after it, so a walk
    that stopped has fewer rows than states (see _stopped).
    """
    ids = {start: 0}
    order = [start]
    delta = []
    if until is not None and until(start):
        return order, delta
    stop = deadline.get()
    for state in order:
        if stop is not None and time.monotonic() > stop:
            raise BudgetExceededError("wall_time", stop)
        row = []
        delta.append(row)
        for t in successors(state):
            i = ids.get(t)
            if i is None:
                i = ids[t] = len(order)
                order.append(t)
                if max_states is not None and len(order) > max_states:
                    raise BudgetExceededError(stage, max_states)
                if until is not None and until(t):
                    row.append(i)
                    return order, delta
            row.append(i)
    return order, delta


def _stopped(table) -> bool:
    """Whether an _explore run stopped at a state until picked, the last
    one it numbered."""
    order, delta = table
    return len(delta) < len(order)


def _least_word(k: int, tracks: int, delta, q: int) -> tuple[int, ...]:
    """Values of the length-lexicographically least word that leads
    state 0 to state q of a breadth-first table, as _explore numbers it.

    Breadth-first search with letters in ascending order meets the states
    in the order of their numbers and reaches each along its length-lex
    least path.  It first enters a state q > 0 by the first edge into q in
    row order, which leaves a state numbered below q; following those
    edges back to state 0 spells the word.  So only the rows up to q's
    parent are read, and a table that _explore cut short at q has them.
    """
    letters = []
    while q:
        q, ell = next((p, row.index(q)) for p, row in enumerate(delta) if q in row)
        letters.append(ell)
    values = [0] * tracks
    for ell in reversed(letters):
        for i, d in enumerate(decode_letter(k, tracks, ell)):
            values[i] = values[i] * k + d
    return tuple(values)


def _least_met(k: int, tracks: tuple[str, ...], table) -> Optional[dict[str, int]]:
    """The values, by track, of the word that ends a stopped walk; None
    when the walk met every state."""
    if not _stopped(table):
        return None
    order, delta = table
    return dict(zip(tracks, _least_word(k, len(tracks), delta, len(order) - 1)))


def _minimize(delta, labels):
    """Moore refinement from hashable state labels, then the quotient.

    delta is a table as _explore returns it: numbered breadth-first from
    state 0 with letters in ascending order, every state reachable.
    labels are accepting flags or output symbols; two states end in one
    class iff every input word leads them to equal labels.  Each state
    gets one operator.itemgetter over its successors, built once.  Each
    round keys a state by its signature (its class, the classes of its
    successors letter by letter, read by that getter) and numbers the
    distinct signatures in order of first appearance through a dict.
    Rounds stop when the class count stays put, and each checks the
    deadline.  Returns (reps, new_delta): reps[i] is the first state of
    class i and new_delta[i] lists the classes of its successors.

    Numbering classes by first appearance is the canonical breadth-first
    numbering of the quotient.  Breadth-first order is the
    length-lexicographic order of the states' least access words.  A
    word leads state 0 to a class iff it leads it to a member, so the
    least access word of a class is that of its first member, and
    ordering the classes by first member orders them by least access
    word.
    """
    rows = [operator.itemgetter(*row) for row in delta]
    cls = labels
    n_classes = len(set(labels))
    stop = deadline.get()
    while True:
        if stop is not None and time.monotonic() > stop:
            raise BudgetExceededError("wall_time", stop)
        ids = {}
        new = [ids.setdefault((c, row(cls)), len(ids)) for c, row in zip(cls, rows)]
        if len(ids) == n_classes:
            break
        cls, n_classes = new, len(ids)
    reps = []
    for q, c in enumerate(new):
        if c == len(reps):
            reps.append(q)
    return reps, [[new[t] for t in delta[q]] for q in reps]


def _canonical(k, var_order, delta, accepting) -> Dfa:
    """The canonical Dfa of a table as _explore returns it; accepting[i]
    is state i's flag."""
    reps, new_delta = _minimize(delta, accepting)
    return Dfa(
        k,
        tuple(var_order),
        tuple(map(tuple, new_delta)),
        tuple(bool(accepting[q]) for q in reps),
    )


def true_dfa(k: int, var_order: Sequence[str] = ()) -> Dfa:
    t = len(var_order)
    return Dfa(k, tuple(var_order), ((0,) * letter_count(k, t),), (True,))


def complement(a: Dfa) -> Dfa:
    """Complement; inputs are complete so this is an acceptance flip."""
    return Dfa(a.k, a.var_order, a.delta, tuple(not x for x in a.accepting))


def _pair_explore(arows, brows, s, start, max_states, stage, until=None):
    """_explore over pairs of states numbered (qa << s) | qb.

    arows[qa] lists qa's successors letter by letter, each already
    shifted left by s, and brows[qb] lists qb's, each below 2**s, so a
    pair's successors are the two rows or-ed letter by letter.
    """
    mask = (1 << s) - 1

    def successors(pair):
        return list(map(operator.or_, arows[pair >> s], brows[pair & mask]))

    return _explore(start, successors, max_states, stage, until)


def _pair_walk(a, b, op, max_states, stage, want=None):
    """Explore the pairs of a's and b's states, tracks aligned by name.

    _pair_explore numbers the pair (qa, qb) as (qa << s) | qb, with s
    the bit length of nb, so qb < 2**s - 1.  An input state is absorbing
    when it is a sink labelled op's zero z, the label with op(z, x) =
    op(x, z) = z for both x: the dead state for intersect, the full
    state for union.  Every pair that holds one has the language of z,
    so the rows name an absorbing target -1, all ones, and or-ing the
    two rows sends each such pair to -1, whose row is itself.
    max_states caps the pairs explored, -1 included.  Returns the merged
    tracks, label (a pair's op of the two flags) and _pair_explore's
    result, which is None when want is given and a pair labelled want was
    met.
    """
    if a.k != b.k:
        raise ValueError("base mismatch")
    merged = tuple(sorted(set(a.var_order) | set(b.var_order)))
    amap = _letter_map(a.k, merged, a.var_order)
    bmap = _letter_map(a.k, merged, b.var_order)
    nb = b.num_states
    s = nb.bit_length()
    mask = (1 << s) - 1
    zero = next((z for z in (False, True) if all(op(z, x) == op(x, z) == z for x in (False, True))), None)
    acode = [-1 if z == zero and row.count(q) == len(row) else q << s
             for q, (row, z) in enumerate(zip(a.delta, a.accepting))]
    bcode = [-1 if z == zero and row.count(q) == len(row) else q
             for q, (row, z) in enumerate(zip(b.delta, b.accepting))]
    # -1 reads row -1 of arows and row mask of brows
    ones = [-1] * len(amap)
    arows = [[acode[row[x]] for x in amap] for row in a.delta] + [ones]
    brows = [[bcode[row[y]] for y in bmap] for row in b.delta] + [ones] * (mask + 1 - nb)

    def label(p):
        return op(a.accepting[p >> s], b.accepting[p & mask]) if p >= 0 else zero

    until = None if want is None else lambda p: label(p) == want
    return merged, label, _pair_explore(arows, brows, s, acode[0] | bcode[0], max_states, stage, until)


def product(a: Dfa, b: Dfa, op: Callable[[bool, bool], bool],
            max_states: Optional[int] = None, stage: str = "product") -> Dfa:
    """Boolean combination of two recognisers, tracks aligned by name;
    _pair_walk explores the pairs and _canonical minimizes them."""
    merged, label, (order, delta) = _pair_walk(a, b, op, max_states, stage)
    return _canonical(a.k, merged, delta, list(map(label, order)))


def meets(a: Dfa, b: Dfa, op: Callable[[bool, bool], bool], want: bool,
          max_states: Optional[int] = None, stage: str = "product") -> bool:
    """Whether op(a accepts, b accepts) is want for some tuple.

    Explores the pairs of product(a, b, op) and stops at the first one
    labelled want, so a witness met early leaves the rest unexplored and
    nothing is minimized.  Every pair met is reachable, and a reachable
    pair is reached by the encoding of some tuple.  The pairs met, that
    one included, count against max_states as in product.
    """
    return _stopped(_pair_walk(a, b, op, max_states, stage, want)[2])


def least_meeting(a: Dfa, b: Dfa, op: Callable[[bool, bool], bool], want: bool,
                  max_states: Optional[int] = None, stage: str = "product") -> Optional[dict[str, int]]:
    """The least tuple, by track, for which op(a accepts, b accepts) is
    want, or None: shortest_accepted of product(a, b, op), or of its
    complement when want is false, read off the walk meets runs.  The
    pairs met count against max_states, and a breach names stage.
    """
    merged, _, table = _pair_walk(a, b, op, max_states, stage, want)
    return _least_met(a.k, merged, table)


def intersect(a: Dfa, b: Dfa, max_states=None) -> Dfa:
    return product(a, b, operator.and_, max_states, "intersect")


def union(a: Dfa, b: Dfa, max_states=None) -> Dfa:
    return product(a, b, operator.or_, max_states, "union")


def _reversed_rows(delta, letters):
    """The reverse of a transition table, one packed int per state.

    Every edge q -> t on letter x of delta sets bit letters[x]*n + q of
    t's int (n states), so the predecessors of t on reduced letter l form
    the mask at bit offset l*n.
    """
    n = len(delta)
    packed = [0] * n
    stop = deadline.get()
    for q, row in enumerate(delta):
        if stop is not None and time.monotonic() > stop:
            raise BudgetExceededError("wall_time", stop)
        bit = 1 << q
        for t, ell in zip(row, letters):
            packed[t] |= bit << (ell * n)
    return packed


def _subsets(row, n, n_letters, start, max_states, until=None):
    """Subset construction over packed rows, from the start mask.

    Subsets of the n states are n-bit masks, and row(q) is state q's
    packed int: its targets on letter l at bit offset l*n.  The targets
    of a subset are the OR of its members' packed ints, taken one 8-state
    chunk at a time: the union for each (chunk, byte of the mask) pair is
    computed on first use and kept in that chunk's dict, so a chunk's
    table holds at most 256 entries of n*n_letters bits each, and row is
    called only for states of the subsets met.  Returns _explore's
    (order, delta), order[i] being the mask of subset i, and stops as it
    does at the first mask for which until is true; more than max_states
    subsets raise BudgetExceededError("project", max_states).
    """
    shifts = range(0, n_letters * n, n)
    full = (1 << n) - 1
    tables = [{} for _ in range(0, n, 8)]
    n_bytes = len(tables)

    def successors(mask):
        out = 0
        for j, byte in enumerate(mask.to_bytes(n_bytes, "little")):
            if byte:
                table = tables[j]
                u = table.get(byte)
                if u is None:
                    u = 0
                    for i in range(8):
                        if byte >> i & 1:
                            u |= row(8 * j + i)
                    table[byte] = u
                out |= u
        return [out >> s & full for s in shifts]

    return _explore(start, successors, max_states, "project", until)


def _dropping(a: Dfa, var: str):
    """The nondeterministic automaton left when var is dropped: its
    tracks, the letter map onto them, and its start and accepting sets
    as masks.  The start set is state 0 saturated under the columns that
    are zero on every track left (any digit on var), which restores
    closure under leading zeros: the dropped component may need more
    digits than the others, so a tuple can be recognised only in
    paddings longer than its own minimal one."""
    if var not in a.var_order:
        raise ValueError(f"unknown track {var!r}")
    new_vars = tuple(v for v in a.var_order if v != var)
    reduced = _letter_map(a.k, a.var_order, new_vars)
    start = 1
    frontier = [0]
    for q in frontier:
        for t, ell in zip(a.delta[q], reduced):
            if ell == 0 and not start >> t & 1:
                start |= 1 << t
                frontier.append(t)
    return new_vars, reduced, start, sum(1 << q for q, acc in enumerate(a.accepting) if acc)


def project(a: Dfa, var: str, max_states: Optional[int] = None) -> Dfa:
    """Existential projection of one track, with leading-zero saturation
    (see _dropping).

    Dropping a track makes the automaton nondeterministic.  It is
    determinized twice, by Brzozowski's double reversal.  The first
    subset construction runs on its reverse: it starts from a's
    accepting states, and a subset is final when it meets the saturated
    start set.  That gives a deterministic automaton for the reversed
    language with every state reachable, so the second subset
    construction, on the reverse of that one (starting from its final
    states, accepting the subsets that hold its start), gives the
    minimal complete automaton of the projection.  _explore numbers it
    breadth-first in letter order, which is the canonical numbering, so
    it is returned as it is, with no minimization pass.  max_states caps
    the subsets of each of the two constructions.
    """
    new_vars, reduced, start, acc_mask = _dropping(a, var)
    n_letters = letter_count(a.k, len(new_vars))
    order, delta = _subsets(_reversed_rows(a.delta, reduced).__getitem__, a.num_states,
                            n_letters, acc_mask, max_states)
    final = sum(1 << i for i, mask in enumerate(order) if mask & start)
    del order
    order, delta = _subsets(_reversed_rows(delta, range(n_letters)).__getitem__, len(delta),
                            n_letters, final, max_states)
    return Dfa(a.k, new_vars, tuple(map(tuple, delta)), tuple(bool(mask & 1) for mask in order))


def least_projected(a: Dfa, var: str, want: bool,
                    max_states: Optional[int] = None) -> Optional[dict[str, int]]:
    """The least tuple, by track, whose membership in project(a, var) is
    want, or None: shortest_accepted of the projection, or of its
    complement when want is false, with no projection built.

    A word is in the projection iff the forward subset it reaches from
    the saturated start set meets a's accepting states.  _subsets walks
    those subsets over packed rows in _reversed_rows' format with the
    edges kept forward, each packed when first needed, and stops at the
    first subset that does (does not, when want is false).  The subsets
    met count against max_states, and a breach names "project".  A
    forward construction can be exponentially larger than the reverse
    one, so the walk is smaller than project's passes only when it meets
    a witness early.
    """
    new_vars, reduced, start, acc_mask = _dropping(a, var)
    n = a.num_states
    offsets = [ell * n for ell in reduced]

    def row(q):
        return sum({1 << (off + t) for t, off in zip(a.delta[q], offsets)})

    table = _subsets(row, n, letter_count(a.k, len(new_vars)), start, max_states,
                     lambda mask: bool(mask & acc_mask) == want)
    return _least_met(a.k, new_vars, table)


def is_empty(a: Dfa) -> bool:
    return not any(a.accepting)


def shortest_accepted(a: Dfa) -> Optional[tuple[int, ...]]:
    """Values of the length-lexicographically least accepted encoding.

    A canonical Dfa is numbered breadth-first, so the least accepting
    state ends the least witness, and _least_word reads it back to state
    0.  The walks least_meeting and least_projected read the same word
    off an early-stopped walk, for a product or a projection that is
    never built.
    """
    q = next((q for q, acc in enumerate(a.accepting) if acc), None)
    if q is None:
        return None
    return _least_word(a.k, len(a.var_order), a.delta, q)


def enumerate_accepted(a: Dfa, limit: int) -> list[tuple[int, ...]]:
    """All accepted tuples, sorted; errors if infinite or above limit.

    A tuple other than all zeros has one encoding that does not begin
    with the all-zero column.  A state is live when some word leads it to
    acceptance; in canonical form that is a state that accepts or has an
    edge to another state.  The set is infinite iff a live cycle follows
    a nonzero first column, that is iff live paths of num_states + 1
    states start there; then InfiniteLanguageError is raised, whatever
    the limit.  Otherwise a depth-first walk over live states lists the
    tuples and raises EnumerationLimitError past limit of them.  Every
    path it takes is a prefix of an accepted encoding, so it takes about
    limit * num_states steps.
    """
    t = len(a.var_order)
    live = [acc or any(s != q for s in row) for q, (row, acc) in enumerate(zip(a.delta, a.accepting))]
    level = {s for s in a.delta[0][1:] if live[s]}
    for _ in range(a.num_states):
        level = {s for q in level for s in a.delta[q] if live[s]}
    if level:
        raise InfiniteLanguageError(f"accepted set of {t}-tuples is infinite")
    results = [(0,) * t] if a.accepting[0] else []
    stack = [(q, decode_letter(a.k, t, ell)) for ell, q in enumerate(a.delta[0]) if ell and live[q]]
    while stack and len(results) <= limit:
        q, values = stack.pop()
        if a.accepting[q]:
            results.append(values)
        for ell, nq in enumerate(a.delta[q]):
            if live[nq]:
                digits = decode_letter(a.k, t, ell)
                stack.append((nq, tuple(v * a.k + d for v, d in zip(values, digits))))
    if len(results) > limit:
        raise EnumerationLimitError(f"more than {limit} accepted tuples")
    results.sort()
    return results


def rename_tracks(a: Dfa, names: Mapping[str, str]) -> Dfa:
    """The same relation with track v renamed names.get(v, v).

    When the new names sort like the old ones the letters keep their
    meaning and the tables are shared.  Otherwise the tracks are re-sorted
    and each row's letters permuted to match.  Permuting the letters of a
    minimal automaton leaves it minimal, so only the breadth-first
    numbering, which follows the letter order, has to be redone.
    """
    new = tuple(names.get(v, v) for v in a.var_order)
    order = tuple(sorted(new))
    if len(set(order)) != len(order):
        raise ValueError("track rename collides")
    if order == new:
        return Dfa(a.k, new, a.delta, a.accepting)
    perm = _letter_map(a.k, order, new)
    states, delta = _explore(0, lambda q: [a.delta[q][ell] for ell in perm])
    return Dfa(a.k, order, tuple(map(tuple, delta)), tuple(a.accepting[q] for q in states))


# ---------------------------------------------------------------------------
# arithmetic relation builders

_COMPARE = {"=": operator.eq, "<=": operator.le, "<": operator.lt}


def linear_rel(k: int, coeffs: Mapping[str, int], op: str,
               max_states: Optional[int] = None) -> Dfa:
    """{v : sum of coeffs[x] * v_x op 0} for op in '=', '<=', '<'.

    One track per name in coeffs, a zero coefficient included.  Digits
    are read most significant first; the state is g, the weighted value
    of the prefixes read so far, and a column of digits d takes g to
    k*g + sum of coeffs[x] * d_x.  With P the sum of the positive
    coefficients and N that of the magnitudes of the negative ones, a g
    >= max(1, N) never comes back down and a g <= min(-1, -P) never
    comes back up, so each side is one sink; a state accepts iff g op 0,
    and for '=', where both sinks reject, they are one dead state.  So
    x = y has 2 raw states, x < y and x + y = z have 3, and y = c*x has
    c + 1; more than max_states raise BudgetExceededError at "linear".
    """
    compare = _COMPARE[op]
    names = tuple(sorted(coeffs))
    a = [coeffs[x] for x in names]
    hi = max(1, -sum(c for c in a if c < 0))
    lo = min(-1, -sum(c for c in a if c > 0))
    below = hi if op == "=" else lo
    steps = [
        sum(c * d for c, d in zip(a, decode_letter(k, len(names), ell)))
        for ell in range(letter_count(k, len(names)))
    ]

    def successors(g):
        return [min(hi, t) if t > lo else below for t in [k * g + s for s in steps]]

    order, delta = _explore(0, successors, max_states, "linear")
    return _canonical(k, names, delta, [compare(g, 0) for g in order])


def const_rel(k: int, x: str, c: int) -> Dfa:
    """{x : x = c}; accepts every padding of the representation of c.

    With n the digit count of c, state i has matched the first i digits,
    state 0 also reads leading zeros, and state n + 1 is dead.
    """
    if c < 0:
        raise ValueError("c must be a natural number")
    rep = digits_of(k, c)
    n = len(rep)

    def successors(i):
        return [i if i == 0 == d else i + 1 if i < n and d == rep[i] else n + 1 for d in range(k)]

    order, delta = _explore(0, successors)
    return _canonical(k, (x,), delta, [i == n for i in order])


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
        q = self.initial
        for d in digits_of(self.k, n):
            q = self.delta[q][d]
        return self.outputs[q]

    def prefix(self, n: int) -> list[int]:
        """First n symbols: the outputs of prefix_states' states."""
        outputs = self.canonical().outputs
        return list(map(outputs.__getitem__, self.prefix_states(n)))

    def prefix_states(self, n: int):
        """The states of self.canonical() at positions 0..n - 1, one
        gather per base-k digit level; oracle.rank_prefix reads them too.

        The canonical form's initial state carries a genuine zero
        self-loop, so state_of(k*m + d) = delta[state_of(m)][d] holds for
        every m >= 0: the states of positions 0..k^(j+1) - 1 are the rows
        delta[state_of(m)] for m < k^j, laid end to end.  Only the
        positions whose children fall below n are expanded.  With at most
        256 states a level is a bytearray, expanded by one translate
        through column d of delta per digit d, written to every k-th byte
        from d; with more it is a list.
        """
        if n < 0:
            raise ValueError("prefix lengths are naturals")
        c = self.canonical()
        k, parents = self.k, -(-n // self.k)
        if c.num_states <= 256:
            columns = [bytes(row[d] for row in c.delta).ljust(256, b"\0") for d in range(k)]
            states = bytearray([c.initial])
            while len(states) < n:
                up = states[:parents]
                states = bytearray(k * len(up))
                for d, column in enumerate(columns):
                    states[d::k] = up.translate(column)
        else:
            states = [c.initial]
            while len(states) < n:
                states = [t for q in states[:parents] for t in c.delta[q]]
        return states[:n]

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
    order, delta = _explore(m.initial, m.delta.__getitem__)
    outputs = [m.outputs[q] for q in order]
    reps, new_delta = _minimize(delta, outputs)
    return Dfao(m.k, m.alphabet, tuple(outputs[q] for q in reps), tuple(map(tuple, new_delta)), 0)


# ---------------------------------------------------------------------------
# sequence relations

def _windows(m: Dfao, col_sums: Sequence[int], c: int, max_states: Optional[int] = None):
    """The windows of one sequence index t = sum of a_x * v_x + c.

    Write state(n) for the state of the canonical form m reached on the
    digits of n, and V for the value of sum a_x * v_x on the digit
    columns read so far, most significant first.  A window is the tuple
    of state(V + e) for the offsets e in O, the closure of {c} under
    e -> (e + s) // k with s ranging over the index's column sums.  A
    column of sum s takes V to k*V + s, and

        state(k*V + s + e) = delta[state(V + (s + e) // k)][(s + e) % k],

    whose source is again in the window, so the windows form a
    deterministic automaton and x[t] is the output at offset c.  The
    all-zero column maps the window at V = 0 to itself, so that window
    is the start and the automaton is closed under leading zeros.  O
    holds at most (sum of a_x + 1) * (log_k c + 2) offsets; a lone
    variable has O = {0} and its windows are the states of m.

    col_sums[ell] is the column sum of letter ell.  _explore numbers the
    windows over the letters, computing one successor per distinct sum;
    returns its table and each window's output at offset c.  More than
    max_states windows raise BudgetExceededError at "sequence-index".
    """
    k = m.k
    sums = sorted(set(col_sums))
    offsets = {c}
    frontier = [c]
    for e in frontier:
        for s in sums:
            f = (e + s) // k
            if f not in offsets:
                offsets.add(f)
                frontier.append(f)
    offsets = sorted(offsets)
    slot = {e: i for i, e in enumerate(offsets)}
    pos = {s: i for i, s in enumerate(sums)}
    columns = [pos[s] for s in col_sums]
    plans = [[(slot[(e + s) // k], (e + s) % k) for e in offsets] for s in sums]
    delta = m.delta
    # the all-zero letter makes 0 the least column sum; its plan reads
    # state(e // k) for offset e, filled in before e since offsets
    # ascend, and offset 0 reads the initial state's zero loop
    start = [m.initial] * len(offsets)
    for i, (j, d) in enumerate(plans[0]):
        start[i] = delta[start[j]][d]

    def successors(win):
        row = [tuple([delta[win[j]][d] for j, d in plan]) for plan in plans]
        return [row[j] for j in columns]

    order, table = _explore(tuple(start), successors, max_states, "sequence-index")
    at = slot[c]
    return table, [m.outputs[win[at]] for win in order]


def seq_rel(m: Dfao, indices: Sequence[tuple[Mapping[str, int], int]],
            symbol: Optional[int] = None, max_states: Optional[int] = None) -> Dfa:
    """{v : x[t] = symbol} for one index t, {v : x[s] = x[t]} for two.

    An index (coeffs, c) stands for sum of coeffs[x] * v_x + c, with
    natural coefficients and c; the tracks are every name of every
    coeffs, a zero coefficient included.  Each index's windows (see
    _windows) are explored over the columns.  One index's table goes to
    _canonical, a window accepting when its output at offset c equals
    symbol; two indices' tables are paired by _pair_explore, a pair
    accepting when both outputs agree.  Each new window costs one step
    per offset, so a huge constant makes every state slower.  More than
    max_states windows of either index, or pairs of them, raise
    BudgetExceededError at "sequence-index"; every reachable window lies
    in a reachable pair, so the cap trips exactly when the pairs exceed
    it.
    """
    if len(indices) != (1 if symbol is not None else 2):
        raise ValueError("give one index and a symbol, or two indices")
    c = m.canonical()
    k = c.k
    names = tuple(sorted({x for coeffs, _ in indices for x in coeffs}))
    letters = [decode_letter(k, len(names), ell) for ell in range(letter_count(k, len(names)))]
    tables = [
        _windows(c, [sum(coeffs.get(x, 0) * d for x, d in zip(names, digits)) for digits in letters],
                 const, max_states)
        for coeffs, const in indices
    ]
    if symbol is not None:
        ((delta, outputs),) = tables
        return _canonical(k, names, delta, [out == symbol for out in outputs])
    (delta1, out1), (delta2, out2) = tables
    s = len(delta2).bit_length()
    mask = (1 << s) - 1
    arows = [[q << s for q in row] for row in delta1]
    order, delta = _pair_explore(arows, delta2, s, 0, max_states, "sequence-index")
    return _canonical(k, names, delta, [out1[p >> s] == out2[p & mask] for p in order])


# ---------------------------------------------------------------------------
# text format

def loads_dfao(text: str) -> Dfao:
    """Parse the automaton text format; validates before returning.

    Directives: k, alphabet, states, initial, output, trans.  Comments
    start with '#'.  Every directive but alphabet takes exactly its
    number of integers, and k, alphabet, states and initial appear once.
    Every state needs one output line and a transition for every digit.
    An error in one line, such as an initial state out of range, names
    that line; a missing directive, output or transition, and leading
    zeros that change an output, name line 0, and a missing output or
    transition names the first state (and digit) that lacks one.

    One pass over the lines files each output and transition with its
    line; the checks after it look only at what the text holds, so the
    work is bounded by the text, not by the declared number of states.
    """
    k = alphabet = n_states = initial = None
    seen: set[str] = set()
    # each output and transition with the line it is on
    outputs: dict[int, tuple[int, int]] = {}
    trans: dict[tuple[int, int], tuple[int, int]] = {}
    comments = "#" in text
    for lineno, line in enumerate(text.splitlines(), start=1):
        if comments and "#" in line:
            line = line[:line.index("#")]
        parts = line.split()
        if not parts:
            continue
        head = parts[0]
        try:
            if head == "trans":
                _, q, d, t = parts
                key, t = (int(q), int(d)), int(t)
                if key in trans:
                    raise DfaoFormatError(lineno, f"duplicate transition {key[0]} {key[1]}")
                trans[key] = t, lineno
            elif head == "output":
                _, q, sym = parts
                q, sym = int(q), int(sym)
                if q in outputs:
                    raise DfaoFormatError(lineno, f"duplicate output for state {q}")
                outputs[q] = sym, lineno
            elif head in ("k", "alphabet", "states", "initial"):
                if head in seen:
                    raise DfaoFormatError(lineno, f"repeated {head!r} directive")
                seen.add(head)
                if head == "alphabet":
                    if len(parts) == 1:
                        raise DfaoFormatError(lineno, "empty alphabet")
                    alphabet = tuple(map(int, parts[1:]))
                    if min(alphabet) < 0:
                        raise DfaoFormatError(lineno, "symbols are non-negative integers")
                    if len(set(alphabet)) != len(alphabet):
                        raise DfaoFormatError(lineno, "duplicate symbol in alphabet")
                    continue
                _, value = parts
                value = int(value)
                if head == "k":
                    if value < 2:
                        raise DfaoFormatError(lineno, "base must be at least 2")
                    k = value
                elif head == "states":
                    if value <= 0:
                        raise DfaoFormatError(lineno, "need at least one state")
                    n_states = value
                else:
                    initial, initial_line = value, lineno
            else:
                raise DfaoFormatError(lineno, f"unknown directive {head!r}")
        except DfaoFormatError:
            raise
        except ValueError:
            raise DfaoFormatError(lineno, f"malformed {head!r} line") from None
    for name, val in (("k", k), ("alphabet", alphabet), ("states", n_states), ("initial", initial)):
        if val is None:
            raise DfaoFormatError(0, f"missing {name!r} directive")
    undeclared = [q for q in outputs if not 0 <= q < n_states]
    if undeclared:
        q = min(undeclared)
        raise DfaoFormatError(outputs[q][1], f"output for undeclared state {q}")
    if len(outputs) != n_states:
        q = next(q for q in range(n_states) if q not in outputs)
        raise DfaoFormatError(0, f"missing output for state {q}")
    delta = []
    for q in range(n_states):
        row = []
        for d in range(k):
            got = trans.get((q, d))
            if got is None:
                raise DfaoFormatError(0, f"missing transition for state {q} digit {d}")
            t, lineno = got
            if not 0 <= t < n_states:
                raise DfaoFormatError(lineno, f"transition {q} {d} -> {t} out of range")
            row.append(t)
        delta.append(tuple(row))
    if len(trans) != n_states * k:
        extra = min(key for key in trans if not (0 <= key[0] < n_states and 0 <= key[1] < k))
        raise DfaoFormatError(trans[extra][1], f"transition on undeclared state or digit: {extra}")
    if not 0 <= initial < n_states:
        raise DfaoFormatError(initial_line, "initial state out of range")
    for q in range(n_states):
        sym, lineno = outputs[q]
        if sym not in alphabet:
            raise DfaoFormatError(lineno, f"state {q} outputs {sym} outside the alphabet")
    m = Dfao(k, alphabet, tuple(outputs[q][0] for q in range(n_states)), tuple(delta), initial)
    # leading zeros must not change any eventual output: the minimized
    # automaton must loop on zero at its initial state
    if m.canonical().delta[0][0] != 0:
        raise DfaoFormatError(0, "leading zeros change outputs (no zero self-loop up to equivalence)")
    return m


def load_dfao(path) -> Dfao:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_dfao(fh.read())

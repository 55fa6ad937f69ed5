"""Derived quantities of an automatic sequence.

Everything here is computed exactly, by compiling a first-order formula
about positions of the sequence and inspecting the resulting automaton.
The constants can be astronomically large; they are returned as plain
integers and never materialised as unary objects.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .automata import Dfao, _explore, _Windows, enumerate_accepted, is_empty
from .errors import InfiniteLanguageError, RankTwoError
from .logic import (
    CompileLimits,
    Const,
    add,
    and_,
    compile_formula,
    decide,
    exists,
    forall,
    not_,
    witness,
)
from . import predicates as P
from .words import primitive_root


_PRINTABLE = 10 ** 1000


def bounded_form(n: int):
    """n itself below 10^1000, else the text "~2^e" with e = log2(n)
    rounded, so that a constant prints (as JSON or text) without the
    cost or the digit limit of a decimal conversion."""
    return n if n < _PRINTABLE else f"~2^{round(math.log2(n))}"


@dataclass(frozen=True)
class AnalysisConstants:
    """Computable constants attached to a sequence.

    C bounds where every length-n factor first appears (within C*n
    positions), kappa = C + 1 is the recurrence constant, B is the power
    bound: any factor occurring with exponent >= B occurs with unbounded
    exponent.  The rank decision takes B as the exponent threshold p of
    its lemma constants L and D; it enters no formula.
    """

    C: int
    kappa: int
    B: int
    appearance_states: int
    power_states: int


def constants(seq: Dfao, limits: Optional[CompileLimits] = None) -> AnalysisConstants:
    """The appearance constant C and the power bound B, with their sources.

    The graph of n -> A(n) is recognised by an automaton with r0 states;
    an accepted pair with m > k^(r0+1) * n would contain a pumpable run
    of columns whose n-track digit is zero, contradicting that A is a
    function.  Hence C = k^(r0+1) is a valid bound.

    r is the state count of the automaton for "the block at the first
    occurrence i repeats with period p across a window of length n"; a
    window longer than k^r * C * p pumps to windows of unbounded length,
    so B = k^r * C.
    """
    ap = compile_formula(P.appearance_formula("n", "m"), seq=seq, limits=limits)
    C = seq.k ** (ap.num_states + 1)
    pw = compile_formula(
        P.unbounded_powers_formula("i", "n", "p"), seq=seq, limits=limits
    )
    B = seq.k ** pw.num_states * C
    return AnalysisConstants(
        C=C,
        kappa=C + 1,
        B=B,
        appearance_states=ap.num_states,
        power_states=pw.num_states,
    )


def appearance_value(seq: Dfao, n: int, limits: Optional[CompileLimits] = None) -> int:
    """A(n), the least m such that every length-n factor occurs inside
    x[0..m): the one witness of the appearance relation at the constant
    n, which costs less to compile than the (n, m) relation that
    constants builds."""
    w = witness(P.appearance_formula(Const(n), "m"), seq=seq, limits=limits)
    if w is None:
        raise RankTwoError(f"no least cover length for factors of length {n}")
    return w["m"]


def appearance_constant(seq: Dfao, limits: Optional[CompileLimits] = None) -> int:
    """Least-cover bound C with A(n) <= C*n for all n (see constants)."""
    return constants(seq, limits).C


def power_bound(seq: Dfao, limits: Optional[CompileLimits] = None) -> tuple[int, int]:
    """(B, r): any factor with an exponent-B power has unbounded powers
    (see constants)."""
    c = constants(seq, limits)
    return c.B, c.power_states


def unbounded_primitive_factors(
    seq: Dfao,
    limits: Optional[CompileLimits] = None,
    max_results: int = 4096,
) -> list[tuple[int, int, tuple[int, ...]]]:
    """All (i, p, word) with word = x[i..i+p) primitive, first occurring
    at i, and occurring with unbounded exponent.

    The set is finite for any automatic sequence, so an infinite language
    here means the surrounding computation is inconsistent and raises
    RankTwoError; more than max_results words raise EnumerationLimitError.

    The set is empty exactly when the one-track relation
    P.unbounded_period_formula is (argument in its docstring).  That
    relation costs far less than the (i, p) one, so it is compiled
    first, and when it is empty the set is returned at once.
    """
    if is_empty(compile_formula(P.unbounded_period_formula("p"), seq=seq, limits=limits)):
        return []
    a = compile_formula(
        P.unbounded_primitive_factors_formula("i", "p"), seq=seq, limits=limits
    )
    if a.var_order != ("i", "p") and not is_empty(a):
        raise RankTwoError(f"unbounded primitive factor automaton has tracks {a.var_order}")
    try:
        pairs = enumerate_accepted(a, limit=max_results)
    except InfiniteLanguageError as exc:
        raise RankTwoError(
            f"unbounded primitive factor set is not finite: {exc}"
        ) from exc
    out = []
    for i, p in sorted(pairs):
        pref = seq.prefix(i + p)
        word = tuple(pref[i:i + p])
        if primitive_root(word)[1] != 1:
            raise RankTwoError(
                f"imprimitive word {word} reported as unbounded primitive factor"
            )
        if any(tuple(pref[t:t + p]) == word for t in range(i)):
            raise RankTwoError(
                f"position {i} is not the first occurrence of {word}"
            )
        out.append((i, p, word))
    return out


class SpecialExponent(enum.Enum):
    """Non-numeric outcomes of a largest-exponent query."""

    NOT_A_FACTOR = "not-a-factor"
    UNBOUNDED = "unbounded"

    def __repr__(self) -> str:  # cleaner in assertion output
        return f"SpecialExponent.{self.name}"


NOT_A_FACTOR = SpecialExponent.NOT_A_FACTOR
UNBOUNDED = SpecialExponent.UNBOUNDED


def max_exponent(seq: Dfao, z: Sequence[int], limits: Optional[CompileLimits] = None):
    """Largest e with z^e a factor, as a Fraction, or a SpecialExponent.

    Fractional powers count in the usual way: z^(m+r)/r is any window of
    length m + r with period r = |z| whose first r letters are z.

    The m with such a window are downward closed (a prefix of an
    r-periodic window is r-periodic), so an unbounded exponent, "for
    every m a longer window", is "every m".  Otherwise the least m
    without a window follows the largest; it is 0 when z is no factor.
    """
    z = tuple(int(a) for a in z)
    if not z:
        raise ValueError("the empty word has no exponent")
    r = len(z)
    # x[j..j+m) = x[j+r..j+r+m): the window of length m + r at j has period r
    phi = exists("j", and_(P.word_at("j", z), P.factoreq("j", add("j", r), "m")))
    if decide(forall("m", phi), seq=seq, limits=limits):
        return UNBOUNDED
    blocked = witness(not_(phi), seq=seq, limits=limits)
    if blocked is None:
        raise RankTwoError(f"bounded exponents of {list(z)} have no maximal window")
    if blocked["m"] == 0:
        return NOT_A_FACTOR
    return Fraction(blocked["m"] - 1 + r, r)


def is_purely_periodic(seq: Dfao, limits: Optional[CompileLimits] = None) -> Optional[int]:
    """The least period if x is purely periodic, else None."""
    w = witness(P.pure_period_formula("p"), seq=seq, limits=limits)
    return w["p"] if w is not None else None


def is_ultimately_periodic(
    seq: Dfao, limits: Optional[CompileLimits] = None
) -> Optional[tuple[int, int]]:
    """Lexicographically least (preperiod, period), or None.

    Finding the least c first and then the least p for that c is what
    makes the answer lexicographic; a single shortest-witness query on
    the pair automaton would order by encoding length instead.
    """
    f = P.ultimate_period_formula("c", "p")
    wc = witness(exists("p", f), seq=seq, limits=limits)
    if wc is None:
        return None
    c = wc["c"]
    wp = witness(P.ultimate_period_formula(Const(c), "p"), seq=seq, limits=limits)
    if wp is None:
        raise RankTwoError(f"preperiod {c} has no period")
    return (c, wp["p"])


def occurring_letters(seq: Dfao) -> tuple[int, ...]:
    """The output letters that actually occur, in increasing order.

    The canonical form keeps only reachable states and loops on 0 at its
    initial state, so each of its states is the state of some n.
    """
    return tuple(sorted(set(seq.canonical().outputs)))


def shift_sequence(seq: Dfao, t: int, limits: Optional[CompileLimits] = None) -> Dfao:
    """The sequence n -> x[n + t], as an automaton in canonical form: the
    windows of the index n + t (automata._Windows), each state's output
    read at offset t.  More than the state cap of limits raise
    BudgetExceededError at "sequence-index"."""
    if t < 0:
        raise ValueError("shift must be nonnegative")
    windows = _Windows(seq.canonical(), range(seq.k), t)
    cap = limits.max_automaton_states if limits is not None else None
    order, delta = _explore(0, windows.row, cap, "sequence-index")
    shifted = Dfao(
        k=seq.k,
        alphabet=tuple(sorted(set(seq.alphabet))),
        outputs=tuple(windows.output(w) for w in order),
        delta=tuple(map(tuple, delta)),
        initial=0,
    )
    return shifted.canonical()


def strip_max_power_prefix(
    seq: Dfao, u: Sequence[int], limits: Optional[CompileLimits] = None
) -> tuple[int, Dfao]:
    """(i_max, shifted): remove the longest u-power prefix u^{i_max}.

    Raises ValueError when x = u^omega, since then there is nothing left
    after stripping.
    """
    u = tuple(int(a) for a in u)
    if not u:
        raise ValueError("cannot strip powers of the empty word")
    # the least n with x[0..n) not a prefix of u^omega is one more than
    # the length of their longest common prefix
    blocked = witness(not_(P.agrees_with_rotation("n", u, 0)), seq=seq, limits=limits)
    if blocked is None:
        raise ValueError("sequence is periodic under the given word")
    if blocked["n"] == 0:
        raise RankTwoError("the empty word is a prefix of u^omega, yet n = 0 was rejected")
    i_max = (blocked["n"] - 1) // len(u)
    return i_max, shift_sequence(seq, i_max * len(u), limits=limits)

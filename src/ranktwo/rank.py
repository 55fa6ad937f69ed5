"""Rank decision: one block, two blocks, or provably neither.

A sequence has rank one when it equals u^omega for a single finite word,
rank two when it is an infinite product over some two-word set {u, v},
and rank at least three otherwise.  The decider layers exact fast checks
(pure and ultimate periodicity, tiny explicit pairs) over the
constant-driven procedure: enumerate the factors occurring with
unbounded exponent, try to complete each to a pair, and finally search
two-block patterns of a computed length D.  The pattern search returns
rank two through an explicit pair that it reads off a surviving pattern
and decides exactly, so it needs no D to answer rank two; rank at least
three needs every pattern to die.

No constant enters a formula: "occurs as a p-th power" is "is a power
of a word with unbounded exponent", and each late stage compiles its
step relations once and iterates them on automata, the run chain of the
unbounded stage to a fixed point (run_chain) and the pattern stage as
one depth-first search over pattern prefixes (pattern_prefixes).  The
constants only bound those iterations, so they are computed on demand
(LemmaConstants): when a run chain passes the floor of L without a fixed
point, when the pattern search reaches the floor of D, or when an
Inconclusive verdict names the 2^D patterns it could not search.

Resource pressure never crashes `rank2_decide`: budget breaches become
Inconclusive verdicts that name the stage and the missing resource.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import count, islice
from typing import Optional, Union

from . import automata as A
from . import predicates as P
from .analysis import (
    appearance_value,
    bounded_form,
    constants as sequence_constants,
    is_purely_periodic,
    is_ultimately_periodic,
    occurring_letters,
    strip_max_power_prefix,
    unbounded_primitive_factors,
)
from .automata import Dfa, Dfao, _explore
from .errors import BudgetExceededError, EnumerationLimitError, RankTwoError
from .logic import (
    CompileLimits,
    add,
    and_,
    compile_formula,
    eq,
    exists,
    ge,
    gt,
    not_,
    witness,
)
from .oracle import certified_cut, parse_step, tiling_pairs
from .words import Word, WordLike, word


def lemma_L_constant(kappa: int, p: int) -> int:
    """Run-length threshold (15p + 4) * kappa for the unbounded-factor case."""
    if kappa < 1 or p < 1:
        raise ValueError("kappa and p must be at least 1")
    return (15 * p + 4) * kappa


def lemma_D_constant(kappa: int, p: int) -> int:
    """Pattern length 10 p^2 kappa + p + 1 for the bounded-factor search."""
    if kappa < 1 or p < 1:
        raise ValueError("kappa and p must be at least 1")
    return 10 * p * p * kappa + p + 1


# Every automaton has a state, so analysis.constants gives C >= k^2 >= 4,
# kappa = C + 1 >= 5 and B >= k * C >= 8.
_KAPPA_FLOOR, _B_FLOOR = 5, 8


class LemmaConstants:
    """The lemma constants of one run, computed at most once and only when
    a stage passes a floor that they reach on every sequence.

    L >= L_floor and D >= D_floor: L >= 620 and D >= 3209 from the floors
    of kappa and B, or L >= 245 at the hook's p = 3, with D = assume_D.
    A run chain at its fixed point before round L_floor - 1 is the same at
    any larger L, and a pattern search that stays above depth D_floor
    gives the same verdict at any larger D.  view is the report's
    constants once computed, else None.
    """

    def __init__(self, seq: Dfao, limits: CompileLimits, assume_D: Optional[int] = None):
        self._seq, self._limits, self._assume_D = seq, limits, assume_D
        # the hook assumes p = 3, which enters only L
        self._p = None if assume_D is None else 3
        self.L_floor = lemma_L_constant(_KAPPA_FLOOR, self._p or _B_FLOOR)
        self.D_floor = assume_D or lemma_D_constant(_KAPPA_FLOOR, _B_FLOOR)
        self.view: Optional[dict] = None

    def _exact(self) -> dict:
        if self.view is None:
            c = sequence_constants(self._seq, self._limits)
            p = self._p or c.B
            D = self._assume_D or lemma_D_constant(c.kappa, p)
            self.view = {"C": c.C, "kappa": c.kappa, "p": p, "B": c.B, "D": D, "L": lemma_L_constant(c.kappa, p)}
        return self.view

    def L(self) -> int:
        return self._exact()["L"]

    def D(self) -> int:
        return self._assume_D or self._exact()["D"]

    def known_D(self) -> Optional[int]:
        """D if it needs no compile (assumed or already computed), else None."""
        return self._assume_D or (self.view and self.view["D"])


@dataclass(frozen=True)
class Budget:
    """Resource caps for the decision pipeline.

    max_automaton_states caps the raw states of every automaton built.
    max_patterns caps the nodes, pattern prefixes, that the pattern
    search visits; 0 is allowed and makes the pattern stage an immediate
    budget breach.  max_enumeration caps candidate lists, witness loops,
    the rounds of the run-chain iteration that find no fixed point, the
    explicit pairs that the pattern search tries and the levels of each
    fixed-pair decision (decide_fixed_pair).  wall_time caps rank2_decide
    inside every automaton build; its verdict names the running stage.
    The caps other than max_patterns must be positive.
    """

    max_automaton_states: int = 200_000
    max_patterns: int = 4096
    max_enumeration: int = 4096
    wall_time: float = 600.0

    def __post_init__(self) -> None:
        self.limits()  # checks max_automaton_states
        if self.max_patterns < 0:
            raise ValueError("max_patterns must be nonnegative")
        if self.max_enumeration < 1:
            raise ValueError("max_enumeration must be positive")
        if not self.wall_time > 0:  # also refuses NaN, which no deadline check would trip
            raise ValueError("wall_time must be positive")

    def limits(self) -> CompileLimits:
        return CompileLimits(max_automaton_states=self.max_automaton_states)


@dataclass(frozen=True)
class ExplicitPair:
    """Certificate x in {u, v}^omega, established by an exact decision.

    validated_prefix is the length of a prefix that additionally carries
    a dynamic-programming factorization over {u, v}, as independent,
    finitely checkable evidence.
    """

    u: Word
    v: Word
    validated_prefix: int


@dataclass(frozen=True)
class ExistenceByFormula:
    """Pattern-stage certificate: the two-block shape is satisfiable."""

    pattern: tuple[int, ...]


Certificate = Union[ExplicitPair, ExistenceByFormula]


@dataclass(frozen=True)
class Rank1:
    period: int


@dataclass(frozen=True)
class RankTwo:
    certificate: Certificate


@dataclass(frozen=True)
class RankAtLeastThree:
    pass


@dataclass(frozen=True)
class Inconclusive:
    stage: str
    required: str
    patterns_log2: Optional[int] = None

    def __repr__(self) -> str:
        log2 = None if self.patterns_log2 is None else bounded_form(self.patterns_log2)
        return f"Inconclusive(stage={self.stage!r}, required={self.required!r}, patterns_log2={log2!r})"


RankVerdict = Union[Rank1, RankTwo, RankAtLeastThree, Inconclusive]


@dataclass(frozen=True)
class RankReport:
    """Verdict plus the constants, budget usage, and soundness flags."""

    verdict: RankVerdict
    constants: Optional[dict]
    budget_report: dict
    soundness_flags: dict

    def __repr__(self) -> str:
        return (
            f"RankReport(verdict={self.verdict!r}, constants={self._printable_constants()!r}, "
            f"budget_report={self.budget_report!r}, soundness_flags={self.soundness_flags!r})"
        )

    def _printable_constants(self) -> Optional[dict]:
        if self.constants is None:
            return None
        return {k: bounded_form(c) for k, c in self.constants.items()}

    def to_dict(self) -> dict:
        out = _verdict_dict(self.verdict)
        out["constants"] = self._printable_constants()
        out["budget_report"] = dict(self.budget_report)
        out["soundness_flags"] = dict(self.soundness_flags)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _verdict_dict(v: RankVerdict) -> dict:
    if isinstance(v, Rank1):
        return {"verdict": "rank_one", "period": v.period}
    if isinstance(v, RankTwo):
        c = v.certificate
        if isinstance(c, ExplicitPair):
            cert = {
                "kind": "explicit_pair",
                "u": list(c.u),
                "v": list(c.v),
                "validated_prefix": c.validated_prefix,
            }
        else:
            cert = {"kind": "existence_by_formula", "pattern": list(c.pattern)}
        return {"verdict": "rank_two", "certificate": cert}
    if isinstance(v, RankAtLeastThree):
        return {"verdict": "rank_at_least_three"}
    return {
        "verdict": "inconclusive",
        "stage": v.stage,
        "required": v.required,
        "patterns_log2": None if v.patterns_log2 is None else bounded_form(v.patterns_log2),
    }


def pair_omega_membership(seq: Dfao, blocks, max_levels: int = 4096) -> bool:
    """Whether x is an infinite product of the given nonempty blocks.

    Works level by level on the automaton: below each state q the
    sequence generates a fixed word of length k^n, and only that word's
    action on the subset construction of the block parser
    (oracle.parse_step) matters.  The actions obey

        action(q, n+1) = action(delta(q, 0), n) ; ... ; action(delta(q, k-1), n)

    (leftmost applied first), so the family of actions is computable by
    iterating composition, and it eventually cycles.  x is an infinite
    product of blocks iff the parser has a live state after every prefix
    x[0..k^n), by Koenig's lemma: every infinite parse run must cross a
    block boundary infinitely often because blocks are finite.  The
    parser is nondeterministic, so this is exact for any blocks.
    """
    blocks = tuple(dict.fromkeys(word(b) for b in blocks))
    if not blocks or any(not b for b in blocks):
        raise ValueError("blocks must be nonempty words")
    m = seq.canonical()

    # subsets[0] is the parser's start set {(b, 0)}
    letters = occurring_letters(seq)
    start = frozenset((b, 0) for b in range(len(blocks)))
    subsets, moves = _explore(start, lambda s: [parse_step(s, a, blocks) for a in letters])
    letter_maps = {a: tuple(row[j] for row in moves) for j, a in enumerate(letters)}
    dead_i = subsets.index(frozenset()) if frozenset() in subsets else -1

    # Level 0: the one-letter action below each state is its output letter.
    level = tuple(letter_maps[m.outputs[q]] for q in range(m.num_states))
    seen = set()
    for _ in range(max_levels):
        if level in seen:
            return True
        seen.add(level)
        if level[m.initial][0] == dead_i:
            return False
        nxt = []
        for q in range(m.num_states):
            cur = list(range(len(subsets)))
            for d in range(m.k):
                action = level[m.delta[q][d]]
                cur = [action[c] for c in cur]
            nxt.append(tuple(cur))
        level = tuple(nxt)
    raise BudgetExceededError("block-product-levels", max_levels)


def decide_fixed_pair(seq: Dfao, u: WordLike, v: WordLike, budget: Optional[Budget] = None) -> bool:
    """Exactly decide x in {u, v}^omega; max_enumeration caps the levels
    of pair_omega_membership."""
    return pair_omega_membership(seq, (u, v), (budget or Budget()).max_enumeration)


def validate_explicit_pair(seq: Dfao, u: WordLike, v: WordLike, min_prefix: int = 2 ** 14) -> Optional[int]:
    """Longest factorization cut at or past min_prefix, or None.

    Checks the cut with an independent dynamic program over a window one
    block longer than min_prefix, so a true pair always yields a cut.
    """
    u, v = word(u), word(v)
    if not u or not v:
        raise ValueError("blocks must be nonempty")
    return certified_cut(seq.prefix(min_prefix + max(len(u), len(v))), u, v, min_prefix)


def _explicit_pair(seq: Dfao, u: Word, v: Word) -> ExplicitPair:
    """Certificate for a pair already decided exactly; a prefix without a
    factorization cut means the decision procedure is at fault."""
    cov = validate_explicit_pair(seq, u, v)
    if cov is None:
        raise RankTwoError(f"decided pair u = {list(u)}, v = {list(v)} has no factorization cut")
    return ExplicitPair(u, v, cov)


def decide_with_unbounded(
    seq: Dfao, u: WordLike, unbounded: list[Word], L: Union[int, LemmaConstants], budget: Optional[Budget] = None
) -> Optional[ExplicitPair]:
    """Find v with x in {u, v}^omega, for aperiodic x.

    unbounded is Step 2's list, exactly the primitive words with
    unbounded exponent, and u must be one of them; L is the run-chain
    depth (15p + 4) kappa, or the run's LemmaConstants, which computes it
    only if run_chain passes its floor.  Both are built once by
    rank2_decide and handed in.

    Returns an ExplicitPair or None when no companion exists.  The search
    is a case split on the shape of v: words of the unbounded set and
    short factors first; then, after stripping the maximal u-power
    prefix, prefixes of the remainder that stay inside Fac(u^omega);
    finally long prefixes whose run structure holds to the depth L (see
    run_chain), whose satisfying lengths are re-checked exactly one by
    one.
    """
    budget = budget or Budget()
    limits = budget.limits()
    u = word(u)
    if u not in unbounded:
        raise ValueError(f"u = {list(u)} is not a primitive word with unbounded exponent")
    if is_ultimately_periodic(seq, limits) is not None:
        raise ValueError("x must be aperiodic")

    # (i) v is itself a word with unbounded powers, or no longer than u.
    # A factor of length <= |u| first occurs where a length-|u| factor
    # first occurs, so inside x[0..A(|u|)), the least cover length.
    candidates = [w for w in unbounded if w != u]
    seen = set(unbounded)
    window = tuple(seq.prefix(appearance_value(seq, len(u), limits)))
    for ln in range(1, len(u) + 1):
        for s in range(len(window) - ln + 1):
            f = window[s:s + ln]
            if f not in seen:
                seen.add(f)
                candidates.append(f)
    if len(candidates) > budget.max_enumeration:
        raise BudgetExceededError("short-companion-candidates", budget.max_enumeration)
    for v in candidates:
        if decide_fixed_pair(seq, u, v, budget):
            return _explicit_pair(seq, u, v)

    # (ii) drop the maximal u-power prefix so u is not a prefix of the tail
    _, tail = strip_max_power_prefix(seq, u, limits)

    # (iii) v a prefix of the tail lying inside Fac(u^omega); those prefix
    # lengths are downward closed and bounded because the tail is aperiodic
    blocked = witness(not_(P.prefix_in_periodic_orbit("m", u)), seq=tail, limits=limits)
    if blocked is None:
        raise RankTwoError(f"aperiodic tail never leaves Fac({list(u)}^omega)")
    longest = blocked["m"] - 1
    if longest > budget.max_enumeration:
        raise BudgetExceededError(
            "periodic-orbit-prefixes", budget.max_enumeration, f"{longest} admissible lengths"
        )
    for m in range(1, longest + 1):
        v = tuple(tail.prefix(m))
        if v == u:
            continue
        if decide_fixed_pair(seq, u, v, budget):
            return _explicit_pair(seq, u, v)

    # (iv) the remaining shape: v = tail[0..r) long, not a power residue,
    # not inside Fac(u^omega), and the tail decomposes into v-blocks
    # separated by u-runs of aligned lengths.  Satisfying r are examined
    # in increasing order and each candidate is decided exactly.  A word
    # has unbounded exponent in the tail exactly when it has in x.
    cap = budget.max_automaton_states
    shape = and_(not_(P.power_occurs(0, "r", unbounded)), not_(P.prefix_in_periodic_orbit("r", u)))
    shape = compile_formula(shape, seq=tail, limits=limits)
    occ = witness(P.word_at("i", u), seq=tail, limits=limits)
    if occ is None:
        raise RankTwoError(f"{list(u)} has unbounded powers but does not occur in the tail")
    shape = A.intersect(shape, run_chain(tail, occ["i"], len(u), L, budget), cap)
    for _ in range(budget.max_enumeration):
        got = A.shortest_accepted(shape)
        if got is None:
            return None
        (r,) = got
        v = tuple(tail.prefix(r))
        if v != u and decide_fixed_pair(seq, u, v, budget):
            return _explicit_pair(seq, u, v)
        shape = A.intersect(shape, compile_formula(gt("r", r), k=tail.k), cap)
    raise BudgetExceededError("run-tower-witnesses", budget.max_enumeration)


def _step(rel: Dfa, step: Dfa, cap: int) -> Dfa:
    """E q. rel(q) & step(q, q2), with q2 renamed q."""
    return A.rename_tracks(A.project(A.intersect(rel, step, cap), "q", cap), {"q2": "q"})


def run_chain(seq: Dfao, i: int, d: int, L: Union[int, LemmaConstants], budget: Budget) -> Dfa:
    """Lengths r >= d such that u = x[i..i+d) is neither a prefix nor a
    suffix of v = x[0..r), and x starts with v u^e1 v u^e2 ... v u^eL for
    some exponents e_t >= 0.

    C_t(q, r), a v-block at q starts blocks t..L-1 of that shape, is
    C_{L-1}(q, r) = E n. run(q + r, n), which n = 0 makes true everywhere,
    and, for t < L - 1, C_t(q2, r) =
    E q, n. C_{t+1}(q, r) & q = q2 + r + n & run(q2 + r, n) & v occurs at q,
    one _step per round.  The chain only shrinks and canonical automata
    compare structurally, so a round that changes nothing is a fixed point
    for every larger L; max_enumeration rounds without one raise
    BudgetExceededError("run-tower-depth").  Given LemmaConstants for L,
    the chain runs to L_floor and asks for the exact L only if round
    L_floor - 1 arrives without a fixed point.
    """
    lazy = isinstance(L, LemmaConstants)
    depth = L.L_floor if lazy else L
    if depth < 1 or d < 1:
        raise ValueError("need L >= 1 and d >= 1")
    limits, cap = budget.limits(), budget.max_automaton_states
    # the run starts at b, where the v-block at q2 ends
    run = and_(eq("b", add("q2", "r")), eq("q", add("b", "n")), P.block_run("b", "n", i, d))
    back = exists(("b", "n"), and_(run, P.factoreq(0, "q", "r")))
    head = and_(eq("q", 0), ge("r", d), not_(P.prefx(i, d, 0, "r")), not_(P.suffx(i, d, 0, "r")))
    back, head = [compile_formula(f, seq=seq, limits=limits) for f in (back, head)]
    chain = A.true_dfa(seq.k, ("q", "r"))
    for rounds in count():
        if lazy and rounds == depth - 1:
            depth, lazy = L.L(), False
        if rounds == depth - 1:
            break
        if rounds == budget.max_enumeration:
            bound = f">= {depth}" if lazy else f"= {bounded_form(depth)}"
            raise BudgetExceededError("run-tower-depth", budget.max_enumeration, f"L {bound}")
        shorter = _step(chain, back, cap)
        if shorter == chain:
            break
        chain = shorter
    return A.project(A.intersect(head, chain, cap), "q", cap)


def pattern_prefixes(seq: Dfao, unbounded, budget: Budget):
    """The relation R_w of the pattern (0,) and the map R_w, b -> R_wb,
    for patterns w that start with 0.

    R_w(j, q, r, s) holds when the blocks u0 = x[0..r) and u1 = x[j..j+s)
    are nonempty, neither is a prefix or a suffix of the other, neither
    occurs as a B-th power (P.power_occurs over the list unbounded of
    Step 2), and their concatenation along the bit pattern w is x[0..q).
    Extending w only adds conjuncts, so an empty R_w rules out every
    extension of w.  An extension intersects with the block's occurrence
    at q, then takes one _step to its end.

    Patterns that start with 0 lose nothing.  With the first block free,
    at x[i..i+r), the relation is symmetric: swapping (i, r) with (j, s)
    maps the relation of w onto that of its complement, so a pattern
    survives exactly when its complement does.  In a pattern that starts
    with 0 the first block is x[0..r) itself, and every conjunct depends
    only on the two words, so i = 0 loses nothing either.
    """
    (r, s), j = ("r", "s"), "j"
    root = and_(
        not_(P.power_occurs(0, r, unbounded)), not_(P.power_occurs(j, s, unbounded)),
        ge(r, 1), ge(s, 1),
        not_(P.prefx(0, r, j, s)), not_(P.suffx(0, r, j, s)),
        not_(P.prefx(j, s, 0, r)), not_(P.suffx(j, s, 0, r)), eq("q", r),
    )
    limits, cap = budget.limits(), budget.max_automaton_states
    root = compile_formula(root, seq=seq, limits=limits)
    # bit b appends block b: it is nonempty and occurs at q, and q2 is
    # where it ends.  As a conjunct, factoreq is compiled under its normal
    # names, so the compile cache serves the relation earlier stages built.
    blocks = (0, r), (j, s)
    occurs = [
        compile_formula(and_(ge(n, 1), P.factoreq(b, "q", n)), seq=seq, limits=limits)
        for b, n in blocks
    ]
    ends = [compile_formula(eq("q2", add("q", n)), seq=seq, limits=limits) for _, n in blocks]
    return root, lambda rel, bit: _step(A.intersect(rel, occurs[bit], cap), ends[bit], cap)


def _pattern_pair(seq: Dfao, found: Dfa, budget: Budget) -> tuple[Optional[tuple[Word, Word]], str]:
    """The shortest blocks u = x[0..r), v = x[j..j+s) of E q. R_w when
    x is in {u, v}^omega, decided exactly; else None, with the reason."""
    try:
        blocks = A.project(found, "q", budget.max_automaton_states)
        got = dict(zip(blocks.var_order, A.shortest_accepted(blocks)))
        pref = tuple(seq.prefix(max(got["r"], got["j"] + got["s"])))
        u, v = pref[:got["r"]], pref[got["j"]:got["j"] + got["s"]]
        if decide_fixed_pair(seq, u, v, budget):
            return (u, v), ""
    except (BudgetExceededError, EnumerationLimitError) as exc:
        if getattr(exc, "stage", None) == "wall_time":
            raise
        return None, f"pattern witness re-validation stopped early: {exc}"
    return None, f"pattern witness u = {list(u)}, v = {list(v)} failed exact re-validation"


def rank2_decide(
    seq: Dfao,
    budget: Optional[Budget] = None,
    *,
    disable_fast_paths: bool = False,
    assume_D: Optional[int] = None,
) -> RankReport:
    """Decide Rank1 / RankTwo / RankAtLeastThree, or report Inconclusive.

    Step 1 computes no constant: LemmaConstants computes C, kappa, B, L
    and D at most once, when the run chain or the pattern search passes
    a floor or when the pattern search runs out of max_patterns nodes,
    and the report's constants are null unless that happened.  Step 2
    returns at once when no word has unbounded exponent
    (analysis.unbounded_primitive_factors).  The wall_time deadline holds
    inside every automaton build (automata.deadline); its verdict names
    the stage that was running, and at Step5 D if it is already known.

    assume_D overrides the computed pattern length, and with it assumes
    p = 3, which enters only L, the round cap of the run chain, so the
    pattern stage becomes exercisable at desk scale.  Every report of a
    run with the hook is flagged unsound, whichever stage produced the
    verdict and even when the recovered witness re-validates, because
    exhaustiveness of the search is no longer guaranteed at the shrunken
    constants.
    """
    budget = budget or Budget()
    limits = budget.limits()
    hooked = assume_D is not None
    if hooked and assume_D < 2:
        raise ValueError("assume_D must be at least 2")
    assumptions = []
    if hooked:
        assumptions.append("p = 3 assumed, not computed")
        assumptions.append(f"D = {assume_D} assumed, not computed")
    if disable_fast_paths:
        assumptions.append("fast paths disabled")
    stages: list[str] = []
    notes: list[str] = []
    lemma = LemmaConstants(seq, limits, assume_D)

    def report(verdict: RankVerdict) -> RankReport:
        return RankReport(
            verdict=verdict,
            constants=lemma.view,
            budget_report={
                "max_automaton_states": budget.max_automaton_states,
                "max_patterns": budget.max_patterns,
                "max_enumeration": budget.max_enumeration,
                "wall_time": budget.wall_time,
                "stages_run": list(stages),
            },
            soundness_flags={
                "unsound": hooked,
                "assumptions": list(assumptions),
                "notes": list(notes),
            },
        )

    def step5_stops() -> RankReport:
        D = lemma.D()
        required = f"2^{bounded_form(D)} patterns exceed max_patterns = {budget.max_patterns}"
        return report(Inconclusive("Step5", required, D))

    token = A.deadline.set(A.time.monotonic() + budget.wall_time)
    try:
        stages.append("Step0")
        pure = is_purely_periodic(seq, limits)
        if pure is not None:
            return report(Rank1(pure))

        if not disable_fast_paths:
            stages.append("Step0b")
            # one letter would be purely periodic, decided by Step 0
            letters = occurring_letters(seq)
            if len(letters) == 2:
                a, b = letters
                return report(RankTwo(_explicit_pair(seq, (a,), (b,))))

        # ultimate periodicity always dispatches: the remaining stages
        # presume an aperiodic sequence
        stages.append("Step0c")
        up = is_ultimately_periodic(seq, limits)
        if up is not None:
            c, per = up
            head = tuple(seq.prefix(c + per))
            pre, tw = head[:c], head[c:]
            return report(RankTwo(_explicit_pair(seq, pre, tw)))

        if not disable_fast_paths:
            stages.append("Step0d")
            probe = tuple(seq.prefix(2 ** 12))
            for uu, vv in islice(tiling_pairs(probe, 6), budget.max_enumeration):
                if decide_fixed_pair(seq, uu, vv, budget):
                    return report(RankTwo(_explicit_pair(seq, uu, vv)))

        # the constants wait in lemma until a stage passes their floors
        stages.append("Step1")

        stages.append("Step2")
        unbounded = [w for _, _, w in unbounded_primitive_factors(
            seq, limits, max_results=budget.max_enumeration)]

        stages.append("Step3")
        for w in unbounded:
            pair = decide_with_unbounded(seq, w, unbounded, lemma, budget)
            if pair is not None:
                if hooked:
                    notes.append("unbounded-stage pair re-validated exactly")
                return report(RankTwo(pair))

        stages.append("Step4")
        if budget.max_patterns == 0:
            return step5_stops()

        stages.append("Step5")
        # Depth-first over the pattern prefixes that start with 0, pruning
        # at an empty R_w, with children in the order (parity of w, its
        # complement): the leaves come in reflected Gray-code order.  At
        # depths 1, 2, 4, 8, ... and D, the shortest blocks of R_w are
        # tried as an explicit pair, at most max_enumeration times.
        root, extend = pattern_prefixes(seq, unbounded, budget)
        stack = [((0,), root)]
        visited = tries = 0
        while stack:
            visited += 1
            if visited > budget.max_patterns:
                return step5_stops()
            w, rel = stack.pop()
            depth = len(w)
            rel = extend(rel, w[-1]) if depth > 1 else rel
            if A.is_empty(rel):
                continue
            at_D = depth >= lemma.D_floor and depth == lemma.D()
            if at_D or (depth & (depth - 1) == 0 and tries < budget.max_enumeration):
                tries += 1
                pair, note = _pattern_pair(seq, rel, budget)
                if pair is not None:
                    if hooked:
                        notes.append("pattern-stage pair re-validated exactly")
                    return report(RankTwo(_explicit_pair(seq, *pair)))
                if at_D:
                    notes.append(note)
                    return report(RankTwo(ExistenceByFormula(w)))
            parity = sum(w) & 1
            stack += [(w + (1 - parity,), rel), (w + (parity,), rel)]
        return report(RankAtLeastThree())
    except (BudgetExceededError, EnumerationLimitError) as exc:
        stage = stages[-1] if stages else "Step0"
        if getattr(exc, "stage", None) == "wall_time":
            return report(Inconclusive(stage, "wall_time exhausted", lemma.known_D() if stage == "Step5" else None))
        return report(Inconclusive(stage, str(exc)))
    finally:
        A.deadline.reset(token)

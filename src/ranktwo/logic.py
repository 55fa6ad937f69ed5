"""First-order statements about naturals and sequence values, compiled
to automata.

Terms are built from variables, constants, addition, and multiplication
by constants.  Atoms compare two terms or look a term up in an automatic
sequence (x[t] = symbol, or x[s] = x[t]).  Formulas combine atoms with
Not, And, Or and Exists over the naturals, so a formula has seven node
types: Cmp, SeqAt, SeqEq and those four.  forall and implies build the
derived forms Not(Exists(v, Not(b))) and Or((Not(a), b)).  Every term
is linear, so a comparison compiles to one automaton for the linear
constraint on the difference of its sides, and a sequence atom to one
automaton that carries, for each index, the states of the sequence's
automaton at a finite window of offsets from the index's value read so
far (automata.seq_rel).

Compiling a formula yields a canonical Dfa over one digit track per free
variable, reading base-k digit columns most significant first: the
automaton accepts exactly the satisfying assignments.  Sentences compile
to zero-track automata and are decided by inspecting the initial state.
Every intermediate product and projection is minimized, so the automata
stay as small as the languages allow, and an optional state budget turns
runaway intermediates into BudgetExceededError instead of memory burn.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

from . import automata as A
from .automata import Dfa, Dfao
from .errors import BudgetExceededError


# ---------------------------------------------------------------------------
# terms

@dataclass(frozen=True)
class Var:
    name: str

    def __post_init__(self):
        if not self.name or self.name.startswith("%"):
            raise ValueError("variable names must be nonempty and not start with '%'")


@dataclass(frozen=True)
class Const:
    value: int

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("constants are naturals")


@dataclass(frozen=True)
class Sum:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class ConstMul:
    c: int
    arg: "Term"

    def __post_init__(self):
        if self.c < 0:
            raise ValueError("coefficients are naturals")


Term = Union[Var, Const, Sum, ConstMul]


def term(x) -> Term:
    """Coerce a string (variable), int (constant), or Term."""
    if isinstance(x, (Var, Const, Sum, ConstMul)):
        return x
    if isinstance(x, str):
        return Var(x)
    if isinstance(x, int):
        return Const(x)
    raise TypeError(f"cannot interpret {x!r} as a term")


def add(a, b, *rest) -> Term:
    t = Sum(term(a), term(b))
    for r in rest:
        t = Sum(t, term(r))
    return t


def mul(c: int, a) -> Term:
    return ConstMul(c, term(a))


def term_vars(t: Term) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset((t.name,))
    if isinstance(t, Const):
        return frozenset()
    if isinstance(t, Sum):
        return term_vars(t.left) | term_vars(t.right)
    return term_vars(t.arg)


# ---------------------------------------------------------------------------
# formulas

@dataclass(frozen=True)
class Cmp:
    op: str  # "=", "<=" or "<", as automata.linear_rel takes it
    left: Term
    right: Term


@dataclass(frozen=True)
class SeqAt:
    index: Term
    symbol: int


@dataclass(frozen=True)
class SeqEq:
    left: Term
    right: Term


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    parts: tuple


@dataclass(frozen=True)
class Or:
    parts: tuple


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


Formula = Union[Cmp, SeqAt, SeqEq, Not, And, Or, Exists]

TRUE = Cmp("=", Const(0), Const(0))
FALSE = Cmp("<", Const(0), Const(0))


def eq(a, b) -> Formula:
    return Cmp("=", term(a), term(b))


def le(a, b) -> Formula:
    return Cmp("<=", term(a), term(b))


def lt(a, b) -> Formula:
    return Cmp("<", term(a), term(b))


def ge(a, b) -> Formula:
    return Cmp("<=", term(b), term(a))


def gt(a, b) -> Formula:
    return Cmp("<", term(b), term(a))


def ne(a, b) -> Formula:
    return Not(eq(a, b))


def seq_at(index, symbol: int) -> Formula:
    return SeqAt(term(index), symbol)


def seq_eq(a, b) -> Formula:
    return SeqEq(term(a), term(b))


def not_(f: Formula) -> Formula:
    return Not(f)


def and_(*fs) -> Formula:
    if not fs:
        return TRUE
    if len(fs) == 1:
        return fs[0]
    return And(tuple(fs))


def or_(*fs) -> Formula:
    if not fs:
        return FALSE
    if len(fs) == 1:
        return fs[0]
    return Or(tuple(fs))


def implies(a: Formula, b: Formula) -> Formula:
    return Or((Not(a), b))


def _varnames(vs) -> tuple[str, ...]:
    if isinstance(vs, str):
        return (vs,)
    return tuple(vs)


def exists(vs, body: Formula) -> Formula:
    f = body
    for v in reversed(_varnames(vs)):
        f = Exists(v, f)
    return f


def forall(vs, body: Formula) -> Formula:
    f = body
    for v in reversed(_varnames(vs)):
        f = Not(Exists(v, Not(f)))
    return f


def free_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, Cmp):
        return term_vars(f.left) | term_vars(f.right)
    if isinstance(f, SeqAt):
        return term_vars(f.index)
    if isinstance(f, SeqEq):
        return term_vars(f.left) | term_vars(f.right)
    if isinstance(f, Not):
        return free_vars(f.body)
    if isinstance(f, (And, Or)):
        out = frozenset()
        for p in f.parts:
            out |= free_vars(p)
        return out
    if isinstance(f, Exists):
        return free_vars(f.body) - {f.var}
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# naming
#
# The compile cache is keyed by formulas, so alpha-equivalent subformulas
# must be spelled alike to share an entry.  _normal spells a formula out
# by position: each binder, an Exists (a forall's is under its Not),
# becomes %b<depth>, its depth counted from the formula's root, and, when
# asked, each free variable becomes %f<i>, i counting free variables in
# order of first occurrence.  compile_formula normalizes binders only, so
# its result keeps the caller's track names; _compile_child normalizes a
# quantified subformula (a forall with its Not) fully, compiles it,
# and renames the tracks back to the names it had at its use site.  So
# factoreq(i, j, n) and factoreq(i, add(i, p), d), say, compile once.
# User names cannot start with '%' and free variables become %f names, so
# a %b binder never captures a name from outside its subtree.

class _ReservedVar(Var):
    """Variable with a reserved name, constructible only internally."""

    def __post_init__(self):
        pass


def _normal_term(t: Term, env: dict[str, str], free: Optional[dict[str, str]]) -> Term:
    if isinstance(t, Var):
        new = env.get(t.name)
        if new is None:
            if free is None:
                return t
            new = free.setdefault(t.name, f"%f{len(free)}")
        return _ReservedVar(new)
    if isinstance(t, Const):
        return t
    if isinstance(t, Sum):
        return Sum(_normal_term(t.left, env, free), _normal_term(t.right, env, free))
    return ConstMul(t.c, _normal_term(t.arg, env, free))


def _normal(f: Formula, env: dict[str, str], depth: int,
            free: Optional[dict[str, str]]) -> Formula:
    """f with its binders named by depth and, if free is a dict, its free
    variables named by first occurrence; free collects each old free name
    with its new one."""
    if isinstance(f, Cmp):
        return Cmp(f.op, _normal_term(f.left, env, free), _normal_term(f.right, env, free))
    if isinstance(f, SeqAt):
        return SeqAt(_normal_term(f.index, env, free), f.symbol)
    if isinstance(f, SeqEq):
        return SeqEq(_normal_term(f.left, env, free), _normal_term(f.right, env, free))
    if isinstance(f, Not):
        return Not(_normal(f.body, env, depth, free))
    if isinstance(f, And):
        return And(tuple(_normal(p, env, depth, free) for p in f.parts))
    if isinstance(f, Or):
        return Or(tuple(_normal(p, env, depth, free) for p in f.parts))
    if isinstance(f, Exists):
        fresh = f"%b{depth}"
        return Exists(fresh, _normal(f.body, {**env, f.var: fresh}, depth + 1, free))
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# compilation

@dataclass(frozen=True)
class CompileLimits:
    """Caps applied during compilation; None means unlimited."""

    max_automaton_states: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_automaton_states is not None and self.max_automaton_states < 1:
            raise ValueError("max_automaton_states must be positive")


def _linear(t: Term, cap: Optional[int], scale: int, coeffs: dict[str, int]) -> int:
    """Fold scale * t into coeffs, one coefficient per variable, and
    return its constant.  A variable keeps its entry when its
    coefficient is 0.  A multiplication by c needs c + 1 states, so one
    with c + 1 > cap is refused before any automaton is built."""
    if isinstance(t, Var):
        coeffs[t.name] = coeffs.get(t.name, 0) + scale
        return 0
    if isinstance(t, Const):
        return scale * t.value
    if isinstance(t, Sum):
        return _linear(t.left, cap, scale, coeffs) + _linear(t.right, cap, scale, coeffs)
    if isinstance(t, ConstMul):
        if cap is not None and t.c + 1 > cap:
            raise BudgetExceededError("multiplication", cap, f"c = {t.c}")
        return _linear(t.arg, cap, scale * t.c, coeffs)
    raise TypeError(f"not a term: {t!r}")


def _linear_atom(coeffs: dict[str, int], const: int, op: str, k: int,
                 cap: Optional[int]) -> Dfa:
    """{v : sum of coeffs[x] * v_x + const op 0}.  A constant c needs
    O(c) states inside a linear relation but O(log c) in const_rel, so a
    nonzero one rides on a helper track %c, bound to |c| by const_rel
    and projected away."""
    if const == 0:
        return A.linear_rel(k, coeffs, op, cap)
    rel = A.linear_rel(k, {**coeffs, "%c": 1 if const > 0 else -1}, op, cap)
    return A.project(A.intersect(rel, A.const_rel(k, "%c", abs(const)), cap), "%c", cap)


def _compile_atom(f, seq: Optional[Dfao], k: int, cap: Optional[int]) -> Dfa:
    """A comparison is one linear relation of left - right.  A sequence
    atom folds each index to its coefficients and constant and is one
    automaton over the index windows of the sequence (automata.seq_rel):
    no helper track, no intersection, no projection."""
    if isinstance(f, Cmp):
        coeffs: dict[str, int] = {}
        const = _linear(f.left, cap, 1, coeffs) + _linear(f.right, cap, -1, coeffs)
        return _linear_atom(coeffs, const, f.op, k, cap)
    if seq is None:
        raise ValueError("formula inspects sequence values but no sequence was given")
    if isinstance(f, SeqAt):
        indices, symbol = (f.index,), f.symbol
    elif isinstance(f, SeqEq):
        indices, symbol = (f.left, f.right), None
    else:
        raise TypeError(f"not an atom: {f!r}")
    folded = []
    for t in indices:
        coeffs: dict[str, int] = {}
        folded.append((coeffs, _linear(t, cap, 1, coeffs)))
    return A.seq_rel(seq, folded, symbol, cap)


# The one compile cache, keyed by the normalized subformula, the sequence (None
# for a comparison, which reads none) and the state cap; a compile that raised
# BudgetExceededError is never stored, and no result is served under another cap.
@lru_cache(maxsize=512)
def _compile(f: Formula, seq: Optional[Dfao], k: int, cap: Optional[int]) -> Dfa:
    if isinstance(f, (Cmp, SeqAt, SeqEq)):
        return _compile_atom(f, seq, k, cap)
    if isinstance(f, Not):
        # a forall's Exists was named along with its Not: no second naming walk
        compile_body = _compile if isinstance(f.body, Exists) else _compile_child
        return A.complement(compile_body(f.body, seq, k, cap))
    if isinstance(f, (And, Or)):
        combine = A.intersect if isinstance(f, And) else A.union
        parts = [_compile_child(p, seq, k, cap) for p in f.parts]
        out = parts[0]
        for p in parts[1:]:
            out = combine(out, p, cap)
        return out
    if isinstance(f, Exists):
        body = _compile_child(f.body, seq, k, cap)
        return A.project(body, f.var, cap) if f.var in body.var_order else body
    raise TypeError(f"not a formula: {f!r}")


def _compile_child(f: Formula, seq: Optional[Dfao], k: int, cap: Optional[int]) -> Dfa:
    """Compile a subformula; a comparison is compiled with no sequence,
    and a quantified one (an Exists, or a forall: a Not over an Exists)
    under its normal names, its tracks renamed back."""
    if isinstance(f, Cmp):
        return _compile(f, None, k, cap)
    if not isinstance(f.body if isinstance(f, Not) else f, Exists):
        return _compile(f, seq, k, cap)
    free: dict[str, str] = {}
    a = _compile(_normal(f, {}, 0, free), seq, k, cap)
    return A.rename_tracks(a, {new: old for old, new in free.items()})


def compile_formula(
    f: Formula,
    seq: Optional[Dfao] = None,
    k: Optional[int] = None,
    limits: Optional[CompileLimits] = None,
) -> Dfa:
    """Compile a formula to the canonical automaton of its satisfying
    assignments, one track per free variable in sorted order.

    Binders are renamed by depth and free variables keep their names, so
    alpha-equivalent formulas get the identical cached automaton.  Below
    the root, quantified subformulas are cached with their free variables
    renamed too, so one that recurs under other argument names (a
    predicate applied to new variables) is compiled once per process.
    """
    if k is None:
        k = seq.k if seq is not None else 2
    if seq is not None and seq.k != k:
        raise ValueError("base of the sequence disagrees with requested base")
    cap = limits.max_automaton_states if limits is not None else None
    return _compile(_normal(f, {}, 0, None), seq, k, cap)


def decide(
    f: Formula,
    seq: Optional[Dfao] = None,
    k: Optional[int] = None,
    limits: Optional[CompileLimits] = None,
) -> bool:
    """Truth value of a sentence."""
    a = compile_formula(f, seq, k, limits)
    if a.var_order:
        raise ValueError(f"not a sentence; free variables {', '.join(a.var_order)}")
    return a.accepting[0]


def witness(
    f: Formula,
    seq: Optional[Dfao] = None,
    k: Optional[int] = None,
    limits: Optional[CompileLimits] = None,
) -> Optional[dict[str, int]]:
    """A satisfying assignment with the least digit encoding, or None.

    For formulas with a single free variable this is the least witness.
    """
    a = compile_formula(f, seq, k, limits)
    got = A.shortest_accepted(a)
    if got is None:
        return None
    return dict(zip(a.var_order, got))

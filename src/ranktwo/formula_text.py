"""Textual formula syntax for the command-line `decide` command.

Grammar (not a stability contract; quantifiers bind to the end):

    formula     := ('E' | 'A') names '.' formula | implication
    implication := disjunction [ '->' implication ]
    disjunction := conjunction { '|' conjunction }
    conjunction := negation { '&' negation }
    negation    := ('~' | '!') negation | '(' formula ')' | atom
    atom        := operand cmp operand
    cmp         := '=' | '!=' | '<=' | '<' | '>=' | '>'
    operand     := 'x' '[' term ']' | term
    term        := part { '+' part }
    part        := nat [ '*' part ] | name
    names       := name { ',' name }

Names are lower-case identifiers; `x` is reserved for the sequence.  A
sequence letter x[t] compares only against a numeral or another letter,
and only with '=' or '!='.  Parentheses nest at most 200 deep.
Examples:

    E i. x[i] = 2
    A i. E j. j > i & x[j] = x[0]
    A i. x[i] = x[i+1] -> x[i+1] != x[i+2]

The text is split into token strings by one regular-expression scan, an
empty string marking the end.  A character that starts no token becomes
a token of its own that no rule accepts, so the parser never reads past
it; a token's column is computed only when an error names it.  The
descent recurses only into parentheses: quantifier prefixes, negations,
the '|', '&', '->' and '+' lists and coefficient chains are loops, and
the nodes are the ones the logic constructors build.
"""

from __future__ import annotations

import re

from . import logic as L


class FormulaSyntaxError(ValueError):
    """Malformed formula text; carries the character position."""

    def __init__(self, pos: int, message: str):
        super().__init__(f"column {pos + 1}: {message}")
        self.pos = pos


_MAX_PARENS = 200

# well-formed tokens: name | operator | nat | quantifier
_TOKENS = r"[a-z_][a-z0-9_']*|[<>!]=?|[=+*().,&|~\[\]]|\d+|->|[EA]\b"
_VALID = re.compile(_TOKENS)
# then a character that starts no token; an E or A glued to a letter or
# digit is kept whole, so that it never reads as a quantifier
_TOKEN = re.compile(_TOKENS + r"|[EA]\w|\S")
_NAME_START = frozenset("abcdefghijklmnopqrstuvwxyz_")

# each comparison as (Cmp operator, sides swapped, negated)
_COMPARISONS = {
    "=": ("=", False, False), "!=": ("=", False, True), "<=": ("<=", False, False),
    "<": ("<", False, False), ">=": ("<=", True, False), ">": ("<", True, False),
}


class _Fail(Exception):
    """A syntax error at a token index, located in the text on the way out."""

    def __init__(self, index: int, message: str):
        self.index, self.message = index, message


def _found(tok: str) -> str:
    return repr(tok or "end of input")


def _name(toks: list, i: int) -> str:
    tok = toks[i]
    if tok[:1] not in _NAME_START or tok == "x":
        raise _Fail(i, "expected a variable name")
    return tok


def _expect(toks: list, i: int, value: str) -> int:
    if toks[i] != value:
        raise _Fail(i, f"expected {value!r}, found {_found(toks[i])}")
    return i + 1


def _formula(toks: list, i: int, depth: int):
    """formula at token i: (tree, index past it)."""
    quantifiers = []
    while toks[i] == "E" or toks[i] == "A":
        quant, names = toks[i], [_name(toks, i + 1)]
        i += 2
        while toks[i] == ",":
            names.append(_name(toks, i + 1))
            i += 2
        i = _expect(toks, i, ".")
        quantifiers.append((quant, names))
    sides, ors = [], []  # implication sides so far, disjuncts of the current side
    while True:
        f, i = _negation(toks, i, depth)
        if toks[i] == "&":
            ands = [f]
            while toks[i] == "&":
                f, i = _negation(toks, i + 1, depth)
                ands.append(f)
            f = L.And(tuple(ands))
        if toks[i] == "|":
            ors.append(f)
            i += 1
            continue
        if ors:
            f = L.Or(tuple(ors + [f]))
            ors = []
        if toks[i] != "->":
            break
        sides.append(f)
        i += 1
    while sides:
        f = L.Or((L.Not(sides.pop()), f))
    for quant, names in reversed(quantifiers):
        for name in reversed(names):
            f = L.Exists(name, f) if quant == "E" else L.Not(L.Exists(name, L.Not(f)))
    return f, i


def _negation(toks: list, i: int, depth: int):
    negations = 0
    while toks[i] == "~" or toks[i] == "!":
        negations += 1
        i += 1
    if toks[i] == "(":
        if depth == _MAX_PARENS:
            raise _Fail(i, f"more than {_MAX_PARENS} nested parentheses")
        f, i = _formula(toks, i + 1, depth + 1)
        i = _expect(toks, i, ")")
    else:
        f, i = _atom(toks, i)
    for _ in range(negations):
        f = L.Not(f)
    return f, i


def _atom(toks: list, i: int):
    left, seq_left, i = _operand(toks, i)
    op = toks[i]
    how = _COMPARISONS.get(op)
    if how is None:
        raise _Fail(i, f"expected a comparison, found {_found(op)}")
    at = i
    right, seq_right, i = _operand(toks, i + 1)
    cmp, swapped, negated = how
    if seq_left or seq_right:
        if cmp != "=":
            raise _Fail(at, "sequence letters compare only with = or !=")
        if seq_left and seq_right:
            f = L.SeqEq(left, right)
        else:
            index, other = (left, right) if seq_left else (right, left)
            if not isinstance(other, L.Const):
                raise _Fail(at, "a sequence letter compares only to a numeral or another x[...]")
            f = L.SeqAt(index, other.value)
    else:
        f = L.Cmp(cmp, right, left) if swapped else L.Cmp(cmp, left, right)
    return (L.Not(f) if negated else f), i


def _operand(toks: list, i: int):
    """operand at token i: (term, whether it is x[term], index past it)."""
    if toks[i] != "x":
        t, i = _term(toks, i)
        return t, False, i
    t, i = _term(toks, _expect(toks, i + 1, "["))
    return t, True, _expect(toks, i, "]")


def _term(toks: list, i: int):
    """term at token i: (tree, index past it).  Each part is a chain of
    coefficients, read as a loop, ending in a numeral or a name."""
    t = None
    while True:
        tok = toks[i]
        coefficients = []
        while tok.isdecimal() and toks[i + 1] == "*":
            coefficients.append(int(tok))
            i += 2
            tok = toks[i]
        if tok.isdecimal():
            p = L.Const(int(tok))
        elif tok[:1] in _NAME_START:
            if tok == "x":
                raise _Fail(i, "'x' is reserved for the sequence; use x[term]")
            p = L.Var(tok)
        else:
            raise _Fail(i, f"expected a term, found {_found(tok)}")
        for c in reversed(coefficients):
            p = L.ConstMul(c, p)
        t = p if t is None else L.Sum(t, p)
        if toks[i + 1] != "+":
            return t, i + 1
        i += 2


def parse_formula(text: str) -> L.Formula:
    """Parse the textual syntax above into a formula."""
    if not text.strip():
        raise FormulaSyntaxError(0, "empty formula")
    toks = _TOKEN.findall(text)
    toks.append("")
    try:
        f, i = _formula(toks, 0, 0)
        if toks[i]:
            raise _Fail(i, "trailing input after formula")
        return f
    except (_Fail, ValueError) as exc:
        # an unexpected character anywhere comes first, as a tokenizer
        # that stops at it would report it
        bad = next((j for j, tok in enumerate(toks[:-1]) if not _VALID.fullmatch(tok)), None)
        if bad is None and not isinstance(exc, _Fail):
            raise
        index = exc.index if bad is None else bad
        message = exc.message if bad is None else f"unexpected character {toks[bad][0]!r}"
        starts = [m.start() for m in _TOKEN.finditer(text)] + [len(text)]
        raise FormulaSyntaxError(starts[index], message) from None

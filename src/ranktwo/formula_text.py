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
and only with '=' or '!='.  Examples:

    E i. x[i] = 2
    A i. E j. j > i & x[j] = x[0]
    A i. x[i] = x[i+1] -> x[i+1] != x[i+2]
"""

from __future__ import annotations

import re

from . import logic as L


class FormulaSyntaxError(ValueError):
    """Malformed formula text; carries the character position."""

    def __init__(self, pos: int, message: str):
        super().__init__(f"column {pos + 1}: {message}")
        self.pos = pos


_TOKEN = re.compile(
    r"""\s*(?:
        (?P<nat>\d+)
      | (?P<quant>[EA])\b
      | (?P<name>[a-z_][a-z0-9_']*)
      | (?P<op>->|!=|<=|>=|[=<>+*().,&|~!\[\]])
    )""",
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise FormulaSyntaxError(len(text) - len(rest), f"unexpected character {rest[0]!r}")
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


class _SeqRef:
    """Marker for an x[t] operand before the comparison is known."""

    def __init__(self, index):
        self.index = index


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
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

    def _fail(self, message: str):
        _, _, pos = self._peek()
        raise FormulaSyntaxError(pos, message)

    def parse(self) -> L.Formula:
        f = self.formula()
        if self.i != len(self.tokens):
            self._fail("trailing input after formula")
        return f

    def formula(self) -> L.Formula:
        kind, val, _ = self._peek()
        if kind == "quant":
            self._next()
            names = [self.name()]
            while self._peek()[1] == ",":
                self._next()
                names.append(self.name())
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
        parts = [self.conjunction()]
        while self._peek()[1] == "|":
            self._next()
            parts.append(self.conjunction())
        return parts[0] if len(parts) == 1 else L.or_(*parts)

    def conjunction(self) -> L.Formula:
        parts = [self.negation()]
        while self._peek()[1] == "&":
            self._next()
            parts.append(self.negation())
        return parts[0] if len(parts) == 1 else L.and_(*parts)

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
        if op not in ("=", "!=", "<=", "<", ">=", ">"):
            raise FormulaSyntaxError(pos, f"expected a comparison, found {op or 'end of input'!r}")
        right = self.operand()
        seq_left = isinstance(left, _SeqRef)
        seq_right = isinstance(right, _SeqRef)
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
        table = {"=": L.eq, "!=": L.ne, "<=": L.le, "<": L.lt, ">=": L.ge, ">": L.gt}
        return table[op](left, right)

    def operand(self):
        kind, val, pos = self._peek()
        if kind == "name" and val == "x":
            self._next()
            self._expect("[")
            t = self.term()
            self._expect("]")
            return _SeqRef(t)
        return self.term()

    def term(self):
        parts = [self.part()]
        while self._peek()[1] == "+":
            self._next()
            parts.append(self.part())
        if len(parts) == 1:
            return parts[0]
        return L.add(*parts)

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


def parse_formula(text: str) -> L.Formula:
    """Parse the textual syntax above into a formula."""
    if not text.strip():
        raise FormulaSyntaxError(0, "empty formula")
    return _Parser(text).parse()

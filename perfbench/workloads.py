"""Seeded inputs, ground truth and answer checkers for the three workloads.

Nothing in this file uses ranktwo to decide what a correct answer is.
Ground truth comes from arithmetic rules for each base sequence and from
brute evaluation on materialised prefixes; the block-factorization check
is this file's own dynamic program, not ``ranktwo.oracle``.

A *variant* of a base automaton computes the same sequence up to a
renaming of letters: one state is split into two equal copies, the state
numbers are permuted and the output letters are relabelled.  Every
variant is a new input, so the engine's caches, which are keyed by the
automaton, do not carry answers from one request to the next.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

K = 2
PREFIX = 4096  # brute checks of fo-queries and periods run on this prefix
PAIR_PREFIX = 2 ** 14  # an explicit pair must factor at least this many letters


# ---------------------------------------------------------------------------
# base sequences: a binary DFAO (outputs, delta, initial) and an
# independent rule for x[n]

def _thue_morse(n: int) -> int:
    return bin(n).count("1") % 2


def _pow2(n: int) -> int:
    return int(n > 0 and n & (n - 1) == 0)


def _pow23(n: int) -> int:
    if n <= 0:
        return 0
    while n % 2 == 0:
        n //= 2
    return {1: 1, 3: 2}.get(n, 0)


def _twelve(n: int) -> int:
    if n >= 4 and n & (n - 1) == 0:
        return 1
    if n >= 5 and (n - 1) & (n - 2) == 0:
        return 2
    return 0


_TTM_CACHE = [0]


def _ternary_tm(n: int) -> int:
    """Fixed point of 0 -> 01, 1 -> 20, 2 -> 20 starting from 0."""
    images = {0: (0, 1), 1: (2, 0), 2: (2, 0)}
    while len(_TTM_CACHE) <= n:
        grown = [b for a in _TTM_CACHE for b in images[a]]
        _TTM_CACHE[:] = grown
    return _TTM_CACHE[n]


@dataclass(frozen=True)
class Base:
    name: str
    outputs: tuple
    delta: tuple
    initial: int
    rule: Callable[[int], int]
    truth: str  # rank_one | rank_two | rank_at_least_three
    period: Optional[int] = None


BASES = {
    b.name: b
    for b in (
        Base("mod3", (0, 1, 2), ((0, 1), (2, 0), (1, 2)), 0, lambda n: n % 3, "rank_one", 3),
        Base("thue-morse", (0, 1), ((0, 1), (1, 0)), 0, _thue_morse, "rank_two"),
        Base("pow2-char", (0, 1, 0), ((0, 1), (1, 2), (2, 2)), 0, _pow2, "rank_two"),
        Base("ternary-tm", (0, 1, 2), ((0, 1), (2, 0), (2, 0)), 0, _ternary_tm, "rank_two"),
        # x[n] = 1 at n = 2^k (k >= 2), 2 right after, 0 elsewhere
        Base("TWELVE", (0, 0, 0, 1, 2, 0), ((0, 1), (2, 5), (3, 4), (3, 4), (5, 5), (5, 5)), 0,
             _twelve, "rank_two"),
        # x[n] = 1 at n = 2^k, 2 at n = 3*2^k, 0 elsewhere.  Rank >= 3: runs of
        # zeros are unbounded, so one block would be all zeros and the other
        # would have to carry both 1 and 2, which never line up.
        Base("POW23", (0, 1, 1, 2, 2, 0), ((0, 1), (2, 3), (2, 5), (4, 5), (4, 5), (5, 5)), 0,
             _pow23, "rank_at_least_three"),
    )
}


def dfao_text(outputs, delta, initial, alphabet) -> str:
    """The ranktwo DFAO text format."""
    lines = [f"k {K}", "alphabet " + " ".join(map(str, alphabet)), f"states {len(outputs)}",
             f"initial {initial}"]
    lines += [f"output {q} {s}" for q, s in enumerate(outputs)]
    lines += [f"trans {q} {d} {t}" for q, row in enumerate(delta) for d, t in enumerate(row)]
    return "\n".join(lines) + "\n"


def eval_dfao(outputs, delta, initial, n: int) -> int:
    """x[n] by reading the binary digits of n, most significant first."""
    q = initial
    for d in bin(n)[2:] if n else "":
        q = delta[q][int(d)]
    return outputs[q]


@dataclass(frozen=True)
class Variant:
    base: Base
    text: str
    relabel: tuple  # relabel[a] is the new name of base letter a
    outputs: tuple
    delta: tuple
    initial: int


def make_variant(base: Base, rng: random.Random) -> Variant:
    """Split a random state, renumber the states, rename the letters."""
    n = len(base.outputs)
    split = rng.randrange(n)
    outputs = list(base.outputs) + [base.outputs[split]]
    delta = [list(r) for r in base.delta] + [list(base.delta[split])]
    incoming = [(q, d) for q in range(n + 1) for d in range(K) if delta[q][d] == split]
    moved = [e for e in incoming if rng.random() < 0.5] or incoming[:1]
    for q, d in moved:
        delta[q][d] = n
    perm = list(range(n + 1))
    rng.shuffle(perm)  # old state q becomes perm[q]
    letters = sorted(set(base.outputs))
    names = rng.sample(range(8), len(letters))
    relabel = [0] * (max(letters) + 1)
    for a, b in zip(letters, names):
        relabel[a] = b
    new_out = [0] * (n + 1)
    new_delta = [None] * (n + 1)
    for q in range(n + 1):
        new_out[perm[q]] = relabel[outputs[q]]
        new_delta[perm[q]] = tuple(perm[t] for t in delta[q])
    initial = perm[base.initial]
    text = dfao_text(new_out, new_delta, initial, sorted(names))
    return Variant(base, text, tuple(relabel), tuple(new_out), tuple(new_delta), initial)


_PREFIXES: dict = {}


def truth_prefix(base: Base, relabel, n: int) -> list:
    """First n letters of the relabelled base sequence, from its rule."""
    raw = _PREFIXES.get(base.name)
    if raw is None or len(raw) < n:
        raw = _PREFIXES[base.name] = [base.rule(i) for i in range(max(n, PREFIX))]
    return [relabel[a] for a in raw[:n]]


# ---------------------------------------------------------------------------
# independent checks

def cuts(w, u, v) -> list:
    """cuts(w, u, v)[i]: whether w[:i] is exactly a concatenation of u and v blocks."""
    n, lu, lv = len(w), len(u), len(v)
    ok = [False] * (n + 1)
    ok[0] = True
    for i in range(n):
        if ok[i]:
            if w[i:i + lu] == u:
                ok[i + lu] = True
            if w[i:i + lv] == v:
                ok[i + lv] = True
    return ok


def _occurs(w, f) -> bool:
    lf = len(f)
    return any(w[i:i + lf] == f for i in range(len(w) - lf + 1))


def _pattern_witness(w, pattern, p: int, max_len: int = 64) -> bool:
    """Some blocks u, v with the pattern's concatenation a prefix of w.

    The blocks must meet the conditions of the two-block sentence that are
    checkable on a prefix: nonempty, neither a prefix or suffix of the
    other, and no p-th power of either inside w.
    """
    for r in range(1, max_len + 1):
        for s in range(1, max_len + 1):
            blocks, pos = {}, 0
            for bit in pattern:
                ln = r if bit == 0 else s
                blk = w[pos:pos + ln]
                if len(blk) < ln or blocks.setdefault(bit, blk) != blk:
                    break
                pos += ln
            else:
                if len(blocks) == 2 and _blocks_admissible(w, blocks[0], blocks[1], p):
                    return True
    return False


def _blocks_admissible(w, u, v, p: int) -> bool:
    if u == v[:len(u)] or v == u[:len(v)] or u == v[-len(u):] or v == u[-len(v):]:
        return False
    # a p-th power longer than w cannot be refuted on w
    return not any(p * len(b) <= len(w) and _occurs(w, b * p) for b in (u, v))


def check_rank(variant: Variant, data: dict) -> Optional[str]:
    """None if the rank2 report is consistent with ground truth, else why not."""
    base = variant.base
    verdict = data.get("verdict")
    if verdict == "inconclusive":
        return None
    if verdict != base.truth:
        return f"{base.name}: verdict {verdict}, truth {base.truth}"
    if verdict == "rank_one":
        p = data.get("period")
        w = truth_prefix(base, variant.relabel, PREFIX)
        if p != base.period or any(w[i] != w[i + p] for i in range(len(w) - p)):
            return f"{base.name}: period {p} does not hold on the prefix"
        return None
    if verdict == "rank_two":
        cert = data.get("certificate") or {}
        if cert.get("kind") == "explicit_pair":
            u, v, n = tuple(cert["u"]), tuple(cert["v"]), cert["validated_prefix"]
            if not u or not v or u == v:
                return f"{base.name}: malformed pair {u}, {v}"
            # The prefix the pair must factor: from PAIR_PREFIX letters up
            # to one block more, the window rank2 promises a cut in.
            end = PAIR_PREFIX + max(len(u), len(v))
            if not PAIR_PREFIX <= n <= end:
                return f"{base.name}: validated prefix {n} outside [{PAIR_PREFIX}, {end}]"
            if not cuts(tuple(truth_prefix(base, variant.relabel, end)), u, v)[n]:
                return f"{base.name}: pair {u}, {v} does not factor the first {n} letters"
            return None
        if cert.get("kind") == "existence_by_formula":
            pattern = tuple(cert["pattern"])
            p = (data.get("constants") or {}).get("p", 2)
            w = tuple(truth_prefix(base, variant.relabel, PREFIX))
            if len(pattern) < 2 or not _pattern_witness(w, pattern, p):
                return f"{base.name}: no blocks realise pattern {pattern} on the prefix"
            return None
        return f"{base.name}: unknown certificate {cert}"
    return None


# ---------------------------------------------------------------------------
# bounded first-order sentences
#
# A term is (ci, cj, c0) meaning ci*i + cj*j + c0.  Formulas are tuples:
#   ("at", t, c)  x[t] = c         ("eq", t1, t2)  x[t1] = x[t2]
#   ("lt", t1, t2) t1 < t2         ("not", f)  ("and", f, g)  ("or", f, g)
#   ("E" | "A", var, bound, f)     quantifier over var < bound

IDENTITY_LETTERS = (0, 1, 2)


def _render_term(t) -> str:
    ci, cj, c0 = t
    parts = []
    for c, v in ((ci, "i"), (cj, "j")):
        if c == 1:
            parts.append(v)
        elif c:
            parts.append(f"{c}*{v}")
    if c0 or not parts:
        parts.append(str(c0))
    return "+".join(parts)


def render(f, relabel=IDENTITY_LETTERS) -> str:
    """The sentence in the ``decide`` grammar, letters renamed by relabel."""
    op = f[0]
    if op == "at":
        return f"x[{_render_term(f[1])}] = {relabel[f[2]]}"
    if op == "eq":
        return f"x[{_render_term(f[1])}] = x[{_render_term(f[2])}]"
    if op == "lt":
        return f"{_render_term(f[1])} < {_render_term(f[2])}"
    if op == "not":
        return f"~({render(f[1], relabel)})"
    if op in ("and", "or"):
        sym = "&" if op == "and" else "|"
        return f"({render(f[1], relabel)}) {sym} ({render(f[2], relabel)})"
    _, var, bound, body = f
    glue = "&" if op == "E" else "->"
    return f"{op} {var}. {var} < {bound} {glue} ({render(body, relabel)})"


def brute(f, w, env=None) -> bool:
    """Truth of a bounded sentence on the prefix w."""
    env = env or {}

    def ev(t):
        return t[0] * env.get("i", 0) + t[1] * env.get("j", 0) + t[2]

    op = f[0]
    if op == "at":
        return w[ev(f[1])] == f[2]
    if op == "eq":
        return w[ev(f[1])] == w[ev(f[2])]
    if op == "lt":
        return ev(f[1]) < ev(f[2])
    if op == "not":
        return not brute(f[1], w, env)
    if op == "and":
        return brute(f[1], w, env) and brute(f[2], w, env)
    if op == "or":
        return brute(f[1], w, env) or brute(f[2], w, env)
    _, var, bound, body = f
    vals = (brute(body, w, {**env, var: n}) for n in range(bound))
    return any(vals) if op == "E" else all(vals)


def _unary_atoms(letters):
    """Atom templates over one variable: f(var) -> formula."""
    def t(v, c, c0=0):
        return (c, 0, c0) if v == "i" else (0, c, c0)
    out = []
    for c in letters:
        out.append(lambda v, c=c: ("at", t(v, 1), c))
        out.append(lambda v, c=c: ("at", t(v, 1, 1), c))
    for d in (1, 2, 3):
        out.append(lambda v, d=d: ("eq", t(v, 1), t(v, 1, d)))
    out.append(lambda v: ("eq", t(v, 2), t(v, 1)))
    out.append(lambda v: ("eq", t(v, 2, 1), t(v, 1)))
    return out


def _binary_atoms(letters):
    out = [
        ("eq", (1, 1, 0), (0, 1, 0)),   # x[i+j] = x[j]
        ("eq", (1, 0, 0), (0, 1, 0)),   # x[i] = x[j]
        ("eq", (1, 2, 0), (1, 0, 0)),   # x[i+2*j] = x[i]
        ("eq", (0, 2, 0), (1, 1, 0)),   # x[2*j] = x[i+j]
        ("eq", (1, 1, 1), (0, 1, 0)),   # x[i+j+1] = x[j]
        ("lt", (1, 0, 0), (0, 1, 0)),   # i < j
        ("lt", (0, 1, 0), (1, 0, 3)),   # j < i+3
    ]
    out += [("at", (1, 1, 0), c) for c in letters]
    return out


BOUNDS = (4, 8, 12, 16, 24, 32)
SENTENCES_PER_ATOM = 2


def _combine(primary, partners, rng: random.Random):
    """primary alone, negated, or joined with a different partner atom."""
    shape = rng.randrange(4)
    if shape == 0:
        return primary
    if shape == 1:
        return ("not", primary)
    partner = rng.choice([a for a in partners if a != primary])
    return ("and" if shape == 2 else "or", primary, partner)


def sentences(letters, rng: random.Random) -> list:
    """SENTENCES_PER_ATOM bounded sentences per atom of the pool, with that
    atom as their primary: every seed asks about every atom, which keeps the cost
    of a seed's sentence set close to that of any other seed's, while the
    partners, connectives, quantifiers and bounds are drawn from the seed."""
    unary, binary = _unary_atoms(letters), _binary_atoms(letters)
    out = []
    for _ in range(SENTENCES_PER_ATOM):
        for u in unary:
            body = _combine(u("i"), [v("i") for v in unary], rng)
            out.append((rng.choice("EA"), "i", rng.choice(BOUNDS), body))
        for a in binary:
            partners = binary + [v(var) for v in unary for var in "ij"]
            inner = (rng.choice("EA"), "j", rng.choice(BOUNDS), _combine(a, partners, rng))
            out.append((rng.choice("EA"), "i", rng.choice(BOUNDS), inner))
    return out


# ---------------------------------------------------------------------------
# requests and workloads

@dataclass
class Request:
    kind: str  # "rank" | "decide"
    label: str
    slot: int  # position in the batch; slot i costs about the same in every batch
    variant: Variant
    options: dict = field(default_factory=dict)  # keyword arguments of rank2_decide
    budget: dict = field(default_factory=dict)  # fields of rank.Budget that differ from the default
    sentence: tuple = ()
    text: str = ""


WORKLOADS = ("fast-verdicts", "fo-queries", "deep-verdicts")
FAST_BASES = ("mod3", "thue-morse", "pow2-char", "ternary-tm", "TWELVE")
FO_FIXTURES = ("thue-morse", "mod3", "pow2-char", "ternary-tm")


class Workload:
    """Seeded batches of requests; batch b depends only on (name, seed, b).

    Every batch holds the same slots, each on a fresh variant, so batches
    cost the same and host-speed noise can be told apart from the
    program's own cost.  fo-queries draws its sentences once per seed and
    asks all of them about each fresh variant, the way one user explores
    one sequence with recurring atoms.
    """

    def __init__(self, name: str, seed: int):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.name, self.seed = name, seed
        self._seen: set = set()
        if name == "fo-queries":
            rng = random.Random(f"{name}:{seed}:sentences")
            self.sentences = {fx: sentences(sorted(set(BASES[fx].outputs)), rng) for fx in FO_FIXTURES}

    def _fresh_variant(self, base: Base, rng: random.Random) -> Variant:
        while True:
            v = make_variant(base, rng)
            if v.text not in self._seen:
                self._seen.add(v.text)
                return v

    def batch(self, b: int) -> list:
        rng = random.Random(f"{self.name}:{self.seed}:{b}")
        if self.name == "fast-verdicts":
            return [Request("rank", name, i, self._fresh_variant(BASES[name], rng))
                    for i, name in enumerate(FAST_BASES)]
        if self.name == "deep-verdicts":
            # Steps 1-3 on POW23 (inconclusive at the run-tower depth), the
            # Step 3 companion search that decides pow2-char, Steps 1-5 on
            # thue-morse, and the biggest subset constructions (22k raw
            # states) in ternary-tm's Steps 1-4.  The ternary-tm assume_D = 4
            # run takes over a minute alone, too long to repeat within a run.
            return [
                Request("rank", "POW23", 0, self._fresh_variant(BASES["POW23"], rng)),
                Request("rank", "pow2-char", 1, self._fresh_variant(BASES["pow2-char"], rng),
                        {"disable_fast_paths": True}),
                Request("rank", "thue-morse", 2, self._fresh_variant(BASES["thue-morse"], rng),
                        {"disable_fast_paths": True, "assume_D": 2}),
                Request("rank", "ternary-tm", 3, self._fresh_variant(BASES["ternary-tm"], rng),
                        {"disable_fast_paths": True}, {"max_patterns": 0}),
            ]
        reqs = []
        for fx in FO_FIXTURES:
            var = self._fresh_variant(BASES[fx], rng)
            for f in self.sentences[fx]:
                reqs.append(Request("decide", fx, len(reqs), var, sentence=f,
                                    text=render(f, var.relabel)))
        return reqs


def check(req: Request, answer) -> Optional[str]:
    """None if the answer is right, else a one-line reason."""
    if req.kind == "rank":
        return check_rank(req.variant, answer)
    want = brute(req.sentence, truth_prefix(req.variant.base, IDENTITY_LETTERS, PREFIX))
    if answer is not want:
        return f"{req.label}: {req.text!r} gave {answer}, brute evaluation gives {want}"
    return None


def decided(req: Request, answer) -> bool:
    return req.kind == "decide" or answer.get("verdict") != "inconclusive"

"""Formula builders for positional comparisons inside a sequence.

All window arguments are half-open: a window argument n means the n
positions i, i+1, ..., i+n-1, so n = 0 windows are empty and every
builder is total.  Internal bound variables use a reserved "." prefix
chosen to avoid the variables free in the arguments, which keeps the
builders safe to nest and to call with any user variable names.
"""

from __future__ import annotations

from .logic import (
    Const,
    Formula,
    add,
    and_,
    eq,
    exists,
    forall,
    ge,
    gt,
    implies,
    le,
    lt,
    mul,
    not_,
    or_,
    seq_at,
    seq_eq,
    term,
    term_vars,
)


def _fresh(args, count: int) -> list[str]:
    used = set()
    for a in args:
        used |= term_vars(term(a))
    out: list[str] = []
    i = 0
    while len(out) < count:
        name = f".{i}"
        if name not in used:
            out.append(name)
        i += 1
    return out


def factoreq(i, j, n) -> Formula:
    """x[i..i+n) = x[j..j+n)."""
    i, j, n = term(i), term(j), term(n)
    (t,) = _fresh((i, j, n), 1)
    return forall(t, implies(lt(t, n), seq_eq(add(i, t), add(j, t))))


def period_f(i, n, p) -> Formula:
    """x[i..i+n) has period p (vacuously for n <= p)."""
    i, n, p = term(i), term(n), term(p)
    (d,) = _fresh((i, n, p), 1)
    return forall(d, implies(eq(add(d, p), n), factoreq(i, add(i, p), d)))


def match_f(i, j, m, r) -> Formula:
    """x[i..i+r) occurs at j and continues r-periodically for m more
    positions, i.e. x[j..j+m+r) is an (m+r)/r power of the block at i."""
    i, j, m, r = term(i), term(j), term(m), term(r)
    return and_(factoreq(i, j, r), factoreq(j, add(j, r), m))


def earliestfac(i, j, n) -> Formula:
    """The block x[j..j+n) occurs at i, and i is its first occurrence."""
    i, j, n = term(i), term(j), term(n)
    (t,) = _fresh((i, j, n), 1)
    return and_(factoreq(i, j, n), forall(t, implies(factoreq(t, j, n), ge(t, i))))


def prefx(i, j, x, y) -> Formula:
    """x[i..i+j) is a prefix of x[x..x+y)."""
    i, j, x, y = term(i), term(j), term(x), term(y)
    return and_(le(j, y), factoreq(i, x, j))


def suffx(i, j, x, y) -> Formula:
    """x[i..i+j) is a suffix of x[x..x+y)."""
    i, j, x, y = term(i), term(j), term(x), term(y)
    (w,) = _fresh((i, j, x, y), 1)
    return and_(
        le(j, y),
        exists(w, and_(eq(add(w, j), add(x, y)), factoreq(i, w, j))),
    )


def prim(i, n) -> Formula:
    """x[i..i+n) is primitive.

    A word is a proper power exactly when some shift j with 0 < j < n is
    a period and the length-j prefix equals the length-j suffix (the word
    equals a nontrivial rotation of itself).
    """
    i, n = term(i), term(n)
    j, d, w = _fresh((i, n), 3)
    rotation = and_(
        gt(j, 0),
        lt(j, n),
        exists(d, and_(eq(add(j, d), n), factoreq(i, add(i, j), d))),
        exists(w, and_(eq(add(w, j), add(i, n)), factoreq(i, w, j))),
    )
    return not_(exists(j, rotation))


def word_at(j, letters) -> Formula:
    """The concrete word appears at position j."""
    j = term(j)
    parts = [seq_at(add(j, Const(t)), int(a)) for t, a in enumerate(letters)]
    if not parts:
        return eq(j, j)
    return and_(*parts)


def congruent(t, c: int, ell: int) -> Formula:
    """t ≡ c (mod ell), for concrete c and ell >= 1."""
    if ell <= 0:
        raise ValueError("modulus must be positive")
    t = term(t)
    (q,) = _fresh((t,), 1)
    return exists(q, eq(t, add(mul(ell, q), Const(c % ell))))


def agrees_with_rotation(t_upper, letters, phase: int, start=0) -> Formula:
    """x[start + t] = w[(t + phase) mod |w|] for all t < t_upper, w concrete."""
    letters = tuple(int(a) for a in letters)
    ell = len(letters)
    if ell == 0:
        raise ValueError("empty word")
    t_upper, start = term(t_upper), term(start)
    (t,) = _fresh((t_upper, start), 1)
    cases = [
        implies(congruent(t, c, ell), seq_at(add(start, t), letters[(c + phase) % ell]))
        for c in range(ell)
    ]
    return forall(t, implies(lt(t, t_upper), and_(*cases)))


def prefix_in_periodic_orbit(m, letters) -> Formula:
    """x[0..m) is a factor of the one-sided periodic word w^ω, w concrete."""
    phases = [agrees_with_rotation(m, letters, phase) for phase in range(len(letters))]
    return or_(*phases)


def unbounded_powers_formula(i, n, p) -> Formula:
    """Some block equal to x[i..i+p) (with i its first occurrence) has a
    p-periodic continuation of window length n; p = 0 is excluded.
    Downward closed in n: a prefix of a p-periodic window is p-periodic."""
    i, n, p = term(i), term(n), term(p)
    (j,) = _fresh((i, n, p), 1)
    return and_(
        ge(p, 1),
        exists(j, and_(earliestfac(i, j, p), period_f(j, n, p))),
    )


def unbounded_period_formula(p="p") -> Formula:
    """Free p: p >= 1 and for every n some window x[j..j+n+p) has period
    p, that is x[j..j+n) = x[j+p..j+p+n).

    Nonempty exactly when some word has unbounded exponent: the first p
    letters of such windows take finitely many values, so one of them
    heads windows of every length, and its primitive root has unbounded
    exponent too; a primitive w with unbounded exponent puts |w| here."""
    p = term(p)
    n, j = _fresh((p,), 2)
    return and_(ge(p, 1), forall(n, exists(j, factoreq(j, add(j, p), n))))


def unbounded_primitive_factors_formula(i="i", p="p") -> Formula:
    """Free (i, p): x[i..i+p) is primitive, first occurs at i, and occurs
    with unbounded exponent.

    "For every m a window n > m" is "every window n", the window relation
    being downward closed in n; its ∃j part is the power relation whose
    state count analysis.constants reads (the compile cache shares it when
    both are built for one sequence)."""
    i, p = term(i), term(p)
    (n,) = _fresh((i, p), 1)
    return and_(prim(i, p), forall(n, unbounded_powers_formula(i, n, p)))


def covered(n, m) -> Formula:
    """Every length-n factor occurs inside the first m positions."""
    n, m = term(n), term(m)
    s, j = _fresh((n, m), 2)
    return forall(
        s,
        exists(j, and_(le(add(j, n), m), factoreq(j, s, n))),
    )


def appearance_formula(n="n", m="m") -> Formula:
    """Free (n, m): m is the least cover length for window size n."""
    n, m = term(n), term(m)
    (m2,) = _fresh((n, m), 1)
    return and_(
        covered(n, m),
        forall(m2, implies(lt(m2, m), not_(covered(n, m2)))),
    )


def pure_period_formula(p="p") -> Formula:
    """Free p: p >= 1 and x[t+p] = x[t] for all t."""
    p = term(p)
    (t,) = _fresh((p,), 1)
    return and_(ge(p, 1), forall(t, seq_eq(add(t, p), t)))


def ultimate_period_formula(c="c", p="p") -> Formula:
    """Free (c, p): p >= 1 and x[t+p] = x[t] for all t >= c."""
    c, p = term(c), term(p)
    (t,) = _fresh((c, p), 1)
    return and_(ge(p, 1), forall(t, implies(ge(t, c), seq_eq(add(t, p), t))))


def block_run(base, n, i: int, d: int) -> Formula:
    """x[base..base+n) is a run of copies of the block x[i..i+d), i and d
    concrete: n is a multiple of d, the window has period d, and a
    nonempty run starts with the block."""
    base, n = term(base), term(n)
    iC, dC = Const(i), Const(d)
    (q,) = _fresh((base, n), 1)
    return and_(
        exists(q, eq(n, mul(d, q))),
        period_f(base, n, dC),
        implies(ge(n, dC), factoreq(base, iC, dC)),
    )


def power_occurs(start, n, words) -> Formula:
    """x[start..start+n) is a power rho^(n/|rho|) of a word rho in words.

    Given for words the list of unbounded_primitive_factors (Step 2),
    this says "x[start..start+n) occurs as a B-th power", with no
    multiplication by B.  B's defining property (analysis.constants)
    makes "occurs with exponent B" the same as "occurs with unbounded
    exponent".  A word has unbounded exponent exactly when its primitive
    root does, and Step 2's list holds exactly the primitive words with
    unbounded exponent: each occurs, so each has a first occurrence.
    That list is closed under rotation, so "the root is some rho in the
    list" needs no rotation of its own.  An empty list gives a false
    relation that still has the start and n tracks.
    """
    start, n = term(start), term(n)
    parts = [
        and_(congruent(n, 0, len(w)), agrees_with_rotation(n, w, 0, start)) for w in words
    ]
    if not parts:
        return lt(add(start, n), add(start, n))
    return and_(ge(n, 1), or_(*parts))

"""Command-line front end: automata in, analyses and verdicts out.

Every command accepts --format human|json; json output is deterministic
(sorted keys) so runs are byte-for-byte reproducible.  Exit code 0 covers
every verdict including Inconclusive; input problems exit with 2.

Each `_cmd_*` handler takes the parsed arguments, the sequence and the
compile limits (None where the command has no --fixture/--dfao or no
--budget-states) and returns its output as a (human text, JSON payload)
pair.  `main` loads the sequence, builds the limits, converts the
alphabet, calls the handler and prints the chosen form, once for all
commands.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import (
    SpecialExponent,
    bounded_form,
    constants,
    is_purely_periodic,
    is_ultimately_periodic,
    max_exponent,
    unbounded_primitive_factors,
)
from .automata import Dfao, load_dfao
from .errors import RankTwoError
from .fixtures import FIXTURE_NAMES, load_fixture
from .formula_text import FormulaSyntaxError, parse_formula
from .logic import CompileLimits, decide
from .oracle import (
    brute_appearance,
    dp_factorize,
    search_comb_counterexample,
    search_depsilon_counterexample,
    search_pairs,
)
from .rank import Budget, rank2_decide
from .words import word


_DEFAULTS = Budget()


class InputError(Exception):
    """A problem with the command-line input, reported with exit code 2."""


def _digits(w) -> str:
    return "".join(str(a) for a in w)


def _word_arg(text: str) -> tuple[int, ...]:
    if not text:
        raise InputError("words must be nonempty digit strings")
    if not text.isdigit():
        raise InputError(f"words are digit strings; got {text!r}")
    return word(text)


def _alphabet_arg(text: str) -> tuple[int, ...]:
    if not text.isdigit():
        raise InputError(f"alphabets are digit strings; got {text!r}")
    letters = tuple(dict.fromkeys(int(c) for c in text))
    if len(letters) < 2:
        raise InputError("alphabets need at least two distinct letters")
    return letters


def _load_sequence(args) -> Dfao:
    if args.fixture is not None:
        return load_fixture(args.fixture)
    try:
        return load_dfao(args.dfao)
    except OSError as exc:
        raise InputError(f"cannot read {args.dfao}: {exc.strerror}")
    except RankTwoError as exc:
        raise InputError(f"{args.dfao}: {exc}")


def _parse_positions(text: str) -> tuple[int, int]:
    """Either a single position or a half-open range start..stop."""
    start_s, dots, stop_s = text.partition("..")
    try:
        start = int(start_s)
        stop = int(stop_s) if dots else start + 1
    except ValueError:
        raise InputError(f"positions are naturals or start..stop ranges; got {text!r}")
    if start < 0 or stop < start:
        raise InputError(f"bad position range {text!r}")
    return start, stop


def _cmd_eval(args, seq, limits):
    start, stop = _parse_positions(args.n)
    values = seq.prefix(stop)[start:] if stop > 0 else []
    return " ".join(str(v) for v in values), {"start": start, "stop": stop, "values": list(values)}


def _cmd_analyze(args, seq, limits):
    c = constants(seq, limits)
    C, kappa, B = bounded_form(c.C), bounded_form(c.kappa), bounded_form(c.B)
    human = "\n".join(
        [
            f"appearance constant C = {C}",
            f"recurrence constant kappa = {kappa}",
            f"power bound B = {seq.k}^{c.power_states} * {C}",
            "exponent threshold p = B",
        ]
    )
    return human, {
        "C": C,
        "kappa": kappa,
        "B": B,
        "p": B,
        "appearance_states": c.appearance_states,
        "power_states": c.power_states,
    }


def _cmd_factors(args, seq, limits):
    members = unbounded_primitive_factors(seq, limits)
    lines = [f"word={_digits(w)} length={p} first_index={i}" for (i, p, w) in members]
    return "\n".join(lines) or "none", {
        "factors": [{"first_index": i, "length": p, "word": list(w)} for (i, p, w) in members]
    }


def _cmd_max_exponent(args, seq, limits):
    z = _word_arg(args.word)
    e = max_exponent(seq, z, limits)
    if isinstance(e, SpecialExponent):
        human, payload = e.value, {"kind": e.value}
    else:
        human = str(e)
        payload = {"kind": "fraction", "numerator": e.numerator, "denominator": e.denominator}
    payload["word"] = list(z)
    return human, payload


def _cmd_periodic(args, seq, limits):
    p = is_purely_periodic(seq, limits)
    if p is not None:
        return f"purely periodic, period {p}", {"kind": "purely-periodic", "period": p}
    up = is_ultimately_periodic(seq, limits)
    if up is None:
        return "aperiodic", {"kind": "aperiodic"}
    c, per = up
    return (
        f"ultimately periodic, preperiod {c}, period {per}",
        {"kind": "ultimately-periodic", "preperiod": c, "period": per},
    )


def _verdict_human(data: dict) -> str:
    kind = data["verdict"]
    if kind == "rank_one":
        lines = [f"verdict: rank one, period {data['period']}"]
    elif kind == "rank_two":
        cert = data["certificate"]
        if cert["kind"] == "explicit_pair":
            lines = [
                f"verdict: rank two, explicit pair u={_digits(cert['u'])} v={_digits(cert['v'])} "
                f"(factorization validated on a prefix of {cert['validated_prefix']})"
            ]
        else:
            lines = [f"verdict: rank two, satisfiable block pattern {_digits(cert['pattern'])}"]
    elif kind == "rank_at_least_three":
        lines = ["verdict: rank at least three"]
    else:
        lines = [f"verdict: inconclusive at {data['stage']} (needs {data['required']})"]
    flags = data["soundness_flags"]
    if flags["unsound"]:
        lines.append("UNSOUND-FOR-PRODUCTION: constants were assumed, not computed")
    lines += [f"assumption: {a}" for a in flags["assumptions"]]
    lines += [f"note: {n}" for n in flags["notes"]]
    return "\n".join(lines)


def _cmd_rank2(args, seq, limits):
    budget = Budget(
        max_automaton_states=args.budget_states,
        max_patterns=args.budget_patterns,
        max_enumeration=args.budget_enumeration,
        wall_time=args.wall_time,
    )
    data = rank2_decide(
        seq, budget, disable_fast_paths=args.disable_fast_paths, assume_D=args.assume_D
    ).to_dict()
    return _verdict_human(data), data


def _cmd_decide(args, seq, limits):
    try:
        sentence = parse_formula(args.formula)
    except FormulaSyntaxError as exc:
        raise InputError(f"formula: {exc}")
    try:
        value = decide(sentence, seq=seq, limits=limits)
    except ValueError as exc:
        raise InputError(f"formula: {exc}")
    return "true" if value else "false", {"formula": args.formula, "value": value}


def _cmd_oracle_dp(args, seq, limits):
    u, v = _word_arg(args.u), _word_arg(args.v)
    cuts = dp_factorize(tuple(seq.prefix(args.prefix_len)), u, v)
    if cuts is None:
        return "none", {"cuts": None}
    return (
        f"factorization found: {len(cuts) - 1} blocks covering {cuts[-1]} symbols",
        {"cuts": list(cuts)},
    )


def _cmd_oracle_pairs(args, seq, limits):
    found = search_pairs(tuple(seq.prefix(args.prefix_len)), args.max_total, limit=args.limit)
    lines = [f"{_digits(u)} {_digits(v)}" for (u, v) in found]
    return "\n".join(lines) or "none", {"pairs": [[list(u), list(v)] for (u, v) in found]}


def _cmd_oracle_appearance(args, seq, limits):
    value = brute_appearance(tuple(seq.prefix(args.prefix_len)), args.n)
    return str(value), {"n": args.n, "appearance": value}


def _cmd_oracle_search(args, seq, limits):
    """comb-search and depsilon-search: args.search is the search and
    args.fields names the four words of a witness."""
    bounds = ("max_pair_total", "max_w_len", "min_xy", "alphabet")
    hit = args.search(**{name: getattr(args, name) for name in bounds if name in args})
    if hit is None:
        return "none", {"witness": None}
    named = list(zip(args.fields, hit))
    return (
        " ".join(f"{name}={_digits(w)}" for name, w in named),
        {"witness": {name: list(w) for name, w in named}},
    )


def _arg(*flags, **options):
    return flags, options


def _command(sub, name, help, func, *arguments, sequence=True, budget=False, prefix=False,
             **values):
    """Add subcommand `name` with handler `func`: the sequence choice,
    --format, then --budget-states if it builds automata, then its own
    `arguments` (made by `_arg`), then --prefix-len if it reads a prefix.
    `values` are further fixed attributes of its parsed arguments."""
    p = sub.add_parser(name, help=help)
    if sequence:
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--fixture", choices=FIXTURE_NAMES, help="built-in sequence")
        group.add_argument("--dfao", metavar="PATH", help="automaton description file")
    p.add_argument(
        "--format", choices=("human", "json"), default="human", help="output format"
    )
    if budget:
        p.add_argument(
            "--budget-states",
            type=int,
            default=_DEFAULTS.max_automaton_states,
            metavar="N",
            help="cap on intermediate automaton states",
        )
    for flags, options in arguments:
        p.add_argument(*flags, **options)
    if prefix:
        p.add_argument("--prefix-len", type=int, default=4096, metavar="N")
    p.set_defaults(func=func, **values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ranktwo",
        description="rank analysis of k-automatic sequences given as automata with output",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    alphabet = _arg("--alphabet", type=str, default="01", help="letters as a digit string")

    _command(
        sub, "eval", "print sequence values", _cmd_eval,
        _arg("--n", required=True, metavar="N|A..B", help="position or half-open range"),
    )
    _command(
        sub, "analyze", "appearance, recurrence, and power constants", _cmd_analyze, budget=True
    )
    _command(
        sub, "factors", "primitive factors with unbounded powers", _cmd_factors, budget=True
    )
    _command(
        sub, "max-exponent", "largest exponent of a given word", _cmd_max_exponent,
        _arg("--word", required=True, help="factor as a digit string"),
        budget=True,
    )
    _command(sub, "periodic", "pure / ultimate periodicity", _cmd_periodic, budget=True)
    _command(
        sub, "rank2", "full rank decision", _cmd_rank2,
        _arg(
            "--budget-patterns",
            type=int,
            default=_DEFAULTS.max_patterns,
            metavar="N",
            help="cap on pattern prefixes the pattern search visits; 0 makes it inconclusive at once",
        ),
        _arg(
            "--budget-enumeration",
            type=int,
            default=_DEFAULTS.max_enumeration,
            metavar="N",
            help="cap on candidate lists, witness loops, run-chain rounds and the levels of each fixed-pair decision",
        ),
        _arg("--wall-time", type=float, default=_DEFAULTS.wall_time, metavar="SECONDS"),
        _arg(
            "--assume-D",
            dest="assume_D",
            type=int,
            default=None,
            metavar="D",
            help="test hook: override the pattern length; the verdict is UNSOUND",
        ),
        _arg(
            "--disable-fast-paths",
            action="store_true",
            help="test hook: skip the letter and explicit-pair fast paths",
        ),
        budget=True,
    )
    _command(
        sub, "decide", "decide a first-order sentence about the sequence", _cmd_decide,
        _arg("formula", help="sentence, e.g. 'A i. E j. j > i & x[j] = 1'"),
        budget=True,
    )

    oracle = sub.add_parser("oracle", help="brute-force cross-checks").add_subparsers(
        dest="oracle_command", required=True
    )
    _command(
        oracle, "dp", "dynamic-programming factorization of a prefix", _cmd_oracle_dp,
        _arg("--u", required=True, help="first block, digit string"),
        _arg("--v", required=True, help="second block, digit string"),
        prefix=True,
    )
    _command(
        oracle, "pairs", "exhaustive small generating pairs of a prefix", _cmd_oracle_pairs,
        _arg("--max-total", type=int, default=6, metavar="N", help="cap on |u| + |v|"),
        _arg("--limit", type=int, default=None, metavar="N"),
        prefix=True,
    )
    _command(
        oracle, "appearance", "brute appearance value on a prefix", _cmd_oracle_appearance,
        _arg("--n", type=int, required=True, help="factor length"),
        prefix=True,
    )
    _command(
        oracle, "comb-search", "search for a five-occurrence counterexample", _cmd_oracle_search,
        _arg("--max-pair-total", type=int, default=4, metavar="N"),
        _arg("--max-w-len", type=int, default=14, metavar="N"),
        _arg("--min-xy", type=int, default=5, metavar="N"),
        alphabet,
        sequence=False,
        search=search_comb_counterexample,
        fields=("u", "v", "w", "z"),
    )
    _command(
        oracle, "depsilon-search", "search for a unique-overhang counterexample",
        _cmd_oracle_search,
        _arg("--max-pair-total", type=int, default=5, metavar="N"),
        _arg("--max-w-len", type=int, default=6, metavar="N"),
        alphabet,
        sequence=False,
        search=search_depsilon_counterexample,
        fields=("u", "v", "d", "wprime"),
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        seq = _load_sequence(args) if "fixture" in args else None
        limits = (
            CompileLimits(max_automaton_states=args.budget_states)
            if "budget_states" in args
            else None
        )
        if "alphabet" in args:
            args.alphabet = _alphabet_arg(args.alphabet)
        human, payload = args.func(args, seq, limits)
        print(json.dumps(payload, sort_keys=True, indent=2) if args.format == "json" else human)
    except (InputError, RankTwoError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

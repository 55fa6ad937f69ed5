"""Command-line front end: automata in, analyses and verdicts out.

Every command accepts --format human|json; json output is deterministic
(sorted keys) so runs are byte-for-byte reproducible.  Exit code 0 covers
every verdict including Inconclusive; input problems exit with 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import (
    NOT_A_FACTOR,
    UNBOUNDED,
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


class InputError(Exception):
    """A problem with the command-line input, reported with exit code 2."""


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
        try:
            return load_fixture(args.fixture)
        except KeyError as exc:
            raise InputError(str(exc.args[0]))
    try:
        return load_dfao(args.dfao)
    except OSError as exc:
        raise InputError(f"cannot read {args.dfao}: {exc.strerror}")
    except RankTwoError as exc:
        raise InputError(f"{args.dfao}: {exc}")


def _add_sequence_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--fixture", choices=FIXTURE_NAMES, help="built-in sequence")
    group.add_argument("--dfao", metavar="PATH", help="automaton description file")


def _add_format_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("human", "json"), default="human", help="output format"
    )


def _emit(args, human: str, payload: dict) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(human)


def _parse_positions(text: str) -> tuple[int, int]:
    """Either a single position or a half-open range start..stop."""
    if ".." in text:
        start_s, _, stop_s = text.partition("..")
        try:
            start, stop = int(start_s), int(stop_s)
        except ValueError:
            raise InputError(f"positions are naturals or start..stop ranges; got {text!r}")
    else:
        try:
            start = int(text)
        except ValueError:
            raise InputError(f"positions are naturals or start..stop ranges; got {text!r}")
        stop = start + 1
    if start < 0 or stop < start:
        raise InputError(f"bad position range {text!r}")
    return start, stop


def _cmd_eval(args) -> int:
    seq = _load_sequence(args)
    start, stop = _parse_positions(args.n)
    values = seq.prefix(stop)[start:] if stop > 0 else []
    _emit(
        args,
        " ".join(str(v) for v in values),
        {"start": start, "stop": stop, "values": list(values)},
    )
    return 0


def _cmd_analyze(args) -> int:
    seq = _load_sequence(args)
    limits = CompileLimits(max_automaton_states=args.budget_states)
    c = constants(seq, limits)
    C, kappa = bounded_form(c.C), bounded_form(c.kappa)
    human = "\n".join(
        [
            f"appearance constant C = {C}",
            f"recurrence constant kappa = {kappa}",
            f"power bound B = {seq.k}^{c.power_states} * {C}",
            "exponent threshold p = B",
        ]
    )
    _emit(
        args,
        human,
        {
            "C": C,
            "kappa": kappa,
            "B": bounded_form(c.B),
            "p": bounded_form(c.B),
            "appearance_states": c.appearance_states,
            "power_states": c.power_states,
        },
    )
    return 0


def _cmd_factors(args) -> int:
    seq = _load_sequence(args)
    limits = CompileLimits(max_automaton_states=args.budget_states)
    members = unbounded_primitive_factors(seq, limits)
    lines = [
        f"word={''.join(str(a) for a in w)} length={p} first_index={i}"
        for (i, p, w) in members
    ] or ["none"]
    _emit(
        args,
        "\n".join(lines),
        {"factors": [{"first_index": i, "length": p, "word": list(w)} for (i, p, w) in members]},
    )
    return 0


def _cmd_max_exponent(args) -> int:
    seq = _load_sequence(args)
    limits = CompileLimits(max_automaton_states=args.budget_states)
    z = _word_arg(args.word)
    e = max_exponent(seq, z, limits)
    if e is UNBOUNDED:
        human, payload = "unbounded", {"kind": "unbounded"}
    elif e is NOT_A_FACTOR:
        human, payload = "not-a-factor", {"kind": "not-a-factor"}
    else:
        human = str(e)
        payload = {"kind": "fraction", "numerator": e.numerator, "denominator": e.denominator}
    payload["word"] = list(z)
    _emit(args, human, payload)
    return 0


def _cmd_periodic(args) -> int:
    seq = _load_sequence(args)
    limits = CompileLimits(max_automaton_states=args.budget_states)
    p = is_purely_periodic(seq, limits)
    if p is not None:
        _emit(args, f"purely periodic, period {p}", {"kind": "purely-periodic", "period": p})
        return 0
    up = is_ultimately_periodic(seq, limits)
    if up is not None:
        c, per = up
        _emit(
            args,
            f"ultimately periodic, preperiod {c}, period {per}",
            {"kind": "ultimately-periodic", "preperiod": c, "period": per},
        )
        return 0
    _emit(args, "aperiodic", {"kind": "aperiodic"})
    return 0


def _verdict_human(data: dict) -> str:
    kind = data["verdict"]
    lines = []
    if kind == "rank_one":
        lines.append(f"verdict: rank one, period {data['period']}")
    elif kind == "rank_two":
        cert = data["certificate"]
        if cert["kind"] == "explicit_pair":
            u = "".join(str(a) for a in cert["u"])
            v = "".join(str(a) for a in cert["v"])
            lines.append(
                f"verdict: rank two, explicit pair u={u} v={v} "
                f"(factorization validated on a prefix of {cert['validated_prefix']})"
            )
        else:
            patt = "".join(str(b) for b in cert["pattern"])
            lines.append(f"verdict: rank two, satisfiable block pattern {patt}")
    elif kind == "rank_at_least_three":
        lines.append("verdict: rank at least three")
    else:
        lines.append(f"verdict: inconclusive at {data['stage']} (needs {data['required']})")
    flags = data["soundness_flags"]
    if flags["unsound"]:
        lines.append("UNSOUND-FOR-PRODUCTION: constants were assumed, not computed")
    for a in flags["assumptions"]:
        lines.append(f"assumption: {a}")
    for n in flags["notes"]:
        lines.append(f"note: {n}")
    return "\n".join(lines)


def _cmd_rank2(args) -> int:
    seq = _load_sequence(args)
    budget = Budget(
        max_automaton_states=args.budget_states,
        max_patterns=args.budget_patterns,
        max_enumeration=args.budget_enumeration,
        wall_time=args.wall_time,
    )
    report = rank2_decide(
        seq,
        budget,
        disable_fast_paths=args.disable_fast_paths,
        assume_D=args.assume_D,
    )
    data = report.to_dict()
    _emit(args, _verdict_human(data), data)
    return 0


def _cmd_decide(args) -> int:
    seq = _load_sequence(args)
    limits = CompileLimits(max_automaton_states=args.budget_states)
    try:
        sentence = parse_formula(args.formula)
    except FormulaSyntaxError as exc:
        raise InputError(f"formula: {exc}")
    try:
        value = decide(sentence, seq=seq, limits=limits)
    except ValueError as exc:
        raise InputError(f"formula: {exc}")
    _emit(args, "true" if value else "false", {"formula": args.formula, "value": value})
    return 0


def _cmd_oracle_dp(args) -> int:
    seq = _load_sequence(args)
    u, v = _word_arg(args.u), _word_arg(args.v)
    prefix = tuple(seq.prefix(args.prefix_len))
    cuts = dp_factorize(prefix, u, v)
    if cuts is None:
        _emit(args, "none", {"cuts": None})
    else:
        _emit(
            args,
            f"factorization found: {len(cuts) - 1} blocks covering {cuts[-1]} symbols",
            {"cuts": list(cuts)},
        )
    return 0


def _cmd_oracle_pairs(args) -> int:
    seq = _load_sequence(args)
    prefix = tuple(seq.prefix(args.prefix_len))
    found = search_pairs(prefix, args.max_total, limit=args.limit)
    lines = [
        "".join(str(a) for a in u) + " " + "".join(str(a) for a in v) for (u, v) in found
    ] or ["none"]
    _emit(args, "\n".join(lines), {"pairs": [[list(u), list(v)] for (u, v) in found]})
    return 0


def _cmd_oracle_appearance(args) -> int:
    seq = _load_sequence(args)
    prefix = tuple(seq.prefix(args.prefix_len))
    value = brute_appearance(prefix, args.n)
    _emit(args, str(value), {"n": args.n, "appearance": value})
    return 0


def _format_witness(names: tuple[str, ...], hit: tuple) -> str:
    return " ".join(
        f"{name}={''.join(str(a) for a in w)}" for name, w in zip(names, hit)
    )


def _cmd_oracle_comb(args) -> int:
    hit = search_comb_counterexample(
        max_pair_total=args.max_pair_total,
        max_w_len=args.max_w_len,
        min_xy=args.min_xy,
        alphabet=args.alphabet,
    )
    if hit is None:
        _emit(args, "none", {"witness": None})
    else:
        _emit(
            args,
            _format_witness(("u", "v", "w", "z"), hit),
            {"witness": {"u": list(hit[0]), "v": list(hit[1]), "w": list(hit[2]), "z": list(hit[3])}},
        )
    return 0


def _cmd_oracle_depsilon(args) -> int:
    hit = search_depsilon_counterexample(
        max_pair_total=args.max_pair_total,
        max_w_len=args.max_w_len,
        alphabet=args.alphabet,
    )
    if hit is None:
        _emit(args, "none", {"witness": None})
    else:
        _emit(
            args,
            _format_witness(("u", "v", "d", "wprime"), hit),
            {
                "witness": {
                    "u": list(hit[0]),
                    "v": list(hit[1]),
                    "d": list(hit[2]),
                    "wprime": list(hit[3]),
                }
            },
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ranktwo",
        description="rank analysis of k-automatic sequences given as automata with output",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = Budget()

    def common(p, needs_sequence=True):
        if needs_sequence:
            _add_sequence_arguments(p)
        _add_format_argument(p)

    def compiling(p):
        common(p)
        p.add_argument(
            "--budget-states",
            type=int,
            default=defaults.max_automaton_states,
            metavar="N",
            help="cap on intermediate automaton states",
        )

    p = sub.add_parser("eval", help="print sequence values")
    common(p)
    p.add_argument("--n", required=True, metavar="N|A..B", help="position or half-open range")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("analyze", help="appearance, recurrence, and power constants")
    compiling(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("factors", help="primitive factors with unbounded powers")
    compiling(p)
    p.set_defaults(func=_cmd_factors)

    p = sub.add_parser("max-exponent", help="largest exponent of a given word")
    compiling(p)
    p.add_argument("--word", required=True, help="factor as a digit string")
    p.set_defaults(func=_cmd_max_exponent)

    p = sub.add_parser("periodic", help="pure / ultimate periodicity")
    compiling(p)
    p.set_defaults(func=_cmd_periodic)

    p = sub.add_parser("rank2", help="full rank decision")
    compiling(p)
    p.add_argument(
        "--budget-patterns",
        type=int,
        default=defaults.max_patterns,
        metavar="N",
        help="cap on pattern prefixes the pattern search visits; 0 makes it inconclusive at once",
    )
    p.add_argument(
        "--budget-enumeration",
        type=int,
        default=defaults.max_enumeration,
        metavar="N",
        help="cap on candidate lists, witness loops, run-chain rounds and the levels of each fixed-pair decision",
    )
    p.add_argument("--wall-time", type=float, default=defaults.wall_time, metavar="SECONDS")
    p.add_argument(
        "--assume-D",
        dest="assume_D",
        type=int,
        default=None,
        metavar="D",
        help="test hook: override the pattern length; the verdict is UNSOUND",
    )
    p.add_argument(
        "--disable-fast-paths",
        action="store_true",
        help="test hook: skip the letter and explicit-pair fast paths",
    )
    p.set_defaults(func=_cmd_rank2)

    p = sub.add_parser("decide", help="decide a first-order sentence about the sequence")
    compiling(p)
    p.add_argument("formula", help="sentence, e.g. 'A i. E j. j > i & x[j] = 1'")
    p.set_defaults(func=_cmd_decide)

    oracle = sub.add_parser("oracle", help="brute-force cross-checks").add_subparsers(
        dest="oracle_command", required=True
    )

    p = oracle.add_parser("dp", help="dynamic-programming factorization of a prefix")
    common(p)
    p.add_argument("--u", required=True, help="first block, digit string")
    p.add_argument("--v", required=True, help="second block, digit string")
    p.add_argument("--prefix-len", type=int, default=4096, metavar="N")
    p.set_defaults(func=_cmd_oracle_dp)

    p = oracle.add_parser("pairs", help="exhaustive small generating pairs of a prefix")
    common(p)
    p.add_argument("--max-total", type=int, default=6, metavar="N", help="cap on |u| + |v|")
    p.add_argument("--limit", type=int, default=None, metavar="N")
    p.add_argument("--prefix-len", type=int, default=4096, metavar="N")
    p.set_defaults(func=_cmd_oracle_pairs)

    p = oracle.add_parser("appearance", help="brute appearance value on a prefix")
    common(p)
    p.add_argument("--n", type=int, required=True, help="factor length")
    p.add_argument("--prefix-len", type=int, default=4096, metavar="N")
    p.set_defaults(func=_cmd_oracle_appearance)

    p = oracle.add_parser("comb-search", help="search for a five-occurrence counterexample")
    common(p, needs_sequence=False)
    p.add_argument("--max-pair-total", type=int, default=4, metavar="N")
    p.add_argument("--max-w-len", type=int, default=14, metavar="N")
    p.add_argument("--min-xy", type=int, default=5, metavar="N")
    p.add_argument("--alphabet", type=str, default="01", help="letters as a digit string")
    p.set_defaults(func=_cmd_oracle_comb)

    p = oracle.add_parser("depsilon-search", help="search for a unique-overhang counterexample")
    common(p, needs_sequence=False)
    p.add_argument("--max-pair-total", type=int, default=5, metavar="N")
    p.add_argument("--max-w-len", type=int, default=6, metavar="N")
    p.add_argument("--alphabet", type=str, default="01", help="letters as a digit string")
    p.set_defaults(func=_cmd_oracle_depsilon)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if isinstance(getattr(args, "alphabet", None), str):
            args.alphabet = _alphabet_arg(args.alphabet)
        return args.func(args)
    except (InputError, RankTwoError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end checks of the command-line interface and the formula grammar."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ranktwo.cli import build_parser, main
from ranktwo.fixtures import load_fixture
from ranktwo.formula_text import FormulaSyntaxError, parse_formula
from ranktwo.logic import decide
from ranktwo.oracle import brute_appearance
from ranktwo.rank import Budget


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def popcount_parity(n):
    return bin(n).count("1") & 1


# ---------------------------------------------------------------- formulas


SENTENCES = [
    # (fixture, text, expected) -- expectations follow from the defining
    # rules of the fixtures (parity of ones, n mod 3, powers of two).
    ("thue-morse", "E i. x[i] = 1", True),
    ("thue-morse", "E i. x[i] = 2", False),
    ("thue-morse", "A i. x[i] = 0 | x[i] = 1", True),
    ("thue-morse", "A i. E j. j > i & x[j] = 0", True),
    ("thue-morse", "A i. x[2*i] != x[2*i+1]", True),
    ("thue-morse", "E i. i > 0 & (A j. x[i+j] = x[j])", False),
    ("thue-morse", "E i. x[i] = 0 & x[i+1] = 0 & x[i+2] = 0", False),
    ("mod3", "E i. i > 0 & (A j. x[i+j] = x[j])", True),
    ("mod3", "A i. x[i+3] = x[i]", True),
    ("mod3", "A i. x[i+2] = x[i]", False),
    ("mod3", "A i. x[i] = 0 -> x[i+1] = 1", True),
    ("pow2-char", "E i. x[i] = 1 & x[2*i] = 1", True),
    ("pow2-char", "E i. i > 4 & x[i] = 1 & x[i+1] = 1", False),
]


def test_parsed_sentences_decide_correctly():
    for fixture, text, expected in SENTENCES:
        seq = load_fixture(fixture)
        assert decide(parse_formula(text), seq=seq) is expected, (fixture, text)


def test_formula_precedence_and_associativity():
    tm = load_fixture("thue-morse")
    # negation binds tighter than a connective: (~ x[0]=1) | x[1]=0
    assert decide(parse_formula("~ x[0] = 1 | x[1] = 0"), seq=tm) is True
    assert decide(parse_formula("~ (x[0] = 0 | x[1] = 1)"), seq=tm) is False
    # implication associates to the right: F -> (T -> F) is true
    assert decide(parse_formula("x[0] = 1 -> x[0] = 0 -> x[0] = 1"), seq=tm) is True
    # and binds tighter than or: T | (F & F)
    assert decide(parse_formula("x[1] = 1 | x[0] = 1 & x[2] = 0"), seq=tm) is True
    # bang is an alternative negation spelling
    assert decide(parse_formula("! x[0] = 1"), seq=tm) is True
    # primed variable names are allowed
    assert decide(parse_formula("E i'. x[i'] = 1"), seq=tm) is True


BAD_FORMULAS = [
    ("", 0),
    ("E", 1),
    ("E i", 3),
    ("E i.", 4),
    ("E i j. x[i] = 0", 4),
    ("x[", 2),
    ("x 0", 2),
    ("x[0] < 1", 5),
    ("x = 1", 2),
    ("(x[0] = 0", 9),
    ("x[0] = 0)", 8),
    ("$", 0),
]


def test_formula_syntax_errors_carry_positions():
    for text, pos in BAD_FORMULAS:
        with pytest.raises(FormulaSyntaxError) as info:
            parse_formula(text)
        assert info.value.pos == pos, text
        assert f"column {pos + 1}:" in str(info.value)


# ---------------------------------------------------------------- plain commands


def morphic_ternary(n):
    # fixed point of 0 -> 01, 1 -> 20, 2 -> 20, starting from 0
    seq = [0]
    while len(seq) < n:
        seq = [b for a in seq for b in ((0, 1), (2, 0), (2, 0))[a]]
    return seq[:n]


GENERATORS = {
    "thue-morse": lambda n: [popcount_parity(i) for i in range(n)],
    "mod3": lambda n: [i % 3 for i in range(n)],
    "pow2-char": lambda n: [1 if i >= 1 and i & (i - 1) == 0 else 0 for i in range(n)],
    "ternary-tm": morphic_ternary,
}


def test_eval_range_matches_independent_generators(capsys):
    for fixture, generator in GENERATORS.items():
        code, out, _ = run(capsys, ["eval", "--fixture", fixture, "--n", "0..4096"])
        assert code == 0
        values = [int(tok) for tok in out.split()]
        assert values == generator(4096), fixture


def test_eval_single_position_and_json(capsys):
    code, out, _ = run(capsys, ["eval", "--fixture", "mod3", "--n", "5"])
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(
        capsys, ["eval", "--fixture", "mod3", "--n", "3..6", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out) == {"start": 3, "stop": 6, "values": [0, 1, 2]}


def test_analyze_json_reports_consistent_constants(capsys):
    code, out, _ = run(capsys, ["analyze", "--fixture", "thue-morse", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["C"] == 4096
    assert data["kappa"] == data["C"] + 1
    assert data["B"] == 2 ** data["power_states"] * data["C"]
    assert data["p"] == data["B"]


def test_factors_command(capsys):
    code, out, _ = run(capsys, ["factors", "--fixture", "thue-morse"])
    assert code == 0 and out.strip() == "none"
    code, out, _ = run(capsys, ["factors", "--fixture", "pow2-char", "--format", "json"])
    assert code == 0
    words = [f["word"] for f in json.loads(out)["factors"]]
    assert [0] in words


def test_max_exponent_command(capsys):
    for word_arg, expected in [("0", "2"), ("00", "1"), ("3", "not-a-factor")]:
        code, out, _ = run(
            capsys, ["max-exponent", "--fixture", "thue-morse", "--word", word_arg]
        )
        assert code == 0 and out.strip() == expected
    code, out, _ = run(capsys, ["max-exponent", "--fixture", "pow2-char", "--word", "0"])
    assert code == 0 and out.strip() == "unbounded"
    code, out, _ = run(
        capsys,
        ["max-exponent", "--fixture", "thue-morse", "--word", "010", "--format", "json"],
    )
    data = json.loads(out)
    assert data["kind"] == "fraction" and data["word"] == [0, 1, 0]
    assert data["numerator"] * 3 >= data["denominator"]  # exponent >= 1


def test_periodic_command(capsys, tmp_path):
    code, out, _ = run(capsys, ["periodic", "--fixture", "mod3"])
    assert code == 0 and out.strip() == "purely periodic, period 3"
    code, out, _ = run(capsys, ["periodic", "--fixture", "thue-morse"])
    assert code == 0 and out.strip() == "aperiodic"
    path = tmp_path / "one_then_zeros.dfao"
    path.write_text(
        "k 2\nalphabet 0 1\nstates 2\ninitial 0\n"
        "output 0 1\noutput 1 0\n"
        "trans 0 0 0\ntrans 0 1 1\ntrans 1 0 1\ntrans 1 1 1\n"
    )
    code, out, _ = run(capsys, ["periodic", "--dfao", str(path), "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"kind": "ultimately-periodic", "preperiod": 1, "period": 1}


# ---------------------------------------------------------------- rank2


def test_rank2_mod3(capsys):
    code, out, _ = run(capsys, ["rank2", "--fixture", "mod3"])
    assert code == 0
    assert "rank one, period 3" in out
    assert "UNSOUND" not in out


def test_rank2_ternary_pair_certificate(capsys):
    code, out, _ = run(capsys, ["rank2", "--fixture", "ternary-tm"])
    assert code == 0
    assert "u=01 v=20" in out
    assert "16386" in out


def test_rank2_json_shape_and_determinism(capsys):
    code, first, _ = run(capsys, ["rank2", "--fixture", "thue-morse", "--format", "json"])
    assert code == 0
    code, second, _ = run(capsys, ["rank2", "--fixture", "thue-morse", "--format", "json"])
    assert first == second
    data = json.loads(first)
    assert data["verdict"] == "rank_two"
    assert data["certificate"]["kind"] == "explicit_pair"
    assert data["certificate"]["validated_prefix"] >= 2 ** 14
    assert data["soundness_flags"]["unsound"] is False


def test_rank2_assume_hook_taints_any_verdict(capsys):
    # the verdict below comes from the periodicity stage, which never uses
    # the assumed constant -- the run is still marked unsound as a whole
    code, out, _ = run(
        capsys, ["rank2", "--fixture", "mod3", "--assume-D", "4", "--format", "json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "rank_one"
    assert data["soundness_flags"]["unsound"] is True
    code, out, _ = run(capsys, ["rank2", "--fixture", "mod3", "--assume-D", "4"])
    assert code == 0
    assert "UNSOUND-FOR-PRODUCTION" in out


def test_budget_options_default_to_the_library_budget():
    args = build_parser().parse_args(["rank2", "--fixture", "mod3"])
    got = Budget(
        max_automaton_states=args.budget_states,
        max_patterns=args.budget_patterns,
        max_enumeration=args.budget_enumeration,
        wall_time=args.wall_time,
    )
    assert got == Budget()
    for command in ("analyze", "factors", "periodic", "decide"):
        extra = ["E i. x[i] = 0"] if command == "decide" else []
        args = build_parser().parse_args([command, "--fixture", "mod3", *extra])
        assert args.budget_states == Budget().max_automaton_states


def test_rank2_pattern_budget_breach_is_a_verdict(capsys):
    code, out, _ = run(
        capsys,
        [
            "rank2",
            "--fixture",
            "ternary-tm",
            "--budget-patterns",
            "0",
            "--disable-fast-paths",
            "--format",
            "json",
        ],
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "inconclusive"
    assert data["stage"] == "Step5"
    assert "2^" in data["required"]


# k = 3 and five states, with B of 7,260 bits and D of 14,610: more
# decimal digits than Python converts by default
HUGE_CONSTANTS = """k 3
alphabet 0 1
states 5
initial 0
output 0 0
output 1 1
output 2 0
output 3 0
output 4 0
trans 0 0 0
trans 0 1 0
trans 0 2 4
trans 1 0 0
trans 1 1 2
trans 1 2 4
trans 2 0 0
trans 2 1 4
trans 2 2 1
trans 3 0 0
trans 3 1 0
trans 3 2 3
trans 4 0 3
trans 4 1 0
trans 4 2 1
"""


def test_huge_constants_print_in_bounded_form(capsys, tmp_path):
    path = tmp_path / "huge.dfao"
    path.write_text(HUGE_CONSTANTS)
    common = ["--dfao", str(path), "--budget-states", "12000"]
    code, out, err = run(capsys, [
        "rank2", *common, "--disable-fast-paths", "--budget-patterns", "0", "--format", "json",
    ])
    assert code == 0, err
    data = json.loads(out)
    assert data["verdict"] == "inconclusive" and data["stage"] == "Step5"
    assert data["constants"]["D"] == data["patterns_log2"] == "~2^14609"
    assert data["constants"]["B"] == data["constants"]["p"] == "~2^7259"
    assert data["required"] == "2^~2^14609 patterns exceed max_patterns = 0"
    code, out, err = run(capsys, ["analyze", *common, "--format", "json"])
    assert code == 0, err
    assert json.loads(out)["B"] == "~2^7259"
    code, out, err = run(capsys, ["analyze", *common])
    assert code == 0, err
    assert "power bound B = 3^" in out


# x[n] = 1 iff 4^j <= n < 3 * 4^j / 2: Step 2 finds the two words (0), (1)
TWO_RUNS = """k 2
alphabet 0 1
states 5
initial 0
output 0 0
output 1 1
output 2 0
output 3 1
output 4 0
trans 0 0 0
trans 0 1 1
trans 1 0 2
trans 1 1 4
trans 2 0 3
trans 2 1 3
trans 3 0 2
trans 3 1 2
trans 4 0 4
trans 4 1 4
"""


def test_rank2_enumeration_breach_at_step2_is_a_verdict(capsys, tmp_path):
    path = tmp_path / "two-runs.dfao"
    path.write_text(TWO_RUNS)
    code, out, err = run(capsys, [
        "rank2", "--dfao", str(path), "--disable-fast-paths", "--budget-enumeration", "1", "--format", "json",
    ])
    assert code == 0, err
    data = json.loads(out)
    assert (data["verdict"], data["stage"]) == ("inconclusive", "Step2")


# ---------------------------------------------------------------- decide


def test_decide_command_truth_values(capsys):
    code, out, _ = run(
        capsys, ["decide", "--fixture", "thue-morse", "A i. E j. j > i & x[j] = 1"]
    )
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, ["decide", "--fixture", "thue-morse", "E i. x[i] = 2"])
    assert code == 0 and out.strip() == "false"
    code, out, _ = run(
        capsys,
        ["decide", "--fixture", "mod3", "A i. x[i] = x[i+3]", "--format", "json"],
    )
    assert code == 0
    assert json.loads(out)["value"] is True


def test_decide_command_budget_holds_inside_multiplication(capsys):
    # 10^10 + 1 carry states would be built row by row without the check
    code, out, err = run(
        capsys,
        [
            "decide",
            "--fixture",
            "thue-morse",
            "--budget-states",
            "1000",
            "E y. y = 10000000000*y",
        ],
    )
    assert code == 2 and out == ""
    assert err == "error: budget exceeded at multiplication (cap 1000): c = 10000000000\n"


def test_decide_command_rejects_bad_input(capsys):
    code, _, err = run(capsys, ["decide", "--fixture", "thue-morse", "E i. x[i] <"])
    assert code == 2 and "column" in err
    # free variables do not make a sentence
    code, _, err = run(capsys, ["decide", "--fixture", "thue-morse", "x[i] = 0"])
    assert code == 2 and "free variable" in err


def _parens(n):
    return "(" * n + "x[0] = 0" + ")" * n


def _index(terms):
    return "x[" + "+".join(["1"] * terms) + "] = 0"


@pytest.mark.parametrize(
    "text, value",
    [
        (_parens(141), "true"),
        (_parens(200), "true"),
        ("~" * 981 + "x[0] = 0", "false"),
        ("~" * 5000 + "x[0] = 0", "true"),
        (_index(300), "true"),  # 300 has four ones
    ],
    ids=["141 parentheses", "200 parentheses", "981 negations", "5000 negations", "300 terms"],
)
def test_decide_command_decides_deep_formulas(capsys, text, value):
    code, out, err = run(capsys, ["decide", "--fixture", "thue-morse", text])
    assert (code, out, err) == (0, value + "\n", "")


@pytest.mark.parametrize(
    "text, message",
    [
        (_parens(201), "column 201: more than 200 nested parentheses"),
        (_parens(5000), "column 201: more than 200 nested parentheses"),
        (_index(5000), "nested too deeply"),
        # a negation chain inside a part is compiled node by node
        ("E i. x[i] = 1 & " + "~" * 5000 + "x[i] = 0", "nested too deeply"),
    ],
    ids=["201 parentheses", "5000 parentheses", "5000 terms", "5000 negations in a part"],
)
def test_decide_command_refuses_formulas_too_deep_to_decide(capsys, text, message):
    code, out, err = run(capsys, ["decide", "--fixture", "thue-morse", text])
    assert (code, out, err) == (2, "", f"error: formula: {message}\n")


# ---------------------------------------------------------------- oracle


def test_oracle_dp(capsys):
    code, out, _ = run(
        capsys,
        [
            "oracle", "dp", "--fixture", "ternary-tm",
            "--u", "01", "--v", "20", "--prefix-len", "64", "--format", "json",
        ],
    )
    assert code == 0
    cuts = json.loads(out)["cuts"]
    assert cuts[0] == 0 and cuts[-1] == 64
    assert all(b - a == 2 for a, b in zip(cuts, cuts[1:]))
    code, out, _ = run(
        capsys,
        ["oracle", "dp", "--fixture", "ternary-tm", "--u", "01", "--v", "21",
         "--prefix-len", "64"],
    )
    assert code == 0 and out.strip() == "none"


def test_oracle_pairs(capsys):
    code, out, _ = run(
        capsys,
        ["oracle", "pairs", "--fixture", "ternary-tm", "--max-total", "4",
         "--prefix-len", "512", "--format", "json"],
    )
    assert code == 0
    assert [[0, 1], [2, 0]] in json.loads(out)["pairs"]


def test_oracle_appearance(capsys):
    code, out, _ = run(
        capsys,
        ["oracle", "appearance", "--fixture", "thue-morse", "--n", "3",
         "--prefix-len", "4096"],
    )
    assert code == 0
    prefix = tuple(load_fixture("thue-morse").prefix(4096))
    assert int(out.strip()) == brute_appearance(prefix, 3)


def test_oracle_searches_small_bounds(capsys):
    code, out, _ = run(
        capsys, ["oracle", "comb-search", "--max-pair-total", "2", "--max-w-len", "4"]
    )
    assert code == 0 and out.strip() == "none"
    code, out, _ = run(
        capsys,
        ["oracle", "depsilon-search", "--max-pair-total", "3", "--max-w-len", "4",
         "--format", "json"],
    )
    assert code == 0 and json.loads(out)["witness"] is None


# ---------------------------------------------------------------- error handling


def test_malformed_dfao_reports_line(capsys, tmp_path):
    path = tmp_path / "bad.dfao"
    path.write_text("k 2\nalphabet 0 1\nstates 1\ninitial 0\noutput 0 0\ntrans 0 0 oops\n")
    code, _, err = run(capsys, ["periodic", "--dfao", str(path)])
    assert code == 2
    assert "line 6" in err


def test_missing_dfao_file(capsys):
    code, _, err = run(capsys, ["eval", "--dfao", "/nonexistent/x.dfao", "--n", "0"])
    assert code == 2 and "cannot read" in err


def test_unknown_fixture_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["eval", "--fixture", "bogus", "--n", "0"])
    assert info.value.code == 2


def test_bad_word_and_position_arguments(capsys):
    code, _, err = run(capsys, ["max-exponent", "--fixture", "thue-morse", "--word", "ab"])
    assert code == 2 and "digit strings" in err
    code, _, err = run(capsys, ["eval", "--fixture", "thue-morse", "--n", "abc"])
    assert code == 2 and "positions" in err
    code, _, err = run(capsys, ["eval", "--fixture", "thue-morse", "--n", "9..3"])
    assert code == 2
    code, _, err = run(
        capsys, ["oracle", "comb-search", "--max-pair-total", "2", "--alphabet", "0"]
    )
    assert code == 2 and "two distinct letters" in err


@pytest.mark.parametrize("command", ["decide", "analyze", "rank2"])
@pytest.mark.parametrize("cap", ["0", "-3"])
def test_state_budget_below_one_is_rejected(capsys, command, cap):
    argv = [command, "--fixture", "thue-morse", "--budget-states", cap]
    if command == "decide":
        argv.append("E i. x[i] = 1")
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "error: max_automaton_states must be positive\n"


def test_nan_wall_time_is_rejected(capsys):
    # NaN compares false with everything, so a NaN deadline would never expire
    code, out, err = run(capsys, ["rank2", "--fixture", "mod3", "--wall-time", "nan"])
    assert (code, out, err) == (2, "", "error: wall_time must be positive\n")


@pytest.mark.parametrize("seconds", ["inf", "1e400"])
def test_infinite_wall_time_is_rejected(capsys, seconds):
    # JSON has no infinity, so the budget report could not print the cap
    code, out, err = run(capsys, ["rank2", "--fixture", "mod3", "--wall-time", seconds, "--format", "json"])
    assert (code, out, err) == (2, "", "error: wall_time must be finite\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--fixture", "mod3", "--n", "0..4", "--budget-states", "0"],
        ["oracle", "comb-search", "--max-pair-total", "2", "--budget-states", "-5"],
    ],
)
def test_state_budget_only_where_automata_are_built(capsys, argv):
    # eval and the oracle commands build no automaton, so they have no
    # --budget-states to ignore
    with pytest.raises(SystemExit) as ei:
        main(argv)
    assert ei.value.code == 2
    assert "unrecognized arguments: --budget-states" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["appearance", "--n", "-1"],
        ["appearance", "--n", "3", "--prefix-len", "-1"],
        ["dp", "--u", "0", "--v", "1", "--prefix-len", "-4"],
        ["pairs", "--limit", "-1"],
        ["pairs", "--prefix-len", "-2"],
        ["pairs", "--max-total", "-3"],
    ],
)
def test_oracle_rejects_negative_numbers(capsys, argv):
    code, out, err = run(capsys, ["oracle", argv[0], "--fixture", "thue-morse", *argv[1:]])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith(" are naturals\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["comb-search", "--max-pair-total", "-1"],
        ["comb-search", "--max-w-len", "-1"],
        ["comb-search", "--min-xy", "-1"],
        ["depsilon-search", "--max-pair-total", "-1"],
        ["depsilon-search", "--max-w-len", "-2"],
    ],
)
def test_oracle_searches_reject_negative_bounds(capsys, argv):
    code, out, err = run(capsys, ["oracle", *argv])
    assert (code, out, err) == (2, "", "error: search bounds are naturals\n")


def test_oracle_pairs_limit_keeps_the_shortest(capsys):
    code, out, _ = run(
        capsys,
        ["oracle", "pairs", "--dfao", str(Path(__file__).parent / "golden" / "TWELVE.dfao"),
         "--prefix-len", "4096", "--limit", "2"],
    )
    assert (code, out) == (0, "0 12\n0 012\n")


def test_oracle_pairs_limit_caps_the_pairs(capsys):
    found = {}
    for limit in ("0", "1", "2", None):
        code, out, _ = run(
            capsys,
            ["oracle", "pairs", "--fixture", "mod3", "--prefix-len", "64", "--format", "json"]
            + (["--limit", limit] if limit else []),
        )
        assert code == 0
        found[limit] = json.loads(out)["pairs"]
    assert len(found[None]) == 18
    assert [len(found[limit]) for limit in ("0", "1", "2")] == [0, 1, 2]
    assert all(pair in found[None] for pair in found["2"])


def test_no_numpy_in_a_full_run():
    """Importing the CLI and running each kind of question loads no numpy,
    whose import alone would double the cold start."""
    code = (
        "import sys\n"
        "import ranktwo.cli\n"
        "from ranktwo.fixtures import load_fixture\n"
        "from ranktwo.formula_text import parse_formula\n"
        "from ranktwo.logic import decide\n"
        "from ranktwo.oracle import appearance_values, search_pairs\n"
        "from ranktwo.rank import rank2_decide\n"
        "tm = load_fixture('thue-morse')\n"
        "rank2_decide(tm)\n"
        "w = tm.prefix(2 ** 10)\n"
        "search_pairs(w, 4)\n"
        "appearance_values(w, 8)\n"
        "assert decide(parse_formula('E i. x[i] = 1'), seq=tm)\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr

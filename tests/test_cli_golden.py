"""Byte-for-byte stdout, stderr and exit code of every CLI command.

tests/golden/cli.json records, for each argument vector below, what
`ranktwo.cli.main` printed and returned.  It covers every subcommand in
both formats on two fixtures, a few verdict kinds and the input errors
that exit with 2.  After a deliberate output change, rewrite it with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff.
"""

import contextlib
import functools
import io
import json
from pathlib import Path

import pytest

from ranktwo.cli import main

GOLDEN = Path(__file__).parent / "golden"
RECORD = GOLDEN / "cli.json"


def _per_fixture(fixture: str, fmt: str) -> list[list[str]]:
    seq = ["--fixture", fixture, "--format", fmt]
    return [
        ["eval", *seq, "--n", "0..40"],
        ["eval", *seq, "--n", "7"],
        ["analyze", *seq],
        ["factors", *seq],
        ["max-exponent", *seq, "--word", "0"],
        ["max-exponent", *seq, "--word", "01"],
        ["max-exponent", *seq, "--word", "3"],
        ["periodic", *seq],
        ["rank2", *seq],
        ["decide", *seq, "A i. E j. j > i & x[j] = 1"],
        ["decide", *seq, "E i. x[i] = 0 & x[i+1] = 0"],
        ["oracle", "dp", *seq, "--u", "01", "--v", "10", "--prefix-len", "64"],
        ["oracle", "dp", *seq, "--u", "012", "--v", "0", "--prefix-len", "64"],
        ["oracle", "pairs", *seq, "--max-total", "4", "--prefix-len", "256"],
        ["oracle", "appearance", *seq, "--n", "3", "--prefix-len", "1024"],
    ]


CASES = [
    *(argv for fixture in ("thue-morse", "mod3") for fmt in ("human", "json")
      for argv in _per_fixture(fixture, fmt)),
    *(argv for fmt in ("human", "json") for argv in [
        ["oracle", "comb-search", "--max-pair-total", "2", "--max-w-len", "4", "--format", fmt],
        ["oracle", "depsilon-search", "--max-pair-total", "5", "--max-w-len", "6",
         "--alphabet", "012", "--format", fmt],
        ["rank2", "--dfao", "{golden}/POW23.dfao", "--format", fmt],
        ["rank2", "--fixture", "mod3", "--assume-D", "4", "--format", fmt],
        ["rank2", "--fixture", "ternary-tm", "--format", fmt],
        ["rank2", "--fixture", "ternary-tm", "--disable-fast-paths", "--assume-D", "2",
         "--format", fmt],
        ["rank2", "--fixture", "ternary-tm", "--disable-fast-paths", "--budget-patterns", "0",
         "--format", fmt],
        ["factors", "--fixture", "pow2-char", "--format", fmt],
        ["max-exponent", "--fixture", "pow2-char", "--word", "0", "--format", fmt],
        ["periodic", "--dfao", "{golden}/one-then-zeros.dfao", "--format", fmt],
    ]),
    # input errors, each exiting with 2
    ["eval", "--dfao", "/nonexistent/x.dfao", "--n", "0"],
    ["rank2", "--dfao", "/nonexistent/x.dfao", "--budget-states", "0"],
    ["eval", "--fixture", "thue-morse", "--n", "9..3"],
    ["eval", "--fixture", "thue-morse", "--n", "x"],
    ["eval", "--fixture", "thue-morse", "--n", "1..y"],
    ["eval", "--fixture", "thue-morse", "--n", "-2"],
    ["max-exponent", "--fixture", "thue-morse", "--word", "ab"],
    ["max-exponent", "--fixture", "thue-morse", "--word", ""],
    ["max-exponent", "--fixture", "thue-morse", "--word", "ab", "--budget-states", "0"],
    ["decide", "--fixture", "thue-morse", "E i. x[i] <"],
    ["decide", "--fixture", "thue-morse", "x[i] = 0"],
    ["decide", "--fixture", "thue-morse", "--budget-states", "0", "E i. x[i] <"],
    ["decide", "--fixture", "thue-morse", "--budget-states", "1000",
     "E y. y = 10000000000*y"],
    ["analyze", "--fixture", "thue-morse", "--budget-states", "0"],
    ["rank2", "--fixture", "thue-morse", "--budget-states", "0", "--wall-time", "0"],
    ["rank2", "--fixture", "thue-morse", "--wall-time", "0"],
    ["rank2", "--fixture", "thue-morse", "--budget-patterns", "-1"],
    ["oracle", "appearance", "--fixture", "thue-morse", "--n", "-1"],
    ["oracle", "dp", "--fixture", "thue-morse", "--u", "0", "--v", "x", "--prefix-len", "-4"],
    ["oracle", "dp", "--fixture", "thue-morse", "--u", "0", "--v", "1", "--prefix-len", "-4"],
    ["oracle", "pairs", "--fixture", "thue-morse", "--limit", "-1"],
    ["oracle", "comb-search", "--max-pair-total", "-1"],
    ["oracle", "comb-search", "--max-pair-total", "-1", "--alphabet", "0"],
    ["oracle", "depsilon-search", "--alphabet", "0"],
    ["oracle", "depsilon-search", "--alphabet", "0x"],
    # '²' is a digit to str.isdigit but no decimal numeral
    ["max-exponent", "--fixture", "thue-morse", "--word", "0²"],
    ["oracle", "comb-search", "--alphabet", "0²"],
]


def _argv(case: list[str]) -> list[str]:
    return [arg.replace("{golden}", str(GOLDEN)) for arg in case]


def replay(case: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(_argv(case))
    return {"argv": case, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@functools.cache
def _recorded() -> list[dict]:
    return json.loads(RECORD.read_text(encoding="utf-8"))


def test_record_covers_every_case():
    assert [entry["argv"] for entry in _recorded()] == CASES


@pytest.mark.parametrize("index", range(len(CASES)))
def test_cli_matches_record(index):
    assert replay(CASES[index]) == _recorded()[index]


if __name__ == "__main__":
    RECORD.write_text(
        json.dumps([replay(case) for case in CASES], indent=1) + "\n", encoding="utf-8"
    )

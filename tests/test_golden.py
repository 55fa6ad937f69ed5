"""Byte-for-byte `rank2 --format json` output on the scenario set.

The golden files under tests/golden/ pin the deterministic JSON of every
scenario.  After a deliberate verdict change, rewrite them with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from ranktwo.cli import main

GOLDEN = Path(__file__).parent / "golden"

SCENARIOS = {
    "mod3": ["--fixture", "mod3"],
    "thue-morse": ["--fixture", "thue-morse"],
    "pow2-char": ["--fixture", "pow2-char"],
    "ternary-tm": ["--fixture", "ternary-tm"],
    "TWELVE": ["--dfao", str(GOLDEN / "TWELVE.dfao")],
    "POW23": ["--dfao", str(GOLDEN / "POW23.dfao")],
    "vtm": ["--dfao", str(GOLDEN / "vtm.dfao")],
    "ternary-tm-patterns-0": [
        "--fixture", "ternary-tm", "--disable-fast-paths", "--budget-patterns", "0",
    ],
    "thue-morse-D2": ["--fixture", "thue-morse", "--disable-fast-paths", "--assume-D", "2"],
    "ternary-tm-D2": ["--fixture", "ternary-tm", "--disable-fast-paths", "--assume-D", "2"],
    "ternary-tm-D4": ["--fixture", "ternary-tm", "--disable-fast-paths", "--assume-D", "4"],
}


def rank2_json(name: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["rank2", "--format", "json", *SCENARIOS[name]])
    assert code == 0, name
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_rank2_json_matches_golden(name):
    assert rank2_json(name) == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(SCENARIOS):
        (GOLDEN / f"{name}.json").write_text(rank2_json(name), encoding="utf-8")

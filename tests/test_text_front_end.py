"""The one-pass formula parser and DFAO loader against the line-at-a-time
versions in tests/oracles.py: the same tree, the same automaton, or the
same error at the same position."""

import importlib.util
import re
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from oracles import ref_loads_dfao, ref_parse_formula
from ranktwo.automata import loads_dfao
from ranktwo.errors import DfaoFormatError
from ranktwo.formula_text import FormulaSyntaxError, parse_formula

ROOT = Path(__file__).resolve().parent.parent


def _outcome(fn, text, error):
    """("ok", result, repr) or (error kind, position, message)."""
    try:
        got = fn(text)
    except error as exc:
        return ("error", getattr(exc, "pos", getattr(exc, "line", None)), str(exc))
    except ValueError as exc:  # a numeral too long for int()
        return ("ValueError", None, str(exc))
    return ("ok", got, repr(got))


def assert_parses_alike(text):
    want = _outcome(ref_parse_formula, text, FormulaSyntaxError)
    got = _outcome(parse_formula, text, FormulaSyntaxError)
    assert got == want, text


def assert_loads_alike(text):
    want = _outcome(ref_loads_dfao, text, DfaoFormatError)
    got = _outcome(loads_dfao, text, DfaoFormatError)
    if want[0] == "error" and "missing output for states [" in want[2]:
        # the one message that changed: it names the first missing state
        first = re.search(r"\[(\d+)", want[2]).group(1)
        want = ("error", 0, f"line 0: missing output for state {first}")
    assert got == want, text


# ---------------------------------------------------------------- formulas

_NAMES = st.sampled_from(["i", "j", "n", "p_1", "i'", "_t"])
_NATS = st.integers(0, 40).map(str)


def _terms(names):
    parts = st.recursive(_NATS | names, lambda p: st.tuples(_NATS, p).map("*".join), max_leaves=3)
    return st.lists(parts, min_size=1, max_size=3).map(" + ".join)


_TERMS = _terms(_NAMES)
_LETTERS = _TERMS.map("x[{}]".format)
_CMPS = st.sampled_from(["=", "!=", "<=", "<", ">=", ">"])
# arithmetic comparisons, sequence atoms, and a mix that is mostly
# malformed (x as a name, letters compared by order or to a variable)
_ATOMS = st.one_of(
    st.tuples(_TERMS, _CMPS, _TERMS),
    st.tuples(_LETTERS, st.sampled_from(["=", "!="]), _NATS | _LETTERS),
    st.tuples(_NATS, st.sampled_from(["=", "!="]), _LETTERS),
    st.tuples(_terms(_NAMES | st.just("x")) | _LETTERS, _CMPS, _TERMS | _LETTERS),
).map(" ".join)


def _compound(inner):
    return st.one_of(
        st.tuples(st.sampled_from("EA"), st.lists(_NAMES | st.just("x"), min_size=1, max_size=3), inner).map(
            lambda t: f"{t[0]} {', '.join(t[1])}. {t[2]}"),
        st.tuples(inner, st.sampled_from(["&", "|", "->"]), inner).map(" ".join),
        st.tuples(st.sampled_from(["~", "!", "~ ~"]), inner).map("".join),
        inner.map("({})".format),
    )


SENTENCES = st.recursive(_ATOMS, _compound, max_leaves=8)
_INSERTED = "()[]~!&|-><=+*.,EAx0123456789 \t$#é٣²'_iqZ"


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(SENTENCES)
def test_sentences_of_the_grammar_parse_alike(text):
    assert_parses_alike(text)
    assert_parses_alike(text.replace(" ", ""))


@settings(max_examples=600, deadline=None, database=None, derandomize=True)
@given(SENTENCES, st.integers(0, 10 ** 6), st.sampled_from(_INSERTED),
       st.sampled_from(["truncate", "insert", "double"]))
def test_malformed_sentences_fail_alike(text, at, char, how):
    at %= len(text) + 1
    if how == "truncate":
        mutated = text[:at]
    elif how == "insert":
        mutated = text[:at] + char + text[at:]
    else:
        # double the operator at or after position at, if there is one
        m = re.compile(r"->|!=|<=|>=|[=<>+*().,&|~!\[\]]").search(text, at)
        mutated = text if m is None else text[:m.end()] + m.group() + text[m.end():]
    assert_parses_alike(mutated)


def _workloads():
    """perfbench/workloads.py, which imports nothing from ranktwo."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def test_benchmark_and_readme_sentences_parse_alike():
    w = _workloads().Workload("fo-queries", 4242)
    texts = [r.text for b in range(4) for r in w.batch(b)]
    assert len(texts) == 624
    readme = ROOT.joinpath("README.md").read_text(encoding="utf-8")
    examples = readme.split("or another `x[...]`.  Examples:\n\n```\n", 1)[1].split("```", 1)[0]
    texts += examples.splitlines() + re.findall(r"ranktwo decide [^']*'([^']+)'", readme)
    for text in texts:
        got, want = parse_formula(text), ref_parse_formula(text)
        assert got == want and repr(got) == repr(want), text


# ---------------------------------------------------------------- automata

_DFAO_TEXTS = [
    p.read_text(encoding="utf-8")
    for p in sorted((ROOT / "src" / "ranktwo" / "fixtures").glob("*.dfao"))
    + sorted((ROOT / "tests" / "golden").glob("*.dfao"))
]
_WORDS = ["-1", "0", "1", "2", "3", "7", "01", "+1", "1_0", "٣", "x", "", "1 2"]
_LINES = ["trans 9 0 0", "trans 0 5 0", "trans 8 1 0", "trans 0 00 1", "trans +1 0 0",
          "output 9 0", "output -1 0", "output 01 1", "bogus 1", "k 3", "k 1",
          "states 9", "states 0", "initial 3", "alphabet 0 0", "alphabet -1", "alphabet",
          "# a comment", "   ", "trans 0 0 0 # trailing comment"]


def test_fixtures_load_alike():
    for text in _DFAO_TEXTS:
        assert_loads_alike(text)
    # errors that need more than one edit: the first of several extra
    # transitions, several missing outputs, a repeat spelled otherwise
    tm = (ROOT / "src" / "ranktwo" / "fixtures" / "thue-morse.dfao").read_text(encoding="utf-8")
    assert "states 2\n" in tm
    for extra in (["trans 7 0 0", "trans 2 1 0", "trans 0 9 1"], ["trans 0 02 0", "trans 1 3 1"],
                  ["trans 01 1 0"], ["output 1 1"], ["output 5 0", "output 3 1"]):
        assert_loads_alike(tm + "\n".join(extra) + "\n")
    assert_loads_alike(tm.replace("states 2", "states 5"))


@settings(max_examples=800, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(_DFAO_TEXTS), st.lists(st.tuples(
    st.sampled_from(["delete", "duplicate", "replace", "insert", "truncate"]),
    st.integers(0, 10 ** 6), st.integers(0, 10 ** 6)), min_size=1, max_size=4))
def test_mutated_dfao_texts_load_alike(text, edits):
    lines = text.splitlines()
    for how, a, b in edits:
        if not lines:
            break
        at = a % len(lines)
        if how == "delete":
            del lines[at]
        elif how == "duplicate":
            lines.insert(at, lines[b % len(lines)])
        elif how == "replace":
            words = lines[at].split() or [""]
            words[b % len(words)] = _WORDS[a % len(_WORDS)]
            lines[at] = " ".join(words)
        elif how == "insert":
            lines.insert(at, _LINES[b % len(_LINES)])
        else:
            lines[at] = lines[at][: b % (len(lines[at]) + 1)]
    assert_loads_alike("\n".join(lines) + "\n")

"""Self-tests of the benchmark's generators, checkers and tracer.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Takes about 35 seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as W  # noqa: E402
from tracer import LAYERS, Tracer, _targets, summarize  # noqa: E402


def _inputs(name: str, seed: int, batches: int = 3) -> bytes:
    wl = W.Workload(name, seed)
    rows = [(r.kind, r.label, r.slot, r.variant.text, r.text, sorted(r.options.items()),
             sorted(r.budget.items()))
            for b in range(batches) for r in wl.batch(b)]
    return json.dumps(rows).encode()


class Generators(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for name in W.WORKLOADS:
            self.assertEqual(_inputs(name, 7), _inputs(name, 7), name)
            self.assertNotEqual(_inputs(name, 7), _inputs(name, 8), name)

    def test_base_automata_follow_their_rules(self):
        for base in W.BASES.values():
            got = [W.eval_dfao(base.outputs, base.delta, base.initial, n) for n in range(W.PREFIX)]
            self.assertEqual(got, [base.rule(n) for n in range(W.PREFIX)], base.name)

    def test_fixture_files_are_the_bases(self):
        from ranktwo.fixtures import FIXTURE_NAMES, load_fixture

        for name in FIXTURE_NAMES:
            self.assertEqual(load_fixture(name).prefix(W.PREFIX), W.truth_prefix(
                W.BASES[name], W.IDENTITY_LETTERS, W.PREFIX), name)

    def test_variants_compute_the_relabelled_sequence(self):
        wl = W.Workload("fast-verdicts", 3)
        for req in wl.batch(0) + W.Workload("deep-verdicts", 3).batch(0):
            v = req.variant
            self.assertEqual(len(v.outputs), len(v.base.outputs) + 1)
            got = [W.eval_dfao(v.outputs, v.delta, v.initial, n) for n in range(W.PREFIX)]
            self.assertEqual(got, W.truth_prefix(v.base, v.relabel, W.PREFIX), req.label)

    def test_variants_within_a_run_are_distinct(self):
        wl = W.Workload("fast-verdicts", 5)
        texts = [r.variant.text for b in range(20) for r in wl.batch(b)]
        self.assertEqual(len(texts), len(set(texts)))

    def test_sentences_stay_inside_the_prefix_and_parse(self):
        from ranktwo.formula_text import parse_formula

        wl = W.Workload("fo-queries", 2)
        for req in wl.batch(0):
            parse_formula(req.text)
            W.brute(req.sentence, W.truth_prefix(req.variant.base, W.IDENTITY_LETTERS, W.PREFIX))


class Checkers(unittest.TestCase):
    def setUp(self):
        self.rng = W.random.Random(11)

    def variant(self, name):
        return W.make_variant(W.BASES[name], self.rng)

    def test_rank_one_period(self):
        v = self.variant("mod3")
        self.assertIsNone(W.check_rank(v, {"verdict": "rank_one", "period": 3}))
        self.assertIsNotNone(W.check_rank(v, {"verdict": "rank_one", "period": 6}))
        self.assertIsNotNone(W.check_rank(v, {"verdict": "rank_two"}))

    def test_explicit_pair(self):
        v = self.variant("ternary-tm")
        r = v.relabel
        good = {"verdict": "rank_two", "certificate": {
            "kind": "explicit_pair", "u": [r[0], r[1]], "v": [r[2], r[0]], "validated_prefix": 16386}}
        self.assertIsNone(W.check_rank(v, good))
        bad = json.loads(json.dumps(good))
        bad["certificate"]["v"] = [r[2], r[1]]
        self.assertIsNotNone(W.check_rank(v, bad))
        odd = json.loads(json.dumps(good))
        odd["certificate"]["validated_prefix"] = 16385  # cuts a block in half
        self.assertIsNotNone(W.check_rank(v, odd))
        # true cuts, but far short of the 2**14 letters rank2 promises
        for n in (1, 2):
            short = json.loads(json.dumps(good))
            short["certificate"]["validated_prefix"] = n
            self.assertIsNotNone(W.check_rank(v, short), n)
        # a claim past the window of 2**14 letters plus one block
        late = json.loads(json.dumps(good))
        late["certificate"]["validated_prefix"] = 16388
        self.assertIsNotNone(W.check_rank(v, late))

    def test_pattern_certificate(self):
        v = self.variant("ternary-tm")
        data = {"verdict": "rank_two", "constants": {"p": 3},
                "certificate": {"kind": "existence_by_formula", "pattern": [0, 1, 1, 0]}}
        self.assertIsNone(W.check_rank(v, data))
        data["certificate"]["pattern"] = [0, 0, 0, 0, 0, 0]  # would need a 6th power of a prefix
        self.assertIsNotNone(W.check_rank(v, data))

    def test_pow23_is_never_rank_one_or_two(self):
        v = self.variant("POW23")
        self.assertIsNone(W.check_rank(v, {"verdict": "inconclusive"}))
        self.assertIsNone(W.check_rank(v, {"verdict": "rank_at_least_three"}))
        for data in ({"verdict": "rank_one", "period": 1},
                     {"verdict": "rank_two", "certificate": {
                         "kind": "explicit_pair", "u": [v.relabel[0]], "v": [v.relabel[1]],
                         "validated_prefix": 1}}):
            self.assertIsNotNone(W.check_rank(v, data))

    def test_flipped_decide_value(self):
        req = W.Workload("fo-queries", 4).batch(0)[0]
        want = W.brute(req.sentence, W.truth_prefix(req.variant.base, W.IDENTITY_LETTERS, W.PREFIX))
        self.assertIsNone(W.check(req, want))
        self.assertIsNotNone(W.check(req, not want))


_FAKE_A = '''
from .b import g, TABLE

def f(n):
    return sum(g(i) for i in range(n)) + TABLE["h"]()

class K:
    def m(self):
        return f(1)
'''
_FAKE_B = '''
def g(i):
    return i

def h():
    return g(0)

TABLE = {"h": h}
'''


def _fake_package():
    pkg = types.ModuleType("fakepkg")
    pkg.__path__ = []
    sys.modules["fakepkg"] = pkg
    for name, src in (("b", _FAKE_B), ("a", _FAKE_A)):
        mod = types.ModuleType(f"fakepkg.{name}")
        mod.__package__ = "fakepkg"
        sys.modules[mod.__name__] = mod
        exec(src, mod.__dict__)
    return sys.modules["fakepkg.a"], sys.modules["fakepkg.b"]


def _snapshot(pkg: str):
    out = {}
    for mname, mod in list(sys.modules.items()):
        if mod is not None and (mname == pkg or mname.startswith(pkg + ".")):
            for attr, obj in vars(mod).items():
                out[(mname, attr)] = obj
                if isinstance(obj, dict):
                    out.update({(mname, attr, k): v for k, v in obj.items()})
                elif isinstance(obj, type) and obj.__module__ == mname:
                    out.update({(mname, attr, k): v for k, v in vars(obj).items()})
    return out


class TracerTests(unittest.TestCase):
    def test_hand_counted_run(self):
        a, b = _fake_package()
        before = _snapshot("fakepkg")
        t = Tracer("fakepkg", ("a", "b"))
        t.install()
        # b.g bound in a and b, b.h bound in b and TABLE, a.f, a.K.m
        self.assertEqual(t.patched_count(), 6)
        t.request = 5
        req = t.open("request:x")
        self.assertEqual(a.K().m(), 0)  # m -> f(1) -> g(0); TABLE h -> g(0)
        t.close(req)
        t.uninstall()
        after = _snapshot("fakepkg")
        self.assertEqual(before.keys(), after.keys())
        for key in before:
            self.assertIs(before[key], after[key], key)
        agg = summarize(t)
        calls = {name: a_["calls"] for name, a_ in agg.items()}
        self.assertEqual(calls, {"request:x": 1, "a.K.m": 1, "a.f": 1, "b.g": 2, "b.h": 1})
        names = [t.names[s[0]] for s in t.spans]
        parents = [names[s[3]] if s[3] >= 0 else None for s in t.spans]
        self.assertEqual(list(zip(names, parents)), [
            ("request:x", None), ("a.K.m", "request:x"), ("a.f", "a.K.m"), ("b.g", "a.f"),
            ("b.h", "a.f"), ("b.g", "b.h")])
        self.assertTrue(all(s[4] == 5 for s in t.spans))
        total = agg["request:x"]["incl_s"]
        self.assertAlmostEqual(sum(x["self_s"] for x in agg.values()), total, places=9)

    def test_ranktwo_bindings_restored(self):
        from ranktwo import logic, oracle, rank

        before = _snapshot("ranktwo")
        originals = {id(fn) for _, fn in _targets("ranktwo", LAYERS)}
        t = Tracer()
        t.install()
        try:
            self.assertIs(rank.parse_reach, oracle.parse_reach)
            self.assertTrue(hasattr(rank.parse_reach, "__wrapped__"))
            self.assertTrue(all(hasattr(fn, "__wrapped__") for fn in logic._CMP_BUILDERS.values()))
            leaked = [key for key, v in _snapshot("ranktwo").items() if id(v) in originals]
            self.assertEqual(leaked, [])
        finally:
            t.uninstall()
        after = _snapshot("ranktwo")
        for key in before:
            self.assertIs(before[key], after[key], key)


class Scaling(unittest.TestCase):
    def test_scaled_at_and_below_the_reference_speed(self):
        self.assertAlmostEqual(run.scaled(1.5, [run.CAL_REF_S] * 3), 1.5)
        self.assertAlmostEqual(run.scaled(1.5, [run.CAL_REF_S, 3 * run.CAL_REF_S]), 0.75)

    def test_sampler_calibrates_during_a_request(self):
        sampler = run.Sampler()
        sampler.start()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 4 * run.CAL_EVERY_S:
            pass
        sampler.stop()
        self.assertGreaterEqual(len(sampler.cals), 3)
        self.assertGreater(sampler.paused, 0)


class EndToEnd(unittest.TestCase):
    """One batch through run.py, untraced and traced: same answers."""

    def answers(self, workload, trace):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
               "--seconds", "0.001", "--trace", str(trace)]
        out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        names = run.PER_LAYER if trace else run.END_TO_END
        self.assertEqual([(k, v["unit"]) for k, v in result["metrics"].items()], list(names))
        rec = json.loads((run.OUT / f"{workload}-seed3-trace{trace}.json").read_text())
        return [r["answer"] for r in rec["requests"]]

    def test_traced_answers_match(self):
        for workload in ("fast-verdicts", "fo-queries"):
            self.assertEqual(self.answers(workload, 0), self.answers(workload, 1), workload)

    def test_benchmark_json_lists_the_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(W.WORKLOADS))


if __name__ == "__main__":
    unittest.main()

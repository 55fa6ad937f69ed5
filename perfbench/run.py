"""ranktwo benchmark: time to a verdict on three seeded workloads.

    python3 perfbench/run.py --workload fast-verdicts --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Each workload is a closed loop: one client sends the next request only
after the previous verdict returns.  Requests go through the library
calls that the ``rank2`` and ``decide`` commands make.  Batches of
requests run until the batches' time reaches ``--seconds`` (and at least
three batches ran); every answer is checked against ground truth that does
not come from ranktwo, off the clock.

Every batch holds the same slots on fresh variants of the same inputs.
A fixed interpreter loop is timed before each batch, after each request
and every CAL_EVERY_S seconds during one, and each request's time (less
the loop's) is scaled by CAL_REF_S over the mean of the loop's times
around and during it: times are reported in seconds at the host speed
where the loop takes CAL_REF_S.  The host this benchmark was written on
changes speed by up to 2x within seconds and over minutes; raw times
follow that, scaled times much less (see README.md).

With ``--trace 0`` the last line of standard output is a JSON object
holding the end-to-end metrics; with ``--trace 1`` the layers are traced
(see tracer.py) and it holds the per-layer metrics instead.  Answers,
and with tracing the spans, are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracer import Tracer, by_request, step5, summarize  # noqa: E402
from workloads import WORKLOADS, Workload, check, decided  # noqa: E402

# What a user's process pays before its first request: the interpreter,
# the package with numpy, the command-line parser, and the fixtures.
SETUP_CODE = (
    "import ranktwo.cli as cli; cli.build_parser()\n"
    "from ranktwo.fixtures import FIXTURE_NAMES, load_fixture\n"
    "for name in FIXTURE_NAMES: load_fixture(name)\n"
)
SETUP_RUNS = 9
MIN_BATCHES = 3
# The calibration: the fastest of CAL_REPEATS runs of a CAL_STEPS-step
# dictionary loop, and the loop's time at the reference speed.
CAL_STEPS = 20_000
CAL_REPEATS = 3
CAL_REF_S = 0.002
CAL_EVERY_S = 0.25  # the calibration's period while a request runs

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("decided_frac", "frac"),
)

PER_LAYER = (
    ("automata.project.calls", "count"),
    ("automata.project.self_s", "s"),
    ("automata.canonical_dfa.calls", "count"),
    ("automata.canonical_dfa.self_s", "s"),
    ("automata.canonical_dfa.states_in", "count"),
    ("automata.canonical_dfa.states_in_max", "count"),
    ("automata.canonical_dfa.states_out", "count"),
    ("automata.product.calls", "count"),
    ("automata.product.self_s", "s"),
    ("automata.product.states_out", "count"),
    ("automata.Dfao.prefix.self_s", "s"),
    ("formula_text.parse_formula.self_s", "s"),
    ("logic.compile_formula.calls", "count"),
    ("logic.compile_formula.self_s", "s"),
    ("logic.compile_formula.hit_ratio", "frac"),
    ("oracle.search_pairs.calls", "count"),
    ("oracle.search_pairs.self_s", "s"),
    ("oracle.parse_reach.calls", "count"),
    ("oracle.parse_reach.self_s", "s"),
    ("oracle.dp_factorize.calls", "count"),
    ("oracle.dp_factorize.self_s", "s"),
    ("rank.validate_explicit_pair.calls", "count"),
    ("rank.validate_explicit_pair.s", "s"),
    ("rank.pair_omega_membership.self_s", "s"),
    ("rank.decide_fixed_pair.calls", "count"),
    ("rank.decide_fixed_pair.true_ratio", "frac"),
    ("rank.decide_with_unbounded.s", "s"),
    ("analysis.constants.s", "s"),
    ("analysis.unbounded_primitive_factors.s", "s"),
    ("rank.step5.patterns", "count"),
    ("rank.step5.s", "s"),
    ("trace.wall_s", "s"),
    ("trace.spans", "count"),
)

# Per-layer metric suffix -> value from one name's aggregate (see summarize).
_KINDS = {
    "calls": lambda a: a["calls"],
    "self_s": lambda a: a["self_s"],
    "s": lambda a: a["incl_s"],
    "states_in": lambda a: a["probe0"],
    "states_in_max": lambda a: a["probe0_max"],
    "states_out": lambda a: a["probe1"],
    "hit_ratio": lambda a: a["clean"] / a["calls"],
    "true_ratio": lambda a: a["probe0"] / a["calls"],
}


def percentile(xs, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q of all at or below it."""
    s = sorted(xs)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def calibrate() -> float:
    """Seconds of the fastest of CAL_REPEATS runs of a fixed dictionary loop."""
    best = math.inf
    for _ in range(CAL_REPEATS):
        d: dict = {}
        t0 = time.perf_counter()
        for i in range(CAL_STEPS):
            d[i & 255] = d.get(i & 255, 0) + i
        best = min(best, time.perf_counter() - t0)
    return best


def scaled(seconds: float, cals) -> float:
    """seconds at the reference speed, given the calibrations taken around
    and during them."""
    return seconds * CAL_REF_S / statistics.mean(cals)


class Sampler:
    """Times the calibration loop every CAL_EVERY_S seconds while a request
    runs, from a SIGALRM handler, and adds up the time that takes, so that
    a long request's scaling follows the host's speed through it."""

    def __init__(self):
        self.cals, self.paused = [], 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.cals.append(calibrate())
        self.paused += time.perf_counter() - t0

    def start(self):
        self.cals, self.paused = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def measure_setup() -> float:
    """Median scaled time of fresh interpreters that import and load the fixtures."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    times = []
    cal = calibrate()
    # the first spawn also writes the bytecode caches, so it is not timed
    for i in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        took = time.perf_counter() - t0
        cal_after = calibrate()
        if i:
            times.append(scaled(took, [cal, cal_after]))
        cal = cal_after
    return statistics.median(times)


class Engine:
    """The library calls the ``rank2`` and ``decide`` commands make.

    Functions are looked up on their modules at call time, so a tracer
    that patches the modules sees every call.
    """

    def __init__(self):
        from ranktwo import automata, formula_text, logic, rank

        self.automata, self.formula_text, self.logic, self.rank = automata, formula_text, logic, rank
        # the decide command's default state cap
        self.limits = logic.CompileLimits(max_automaton_states=rank.Budget().max_automaton_states)

    def __call__(self, req):
        seq = self.automata.loads_dfao(req.variant.text)
        if req.kind == "rank":
            budget = self.rank.Budget(**req.budget)
            return self.rank.rank2_decide(seq, budget, **req.options).to_dict()
        sentence = self.formula_text.parse_formula(req.text)
        return self.logic.decide(sentence, seq=seq, limits=self.limits)


def run_loop(workload: Workload, engine: Engine, seconds: float, tracer=None) -> dict:
    walls, log = [], []
    failed = n_decided = 0
    b = 0
    sampler = Sampler()
    while len(walls) < MIN_BATCHES or sum(walls) < seconds:
        reqs = workload.batch(b)
        answers = []
        t_batch = time.perf_counter()
        cal = calibrate()
        for req in reqs:
            if tracer is not None:
                tracer.request = len(log) + len(answers)
                span = tracer.open("request:" + req.label)
            sampler.start()
            t0 = time.perf_counter()
            try:
                ans, err = engine(req), None
            except Exception as exc:  # counted as a failed request; the loop goes on
                ans, err = None, f"{type(exc).__name__}: {exc}"
            finally:
                sampler.stop()
            took = time.perf_counter() - t0 - sampler.paused
            if tracer is not None:
                tracer.close(span)
            cal_after = calibrate()
            cals = [cal, *sampler.cals, cal_after]
            answers.append((ans, err, took, scaled(took, cals), cals))
            cal = cal_after
        walls.append(time.perf_counter() - t_batch)
        for req, (ans, err, took, norm, cals) in zip(reqs, answers):  # off the clock
            if err is None:
                err = check(req, ans)
            failed += err is not None
            n_decided += ans is not None and decided(req, ans)
            log.append({"label": req.label, "slot": req.slot, "batch": b, "s": took,
                        "scaled_s": norm, "cal_s": cals, "dfao": req.variant.text,
                        "sentence": req.text, "options": req.options, "budget": req.budget,
                        "answer": ans, "error": err})
        b += 1
    return {"walls": walls, "log": log, "failed": failed, "decided": n_decided}


def scaled_latencies(log) -> dict:
    """Scaled latencies by slot; a wrong or failed answer does not count
    unless every answer was."""
    by_slot: dict = {}
    for entry in [e for e in log if not e["error"]] or log:
        by_slot.setdefault(entry["slot"], []).append(entry["scaled_s"])
    return by_slot


def batch_wall(by_slot: dict) -> float:
    """A batch's time from first request to last verdict: the sum over
    slots of each slot's median scaled latency."""
    return sum(statistics.median(xs) for xs in by_slot.values())


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    agg = summarize(tracer)
    patterns, step5_s = step5(tracer)
    out = {}
    for name, unit in PER_LAYER:
        if name == "rank.step5.patterns":
            value = patterns
        elif name == "rank.step5.s":
            value = step5_s
        elif name == "trace.wall_s":
            value = wall_s
        elif name == "trace.spans":
            value = len(tracer.spans)
        else:
            fn, _, kind = name.rpartition(".")
            a = agg.get(fn)
            value = _KINDS[kind](a) if a else 0
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ranktwo" / "__init__.py").is_file():
        print(f"error: no ranktwo package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    setup_s = measure_setup() if not args.trace else None
    sys.path.insert(0, str(SRC))
    engine = Engine()
    workload = Workload(args.workload, args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    try:
        res = run_loop(workload, engine, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted, failed = len(res["log"]), res["failed"]
    by_slot = scaled_latencies(res["log"])
    latencies = [x for xs in by_slot.values() for x in xs]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "batches": len(res["walls"]),
              "batch_walls_s": res["walls"], "requests": res["log"]}
    if tracer is not None:
        tracer.dump(OUT / f"{stem}-spans.jsonl.gz")
        record["by_request"] = by_request(tracer)
        metrics = layer_metrics(tracer, batch_wall(by_slot))
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": batch_wall(by_slot),
            "latency_p50_s": percentile(latencies, 0.5),
            "latency_p90_s": percentile(latencies, 0.9),
            "peak_rss_mib": peak_rss_mib,
            "decided_frac": res["decided"] / attempted,
        }
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")

    for entry in res["log"]:
        if entry["error"]:
            print(f"wrong: {entry['label']}: {entry['error']}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {attempted} requests in {len(res['walls'])} batches "
          f"of {len(by_slot)} slots; latency percentiles over {len(latencies)} requests; "
          f"error_frac {failed / attempted:.4f} ({failed}/{attempted}); "
          f"decided_frac {res['decided'] / attempted:.4f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

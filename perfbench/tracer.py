"""Outside-in tracer for the ranktwo layers.

The tracer replaces each public function of the layer modules, and each
public method of the classes they define, with a wrapper that records a
span: name, start, end, parent span and request id.  A function imported
by name into another module (``from .oracle import parse_reach``) or
stored in a module-level table (``logic._CMP_BUILDERS``) is bound in more
than one place; every binding is replaced, and every one is restored by
``uninstall``.  Spans stay in memory until the run ends.

Nothing under ``src/`` is edited.  The wrappers add a fixed cost per
call, so a traced run is slower than an untraced one; the benchmark
reports both and the difference is the tracing overhead.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time

LAYERS = ("automata", "logic", "formula_text", "predicates", "analysis", "rank", "oracle", "words")

# Extra values recorded with a span: f(args, kwargs, result) -> number.
# They feed the per-layer size and ratio metrics.
PROBES = {
    # raw states handed to the minimizer (before trimming) and states out
    "automata.canonical_dfa": lambda a, kw, out: (len(a[2] if len(a) > 2 else kw["delta"]), out.num_states),
    "automata.product": lambda a, kw, out: (0, out.num_states),
    "rank.decide_fixed_pair": lambda a, kw, out: (int(bool(out)), 0),
}


def _targets(pkg: str, layers):
    """(qualified name, function) for every traced callable."""
    out = []
    for layer in layers:
        mod = importlib.import_module(f"{pkg}.{layer}")
        for attr, obj in sorted(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((f"{layer}.{attr}", obj))
            elif inspect.isclass(obj):
                for mattr, mobj in sorted(vars(obj).items()):
                    if not mattr.startswith("_") and inspect.isfunction(mobj):
                        out.append((f"{layer}.{attr}.{mattr}", mobj))
    return out


def _set(container, key, value) -> None:
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


class Tracer:
    """Records spans for calls into the layer modules of one package."""

    def __init__(self, pkg: str = "ranktwo", layers=LAYERS):
        self.pkg, self.layers = pkg, layers
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one tuple per span: (name index, start, end, parent, request, probe0, probe1)
        self.spans: list = []
        self.request = -1
        self._stack: list[int] = []
        self._patched: list = []  # (container, key, original)

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        """Open a span that is not a function call, such as a request."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        self.spans.append((self._name_id(name), time.perf_counter(), None, parent, self.request, 0, 0))
        return idx

    def close(self, idx: int) -> None:
        self._stack.pop()
        name, start, _, parent, req, p0, p1 = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent, req, p0, p1)

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        probe = PROBES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, self.request, 0, 0)
            if probe is not None:
                spans[idx] = (nid, start, end, parent, self.request) + probe(args, kwargs, out)
            return out

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        # each wrapper keeps its original alive, so the ids stay unique
        wrapped = {id(fn): self._wrap(name, fn) for name, fn in _targets(self.pkg, self.layers)}
        self._patched = [(c, k, v) for c, k, v in self._bindings() if id(v) in wrapped]
        for container, key, value in self._patched:
            _set(container, key, wrapped[id(value)])

    def uninstall(self) -> None:
        for container, key, value in reversed(self._patched):
            _set(container, key, value)
        self._patched = []

    def _bindings(self):
        """Every (container, key, value) where a package function may be bound:
        module globals, class attributes, and values of module-level dicts."""
        out, seen = [], set()
        for mname, mod in sorted(sys.modules.items()):
            if mod is None or not (mname == self.pkg or mname.startswith(self.pkg + ".")):
                continue
            out.extend((mod, attr, obj) for attr, obj in vars(mod).items())
            for obj in list(vars(mod).values()):
                own_class = inspect.isclass(obj) and obj.__module__ == mname
                if id(obj) in seen or not (own_class or isinstance(obj, dict)):
                    continue
                seen.add(id(obj))
                items = vars(obj).items() if own_class else obj.items()
                out.extend((obj, k, v) for k, v in items if inspect.isfunction(v))
        return out

    def patched_count(self) -> int:
        return len(self._patched)

    # -- output --------------------------------------------------------------

    def dump(self, path) -> None:
        """Write spans as gzipped JSON lines:
        index, name, start, end, parent index, request id, probe0, probe1."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i, (nid, start, end, parent, req, p0, p1) in enumerate(self.spans):
                fh.write(json.dumps([i, self.names[nid], start, end, parent, req, p0, p1]) + "\n")


def _self_times(tracer: Tracer) -> list:
    """Each span's duration minus the durations of its direct children."""
    spans = tracer.spans
    own = [end - start for _, start, end, *_ in spans]
    for i, (_, start, end, parent, *_) in enumerate(spans):
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(tracer: Tracer) -> dict:
    """Per-name aggregates over all spans.

    For each name: calls, incl_s (outermost spans only, so recursion is
    not counted twice), self_s, probe0/probe1 sums, probe0_max, and
    clean (calls with no automata span below them).
    """
    spans, names = tracer.spans, tracer.names
    own = _self_times(tracer)
    touched_automata = [False] * len(spans)
    auto_ids = {i for i, nm in enumerate(names) if nm.startswith("automata.")}
    for nid, _, _, parent, *_ in spans:
        if nid in auto_ids:
            p = parent
            while p >= 0 and not touched_automata[p]:
                touched_automata[p] = True
                p = spans[p][3]
    agg: dict[str, dict] = {}
    for i, (nid, start, end, parent, req, p0, p1) in enumerate(spans):
        a = agg.setdefault(names[nid], {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "probe0": 0,
                                        "probe1": 0, "probe0_max": 0, "clean": 0})
        a["calls"] += 1
        a["self_s"] += own[i]
        p = parent
        while p >= 0 and spans[p][0] != nid:
            p = spans[p][3]
        if p < 0:
            a["incl_s"] += end - start
        a["probe0"] += p0
        a["probe1"] += p1
        a["probe0_max"] = max(a["probe0_max"], p0)
        a["clean"] += not touched_automata[i]
    return agg


def by_request(tracer: Tracer) -> list:
    """For each request span: its label, seconds, and self seconds by name."""
    spans, names = tracer.spans, tracer.names
    own = _self_times(tracer)
    per: dict[int, dict] = {}
    for i, (nid, _, _, _, req, _, _) in enumerate(spans):
        d = per.setdefault(req, {})
        d[names[nid]] = d.get(names[nid], 0.0) + own[i]
    out = []
    for nid, start, end, parent, req, _, _ in spans:
        if parent == -1 and names[nid].startswith("request:"):
            hot = sorted(per.get(req, {}).items(), key=lambda kv: -kv[1])
            out.append({"request": req, "label": names[nid][len("request:"):], "s": end - start,
                        "self_s": dict(hot)})
    return out


def step5(tracer: Tracer) -> tuple[int, float]:
    """(patterns, seconds) of the rank decider's Step 5.

    A pattern is one call to predicates.setup2_formula.  Step 5 time runs
    from the first pattern sentence built inside a rank2_decide call to
    the end of that call.
    """
    spans, names = tracer.spans, tracer.names
    patterns = 0
    first: dict[int, float] = {}
    for nid, start, end, parent, *_ in spans:
        if names[nid] != "predicates.setup2_formula":
            continue
        patterns += 1
        p = parent
        while p >= 0 and names[spans[p][0]] != "rank.rank2_decide":
            p = spans[p][3]
        if p >= 0:
            first[p] = min(first.get(p, start), start)
    seconds = sum(spans[p][2] - t for p, t in first.items())
    return patterns, seconds

"""In-memory span tracing of the package's layers, from outside the package.

The benchmark opens a span around each public call it makes. For the layers
those calls reach internally (push and sampling), wrappers are installed on
the names the upper modules imported, e.g. ``pushwalk.bidir.reverse_push``,
and removed when the traced run ends; the package itself is not modified.
Per-walk functions (thousands of calls per query) do not open spans: they
add their time and counts to the enclosing span.

A span's self time is its duration minus the time covered by its child
spans and by the per-walk calls folded into it, so the self times of all
spans of one query add up to that query's root span.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field

import pushwalk.bidir
import pushwalk.multistep
import pushwalk.pathsampling
import pushwalk.search
import pushwalk.sharding
import pushwalk.undirected


@dataclass
class Span:
    name: str
    layer: str
    qid: object
    phase: str
    parent: int | None
    start: float
    end: float = 0.0
    covered: float = 0.0
    counts: dict = field(default_factory=dict)
    folded: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.covered


class Tracer:
    """Span recorder. ``qid`` and ``phase`` tag every span opened next."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.qid: object = None
        self.phase = "setup"

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        """Run fn inside a span; returns (result, span)."""
        span = Span(
            name, layer, self.qid, self.phase,
            self.stack[-1] if self.stack else None, time.perf_counter(),
        )
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self.stack.pop()
            if span.parent is not None:
                self.spans[span.parent].covered += span.duration
        return result, span

    def fold(self, layer: str, seconds: float, counts: dict) -> None:
        """Charge a per-walk call to the enclosing span."""
        parent = self.spans[self.stack[-1]]
        parent.covered += seconds
        acc = parent.folded.setdefault(layer, {"s": 0.0})
        acc["s"] += seconds
        for key, value in counts.items():
            acc[key] = acc.get(key, 0) + value

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, sp in enumerate(self.spans):
                rec = {
                    "id": i, "parent": sp.parent, "name": sp.name,
                    "layer": sp.layer, "qid": sp.qid, "phase": sp.phase,
                    "start": sp.start, "end": sp.end, "self_s": sp.self_s,
                    "counts": sp.counts, "folded": sp.folded,
                }
                fh.write(json.dumps(rec) + "\n")


def _push_counts(res, *_args, **_kw) -> dict:
    return {
        "pushes": res.pushes_performed,
        "work_units": res.work_units,
        "residual_mass": res.residual_mass(),
        "touched": len(res.estimates.keys() | res.residuals.keys()),
    }


def _walk_counts(res, *_args, **_kw) -> dict:
    return {"walks": len(res)}


def _spanning(tracer: Tracer, fn, name: str, layer: str, counts):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result, span = tracer.call(name, layer, fn, *args, **kwargs)
        span.counts.update(counts(result, *args, **kwargs))
        return result

    return wrapper


def _folding(tracer: Tracer, fn, layer: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        path = fn(*args, **kwargs)
        seconds = time.perf_counter() - t0
        if tracer.stack:
            tracer.fold(layer, seconds, {"walk_calls": 1, "walks": 1, "path_steps": len(path) - 1})
        return path

    return wrapper


# (module, imported name, span name, layer, counts); None counts = fold.
_HOOKS = [
    (pushwalk.bidir, "reverse_push", "push.reverse", "push", _push_counts),
    (pushwalk.bidir, "reverse_push_balanced", "push.balanced", "push", _push_counts),
    (pushwalk.search, "reverse_push", "push.reverse", "push", _push_counts),
    (pushwalk.sharding, "reverse_push", "push.reverse", "push", _push_counts),
    (pushwalk.sharding, "forward_push", "push.forward", "push", _push_counts),
    (pushwalk.undirected, "forward_push", "push.forward", "push", _push_counts),
    (pushwalk.bidir, "walk_endpoints", "sampling.walk_endpoints", "sampling", _walk_counts),
    (pushwalk.undirected, "walk_endpoints", "sampling.walk_endpoints", "sampling", _walk_counts),
    (pushwalk.search, "walk_endpoints", "sampling.walk_endpoints", "sampling", _walk_counts),
    (pushwalk.sharding, "walk_endpoints", "sampling.walk_endpoints", "sampling", _walk_counts),
    (pushwalk.multistep, "random_walk_path", None, "sampling", None),
    (pushwalk.pathsampling, "random_walk_path", None, "sampling", None),
]


class installed:
    """Context manager that installs the layer wrappers for one tracer."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.saved: list = []

    def __enter__(self) -> Tracer:
        for module, attr, name, layer, counts in _HOOKS:
            fn = getattr(module, attr)
            self.saved.append((module, attr, fn))
            if counts is None:
                wrapped = _folding(self.tracer, fn, layer)
            else:
                wrapped = _spanning(self.tracer, fn, name, layer, counts)
            setattr(module, attr, wrapped)
        return self.tracer

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self.saved):
            setattr(module, attr, fn)
        self.saved.clear()


# Counts taken from the results of the public calls the benchmark makes.
PUBLIC_COUNTS = {
    "bidir.estimate_ppr": lambda r: {"walks_used": r.walks_used},
    "bidir.estimate_ppr_balanced": lambda r: {"walks_used": r.walks_used},
    "push.reverse": _push_counts,
    "pathsampling.sample_path_to_target": lambda r: {
        "paths": 1, "attempts": r[1], "settled": int(r[2] == "settled"),
    },
}


class TracedCaller:
    """Caller for workload code: each public call becomes a span."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def __call__(self, name, layer, fn, *args, **kwargs):
        result, span = self.tracer.call(name, layer, fn, *args, **kwargs)
        counts = PUBLIC_COUNTS.get(name)
        if counts is not None:
            span.counts.update(counts(result))
        return result


LAYERS = ("graph", "push", "sampling", "bidir", "undirected", "multistep",
          "search", "pathsampling", "sharding", "harness")


def layer_metrics(tracer: Tracer, notes: dict, untraced_s: float) -> dict:
    """Per-layer figures of one traced run, keyed by metric name.

    Push and sampling figures cover set-up and queries; the public-call
    layers cover queries; ``*_build_s``-style figures cover set-up. Shares
    are self time over the traced query time.
    """
    spans = tracer.spans
    m: dict[str, float] = {}

    def total(pred, key=None):
        sel = [sp for sp in spans if pred(sp)]
        if key is None:
            return len(sel), sum(sp.duration for sp in sel)
        return sum(sp.counts.get(key, 0) for sp in sel)

    def named(name, phase=None):
        return lambda sp: sp.name == name and (phase is None or sp.phase == phase)

    for kind in ("reverse", "balanced", "forward"):
        pick = named(f"push.{kind}")
        calls, secs = total(pick)
        m[f"push.{kind}.calls"] = calls
        m[f"push.{kind}.s"] = secs
        m[f"push.{kind}.pushes"] = total(pick, "pushes")
        m[f"push.{kind}.work_units"] = total(pick, "work_units")
    pick = named("push.reverse")
    m["push.reverse.work_units_per_s"] = _ratio(m["push.reverse.work_units"], m["push.reverse.s"])
    m["push.reverse.residual_mass"] = _ratio(total(pick, "residual_mass"), m["push.reverse.calls"])
    m["push.reverse.touched"] = total(pick, "touched")

    folded = [sp.folded["sampling"] for sp in spans if "sampling" in sp.folded]
    walk_calls, walk_s = total(lambda sp: sp.layer == "sampling")
    m["sampling.walk_calls"] = walk_calls + sum(f["walk_calls"] for f in folded)
    m["sampling.walks"] = total(lambda sp: sp.layer == "sampling", "walks") + sum(
        f["walks"] for f in folded)
    m["sampling.path_steps"] = sum(f["path_steps"] for f in folded)
    m["sampling.s"] = walk_s + sum(f["s"] for f in folded)
    m["sampling.walks_per_s"] = _ratio(m["sampling.walks"], m["sampling.s"])

    for layer in ("bidir", "multistep", "undirected"):
        sel = [sp for sp in spans if sp.layer == layer and sp.phase == "query"]
        m[f"{layer}.calls"] = len(sel)
        m[f"{layer}.s"] = sum(sp.duration for sp in sel)
        m[f"{layer}.self_s"] = sum(sp.self_s for sp in sel)
    m["bidir.walks_used"] = total(lambda sp: sp.layer == "bidir", "walks_used")
    m["multistep.paths"] = sum(
        sp.folded.get("sampling", {}).get("walks", 0) for sp in spans if sp.layer == "multistep")

    _, m["graph.load_s"] = total(lambda sp: sp.layer == "graph")
    m["graph.edges"] = notes.get("graph.edges", 0)
    m["graph.load_edges_per_s"] = _ratio(m["graph.edges"], m["graph.load_s"])

    def setup_s(layer):
        return total(lambda sp: sp.layer == layer and sp.phase == "setup")[1]

    def query_s(*names):
        return sum(total(named(nm, "query"))[1] for nm in names)

    m["search.index_build_s"] = setup_s("search")
    m["search.index_entries"] = notes.get("search.index_entries", 0)
    m["search.forward_s"] = query_s("search.build_forward_vector")
    m["search.score_s"] = query_s("search.score_targets_direct", "search.score_targets_grouped")
    m["search.sample_s"] = query_s("search.sample_targets")
    m["pathsampling.precompute_s"] = setup_s("pathsampling")
    m["pathsampling.snapshots"] = notes.get("pathsampling.snapshots", 0)
    pick = named("pathsampling.sample_path_to_target", "query")
    paths, m["pathsampling.sample_s"] = total(pick)
    m["pathsampling.paths"] = paths
    m["pathsampling.attempts"] = total(pick, "attempts")
    m["pathsampling.accept_ratio"] = _ratio(paths, m["pathsampling.attempts"])
    m["pathsampling.settled_frac"] = _ratio(total(pick, "settled"), paths)
    m["sharding.store_build_s"] = total(named("sharding.build_shared_walk_vectors"))[1]
    m["sharding.store_entries"] = notes.get("sharding.store_entries", 0)
    m["sharding.shard_s"] = total(named("sharding.shard_vectors"))[1]
    m["sharding.local_query_s"] = query_s("sharding.query_shared_walks")
    m["sharding.broker_s"] = query_s("sharding.broker_estimate")
    m["sharding.broker_terms"] = notes.get("sharding.broker_terms", 0)

    roots = [sp for sp in spans if sp.name == "query"]
    traced_s = sum(sp.duration for sp in roots)
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    for sp in spans:
        if sp.phase != "query":
            continue
        self_by_layer[sp.layer] += sp.self_s
        for layer, acc in sp.folded.items():
            self_by_layer[layer] += acc["s"]
    for layer in LAYERS:
        m[f"share.{layer}"] = _ratio(self_by_layer[layer], traced_s)
    m["push.self_s"] = self_by_layer["push"]
    m["sampling.self_s"] = self_by_layer["sampling"]
    m["query.traced_s"] = traced_s
    m["query.untraced_s"] = untraced_s
    m["trace.overhead_s"] = traced_s - untraced_s
    m["trace.overhead_frac"] = _ratio(traced_s - untraced_s, untraced_s)
    m["trace.self_sum_gap_s"] = abs(sum(self_by_layer.values()) - traced_s)
    m["trace.spans"] = len(spans)
    return m


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0

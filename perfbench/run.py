"""Run one pushwalk benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pair-hot --seed 1 --seconds 20 --trace 0

Run from the repository root: the package is imported from ``src/`` next to
this directory, never from an installed copy. One single-threaded process
drives a closed loop with one client: each query is issued only after the
previous one returns.

``--trace 0`` measures the end-to-end metrics: set-up time (median of
several set-ups), query latency p50/p95, queries per second of query time
and peak resident memory, with timings corrected for machine speed (see
speed.py). The loop runs for ``--seconds`` and at least MIN_QUERIES
queries, so the p95 has ten samples above it. The report lines add the raw
timings, the mean relative error against the sparse oracle, the failed
fraction and, on index-serve, the conditioned-path endpoint TV distance.

``--trace 1`` replays the first MIN_QUERIES queries twice, untraced and
traced in alternating order, requires identical answers, and reports the
per-layer split of the traced run (see spans.py); its spans are written to
``.bench_work/traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a human-readable report that also names every failed check.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

from speed import NOMINAL_S, SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

N_NODES = 10_000
MIN_QUERIES = 200
LOOP_LIMIT_S = 90.0  # hard stop for the timed loop, so a run ends in time
CHILD_LIMIT_S = 60.0  # hard stop for one set-up in a child process

END_TO_END = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_COUNT = "count"
PER_LAYER = {
    **{f"push.{k}.{f}": u for k in ("reverse", "balanced", "forward")
       for f, u in (("calls", _COUNT), ("s", "s"), ("pushes", _COUNT), ("work_units", _COUNT))},
    "push.reverse.work_units_per_s": "1/s",
    "push.reverse.residual_mass": "mass",
    "push.reverse.touched": _COUNT,
    "push.self_s": "s",
    "sampling.walk_calls": _COUNT,
    "sampling.walks": _COUNT,
    "sampling.path_steps": _COUNT,
    "sampling.s": "s",
    "sampling.walks_per_s": "1/s",
    "sampling.self_s": "s",
    **{f"{layer}.{f}": u for layer in ("bidir", "multistep", "undirected")
       for f, u in (("calls", _COUNT), ("s", "s"), ("self_s", "s"))},
    "bidir.walks_used": _COUNT,
    "multistep.paths": _COUNT,
    "graph.load_s": "s",
    "graph.edges": _COUNT,
    "graph.load_edges_per_s": "1/s",
    "search.index_build_s": "s",
    "search.index_entries": _COUNT,
    "search.forward_s": "s",
    "search.score_s": "s",
    "search.sample_s": "s",
    "pathsampling.precompute_s": "s",
    "pathsampling.snapshots": _COUNT,
    "pathsampling.sample_s": "s",
    "pathsampling.paths": _COUNT,
    "pathsampling.attempts": _COUNT,
    "pathsampling.accept_ratio": "ratio",
    "pathsampling.settled_frac": "ratio",
    "sharding.store_build_s": "s",
    "sharding.store_entries": _COUNT,
    "sharding.shard_s": "s",
    "sharding.local_query_s": "s",
    "sharding.broker_s": "s",
    "sharding.broker_terms": _COUNT,
    **{f"share.{layer}": "ratio" for layer in (
        "graph", "push", "sampling", "bidir", "undirected", "multistep",
        "search", "pathsampling", "sharding", "harness")},
    "query.traced_s": "s",
    "query.untraced_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.self_sum_gap_s": "s",
    "trace.spans": _COUNT,
    "machine.ref_s": "s",
}


def _import_program():
    """Put this checkout's src/ first on the path and verify it is used."""
    if not (SRC / "pushwalk" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no pushwalk sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pushwalk

    if Path(pushwalk.__file__).resolve().parent != SRC / "pushwalk":
        raise SystemExit(f"perfbench: imported pushwalk from {pushwalk.__file__}, not {SRC}")


@contextlib.contextmanager
def _graph_file(lines):
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        path = tmp / "graph.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        yield str(path)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(str(item).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


class Outcome:
    """Attempted/failed bookkeeping plus the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, qid, failures) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"query {qid}: {'; '.join(failures)}")


def _run_query(wl, inp, state, q, call, tracer=None):
    """Execute one query; returns (result or None, seconds, failures, notes).

    With a tracer the query runs inside a root span of its own."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            res = wl.execute(state, q, call)
        else:
            res, _ = tracer.call("query", "harness", wl.execute, state, q, call)
    except Exception as exc:  # a failed operation, counted and reported
        return None, time.perf_counter() - t0, [f"{type(exc).__name__}: {exc}"], {}
    dt = time.perf_counter() - t0
    failures, notes = wl.check(inp, state, q, res)
    return res, dt, failures, notes


def _timed_setup(wl, inp, path, probe):
    """Load, build the stores and warm up once.

    Returns (state, raw seconds, speed-corrected seconds)."""
    from workloads import direct

    warm = wl.warmups(inp)
    probe.sample(3)
    t0 = time.perf_counter()
    state = wl.setup(path, inp, direct)
    for q in warm:
        wl.execute(state, q, direct)
    t1 = time.perf_counter()
    probe.sample(3)
    return state, t1 - t0, (t1 - t0) * probe.factor(t0, t1)


def _setup_in_child(name: str, seed: int, n: int, path: str) -> list[float]:
    """Time one set-up in a fresh interpreter; returns [raw, corrected] s."""
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import run; "
            "print(json.dumps(run._child_setup(*sys.argv[2:])))")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(HERE), name, str(seed), str(n), path],
        capture_output=True, text=True, timeout=CHILD_LIMIT_S, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _child_setup(name, seed, n, path):
    _import_program()
    _quiet()
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    probe = SpeedProbe()
    return _timed_setup(wl, wl.inputs(int(seed), int(n)), path, probe)[1:]


def measure(wl, seed: int, seconds: float, n: int = N_NODES):
    """The untraced run: returns (metrics, outcome, report lines).

    The first set-up serves the queries; the other set-ups each run in a
    fresh process, so that none inherits memory or caches from another and
    set-up time means what a user starting the program pays. Every timing
    is corrected for machine speed (see speed.py); the report lines also
    give the raw figures.
    """
    from workloads import QUERY_BLOCK, direct

    probe = SpeedProbe()
    inp = wl.inputs(seed, n)
    with _graph_file(inp.lines) as path:
        state, *first = _timed_setup(wl, inp, path, probe)
        setups = [first] + [_setup_in_child(wl.name, seed, n, path)
                            for _ in range(wl.setup_repeats - 1)]

    outcome = Outcome()
    starts, latencies, kept = [], [], []
    stream = wl.queries(inp)
    probe.sample(3)
    begin = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - begin
        done = len(latencies) >= MIN_QUERIES and len(latencies) % QUERY_BLOCK == 0
        if elapsed >= LOOP_LIMIT_S or (elapsed >= seconds and done):
            break
        q = next(stream)
        starts.append(time.perf_counter())
        res, dt, failures, _ = _run_query(wl, inp, state, q, direct)
        latencies.append(dt)
        outcome.record(q.qid, failures)
        if q.qid < MIN_QUERIES and res is not None:
            kept.append((q, res))
        probe.sample_due()
    loop_s = time.perf_counter() - begin
    probe.sample(3)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    cache: dict = {}
    errors = []
    for q, res in kept:
        errors.extend(wl.errors(inp, state, q, res, cache))
    extra = {
        "mean_rel_err": statistics.fmean(errors) if errors else float("nan"),
        "failed_frac": outcome.failed / outcome.attempted,
        **wl.probe(inp, state),
    }

    corrected_ms = [x * 1e3 * probe.factor(t) for x, t in zip(latencies, starts)]
    metrics = _summary([b for _, b in setups], corrected_ms, peak_rss_mb)
    raw = _summary([a for a, _ in setups], [x * 1e3 for x in latencies], peak_rss_mb)
    beyond = sum(1 for x in corrected_ms if x > metrics["query_p95_ms"])
    report = [
        f"workload {wl.name}, seed {seed}: closed loop, 1 client, "
        f"{len(latencies)} queries in {loop_s:.1f} s; {n} nodes, {state.g.m} edges",
        f"inputs {_digest(inp.lines)}/{_digest(q for q, _ in kept)}, "
        f"estimates {_digest(wl.values(r) for _, r in kept)}",
        f"setup_s runs (raw, corrected): {', '.join(f'{a:.4f}/{b:.4f}' for a, b in setups)}",
        f"reference loop median {probe.median_s() * 1e3:.3f} ms (nominal {NOMINAL_S * 1e3:g} ms); "
        f"query_p95_ms has {beyond} samples above it",
        f"  {'metric':<18} {'corrected':>14} {'raw':>14}",
    ]
    for name, unit in END_TO_END.items():
        report.append(f"  {name:<18} {metrics[name]:>14.6g} {raw[name]:>14.6g} {unit}")
    report.append(f"  mean_rel_err over {len(errors)} scores of the first {len(kept)} queries, "
                  f"failed_frac over {outcome.attempted} queries:")
    for name, value in extra.items():
        report.append(f"  {name:<18} {value:>14.6g} ratio")
    return {**metrics, **extra}, outcome, report


def trace(wl, seed: int, n: int = N_NODES):
    """The traced run: returns (metrics, outcome, report lines)."""
    import spans
    from workloads import direct

    inp = wl.inputs(seed, n)
    warm = wl.warmups(inp)
    tracer = spans.Tracer()
    caller = spans.TracedCaller(tracer)
    with _graph_file(inp.lines) as path:
        with spans.installed(tracer):
            state, _ = tracer.call("setup", "harness", wl.setup, path, inp, caller)
    for q in warm:
        wl.execute(state, q, direct)

    tracer.phase = "query"
    probe = SpeedProbe()
    outcome = Outcome()
    untraced_s = 0.0
    notes = dict(state.notes)
    stream = wl.queries(inp)
    for _ in range(MIN_QUERIES):
        q = next(stream)
        tracer.qid = q.qid
        runs = {}
        for traced in ((False, True) if q.qid % 2 else (True, False)):
            if traced:
                with spans.installed(tracer):
                    runs[traced] = _run_query(wl, inp, state, q, caller, tracer)
            else:
                runs[traced] = _run_query(wl, inp, state, q, direct)
        (res_u, dt_u, fail_u, _), (res_t, _, fail_t, q_notes) = runs[False], runs[True]
        untraced_s += dt_u
        failures = fail_u + fail_t
        if res_u is not None and res_t is not None and wl.values(res_u) != wl.values(res_t):
            failures.append("traced result differs from the untraced one")
        for key, value in q_notes.items():
            notes[key] = notes.get(key, 0) + value
        outcome.record(q.qid, failures)
        probe.sample_due()

    metrics = spans.layer_metrics(tracer, notes, untraced_s)
    metrics["machine.ref_s"] = probe.median_s()
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    out = traces / f"{wl.name}-seed{seed}.jsonl"
    tracer.write(out)
    integrity = metrics["trace.self_sum_gap_s"] <= 1e-9 * max(1.0, metrics["query.traced_s"])
    report = [
        f"workload {wl.name}, seed {seed}: traced replay of {MIN_QUERIES} queries, "
        f"{len(tracer.spans)} spans written to {out.relative_to(ROOT)}",
        f"self times add up to the traced query time: {'yes' if integrity else 'NO'}",
    ]
    for name, unit in PER_LAYER.items():
        report.append(f"  {name:<32} {metrics[name]:>14.6g} {unit}")
    return metrics, outcome, report, integrity


def _summary(setup_s, lat_ms, peak_rss_mb) -> dict:
    lat_ms = sorted(lat_ms)
    return {
        "setup_s": statistics.median(setup_s),
        "query_p50_ms": statistics.median(lat_ms),
        "query_p95_ms": _percentile(lat_ms, 95),
        "queries_per_s": len(lat_ms) / sum(lat_ms) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }


def _quiet() -> None:
    # The default thresholds sit below the proven-accuracy floor at this
    # delta; the estimates stay unbiased, and the warning would repeat per query.
    warnings.filterwarnings("ignore", message="r_max=.* is at or below the guaranteed-accuracy floor")


def _percentile(sorted_values, pct: float) -> float:
    """Linear-interpolation percentile of an ascending list."""
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    _quiet()
    if args.trace:
        metrics, outcome, report, integrity = trace(wl, args.seed)
        units = PER_LAYER
    else:
        metrics, outcome, report = measure(wl, args.seed, args.seconds)
        integrity = True
        units = END_TO_END
    for line in report + outcome.reasons:
        print(line)
    result = {
        "correct": outcome.failed == 0 and integrity,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

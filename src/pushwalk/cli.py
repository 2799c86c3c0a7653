"""Command-line front end.

Every subcommand prints one JSON record per line: first a ``config`` record
echoing the full effective configuration, then ``result`` records. Records
round-trip losslessly through :meth:`RunRecord.to_line` /
:meth:`RunRecord.from_line`; ``gen`` and ``sample-path`` print the config
record as a ``# `` comment above their text output. ``precompute`` stores
and ``precompute-search`` indexes share one file format (``save_index`` /
``load_index``), each recording its graph's ``Graph.identity``. Exit codes:
0 success, 1 usage error (including a flag the chosen ``--method`` or
``search --index`` ignores, or an ``--alpha`` other than the stored one's),
2 data error (unreadable, malformed or non-UTF-8 graph, keyword, queries or
targets file, unknown node or keyword, broken store or search index, a store
or index built for another graph, even of the same size, path targets the
source cannot reach), 3 numerical failure (non-convergence, exhausted
sampling budget).

Directed graphs are loaded with the dangling-node sink convention applied,
so estimators, oracles, and walks all see the same chain. Undirected graphs
are loaded symmetrically and left untouched.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import statistics
import sys
import time
import warnings
from collections import ChainMap
from dataclasses import dataclass

import numpy as np

from .bidir import (
    PprParams,
    choose_delta_from_target,
    estimate_ppr,
    estimate_ppr_balanced,
    monte_carlo_ppr,
    num_walks,
)
from .graph import (Graph, GraphFormatError, GraphMismatchError, _text_file,
                    apply_sink_convention, check_built_for, load_edge_list)
from .multistep import (
    HeatKernelParams,
    MstpParams,
    estimate_heat_kernel,
    estimate_mstp,
    estimate_truncated_hitting,
    heat_kernel_paths,
)
from .oracle import (
    ConvergenceError,
    UnreachableTargetError,
    exact_global_pagerank,
    exact_mstp,
    exact_ppr,
)
from .pathsampling import precompute_path_samplers, sample_path_to_target
from .push import reverse_push
from .sampling import WalkConfig, weighted_draw
from .search import (
    DEFAULT_BETA,
    DEFAULT_SEARCH_C,
    IndexFormatError,
    KeywordFormatError,
    KeywordIndex,
    _coord_arrays,
    adaptive_r_max,
    build_forward_vector,
    build_grouped_index,
    load_index,
    sample_targets,
    save_index,
    score_targets_direct,
    score_targets_grouped,
)
from .sharding import (
    BrokerQuery,
    SharedWalkParams,
    broker_estimate,
    build_shared_walk_vectors,
    query_shared_walks,
    shard_vectors,
)
from .undirected import estimate_ppr_undirected

__all__ = [
    "RunRecord",
    "BenchSpec",
    "run_benchmark",
    "generate_synthetic",
    "main",
]


# ---------------------------------------------------------------------------
# Records


@dataclass
class RunRecord:
    """One line of CLI output: what ran, with what, and what came out."""

    command: str
    graph: str | None
    parameters: dict
    seed: int | None
    estimates: dict
    counters: dict
    wall_time_s: float
    record: str = "result"

    def to_line(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def from_line(cls, line: str) -> "RunRecord":
        return cls(**json.loads(line))


# ---------------------------------------------------------------------------
# Synthetic graphs


def generate_synthetic(kind: str, n: int, seed: int = 0) -> list[str]:
    """Deterministic edge-list lines for the named family.

    cycle: directed n-cycle. star: hub 0 with reciprocal spokes. grid:
    row-major lattice with reciprocal 4-neighbor edges (side = ceil(sqrt(n)),
    truncated to n nodes). power-law: preferential attachment, two edges per
    arriving node, endpoint drawn degree-proportionally.
    """
    if n < 2:
        raise ValueError("need at least 2 nodes")
    lines: list[str] = []
    if kind == "cycle":
        lines = [f"{i} {(i + 1) % n}" for i in range(n)]
    elif kind == "star":
        for i in range(1, n):
            lines.append(f"0 {i}")
            lines.append(f"{i} 0")
    elif kind == "grid":
        side = math.isqrt(n - 1) + 1
        for v in range(n):
            r, c = divmod(v, side)
            for nb in (v + 1 if c + 1 < side else None, v + side):
                if nb is not None and nb < n:
                    lines.append(f"{v} {nb}")
                    lines.append(f"{nb} {v}")
    elif kind == "power-law":
        rng = np.random.default_rng(seed)
        lines = ["0 1", "1 0"]
        endpoints = [0, 1, 0, 1]
        for j in range(2, n):
            chosen: set[int] = set()
            for _ in range(2):
                t = -1
                for _attempt in range(8):
                    t = int(endpoints[int(rng.integers(len(endpoints)))])
                    if t != j and t not in chosen:
                        break
                else:
                    t = int(rng.integers(j))
                    if t in chosen:
                        continue
                chosen.add(t)
            for t in sorted(chosen):
                lines.append(f"{j} {t}")
                endpoints.extend((j, t))
    else:
        raise ValueError(f"unknown synthetic kind {kind!r}")
    return lines


# ---------------------------------------------------------------------------
# Benchmark harness


@dataclass
class BenchSpec:
    """What to benchmark: pair sampling, pair count, per-algorithm knobs."""

    pair_mode: str = "uniform"  # or "pagerank": targets drawn by global rank
    n_pairs: int = 20
    alpha: float = PprParams.alpha
    delta: float | None = None  # default 4/n
    epsilon: float = PprParams.epsilon
    p_fail: float = PprParams.p_fail
    c: float = PprParams.c
    mc_walks: int | None = None  # default: PprParams.chernoff_walks
    seed: int = 0

    def resolved_delta(self, g: Graph) -> float:
        return self.delta if self.delta is not None else 4.0 / g.n

    def ppr_params(self, g: Graph) -> PprParams:
        return PprParams(
            delta=self.resolved_delta(g),
            alpha=self.alpha,
            epsilon=self.epsilon,
            p_fail=self.p_fail,
            c=self.c,
        )

    def resolved_mc_walks(self, g: Graph) -> int:
        if self.mc_walks is not None:
            return self.mc_walks
        return self.ppr_params(g).chernoff_walks()


def _sample_pairs(g: Graph, spec: BenchSpec, rng: np.random.Generator):
    if spec.pair_mode == "uniform":
        targets = rng.integers(g.n, size=spec.n_pairs)
    elif spec.pair_mode == "pagerank":
        pr = exact_global_pagerank(g, spec.alpha)
        targets = weighted_draw(pr, rng, spec.n_pairs)
    else:
        raise ValueError(f"unknown pair mode {spec.pair_mode!r}")
    sources = rng.integers(g.n, size=spec.n_pairs)
    return [(int(s), int(t)) for s, t in zip(sources, targets)]


def run_benchmark(g: Graph, spec: BenchSpec) -> list[dict]:
    """Time the estimators on sampled pairs; one summary row per algorithm.

    Accuracy columns compare against exact_ppr, solved once per distinct
    source, and cover only pairs whose true score is at least delta.
    """
    rows: list[dict] = []
    if spec.n_pairs <= 0:
        return rows
    rng = np.random.default_rng(spec.seed)
    pairs = _sample_pairs(g, spec, rng)
    params = spec.ppr_params(g)
    delta = params.delta
    targets_of: dict[int, set[int]] = {}
    for s, t in pairs:
        targets_of.setdefault(s, set()).add(t)
    truth = {}
    for s, ts in targets_of.items():
        row = exact_ppr(g, s, spec.alpha)
        truth.update(((s, t), row[t]) for t in ts)
    mc_walks = spec.resolved_mc_walks(g)
    algorithms = [
        ("bidirectional", lambda s, t, k: estimate_ppr(g, s, t, params, seed=k)),
        ("balanced", lambda s, t, k: estimate_ppr_balanced(g, s, t, params, seed=k)),
        (
            "monte-carlo",
            lambda s, t, k: monte_carlo_ppr(g, s, t, params, walks=mc_walks, seed=k),
        ),
    ]
    for name, fn in algorithms:
        times: list[float] = []
        rel_errs: list[float] = []
        walks_used = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # r_max guarantee-floor warnings
            for k, (s, t) in enumerate(pairs):
                t0 = time.perf_counter()
                est = fn(s, t, spec.seed + k)
                times.append(time.perf_counter() - t0)
                walks_used += est.walks_used
                if truth[s, t] >= delta:
                    rel_errs.append(abs(est.value - truth[s, t]) / truth[s, t])
        rows.append(
            {
                "algorithm": name,
                "pairs": len(pairs),
                "median_time_s": statistics.median(times),
                "mean_time_s": statistics.fmean(times),
                "mean_rel_err": statistics.fmean(rel_errs) if rel_errs else None,
                "scored_pairs": len(rel_errs),
                "mean_walks": walks_used / len(pairs),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Plumbing


# estimate --method -> the optional flags that method reads
_ESTIMATE_FLAGS = {
    "bidirectional": {"rmax", "c", "use_theorem_c"},
    "balanced": {"walk_time_constant", "c", "use_theorem_c"},
    "monte-carlo": {"walks"},
    "undirected": {"rmax"},
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    top = _Parser(prog="pushwalk", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--graph", help="edge-list file: 'u v [w]' per line")
    common.add_argument(
        "--undirected", action="store_true", help="symmetrize edges on load"
    )
    common.add_argument("--alpha", type=float, default=PprParams.alpha, help="teleport rate")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--output", help="write records here instead of stdout")
    # The accuracy contract; MstpParams carries the same defaults as PprParams.
    accuracy = argparse.ArgumentParser(add_help=False)
    accuracy.add_argument("--delta", type=float, help="smallest score to resolve (default per command)")
    accuracy.add_argument("--eps", type=float, default=PprParams.epsilon)
    accuracy.add_argument("--pfail", type=float, default=PprParams.p_fail)
    # unset until _walk_constant, so that estimate can tell a given --c apart
    accuracy.add_argument("--c", type=float, help=f"walk-count constant (default {PprParams.c:g})")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common], help="write a synthetic graph")
    p.add_argument("--kind", required=True, choices=["cycle", "star", "grid", "power-law"])
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("oracle", parents=[common], help="exact reference values")
    p.add_argument("--source", required=True)
    p.add_argument("--target")
    p.add_argument("--ell", type=int, help="exact multi-step probability at this horizon")
    p.add_argument("--global-rank", action="store_true", help="global PageRank instead")
    p.add_argument("--top", type=int, default=10, help="entries to print without --target")

    p = sub.add_parser("estimate", parents=[common, accuracy], help="single-pair score estimate")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument(
        "--method",
        choices=list(_ESTIMATE_FLAGS),
        default="bidirectional",
        help="balanced: work-balanced reverse phase; monte-carlo: walk-only "
        "baseline; undirected: degree-symmetric (undirected graphs only)",
    )
    p.add_argument("--rmax", type=float, help="push threshold (bidirectional, undirected)")
    p.add_argument("--use-theorem-c", action="store_true", help="bidirectional, balanced")
    p.add_argument("--walk-time-constant", type=float, help="balanced only")
    p.add_argument("--walks", type=int, help="walk budget (monte-carlo only)")

    p = sub.add_parser(
        "estimate-mstp", parents=[common, accuracy], help="multi-step transition probabilities"
    )
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--ell-max", type=int, required=True)
    p.add_argument("--eps-r", type=float)
    p.add_argument("--use-theorem-c", action="store_true")
    p.add_argument(
        "--first-passage",
        action="store_true",
        help="probability of hitting the target for the first time at each step",
    )

    p = sub.add_parser("heat-kernel", parents=[common, accuracy], help="heat-kernel score of a pair")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--t", type=float, required=True, dest="t_param")
    p.add_argument("--ell-max", type=int)

    p = sub.add_parser("search", parents=[common], help="rank a keyword's targets for a source")
    p.add_argument("--source", required=True)
    p.add_argument("--keyword", required=True)
    p.add_argument("--keywords", help="sidecar file: 'keyword<TAB>node' per line")
    p.add_argument("--index", help="index file from precompute-search")
    p.add_argument("--topk", type=int, default=10)
    p.add_argument("--method", choices=["direct", "grouped", "sampling"], default="grouped")
    p.add_argument("--nsamples", type=int, default=10000)
    p.add_argument("--rmax", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--walks", type=int)

    p = sub.add_parser("precompute-search", parents=[common], help="build keyword search indexes")
    p.add_argument("--keywords", required=True)
    p.add_argument("--rmax", type=float)
    p.add_argument("--adaptive", action="store_true", help="size rmax from target popularity")
    p.add_argument("--walks", type=int, default=1000, help="query-time walk budget (adaptive)")
    p.add_argument("--topk", type=int, default=10, help="k assumed by --adaptive")
    p.add_argument("--beta", type=float, default=DEFAULT_BETA)
    p.add_argument("--c", type=float, default=DEFAULT_SEARCH_C)

    p = sub.add_parser("sample-path", parents=[common], help="draw conditioned walk paths")
    p.add_argument("--source", required=True)
    p.add_argument("--targets", help="comma-separated node list")
    p.add_argument("--targets-file", help="file with one node per line")
    p.add_argument("--epsr", type=float, default=1.0)
    p.add_argument("--count", type=int, default=1)

    p = sub.add_parser("precompute", parents=[common], help="build the shared-walk store")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--dmax", type=float, default=1000.0)
    p.add_argument("--shards", type=int, default=4)
    p.add_argument("--c1", type=float, default=SharedWalkParams.c1)
    p.add_argument("--c2", type=float, default=SharedWalkParams.c2)
    p.add_argument("--c3", type=float, default=SharedWalkParams.c3)

    p = sub.add_parser("serve-sim", parents=[common], help="answer queries from a store")
    p.add_argument("--store", required=True, help="file written by precompute")
    p.add_argument("--query", action="append", default=[], help="'s,t' (repeatable)")
    p.add_argument("--queries", help="file with one 's t' pair per line")

    p = sub.add_parser("bench", parents=[common, accuracy], help="timing/accuracy comparison")
    p.add_argument("--pairs", type=int, default=20)
    p.add_argument("--mode", choices=["uniform", "pagerank"], default="uniform")
    p.add_argument("--mc-walks", type=int)

    return top


def _load_graph(args) -> Graph:
    if not args.graph:
        raise SystemExit2("--graph is required for this command")
    g = load_edge_list(args.graph, undirected=args.undirected)
    if not args.undirected:
        g = apply_sink_convention(g)
    return g


class SystemExit2(Exception):
    """Usage-level problem detected after parsing."""


def _check_nonnegative(args, flag: str) -> None:
    value = getattr(args, flag)
    if value < 0:
        raise SystemExit2(f"--{flag} must be nonnegative, got {value}")


def _name(g: Graph, v: int) -> str:
    return g.names[v]


def _config_record(args, extra: dict) -> RunRecord:
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "graph", "seed", "output")}
    return RunRecord(args.command, args.graph, {**flags, **extra}, args.seed, {}, {}, 0.0, "config")


def _emit_run(out, args, config: dict, results) -> None:
    """Print the config record (the flags plus ``config``), then one result
    record per ``(parameters, estimates, counters, wall_time_s)`` in
    ``results``; a generator's records print as each one is produced."""
    print(_config_record(args, config).to_line(), file=out)
    for parameters, estimates, counters, wall in results:
        rec = RunRecord(args.command, args.graph, parameters, args.seed, estimates, counters, wall)
        print(rec.to_line(), file=out)


def _default_delta(args, g: Graph) -> float:
    """--delta, else 1/n: the default of the multi-step and search commands."""
    return args.delta if args.delta is not None else 1.0 / g.n


def _walk_constant(args) -> float:
    """--c, else the default that PprParams and MstpParams share. Stores it
    in ``args``, so that the config record shows the value used."""
    if args.c is None:
        args.c = PprParams.c
    return args.c


def _mstp_params(args, g: Graph, ell_max: int, **knobs) -> MstpParams:
    return MstpParams(
        ell_max=ell_max,
        delta=_default_delta(args, g),
        epsilon=args.eps,
        p_fail=args.pfail,
        c=_walk_constant(args),
        **knobs,
    )


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_gen(args, out) -> int:
    lines = generate_synthetic(args.kind, args.n, seed=args.seed)
    config = _config_record(args, {"edges": len(lines)})
    if args.output:
        print(config.to_line())  # keep the edge file loadable as-is
    print("# " + config.to_line(), file=out)
    for line in lines:
        print(line, file=out)
    return 0


def _cmd_oracle(args, out) -> int:
    _check_nonnegative(args, "top")
    g = _load_graph(args)
    s = g.node_id(args.source)
    t0 = time.perf_counter()
    if args.global_rank:
        vec = exact_global_pagerank(g, args.alpha)
        kind = "global-pagerank"
    elif args.ell is not None:
        vec = exact_mstp(g, s, args.ell)
        kind = f"mstp-ell-{args.ell}"
    else:
        vec = exact_ppr(g, s, args.alpha)
        kind = "ppr"
    wall = time.perf_counter() - t0
    if args.target is not None:
        t = g.node_id(args.target)
        estimates = {"value": float(vec[t]), "target": _name(g, t)}
    else:
        order = np.argsort(-vec)[: args.top]
        estimates = {"top": [[_name(g, int(v)), float(vec[v])] for v in order]}
    result = ({"kind": kind}, estimates, {}, wall)
    _emit_run(out, args, {"n": g.n, "m": g.m, "kind": kind}, [result])
    return 0


def _cmd_estimate(args, out) -> int:
    for flag in ("rmax", "c", "walk_time_constant", "walks", "use_theorem_c"):
        value = getattr(args, flag)  # unset: None, or False for --use-theorem-c
        if value is not None and value is not False and flag not in _ESTIMATE_FLAGS[args.method]:
            option = "--" + flag.replace("_", "-")
            raise SystemExit2(f"{option} does not apply to --method {args.method}")
    g = _load_graph(args)
    s = g.node_id(args.source)
    t = g.node_id(args.target)
    delta = args.delta if args.delta is not None else choose_delta_from_target(g, t, args.alpha)
    params = PprParams(
        delta=delta,
        alpha=args.alpha,
        epsilon=args.eps,
        p_fail=args.pfail,
        c=_walk_constant(args),
        r_max=args.rmax,
        use_theorem_c=args.use_theorem_c,
    )
    t0 = time.perf_counter()
    if args.method == "monte-carlo":
        est = monte_carlo_ppr(g, s, t, params, walks=args.walks, seed=args.seed)
    elif args.method == "undirected":
        est = estimate_ppr_undirected(g, s, t, params, seed=args.seed)
    elif args.method == "balanced":
        est = estimate_ppr_balanced(
            g, s, t, params, walk_time_constant=args.walk_time_constant, seed=args.seed
        )
    else:
        est = estimate_ppr(g, s, t, params, seed=args.seed)
    wall = time.perf_counter() - t0
    r_max = est.r_max_used if math.isfinite(est.r_max_used) else "inf"
    result = (
        {"method": args.method, "delta": delta, "alpha": args.alpha},
        {"value": est.value, "source": _name(g, s), "target": _name(g, t)},
        {"walks": est.walks_used, "pushes": est.pushes, "r_max": r_max},
        wall,
    )
    _emit_run(out, args, {"n": g.n, "m": g.m, "delta": delta}, [result])
    return 0


def _cmd_estimate_mstp(args, out) -> int:
    g = _load_graph(args)
    s = g.node_id(args.source)
    t = g.node_id(args.target)
    params = _mstp_params(
        args, g, args.ell_max, eps_r=args.eps_r, use_theorem_c=args.use_theorem_c
    )
    t0 = time.perf_counter()
    fn = estimate_truncated_hitting if args.first_passage else estimate_mstp
    values = fn(g, s, t, params, seed=args.seed)
    wall = time.perf_counter() - t0
    config = {"n": g.n, "m": g.m, "delta": params.delta, "eps_r": params.effective_eps_r()}
    result = (
        {"ell_max": args.ell_max, "delta": params.delta, "first_passage": args.first_passage},
        {"per_ell": [float(x) for x in values], "source": _name(g, s), "target": _name(g, t)},
        {"paths": params.num_paths()},
        wall,
    )
    _emit_run(out, args, config, [result])
    return 0


def _cmd_heat_kernel(args, out) -> int:
    g = _load_graph(args)
    s = g.node_id(args.source)
    t = g.node_id(args.target)
    hk = HeatKernelParams(args.t_param, args.ell_max)
    params = _mstp_params(args, g, hk.ell_max)
    t0 = time.perf_counter()
    value = estimate_heat_kernel(g, s, t, hk, params=params, seed=args.seed)
    wall = time.perf_counter() - t0
    config = {"n": g.n, "m": g.m, "delta": params.delta, "ell_max": params.ell_max}
    result = (
        {"t": args.t_param, "ell_max": params.ell_max, "delta": params.delta},
        {"value": float(value), "source": _name(g, s), "target": _name(g, t)},
        {"paths": heat_kernel_paths(hk, params)},
        wall,
    )
    _emit_run(out, args, config, [result])
    return 0


def _cmd_search(args, out) -> int:
    _check_nonnegative(args, "topk")
    for flag in ("rmax", "keywords"):
        if args.index and getattr(args, flag) is not None:
            raise SystemExit2(f"--{flag} does not apply with --index")
    g = _load_graph(args)
    s = g.node_id(args.source)
    if args.index:
        payload = load_index(args.index)
        if "keywords" not in payload:
            raise IndexFormatError(f"{args.index} is not a search index")
        check_built_for(payload["graph"], g, args.index)
        kw_map = payload["keywords"]
    elif args.keywords:
        kw_map = KeywordIndex.from_file(args.keywords, g=g).mapping
    else:
        raise SystemExit2("search needs --index or --keywords")
    if args.keyword not in kw_map:
        raise KeyError(f"unknown keyword {args.keyword!r}")
    stored = kw_map[args.keyword] if args.index else None  # the keyword's GroupedIndex
    targets = list(kw_map[args.keyword]) if stored is None else stored.targets
    r_max = args.rmax if stored is None else stored.r_max
    params = PprParams(delta=_default_delta(args, g), alpha=args.alpha, r_max=r_max)
    r_max = params.resolved_r_max(g)
    w = args.walks if args.walks is not None else num_walks(params, r_max)
    t0 = time.perf_counter()
    forward = build_forward_vector(g, s, w, WalkConfig(args.alpha, args.seed))
    if args.method == "direct":
        vectors = stored.reverse_vectors() if stored else None
        ranked = score_targets_direct(
            g, s, targets, params, seed=args.seed, forward=forward, vectors=vectors
        )
    else:
        index = stored if stored else build_grouped_index(g, targets, r_max, args.alpha)
        if args.method == "grouped":
            ranked = score_targets_grouped(forward, index)
        else:
            ranked = sample_targets(forward, index, args.nsamples, seed=args.seed)
    wall = time.perf_counter() - t0
    top = [[_name(g, v), float(score)] for v, score in ranked[: args.topk]]
    result = (
        {"keyword": args.keyword, "method": args.method, "r_max": r_max},
        {"ranking": top, "source": _name(g, s)},
        {"walks": w, "targets": len(targets)},
        wall,
    )
    config = {"n": g.n, "m": g.m, "r_max": r_max, "walks": w, "targets": len(targets)}
    _emit_run(out, args, config, [result])
    return 0


def _cmd_precompute_search(args, out) -> int:
    if not args.output:
        raise SystemExit2("precompute-search needs --output for the index file")
    _check_nonnegative(args, "topk")
    g = _load_graph(args)
    kw = KeywordIndex.from_file(args.keywords, g=g)
    if args.rmax is None and not args.adaptive:
        raise SystemExit2("give --rmax or --adaptive")
    global_pr = exact_global_pagerank(g, args.alpha) if args.adaptive else None
    indexes: dict = {}
    t0 = time.perf_counter()
    for keyword, targets in sorted(kw.mapping.items()):
        r_max = args.rmax if not args.adaptive else adaptive_r_max(
            targets, global_pr, args.walks, args.topk, beta=args.beta, c=args.c)
        indexes[keyword] = build_grouped_index(g, targets, r_max, args.alpha)
    wall = time.perf_counter() - t0
    save_index(args.output, {"graph": g.identity, "keywords": indexes})
    result = (
        {"keywords": len(indexes), "adaptive": args.adaptive},
        {"index": args.output},
        {"targets": sum(len(index.targets) for index in indexes.values())},
        wall,
    )
    _emit_run(out, args, {"n": g.n, "m": g.m}, [result])
    return 0


def _cmd_sample_path(args, out) -> int:
    _check_nonnegative(args, "count")
    g = _load_graph(args)
    s = g.node_id(args.source)
    tokens: list[str] = []
    if args.targets:
        tokens += [tok for tok in args.targets.split(",") if tok]
    if args.targets_file:  # a file that is not UTF-8 is a data error (exit 2)
        with _text_file(args.targets_file, KeyError) as fh:
            tokens += fh.read().split()
    if not tokens:
        raise SystemExit2("sample-path needs --targets or --targets-file")
    targets = sorted({g.node_id(tok) for tok in tokens})
    cfg = WalkConfig(args.alpha, args.seed)
    t0 = time.perf_counter()
    state = precompute_path_samplers(g, targets, args.epsr, args.alpha)
    rng = cfg.stream()
    attempts_total = 0
    paths = []
    for _ in range(args.count):
        path, attempts = sample_path_to_target(g, s, state, cfg, rng=rng, return_attempts=True)
        attempts_total += attempts
        paths.append(path)
    wall = time.perf_counter() - t0
    header = _config_record(
        args, {"n": g.n, "m": g.m, "targets": [_name(g, t) for t in targets]}
    )
    print("# " + header.to_line(), file=out)
    for path in paths:
        print(" ".join(_name(g, v) for v in path), file=out)
    print(
        f"# paths={args.count} attempts={attempts_total} wall_time_s={wall:.6f}",
        file=out,
    )
    return 0


def _cmd_precompute(args, out) -> int:
    if not args.output:
        raise SystemExit2("precompute needs --output for the store file")
    if args.shards < 1:
        raise SystemExit2(f"--shards must be at least 1, got {args.shards}")
    g = _load_graph(args)
    params = SharedWalkParams(args.c1, args.c2, args.c3)
    t0 = time.perf_counter()
    store = build_shared_walk_vectors(
        g, args.alpha, args.delta, args.dmax, params=params, seed=args.seed
    )
    wall = time.perf_counter() - t0
    save_index(args.output, {"store": store, "k": args.shards})
    config = {
        "n": g.n,
        "m": g.m,
        "r_max_f": store.r_max_f,
        "r_max_r": store.r_max_r,
        "shared_walks": params.shared_walks(args.delta),
        "full_walks": params.full_walks(args.delta),
    }
    result = (
        {"delta": args.delta, "dmax": args.dmax, "shards": args.shards},
        {"store": args.output},
        {
            "walks": sum(store.walk_counts),
            "walk_entries": store.endpoint_freqs.nodes.size,
            "full_walk_nodes": sum(store.full_walk),
        },
        wall,
    )
    _emit_run(out, args, config, [result])
    return 0


def _serve_queries(g: Graph, store, k: int, queries):
    """One result per (s, t) query: the broker's answer over the store split
    into k shards next to the in-process one, both from one reverse push to t."""
    shards = shard_vectors(store.as_coord_vectors(g.n), k)
    for s, t in queries:
        t0 = time.perf_counter()
        rev = reverse_push(g, t, store.r_max_r, store.alpha)
        local = query_shared_walks(g, store, s, t, rev=rev)
        coords, values = _coord_arrays(g.n, rev.estimates, rev.residuals)
        y_vec = dict(zip(coords.tolist(), values.tolist()))
        key = ("y", t)
        # per-query views: the loaded shards plus this query's y-vector slices
        owners = shards[0].owners | {key}
        views = [
            dataclasses.replace(sh, entries=ChainMap(y.entries, sh.entries), owners=owners)
            for sh, y in zip(shards, shard_vectors({key: y_vec}, k))
        ]
        payload = {("x", int(v)): float(rv) for v, rv in store.fwd_residuals[s].items()}
        sharded = store.fwd_estimates[s].get(t, 0.0) + broker_estimate(
            BrokerQuery(target=key, payload=payload), views
        )
        wall = time.perf_counter() - t0
        estimates = {
            "source": _name(g, s),
            "target": _name(g, t),
            "value": sharded,
            "in_process_value": local,
        }
        yield {"k": k}, estimates, {"shards": k}, wall


def _cmd_serve_sim(args, out) -> int:
    g = _load_graph(args)
    bundle = load_index(args.store)
    if "store" not in bundle:
        raise IndexFormatError(f"{args.store} is not a shared-walk store")
    store, k = bundle["store"], bundle["k"]
    check_built_for(store.graph, g, args.store)
    if args.alpha != store.alpha:
        raise ValueError(f"--alpha {args.alpha} differs from the store's alpha {store.alpha}")
    queries: list[tuple[int, int]] = []
    for q in args.query:
        parts = [p.strip() for p in q.split(",")]
        if len(parts) != 2:
            raise SystemExit2(f"--query wants 's,t', got {q!r}")
        queries.append((g.node_id(parts[0]), g.node_id(parts[1])))
    if args.queries:
        with _text_file(args.queries, KeyError) as fh:
            for lineno, line in enumerate(fh, start=1):
                parts = line.split()
                if not parts or parts[0].startswith("#"):
                    continue
                # bad data raises KeyError (exit 2), naming the file or the line
                where = f"{args.queries}:{lineno}"
                if len(parts) < 2:
                    raise KeyError(f"{where}: expected 's t', got {line.rstrip()!r}")
                try:
                    queries.append((g.node_id(parts[0]), g.node_id(parts[1])))
                except KeyError as exc:
                    raise KeyError(f"{where}: {exc.args[0]}") from None
    if not queries:
        raise SystemExit2("serve-sim needs --query or --queries")
    _emit_run(out, args, {"n": g.n, "k": k}, _serve_queries(g, store, k, queries))
    return 0


def _cmd_bench(args, out) -> int:
    g = _load_graph(args)
    spec = BenchSpec(
        pair_mode=args.mode,
        n_pairs=args.pairs,
        alpha=args.alpha,
        delta=args.delta,
        epsilon=args.eps,
        p_fail=args.pfail,
        c=_walk_constant(args),
        mc_walks=args.mc_walks,
        seed=args.seed,
    )
    t0 = time.perf_counter()
    rows = run_benchmark(g, spec)
    wall = time.perf_counter() - t0
    config = {
        "n": g.n,
        "m": g.m,
        "delta": spec.resolved_delta(g),
        "mc_walks": spec.resolved_mc_walks(g),
    }
    parameters = {"mode": args.mode, "pairs": args.pairs}
    _emit_run(out, args, config, [(parameters, dict(row), {}, wall) for row in rows])
    return 0


_HANDLERS = {
    "gen": _cmd_gen,
    "oracle": _cmd_oracle,
    "estimate": _cmd_estimate,
    "estimate-mstp": _cmd_estimate_mstp,
    "heat-kernel": _cmd_heat_kernel,
    "search": _cmd_search,
    "precompute-search": _cmd_precompute_search,
    "sample-path": _cmd_sample_path,
    "precompute": _cmd_precompute,
    "serve-sim": _cmd_serve_sim,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    try:
        if args.output and args.command not in ("precompute", "precompute-search"):
            out = open(args.output, "w", encoding="utf-8")
        return _HANDLERS[args.command](args, out)
    except SystemExit2 as exc:
        print(f"pushwalk {args.command}: {exc}", file=sys.stderr)
        return 1
    except GraphFormatError as exc:
        print(f"pushwalk {args.command}: bad graph data: {exc}", file=sys.stderr)
        return 2
    except KeywordFormatError as exc:
        print(f"pushwalk {args.command}: bad keyword file: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"pushwalk {args.command}: cannot read input: {exc}", file=sys.stderr)
        return 2
    except (KeyError, UnreachableTargetError, GraphMismatchError) as exc:
        print(f"pushwalk {args.command}: {exc.args[0]}", file=sys.stderr)
        return 2
    except IndexFormatError as exc:
        print(f"pushwalk {args.command}: bad store/index file: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"pushwalk {args.command}: invalid parameters: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, RuntimeError, FloatingPointError, ZeroDivisionError) as exc:
        print(f"pushwalk {args.command}: numerical failure: {exc}", file=sys.stderr)
        return 3
    finally:
        if out is not sys.stdout:
            out.close()


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's three workloads: inputs, set-up, queries and checks.

Every workload runs on ``generate_synthetic("power-law", n, GRAPH_SEED)``,
written to an edge-list file and loaded with ``load_edge_list`` as a user
would. The run's seed draws everything else: query streams, keyword sets and
target sets. The graph stays fixed because the run-to-run spread of a
metric must stay inside its bound: on graphs from different seeds the
PageRank of the mid-ranked nodes, and with it the median cost of a
``pair-hot`` query, moves by about a quarter. The program sees only
generated inputs. Node ids in queries are the oracle's
(first-appearance order of the edge lines) and are mapped to the program's
ids through the loaded graph's name table.

A workload object is stateless; ``Inputs`` carries what the seed generated
and ``State`` what set-up built. ``execute`` is the timed part of a query;
``check`` (untimed) returns the reasons a result is wrong, and ``errors``
returns its relative errors against the sparse oracle.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import pushwalk as pw
from pushwalk.cli import generate_synthetic

import oracle

ALPHA = 0.2


def direct(_name, _layer, fn, *args, **kwargs):
    """Untraced caller: the public call and nothing else."""
    return fn(*args, **kwargs)


@dataclass
class Query:
    qid: int
    kind: str
    s: int
    t: int = -1
    seed: int = 0
    keyword: str = ""
    method: str = ""


@dataclass
class Inputs:
    seed: int
    n: int
    lines: list[str]
    ea: oracle.EdgeArrays
    delta: float
    extra: dict = field(default_factory=dict)


@dataclass
class State:
    g: pw.Graph
    to_prog: np.ndarray
    to_oracle: np.ndarray
    stores: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)


GRAPH_SEED = 0
# Queries are drawn in blocks, and a run ends on a block boundary. The size
# is odd so that the median query falls inside one block position's group
# of repeats; with an even size it falls between two positions, and on
# pair-hot, where neighbouring positions can differ by half in cost, the
# median jumped between them from run to run. It is a multiple of 3 so that
# every block holds each of three rotating kinds equally.
QUERY_BLOCK = 63


def _stream(seed: int, key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


def _load(path: str, undirected: bool, ea: oracle.EdgeArrays, call) -> State:
    g = call("graph.load_edge_list", "graph", pw.load_edge_list, path, undirected=undirected)
    if not undirected:
        g = call("graph.apply_sink_convention", "graph", pw.apply_sink_convention, g)
    index = {name: i for i, name in enumerate(g.names)}
    to_prog = np.array([index[name] for name in ea.names], dtype=np.int64)
    to_oracle = np.empty_like(to_prog)
    to_oracle[to_prog] = np.arange(to_prog.size)
    return State(g, to_prog, to_oracle, notes={"graph.edges": g.m})


def _finite_nonneg(values) -> list[str]:
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if not np.all(np.isfinite(arr)):
        return ["non-finite estimate"]
    if np.any(arr < 0.0):
        return ["negative estimate"]
    return []


def _rel_errors(est, truth, delta: float) -> list[float]:
    est = np.atleast_1d(np.asarray(est, dtype=float))
    truth = np.atleast_1d(np.asarray(truth, dtype=float))
    return list(np.abs(est - truth) / np.maximum(truth, delta))


class Workload:
    name = ""
    undirected = False
    kinds: tuple[str, ...] = ()
    setup_repeats = 5  # set-up time is the median of this many set-ups

    def inputs(self, seed: int, n: int) -> Inputs:
        lines = generate_synthetic("power-law", n, GRAPH_SEED)
        ea = oracle.EdgeArrays.from_lines(lines, self.undirected)
        inp = Inputs(seed, n, lines, ea, 4.0 / n)
        self.prepare(inp, _stream(seed, 1))
        return inp

    def prepare(self, inp: Inputs, rng: np.random.Generator) -> None:
        """Draw whatever set-up needs besides the graph."""

    def queries(self, inp: Inputs):
        """The seeded query stream, endless."""
        rng = _stream(inp.seed, 2)
        qid = 0
        while True:
            for q in self.draw(inp, rng, QUERY_BLOCK, qid):
                yield q
                qid += 1

    def warmups(self, inp: Inputs) -> list[Query]:
        """One query of each kind, from a stream of their own."""
        qs = self.draw(inp, _stream(inp.seed, 3), len(self.kinds), 0)
        return [dataclasses.replace(q, qid=-1 - q.qid) for q in qs]

    def setup(self, path: str, inp: Inputs, call) -> State:
        return _load(path, self.undirected, inp.ea, call)

    def draw(self, inp, rng, count, qid0) -> list[Query]:
        raise NotImplementedError

    def execute(self, state: State, q: Query, call):
        raise NotImplementedError

    def check(self, inp: Inputs, state: State, q: Query, res) -> tuple[list[str], dict]:
        raise NotImplementedError

    def errors(self, inp: Inputs, state: State, q: Query, res, cache: dict) -> list[float]:
        raise NotImplementedError

    @staticmethod
    def values(res):
        """What must repeat exactly between two runs of the same query."""
        return repr(res)

    def probe(self, inp: Inputs, state: State) -> dict:
        """Extra accuracy figures measured after the timed loop."""
        return {}


# ---------------------------------------------------------------------------
class PairHot(Workload):
    """Directed single-pair scores, PageRank-weighted (repeating) targets."""

    name = "pair-hot"
    kinds = ("ppr", "balanced")

    def prepare(self, inp, rng):
        pr = oracle.global_pagerank(inp.ea, ALPHA)
        inp.extra["pr_cdf"] = np.cumsum(pr) / pr.sum()
        inp.extra["params"] = pw.PprParams(delta=inp.delta, alpha=ALPHA)

    def draw(self, inp, rng, count, qid0):
        # Targets follow the PageRank law by quantile midpoints, one per
        # 1/count of its mass; alternate midpoints go to each estimator
        # (which alternate within the block), and the seed orders each
        # half. Every block of queries thus holds the same (estimator,
        # target) pairs, and runs differ in sources, order and random
        # streams, not in how many costly queries they make.
        # Random draws from the law moved the median query cost by half
        # between seeds, because it falls where cost drops steeply with rank.
        cdf = inp.extra["pr_cdf"]
        mids = np.minimum(np.searchsorted(cdf, (np.arange(count) + 0.5) / count, side="right"),
                          cdf.size - 1)
        targets = np.empty(count, dtype=np.int64)
        targets[0::2] = rng.permutation(mids[0::2])
        targets[1::2] = rng.permutation(mids[1::2])
        sources = rng.integers(inp.n, size=count)
        seeds = rng.integers(2**31, size=count)
        return [
            Query(qid0 + i, self.kinds[i % 2], int(s), int(t), int(sd))
            for i, (s, t, sd) in enumerate(zip(sources, targets, seeds))
        ]

    def warmups(self, inp):
        # Uniform targets: warm-up is for the lazy walk-stepper build, not
        # for a hub push, which would swamp set-up time.
        rng = _stream(inp.seed, 3)
        return [Query(-1 - i, kind, *(int(x) for x in rng.integers(inp.n, size=2)))
                for i, kind in enumerate(self.kinds)]

    def setup(self, path, inp, call):
        state = super().setup(path, inp, call)
        state.stores["params"] = inp.extra["params"]
        return state

    def execute(self, state, q, call):
        s, t = int(state.to_prog[q.s]), int(state.to_prog[q.t])
        if q.kind == "ppr":
            return call("bidir.estimate_ppr", "bidir", pw.estimate_ppr,
                        state.g, s, t, state.stores["params"], seed=q.seed)
        return call("bidir.estimate_ppr_balanced", "bidir", pw.estimate_ppr_balanced,
                    state.g, s, t, state.stores["params"], seed=q.seed)

    def check(self, inp, state, q, res):
        return _finite_nonneg(res.value), {}

    def errors(self, inp, state, q, res, cache):
        if q.t not in cache:
            cache[q.t] = oracle.ppr_column(inp.ea, q.t, ALPHA)
        return _rel_errors(res.value, cache[q.t][q.s], inp.delta)


# ---------------------------------------------------------------------------
HEAT_T = 3.0
HIT_ELL = 10


class DiffusionCold(Workload):
    """Undirected diffusion scores between uniform pairs; nothing shared."""

    name = "diffusion-cold"
    undirected = True
    kinds = ("heat", "hitting", "undirected")

    def prepare(self, inp, rng):
        hk = pw.HeatKernelParams(t_param=HEAT_T)
        inp.extra["hk"] = hk
        inp.extra["heat"] = pw.MstpParams(ell_max=hk.ell_max, delta=inp.delta)
        inp.extra["hit"] = pw.MstpParams(ell_max=HIT_ELL, delta=inp.delta)
        inp.extra["ppr"] = pw.PprParams(delta=inp.delta, alpha=ALPHA)
        degree = np.bincount(inp.ea.src, minlength=inp.ea.n)
        inp.extra["by_degree"] = np.argsort(degree, kind="stable")

    def draw(self, inp, rng, count, qid0):
        # Uniform targets, stratified by degree rank within each kind, so
        # every block holds the same mix of target degrees, which set much
        # of a query's cost.
        kinds = (qid0 + np.arange(count)) % 3
        by_degree = inp.extra["by_degree"]
        targets = np.empty(count, dtype=np.int64)
        for k in range(3):
            pos = np.flatnonzero(kinds == k)
            ranks = ((np.arange(pos.size) + rng.random(pos.size)) / pos.size * by_degree.size)
            targets[pos] = rng.permutation(by_degree[ranks.astype(np.int64)])
        sources = rng.integers(inp.n, size=count)
        seeds = rng.integers(2**31, size=count)
        return [
            Query(qid0 + i, self.kinds[k], int(s), int(t), int(sd))
            for i, (k, s, t, sd) in enumerate(zip(kinds, sources, targets, seeds))
        ]

    def setup(self, path, inp, call):
        state = super().setup(path, inp, call)
        state.stores.update((k, inp.extra[k]) for k in ("hk", "heat", "hit", "ppr"))
        return state

    def execute(self, state, q, call):
        g, st = state.g, state.stores
        s, t = int(state.to_prog[q.s]), int(state.to_prog[q.t])
        if q.kind == "heat":
            return call("multistep.estimate_heat_kernel", "multistep",
                        pw.estimate_heat_kernel, g, s, t, st["hk"], st["heat"], seed=q.seed)
        if q.kind == "hitting":
            return call("multistep.estimate_truncated_hitting", "multistep",
                        pw.estimate_truncated_hitting, g, s, t, st["hit"], seed=q.seed)
        return call("undirected.estimate_ppr_undirected", "undirected",
                    pw.estimate_ppr_undirected, g, s, t, st["ppr"], seed=q.seed)

    @staticmethod
    def _scores(q, res):
        return res.value if q.kind == "undirected" else res

    def check(self, inp, state, q, res):
        failures = _finite_nonneg(self._scores(q, res))
        if q.kind == "hitting" and np.shape(res) != (HIT_ELL,):
            failures.append(f"expected {HIT_ELL} horizons, got {np.shape(res)}")
        return failures, {}

    def errors(self, inp, state, q, res, cache):
        ea = inp.ea
        if q.kind == "heat":
            hk = inp.extra["hk"]
            truth = oracle.heat_kernel(ea, q.s, q.t, hk.t_param, hk.ell_max)
        elif q.kind == "hitting":
            truth = oracle.first_arrival(ea, q.s, q.t, HIT_ELL)
        else:
            truth = oracle.ppr_row(ea, ea.unit(q.s), ALPHA)[q.t]
        return _rel_errors(self._scores(q, res), truth, inp.delta)

    @staticmethod
    def values(res):
        return repr(np.asarray(res).tolist()) if isinstance(res, np.ndarray) else repr(res)


# ---------------------------------------------------------------------------
KEYWORDS = 4
KEYWORD_TARGETS = 8
PROBE_SOURCES = 5
TARGETS_PER_PROBE = 2
PATH_EPS_R = 0.3
PATH_MIN_MASS = 0.02  # sources need pi_s(T) >= this: ~(p_s + eps_r)/pi_s(T) attempts
PATH_BATCH = 20
PROBE_PATHS = 2000
SAMPLE_DRAWS = 1000
SHARDS = 4
D_MAX = 1000.0
METHODS = ("direct", "grouped", "sample")


class IndexServe(Workload):
    """Precomputed search, path-sampling and sharded stores; light reads."""

    name = "index-serve"
    kinds = ("search", "paths", "sharded")
    setup_repeats = 3

    def prepare(self, inp, rng):
        ea = inp.ea
        pr = oracle.global_pagerank(ea, ALPHA)
        # Keyword targets follow PageRank, one draw per 1/KEYWORD_TARGETS of
        # its mass (repeats dropped), so hubs recur across keywords and every
        # seed builds indexes of about the same size.
        cdf = np.cumsum(pr) / pr.sum()
        inp.extra["keywords"] = {}
        for i in range(KEYWORDS):
            u = (np.arange(KEYWORD_TARGETS) + rng.random(KEYWORD_TARGETS)) / KEYWORD_TARGETS
            picks = np.minimum(np.searchsorted(cdf, u, side="right"), ea.n - 1)
            inp.extra["keywords"][f"kw{i}"] = sorted(set(picks.tolist()))
        # Search sources: nodes whose score to some keyword target exceeds
        # twice the push threshold, so the push surely settled mass on them
        # and sample_targets has a non-zero total to draw from.
        # The threshold is default_r_max's, from the input's average degree.
        params = pw.PprParams(delta=inp.delta, alpha=ALPHA)
        r_max = params.epsilon * math.sqrt(
            (ea.src.size / ea.n) * params.delta / math.log(2.0 / params.p_fail))
        inp.extra["search_sources"] = {
            kw: np.flatnonzero(np.max([oracle.ppr_column(ea, t, ALPHA) for t in ts], axis=0) > 2 * r_max)
            for kw, ts in inp.extra["keywords"].items()
        }
        # Path targets: for each of a few low-PageRank probe sources, the
        # lowest-PageRank nodes within three steps of it, so every probe
        # reaches several targets and its endpoint law is not trivial.
        probes = rng.choice(np.flatnonzero(pr <= np.median(pr)), PROBE_SOURCES, replace=False)
        targets: set[int] = set()
        for s in probes:
            near, frontier = set(), {int(s)}
            for _ in range(3):
                frontier = set(ea.dst[np.isin(ea.src, list(frontier))].tolist())
                near |= frontier
            near = np.array(sorted(near - set(probes.tolist()) - targets), dtype=np.int64)
            targets.update(int(t) for t in near[np.argsort(pr[near], kind="stable")][:TARGETS_PER_PROBE])
        targets = sorted(targets)
        eligible = np.flatnonzero(oracle.ppr_column(ea, targets, ALPHA) >= PATH_MIN_MASS)
        inp.extra["path_targets"] = targets
        inp.extra["path_sources"] = eligible[~np.isin(eligible, targets)]
        inp.extra["probe_sources"] = sorted(int(s) for s in probes)
        # A sharded query's target is uniform over nodes with an in-edge and
        # its source uniform over the target's one- and two-step ancestors,
        # so the score is not zero and the broker combines real terms.
        inp.extra["has_parent"] = np.unique(ea.dst[ea.src != ea.dst])
        # The input's edges, to check that conditioned paths follow them.
        inp.extra["edges"] = set((ea.src * ea.n + ea.dst).tolist())

    def draw(self, inp, rng, count, qid0):
        kw_names = sorted(inp.extra["keywords"])
        sharded_targets = rng.choice(inp.extra["has_parent"], size=count)
        picks = rng.random(count)
        path_src = rng.choice(inp.extra["path_sources"], size=count)
        keywords = rng.integers(len(kw_names), size=count)
        seeds = rng.integers(2**31, size=count)
        out = []
        for i in range(count):
            qid = qid0 + i
            kind = self.kinds[qid % 3]
            q = Query(qid, kind, -1, -1, int(seeds[i]))
            if kind == "search":
                q.keyword = kw_names[int(keywords[i])]
                q.method = METHODS[(qid // 3) % 3]
                near = inp.extra["search_sources"][q.keyword]
                q.s = int(near[int(picks[i] * near.size)])
            elif kind == "paths":
                q.s, q.t = int(path_src[i]), -1
            else:
                q.t = int(sharded_targets[i])
                near = self._two_steps_back(inp.ea, q.t)
                q.s = int(near[int(picks[i] * near.size)])
            out.append(q)
        return out

    @staticmethod
    def _two_steps_back(ea, t: int) -> np.ndarray:
        """Nodes one or two steps before t, t excluded."""
        first = ea.src[ea.dst == t]
        near = np.union1d(first, ea.src[np.isin(ea.dst, first)])
        return near[near != t]

    def setup(self, path, inp, call):
        state = super().setup(path, inp, call)
        g, st = state.g, state.stores
        prog = state.to_prog
        r_max = pw.default_r_max(g, pw.PprParams(delta=inp.delta, alpha=ALPHA))
        st["search_params"] = params = pw.PprParams(delta=inp.delta, alpha=ALPHA, r_max=r_max)
        st["walks"] = pw.num_walks(params, r_max)
        st["keywords"] = {kw: [int(prog[t]) for t in ts] for kw, ts in inp.extra["keywords"].items()}
        distinct = sorted({t for ts in st["keywords"].values() for t in ts})
        st["vectors"] = {
            t: call("search.build_reverse_vector", "search", pw.build_reverse_vector, g, t, r_max, ALPHA)
            for t in distinct
        }
        st["grouped"] = {}
        st["sampler"] = {}
        for kw, ts in sorted(st["keywords"].items()):
            st["grouped"][kw] = call("search.build_grouped_index", "search",
                                     pw.build_grouped_index, g, ts, r_max, ALPHA)
            sub = {t: st["vectors"][t] for t in ts}
            st["sampler"][kw] = call("search.build_target_sampler", "search",
                                     pw.build_target_sampler, g, ts, r_max, ALPHA, vectors=sub)
        path_targets = [int(prog[t]) for t in inp.extra["path_targets"]]
        st["path_targets"] = frozenset(path_targets)
        st["paths"] = call("pathsampling.precompute_path_samplers", "pathsampling",
                           pw.precompute_path_samplers, g, path_targets, PATH_EPS_R, ALPHA)
        st["store"] = store = call("sharding.build_shared_walk_vectors", "sharding",
                                   pw.build_shared_walk_vectors, g, ALPHA, inp.delta, D_MAX,
                                   seed=inp.seed)
        st["xvecs"] = xvecs = store.as_coord_vectors(g.n)
        st["shards"] = call("sharding.shard_vectors", "sharding", pw.shard_vectors, xvecs, SHARDS)
        state.notes.update({
            "search.index_entries": sum(
                len(lst) for gi in st["grouped"].values() for lst in gi.slots.values()
            ) + sum(len(si.samplers) for si in st["sampler"].values()),
            "pathsampling.snapshots": len(st["paths"].snapshots),
            "sharding.store_entries": sum(len(f) for f in store.endpoint_freqs)
            + sum(len(p) + len(r) for p, r in zip(store.fwd_estimates, store.fwd_residuals)),
        })
        return state

    # -- queries -----------------------------------------------------------
    def execute(self, state, q, call):
        g, st = state.g, state.stores
        s = int(state.to_prog[q.s])
        if q.kind == "search":
            cfg = pw.WalkConfig(ALPHA, q.seed)
            fwd = call("search.build_forward_vector", "search",
                       pw.build_forward_vector, g, s, st["walks"], cfg)
            if q.method == "direct":
                ranked = call("search.score_targets_direct", "search", pw.score_targets_direct,
                              g, s, st["keywords"][q.keyword], st["search_params"],
                              seed=q.seed, forward=fwd, vectors=st["vectors"])
            elif q.method == "grouped":
                ranked = call("search.score_targets_grouped", "search",
                              pw.score_targets_grouped, fwd, st["grouped"][q.keyword])
            else:
                ranked = call("search.sample_targets", "search", pw.sample_targets,
                              fwd, st["sampler"][q.keyword], SAMPLE_DRAWS, seed=q.seed)
            return fwd, ranked
        if q.kind == "paths":
            cfg = pw.WalkConfig(ALPHA, q.seed)
            rng = cfg.stream()
            return [
                call("pathsampling.sample_path_to_target", "pathsampling",
                     pw.sample_path_to_target, g, s, st["paths"], cfg, rng=rng,
                     return_attempts=True, return_branch=True)
                for _ in range(PATH_BATCH)
            ]
        t = int(state.to_prog[q.t])
        store, shards = st["store"], st["shards"]
        local = call("sharding.query_shared_walks", "sharding",
                     pw.query_shared_walks, g, store, s, t)
        rev = call("push.reverse", "push", pw.reverse_push, g, t, store.r_max_r, store.alpha)
        y_vec = {int(v): float(val) for v, val in rev.estimates.items()}
        for u, val in rev.residuals.items():
            y_vec[g.n + int(u)] = float(val)
        key = ("y", t)
        for shard in shards:
            shard.owners.add(key)
            mine = {c: v for c, v in y_vec.items() if c % SHARDS == shard.shard_id}
            if mine:
                shard.entries[key] = mine
        payload = {("x", int(v)): float(rv) for v, rv in store.fwd_residuals[s].items()}
        try:
            broker = call("sharding.broker_estimate", "sharding", pw.broker_estimate,
                          pw.BrokerQuery(target=key, payload=payload), shards)
        finally:
            for shard in shards:
                shard.owners.discard(key)
                shard.entries.pop(key, None)
        sharded = store.fwd_estimates[s].get(t, 0.0) + broker
        return local, sharded, broker, payload, y_vec

    def check(self, inp, state, q, res):
        st = state.stores
        if q.kind == "search":
            fwd, ranked = res
            targets = st["keywords"][q.keyword]
            if q.method == "sample":
                drawn = dict(ranked)
                failures = []
                if not set(drawn) <= set(targets):
                    failures.append("sampled a target outside the keyword")
                if sum(drawn.values()) != SAMPLE_DRAWS:
                    failures.append("sample counts do not add up")
                return failures, {}
            failures = _finite_nonneg([v for _, v in ranked])
            if sorted(t for t, _ in ranked) != sorted(targets):
                failures.append("ranking does not cover the keyword's targets")
            if q.method == "direct":
                other = pw.score_targets_grouped(fwd, st["grouped"][q.keyword])
            else:
                other = pw.score_targets_direct(
                    state.g, int(state.to_prog[q.s]), targets, st["search_params"],
                    forward=fwd, vectors=st["vectors"])
            if other != ranked:
                failures.append("grouped and direct scores differ")
            return failures, {}
        if q.kind == "paths":
            failures = []
            s = int(state.to_prog[q.s])
            edges, n = inp.extra["edges"], inp.ea.n
            for path, _attempts, _branch in res:
                orig = state.to_oracle[np.asarray(path)]
                if path[0] != s:
                    failures.append("path does not start at the source")
                if path[-1] not in st["path_targets"]:
                    failures.append("path does not end in the target set")
                if any(int(a) * n + int(b) not in edges for a, b in zip(orig, orig[1:])):
                    failures.append("path leaves the out-edges")
            return failures, {}
        local, sharded, broker, payload, y_vec = res
        failures = _finite_nonneg([local, sharded])
        total = Fraction(0)
        terms = 0
        xvecs = st["xvecs"]
        for owner, weight in payload.items():
            for coord, xv in xvecs[owner].items():
                yv = y_vec.get(coord)
                if yv is not None:
                    total += Fraction(weight * xv * yv)
                    terms += 1
        if broker != float(total):
            failures.append("broker differs from the exact unsharded dot product")
        if abs(sharded - local) > 1e-12 + 1e-9 * abs(local):
            failures.append("sharded and in-process answers differ")
        return failures, {"sharding.broker_terms": terms}

    def errors(self, inp, state, q, res, cache):
        if q.kind == "paths" or (q.kind == "search" and q.method == "sample"):
            return []
        if q.kind == "search":
            _, ranked = res
            est, truth = [], []
            for t, score in ranked:
                ot = int(state.to_oracle[t])
                if ot not in cache:
                    cache[ot] = oracle.ppr_column(inp.ea, ot, ALPHA)
                est.append(score)
                truth.append(cache[ot][q.s])
            return _rel_errors(est, truth, inp.delta)
        if q.t not in cache:
            cache[q.t] = oracle.ppr_column(inp.ea, q.t, ALPHA)
        return _rel_errors(res[1], cache[q.t][q.s], inp.delta)

    @staticmethod
    def values(res):
        if isinstance(res, tuple) and len(res) == 2:
            fwd, ranked = res
            return repr((sorted(fwd.empirical.items()), ranked))
        return repr(res)

    def probe(self, inp, state):
        """Endpoint TV of conditioned paths against pi_s[t] / pi_s(T)."""
        st = state.stores
        tvs = []
        for i, s in enumerate(inp.extra["probe_sources"]):
            law = oracle.conditional_endpoint_law(inp.ea, s, inp.extra["path_targets"], ALPHA)
            cfg = pw.WalkConfig(ALPHA, inp.seed * 1000 + i)
            rng = cfg.stream()
            counts = dict.fromkeys(law, 0)
            sp = int(state.to_prog[s])
            for _ in range(PROBE_PATHS):
                end = pw.sample_target_exact(state.g, sp, st["paths"], cfg, rng=rng)
                counts[int(state.to_oracle[end])] += 1
            tvs.append(0.5 * sum(abs(counts[t] / PROBE_PATHS - p) for t, p in law.items()))
        return {"path_endpoint_tv": float(np.mean(tvs))}


WORKLOADS = {wl.name: wl for wl in (PairHot(), DiffusionCold(), IndexServe())}

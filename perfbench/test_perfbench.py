"""Checks of the benchmark itself: oracle, determinism, seeds, tracing.

    PYTHONPATH=src python3 -m pytest -q perfbench

The workload checks run at a few hundred nodes so they finish in seconds;
the benchmark proper runs at N_NODES.
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run._import_program()

import pushwalk as pw  # noqa: E402

import oracle  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL_N = 600
TOL = 1e-10


def _random_edges(rng, n, undirected):
    edges = set()
    for _ in range(int(rng.uniform(1.5, 3.0) * n)):
        u, v = (int(x) for x in rng.integers(n, size=2))
        if undirected and u == v:
            continue
        edges.add((u, v, float(rng.uniform(0.2, 3.0))))
    if undirected:  # no isolated nodes: the chain needs a move everywhere
        edges |= {(v, (v + 1) % n, 1.0) for v in range(n)}
    return sorted(edges)


def _pair(edges, n, undirected):
    g = pw.from_edges(edges, n=n, undirected=undirected)
    if not undirected:
        g = pw.apply_sink_convention(g)
    ea = oracle.EdgeArrays.from_edges(edges, n, undirected)
    assert ea.n == g.n
    return g, ea


@pytest.mark.parametrize("case", range(12))
def test_sparse_oracle_matches_dense_oracles(case):
    rng = np.random.default_rng(case)
    n = int(rng.integers(5, 40))
    undirected = bool(case % 2)
    g, ea = _pair(_random_edges(rng, n, undirected), n, undirected)
    alpha = float(rng.uniform(0.1, 0.5))
    s, t = (int(x) for x in rng.integers(n, size=2))

    assert np.max(np.abs(oracle.ppr_row(ea, ea.unit(s), alpha) - pw.exact_ppr(g, s, alpha))) < TOL
    column = [pw.exact_ppr(g, v, alpha)[t] for v in range(g.n)]
    assert np.max(np.abs(oracle.ppr_column(ea, t, alpha) - column)) < TOL
    assert np.max(np.abs(oracle.global_pagerank(ea, alpha)
                         - pw.exact_global_pagerank(g, alpha))) < TOL

    rows = oracle.horizon_rows(ea, s, 12)
    for ell in range(13):
        assert np.max(np.abs(rows[ell] - pw.exact_mstp(g, s, ell))) < TOL
    hk = pw.HeatKernelParams(t_param=2.0)
    weights, _ = pw.poisson_weights(hk.t_param, hk.ell_max)
    dense_hk = sum(weights[ell] * pw.exact_mstp(g, s, ell)[t] for ell in range(hk.ell_max + 1))
    assert abs(oracle.heat_kernel(ea, s, t, hk.t_param, hk.ell_max) - dense_hk) < TOL
    assert np.max(np.abs(oracle.first_arrival(ea, s, t, 12)
                         - pw.exact_first_passage(g, s, t, 12))) < TOL


def test_conditional_endpoint_law_matches_path_enumeration():
    # One branching node keeps the enumeration small enough to reach a
    # negligible tail: 0 -> {1, 3}, 1 -> 2 -> 0, 3 -> 4 -> 3.
    edges = [(0, 1, 0.7), (0, 3, 0.3), (1, 2, 1.0), (2, 0, 1.0), (3, 4, 1.0), (4, 3, 1.0)]
    g, ea = _pair(edges, 5, False)
    alpha, targets = 0.5, (2, 3, 4)
    dist, tail = pw.exact_conditional_path_dist(g, 0, targets, alpha, max_len=44)
    assert tail < 1e-11
    law = oracle.conditional_endpoint_law(ea, 0, targets, alpha)
    for t in targets:
        enumerated = sum(p for path, p in dist.items() if path[-1] == t)
        assert abs(law[t] - enumerated) < TOL


def test_edge_parse_matches_program_loader():
    from pushwalk.cli import generate_synthetic

    lines = generate_synthetic("power-law", 300, 5)
    for undirected in (False, True):
        g = pw.parse_edge_lines(lines, undirected)
        if not undirected:
            g = pw.apply_sink_convention(g)
        ea = oracle.EdgeArrays.from_lines(lines, undirected)
        assert list(ea.names) == g.names
        prog = {(u, v): w for u in range(g.n) for v, w in g.out_adj[u]}
        ours = {(int(u), int(v)): w for u, v, w in zip(ea.src, ea.dst, ea.w)}
        assert prog.keys() == ours.keys()
        assert max(abs(prog[k] - ours[k]) for k in prog) < 1e-15


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_and_estimates(name):
    wl = WORKLOADS[name]
    first = run.measure(wl, 1, 0.0, n=SMALL_N)
    second = run.measure(wl, 1, 0.0, n=SMALL_N)
    for metrics, outcome, _ in (first, second):
        assert outcome.failed == 0, outcome.reasons
    # Report line 1 carries the input and estimate digests.
    assert first[2][1] == second[2][1]
    assert first[0]["mean_rel_err"] == second[0]["mean_rel_err"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_unseen_seed_passes_every_check(name):
    wl = WORKLOADS[name]
    metrics, outcome, report = run.measure(wl, 2, 0.0, n=SMALL_N)
    assert outcome.failed == 0, outcome.reasons
    assert outcome.attempted >= run.MIN_QUERIES
    assert report[1] != run.measure(wl, 3, 0.0, n=SMALL_N)[2][1]
    assert all(np.isfinite(metrics[k]) and metrics[k] > 0 for k in run.END_TO_END)
    assert np.isfinite(metrics["mean_rel_err"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_matches_untraced_and_adds_up(name):
    wl = WORKLOADS[name]
    metrics, outcome, _, integrity = run.trace(wl, 1, n=SMALL_N)
    assert outcome.failed == 0, outcome.reasons
    assert integrity
    assert set(metrics) == set(run.PER_LAYER)
    shares = sum(v for k, v in metrics.items() if k.startswith("share."))
    assert shares == pytest.approx(1.0, abs=1e-9)


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_fails_without_the_program_sources():
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "pair-hot",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
            env={"PATH": "/usr/bin:/bin"},
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

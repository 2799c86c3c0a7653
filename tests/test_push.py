"""Local push routines: traced examples, termination bounds, invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pushwalk as pw
from pushwalk import push
from pushwalk.cli import generate_synthetic
from conftest import (forward_invariant_gap, rand_graph,
                      reverse_invariant_gap, two_cycle)


# ---------------------------------------------------------------- reverse

def test_reverse_threshold_one_returns_indicator():
    g = two_cycle()
    res = pw.reverse_push(g, 1, 1.0, 0.2)
    assert dict(res.estimates) == {}
    assert dict(res.residuals) == {1: 1.0}
    assert res.pushes_performed == 0


def test_reverse_single_push_trace():
    g = two_cycle()
    res = pw.reverse_push(g, 1, 0.9, 0.2)
    assert dict(res.estimates) == pytest.approx({1: 0.2})
    assert dict(res.residuals) == pytest.approx({0: 0.8})
    assert res.pushes_performed == 1


def test_reverse_small_threshold_brackets_oracle():
    edges = [(0, 1, 1.0), (1, 2, 0.6), (1, 3, 0.4), (2, 0, 1.0), (3, 3, 1.0)]
    g = pw.from_edges(edges, n=4)
    alpha, r_max, t = 0.2, 0.01, 2
    res = pw.reverse_push(g, t, r_max, alpha)
    assert res.residuals.max_value() <= r_max
    pim = pw.exact_ppr_matrix(g, alpha)
    for v in range(g.n):
        p = res.estimates.get(v, 0.0)
        assert p <= pim[v][t] + 1e-12
        assert pim[v][t] - p <= r_max + 1e-12


def test_reverse_push_count_bound(rng):
    for _ in range(5):
        g = rand_graph(rng, n_max=30, directed=True)
        t = int(rng.integers(g.n))
        r_max, alpha = 0.02, 0.2
        res = pw.reverse_push(g, t, r_max, alpha)
        pim = pw.exact_ppr_matrix(g, alpha)
        mass = pim[:, t].sum()
        assert res.pushes_performed <= mass / (alpha * r_max) + g.n


def test_reverse_self_loop_is_safe():
    g = pw.from_edges([(0, 0, 1.0)], n=1)
    res = pw.reverse_push(g, 0, 0.01, 0.2)
    assert res.estimates[0] >= 1 - 0.01
    assert res.residuals.max_value() <= 0.01


def test_reverse_invariant_random_graphs(rng):
    for _ in range(8):
        g = rand_graph(rng, n_max=30)
        t = int(rng.integers(g.n))
        r_max = float(rng.uniform(0.01, 0.5))
        res = pw.reverse_push(g, t, r_max, 0.2)
        pim = pw.exact_ppr_matrix(g, 0.2)
        gap = reverse_invariant_gap(g, t, res, pim, range(g.n))
        assert gap < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    r_max=st.floats(1e-4, 0.5),
    switch_at=st.sampled_from([math.inf, 0.0, 2.0, 6.0]),
)
def test_reverse_kernels_keep_identity_threshold_and_count_bound(seed, r_max, switch_at):
    # switch_at=inf is the scalar FIFO loop, 0 runs rounds from the start,
    # and the others hand a partly drained queue to the rounds.
    g = rand_graph(np.random.default_rng(seed), n_max=30)
    t = seed % g.n
    alpha = 0.2
    pushed = []
    gathered = push._gathered_round

    def counting_round(g, est, res, frontier, alpha):
        pushed.append(frontier.copy())
        return gathered(g, est, res, frontier, alpha)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(push, "_gathered_round", counting_round)
        res = push._fifo_reverse(g, (t,), r_max, alpha, None, switch_at)
    pim = pw.exact_ppr_matrix(g, alpha)
    assert reverse_invariant_gap(g, t, res, pim, range(g.n)) < 1e-10
    assert res.residuals.max_value() <= r_max
    assert res.achieved_rmax == res.residuals.max_value()
    assert res.pushes_performed <= pim[:, t].sum() / (alpha * r_max)
    assert 0.0 not in res.estimates.values()
    assert 0.0 not in res.residuals.values()
    if switch_at == 0.0:  # every push is a round's, counted in in-degrees
        nodes = np.concatenate(pushed) if pushed else np.empty(0, dtype=int)
        assert res.pushes_performed == nodes.size
        assert res.work_units == sum(len(g.in_adj[v]) for v in nodes.tolist())


def _power_law_3000():
    lines = generate_synthetic("power-law", 3000, 0)
    return pw.apply_sink_convention(pw.parse_edge_lines(lines, undirected=False))


def test_reverse_rounds_stay_off_local_pushes_and_bound_hub_pushes():
    g = _power_law_3000()
    alpha, r_max = 0.2, 1e-3
    order = np.argsort(pw.exact_global_pagerank(g, alpha))
    # A 90th-percentile target: a real push (about 20 nodes) that stays local,
    # so the switch never fires and the result is the FIFO loop's.
    low = int(order[int(0.9 * g.n)])
    res = pw.reverse_push(g, low, r_max, alpha)
    fifo = push._fifo_reverse(g, (low,), r_max, alpha, None)
    assert res.pushes_performed > 5
    assert list(res.estimates.items()) == list(fifo.estimates.items())
    assert list(res.residuals.items()) == list(fifo.residuals.items())
    assert (res.pushes_performed, res.work_units) == (fifo.pushes_performed, fifo.work_units)
    # The top target's push reaches much of the graph and finishes in rounds.
    hub = int(order[-1])
    res = pw.reverse_push(g, hub, r_max, alpha)
    fifo = push._fifo_reverse(g, (hub,), r_max, alpha, None)
    assert list(res.estimates.items()) != list(fifo.estimates.items())
    assert res.residuals.max_value() <= r_max
    for s in (hub, 1, 17, 500, 2999):
        truth = pw.exact_ppr(g, s, alpha)[hub]
        assert -1e-12 <= truth - res.estimates.get(s, 0.0) <= r_max


def test_rounds_results_are_dense_views_that_read_like_sparse_vectors():
    g = _power_law_3000()
    alpha, r_max = 0.2, 1e-3
    hub = int(np.argmax(pw.exact_global_pagerank(g, alpha)))
    res = pw.reverse_push(g, hub, r_max, alpha)
    assert isinstance(res.estimates, pw.DenseVec)
    assert isinstance(res.residuals, pw.DenseVec)
    for vec in (res.estimates, res.residuals):
        arr = vec.array
        nz = np.flatnonzero(arr).tolist()
        assert dict(vec) == {v: float(arr[v]) for v in nz}
        assert list(vec) == nz == sorted(nz)  # ascending iteration
        assert list(vec.keys()) == nz
        assert list(vec.values()) == arr[nz].tolist()
        assert len(vec) == len(nz) > 0
        assert bool(vec)
        assert vec.max_value() == arr.max()
        assert nz[0] in vec
        nodes = np.arange(g.n)
        assert vec.values_at(nodes).tolist() == pw.SparseVec(vec.items()).values_at(nodes).tolist()
    zero = int(np.flatnonzero(res.residuals.array == 0.0)[0])
    assert res.residuals.get(zero, 0.0) == 0.0 and res.residuals[zero] == 0.0
    assert zero not in res.residuals
    assert res.residual_mass() == pytest.approx(res.residuals.array.sum(), rel=1e-12)
    union = res.estimates.keys() | res.residuals.keys()
    assert union == set(np.flatnonzero(res.estimates.array + res.residuals.array).tolist())
    empty = pw.DenseVec(np.zeros(4))
    assert (len(empty), bool(empty), empty.max_value(), dict(empty)) == (0, False, 0.0, {})


def test_walk_pickup_reads_the_rounds_residuals_at_the_walk_endpoints():
    # The estimate is p[s] plus the mean residual at the same walks' endpoints.
    g = _power_law_3000()
    params = pw.PprParams(delta=1e-5, r_max=1e-3)
    hub = int(np.argmax(pw.exact_global_pagerank(g, params.alpha)))
    pr = pw.reverse_push(g, hub, params.r_max, params.alpha)
    assert isinstance(pr.residuals, pw.DenseVec)
    for s, seed in ((hub, 3), (17, 5), (2999, 8)):
        w = pw.num_walks(params, params.r_max)
        total = 0.0
        for v in pw.walk_endpoints(g, s, w, pw.WalkConfig(params.alpha, seed)):
            total += pr.residuals.get(v, 0.0)
        est = pw.estimate_ppr(g, s, hub, params, seed=seed)
        assert est.walks_used == w
        assert est.value == pytest.approx(pr.estimates.get(s, 0.0) + total / w, abs=1e-12)


# ---------------------------------------------------------------- forward

def test_forward_not_eligible_at_threshold():
    g = pw.from_edges([(0, 0, 1.0)], n=1)
    res = pw.forward_push(g, 0, 2.0, 0.2)
    assert dict(res.estimates) == {}
    assert dict(res.residuals) == {0: 1.0}


def test_forward_hub_spoke_eligibility_boundary():
    # s fans out to n-2 spokes which merge into t. Eligibility is strict
    # (r/d > r_max): at r_max = 1/(n-2) the source itself sits exactly on
    # the boundary and nothing fires; just below it, s pushes once and the
    # spokes (r/d = 0.8/(n-2)) still hold.
    n = 12
    spokes = list(range(1, n - 1))
    edges = [(0, v, 1.0) for v in spokes] + [(v, n - 1, 1.0) for v in spokes]
    g = pw.apply_sink_convention(pw.from_edges(edges, n=n))

    at_boundary = pw.forward_push(g, 0, 1.0 / (n - 2), 0.2)
    assert at_boundary.pushes_performed == 0
    assert dict(at_boundary.residuals) == {0: 1.0}

    below = pw.forward_push(g, 0, 0.9 / (n - 2), 0.2)
    assert below.pushes_performed == 1  # only s itself
    assert below.estimates.get(n - 1, 0.0) == 0.0
    assert dict(below.estimates) == pytest.approx({0: 0.2})
    assert dict(below.residuals) == pytest.approx(
        {v: 0.8 / (n - 2) for v in spokes})


def test_forward_self_loop_settles_geometrically():
    g = pw.from_edges([(0, 0, 1.0)], n=1)
    for r_max in (0.5, 0.1, 0.01):
        res = pw.forward_push(g, 0, r_max, 0.2)
        assert res.estimates[0] >= 1 - r_max


def test_forward_invariant_random_graphs(rng):
    for _ in range(8):
        g = rand_graph(rng, n_max=30)
        s = int(rng.integers(g.n))
        r_max = float(rng.uniform(0.01, 0.5))
        res = pw.forward_push(g, s, r_max, 0.2)
        pim = pw.exact_ppr_matrix(g, 0.2)
        gap = forward_invariant_gap(g, s, res, pim, range(g.n))
        assert gap < 1e-10


def test_forward_degree_sum_is_recorded(rng):
    g = rand_graph(rng, n_max=20, directed=False)
    res = pw.forward_push(g, 0, 0.05, 0.2)
    assert res.degree_sum > 0


# ---------------------------------------------------------------- balanced

def test_balanced_queue_empties_to_exact_answer():
    g = pw.apply_sink_convention(pw.from_edges([(0, 1, 1.0)], n=2))
    res = pw.reverse_push_balanced(g, 1, 0.2, delta=1e-4)
    assert res.achieved_rmax == 0.0
    pi = pw.exact_ppr(g, 0, 0.2)
    assert res.estimates.get(0, 0.0) == pytest.approx(pi[1], abs=1e-12)


def test_balanced_infinite_work_cost_stops_immediately():
    g = two_cycle()
    res = pw.reverse_push_balanced(g, 1, 0.2, delta=0.01,
                                   walk_time_constant=math.inf)
    assert dict(res.estimates) == {}
    assert dict(res.residuals) == {1: 1.0}
    assert res.achieved_rmax == 1.0


def test_balanced_work_constant_monotonicity(rng):
    g = rand_graph(rng, n_max=25, directed=True)
    t = int(rng.integers(g.n))
    small = pw.reverse_push_balanced(g, t, 0.2, delta=1e-3,
                                     walk_time_constant=0.01)
    large = pw.reverse_push_balanced(g, t, 0.2, delta=1e-3,
                                     walk_time_constant=100.0)
    assert small.achieved_rmax <= large.achieved_rmax


def test_balanced_residuals_bounded_by_achieved(rng):
    for _ in range(5):
        g = rand_graph(rng, n_max=25, directed=True)
        t = int(rng.integers(g.n))
        res = pw.reverse_push_balanced(g, t, 0.2, delta=1e-3)
        assert res.residuals.max_value() <= res.achieved_rmax + 1e-15


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    delta=st.floats(1e-4, 0.1),
    walk_time_constant=st.floats(1e-3, 10.0),
    growth=st.floats(1.0, 100.0),
)
def test_balanced_levels_keep_identity_and_stopping_rule(
        seed, delta, walk_time_constant, growth):
    g = rand_graph(np.random.default_rng(seed), n_max=30)
    t = seed % g.n
    alpha, c = 0.2, 7.0
    res = pw.reverse_push_balanced(g, t, alpha, delta, c, walk_time_constant)
    pim = pw.exact_ppr_matrix(g, alpha)
    assert reverse_invariant_gap(g, t, res, pim, range(g.n)) < 1e-10
    assert res.achieved_rmax == res.residuals.max_value()
    assert (res.achieved_rmax == 0.0) == (not res.residuals)
    if res.residuals:
        # the run stopped at a largest residual whose push would cost too much
        cost = {v: walk_time_constant * (res.work_units + len(g.in_adj[v]))
                for v, rv in res.residuals.items() if rv == res.achieved_rmax}
        assert max(cost.values()) >= c * res.achieved_rmax / delta
    dearer = pw.reverse_push_balanced(g, t, alpha, delta, c, walk_time_constant * growth)
    assert dearer.achieved_rmax >= res.achieved_rmax


def test_balanced_hub_push_brackets_exact_scores_and_counts_in_degrees(monkeypatch):
    g = _power_law_3000()
    alpha, delta = 0.2, 4.0 / g.n
    hub = int(np.argmax(pw.exact_global_pagerank(g, alpha)))
    pushed = []
    gathered = push._gathered_round

    def counting_round(g, est, res, frontier, alpha):
        pushed.append(frontier.copy())
        return gathered(g, est, res, frontier, alpha)

    monkeypatch.setattr(push, "_gathered_round", counting_round)
    res = pw.reverse_push_balanced(g, hub, alpha, delta)
    assert res.achieved_rmax > 0.0  # the hub's push stops at its balance point
    nodes = np.concatenate(pushed)
    assert res.pushes_performed == nodes.size
    assert res.work_units == sum(len(g.in_adj[v]) for v in nodes.tolist())
    for s in (hub, 1, 17, 500, 2999):
        gap = pw.exact_ppr(g, s, alpha)[hub] - res.estimates.get(s, 0.0)
        assert 0.0 <= gap <= res.achieved_rmax + 1e-12


@pytest.mark.parametrize("entry", [
    lambda g, v: pw.reverse_push(g, v, 0.1, 0.2),
    lambda g, v: pw.reverse_push_balanced(g, v, 0.2, delta=0.01),
    lambda g, v: pw.random_walk_path(g, v, pw.WalkConfig(), fixed_len=3),
    lambda g, v: pw.query_shared_walks(
        g, pw.build_shared_walk_vectors(g, 0.2, 0.1, d_max=8.0), 0, v,
        rev=pw.reverse_push(g, 0, 0.1, 0.2)),
], ids=["reverse_push", "reverse_push_balanced", "random_walk_path", "query_shared_walks_rev"])
@pytest.mark.parametrize("node", [1.5, 1.0, "1", None])
def test_non_integer_node_ids_are_rejected(entry, node):
    with pytest.raises(ValueError, match="not an integer node id"):
        entry(two_cycle(), node)

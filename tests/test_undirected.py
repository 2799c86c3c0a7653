"""Degree-symmetry identity and the forward-push/reverse-walk estimator."""

import math

import numpy as np
import pytest

import pushwalk as pw
from pushwalk.cli import generate_synthetic
from conftest import rand_graph


def _path_graph():
    return pw.from_edges([(0, 1, 1.0)], n=2, undirected=True)


def test_symmetry_equal_degrees():
    g = _path_graph()
    pi0 = pw.exact_ppr(g, 0, 0.2)
    pi1 = pw.exact_ppr(g, 1, 0.2)
    assert pi0[1] == pytest.approx(pi1[0], abs=1e-12)


def test_symmetry_star_ratio_three():
    edges = [(0, i, 1.0) for i in (1, 2, 3)]
    g = pw.from_edges(edges, n=4, undirected=True)
    pi_leaf = pw.exact_ppr(g, 1, 0.2)
    pi_center = pw.exact_ppr(g, 0, 0.2)
    assert pi_leaf[0] == pytest.approx(3 * pi_center[1], abs=1e-12)


def test_symmetry_trivial_diagonal():
    g = _path_graph()
    assert pw.check_symmetry(g, 0, 0, 0.2)


def test_symmetry_random_graphs(rng):
    for _ in range(6):
        g = rand_graph(rng, n_max=20, directed=False)
        s, t = int(rng.integers(g.n)), int(rng.integers(g.n))
        assert pw.check_symmetry(g, s, t, 0.3)


def test_symmetry_requires_undirected():
    g = pw.apply_sink_convention(pw.from_edges([(0, 1, 1.0)], n=2))
    with pytest.raises(ValueError):
        pw.check_symmetry(g, 0, 1, 0.2)


def test_disconnected_target_scores_settled_mass_only():
    # walks from t never meet the source's residual: estimate == p_s[t] == 0
    g = pw.from_edges([(0, 1, 1.0), (2, 3, 1.0)], n=4, undirected=True)
    est = pw.estimate_ppr_undirected(g, 0, 2, pw.PprParams(delta=0.1), seed=2)
    assert est.value == 0.0


def test_path_estimate_matches_closed_form():
    g = _path_graph()
    truth = 0.8 * 0.2 / (1 - 0.8 ** 2)  # same series as the 2-cycle
    params = pw.PprParams(delta=0.25, alpha=0.2, epsilon=0.1)
    vals = [pw.estimate_ppr_undirected(g, 0, 1, params, seed=k).value
            for k in range(1000)]
    se = np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert abs(np.mean(vals) - truth) <= 3 * se + 1e-12


def test_worst_case_threshold_arithmetic():
    params = pw.PprParams(delta=1e-3, epsilon=0.5, p_fail=1 / math.e)
    r = pw.worst_case_r_max(params, d_t=4.0)
    assert r == pytest.approx(0.5 * math.sqrt(1e-3 / 4.0), rel=1e-9)  # 0.0079
    for d_t in (0.0, -1.0, math.nan):  # a NaN d_t once returned nan
        with pytest.raises(ValueError, match="target degree must be positive"):
            pw.worst_case_r_max(params, d_t)


def test_natural_delta_is_degree_share():
    g = pw.from_edges([(0, 1, 1.0), (1, 2, 1.0)], n=3, undirected=True)
    assert pw.natural_delta(g, 1) == pytest.approx(2 / 4)
    assert pw.natural_delta(g, 0) == pytest.approx(1 / 4)


@pytest.mark.parametrize("t", [-1, 3])
def test_natural_delta_rejects_out_of_range_target(t):
    g = pw.from_edges([(0, 1, 1.0), (1, 2, 1.0)], n=3, undirected=True)
    with pytest.raises(ValueError, match=rf"node {t} out of range"):
        pw.natural_delta(g, t)


def test_forward_work_bound_trivial_at_large_threshold(rng):
    g = rand_graph(rng, n_max=20, directed=False)
    min_deg = min(g.degree(v) for v in range(g.n))
    assert pw.forward_work_bound_check(g, 0, 1.0 / min_deg + 1.0, 0.2)


def test_forward_work_bound_fifty_nodes(rng):
    for _ in range(3):
        g = rand_graph(rng, n_max=50, n_min=40, directed=False)
        s = int(rng.integers(g.n))
        res = pw.forward_push(g, s, 0.01, 0.2)
        assert res.degree_sum <= 1.0 / (0.2 * 0.01) + 1e-9
        assert pw.forward_work_bound_check(g, s, 0.01, 0.2)


def test_forward_work_scales_with_threshold(rng):
    g = rand_graph(rng, n_max=40, n_min=30, directed=False)
    a = pw.forward_push(g, 0, 0.02, 0.2)
    b = pw.forward_push(g, 0, 0.01, 0.2)
    assert b.degree_sum <= 2 * max(a.degree_sum, 1.0 / (0.2 * 0.02))


def test_estimator_accuracy_random_graphs(rng):
    hits = total = 0
    for trial in range(4):
        g = rand_graph(rng, n_max=25, directed=False)
        pim = pw.exact_ppr_matrix(g, 0.2)
        for _ in range(10):
            s, t = int(rng.integers(g.n)), int(rng.integers(g.n))
            delta = pw.natural_delta(g, t)
            truth = pim[s][t]
            if truth < delta:
                continue
            params = pw.PprParams(delta=delta, alpha=0.2)
            est = pw.estimate_ppr_undirected(g, s, t, params,
                                             seed=100 * trial + total)
            total += 1
            hits += abs(est.value - truth) <= max(0.5 * truth, 2 * delta)
    assert total > 5
    assert hits / total >= 0.9


@pytest.mark.parametrize("s, t", [(1.5, 0), (0, 1.5)])
def test_undirected_entry_points_reject_non_integer_nodes(s, t):
    g = pw.from_edges([(0, 1), (1, 2), (2, 0)], undirected=True)
    with pytest.raises(ValueError, match="not an integer node id"):
        pw.estimate_ppr_undirected(g, s, t, pw.PprParams(delta=0.1))
    with pytest.raises(ValueError, match="not an integer node id"):
        pw.check_symmetry(g, s, t, 0.2)


def test_walks_shrink_when_the_forward_push_reaches_the_target():
    # The walks from t draw c_u * d_t * r_max / (eps^2 * max(delta, p_s[t])):
    # here the forward push's estimate at t passes delta (s == t, and s = 0
    # next to the hub t = 1), so each pair draws 4-24x fewer walks than at
    # delta, and over 400 seeds the mean squared error still matches the
    # exact variance of that many pickups r_s[V] * d_t / d_V, V ~ pi_t.
    g = pw.parse_edge_lines(generate_synthetic("power-law", 150, seed=3), undirected=True)
    ppr = pw.exact_ppr_matrix(g, 0.2)
    params = pw.PprParams(delta=0.01)
    c_u = 3 * math.log(2 / params.p_fail)
    for s, t, walks in ((9, 9, 10), (0, 1, 139), (3, 3, 29)):
        d_t = g.degree(t)
        r_max = pw.worst_case_r_max(params, d_t)
        pr = pw.forward_push(g, s, r_max, params.alpha)
        p_hat = pr.estimates.get(t, 0.0)
        assert p_hat > params.delta and pr.residuals
        at_delta = math.ceil(c_u * d_t * r_max / (params.epsilon**2 * params.delta))
        w = math.ceil(c_u * d_t * r_max / (params.epsilon**2 * p_hat))
        assert w == walks and 4 * w <= at_delta
        res = np.zeros(g.n)
        res[list(pr.residuals)] = list(pr.residuals.values())
        pickup = res * d_t / g.degrees
        var = ppr[t] @ pickup**2 - (ppr[t] @ pickup) ** 2
        errors = np.empty(400)
        for seed in range(errors.size):
            est = pw.estimate_ppr_undirected(g, s, t, params, seed=seed)
            assert est.walks_used == w
            errors[seed] = est.value - ppr[s, t]
        assert 0.7 <= np.mean(errors**2) / (var / w) <= 1.4


def _pinned_undirected_queries():
    # a 12-node ring with weighted chords, and a 150-node power-law graph;
    # every query leaves forward residual, so the walks shape each value
    ring = pw.from_edges(
        [(v, (v + 1) % 12, 1.0) for v in range(12)]
        + [(v, (v + 5) % 12, 1.0 + v % 3) for v in range(0, 12, 2)],
        n=12, undirected=True)
    plaw = pw.parse_edge_lines(generate_synthetic("power-law", 150, seed=3),
                               undirected=True)
    return [
        (ring, 0, 6, pw.PprParams(delta=0.05), 21),
        (ring, 3, 4, pw.PprParams(delta=0.02, r_max=0.05), 22),
        (plaw, 9, 1, pw.PprParams(delta=0.01), 23),
        (plaw, 40, 0, pw.PprParams(delta=0.005), 24),
        (plaw, 0, 77, pw.PprParams(delta=0.01, alpha=0.5), 25),
    ]


# float.hex of value, walks and pushes, recorded when the pickups were a
# Python loop over the endpoints; the array pickups must match bit for bit.
# Rows 3 and 4 were re-recorded when forward_push moved from a FIFO queue to
# rounds, which leave other residuals for the walks to correct.
_PINNED_UNDIRECTED = [
    ("0x1.07201df344cd8p-4", 92, 6),
    ("0x1.9999999999984p-4", 360, 2),
    ("0x1.ec6ed7db79590p-7", 556, 11),
    ("0x1.219411f1478d8p-7", 474, 17),
    ("0x1.73bf06be8d27ep-10", 168, 2),
]


def test_undirected_estimates_are_pinned():
    got = [pw.estimate_ppr_undirected(g, s, t, p, seed=seed)
           for g, s, t, p, seed in _pinned_undirected_queries()]
    assert [(e.value.hex(), e.walks_used, e.pushes) for e in got] == _PINNED_UNDIRECTED

"""Two-phase estimator: threshold arithmetic, degenerate modes, accuracy."""

import math

import numpy as np
import pytest

import pushwalk as pw
from pushwalk import cli
from conftest import rand_graph, two_cycle


def _regular_graph(n=5, out_deg=4):
    edges = [(u, (u + j) % n, 1.0) for u in range(n)
             for j in range(1, out_deg + 1)]
    return pw.from_edges(edges, n=n)


def test_default_threshold_arithmetic():
    g = _regular_graph()  # average degree 4
    params = pw.PprParams(delta=1e-3, epsilon=0.5, p_fail=2 / math.e)
    r = pw.default_r_max(g, params)
    assert r == pytest.approx(0.5 * math.sqrt(4e-3), rel=1e-9)  # 0.0316


def test_default_threshold_scales():
    g = _regular_graph()
    base = pw.default_r_max(g, pw.PprParams(delta=1e-3, epsilon=0.5))
    assert pw.default_r_max(
        g, pw.PprParams(delta=1e-3, epsilon=1.0)) == pytest.approx(2 * base)
    assert pw.default_r_max(
        g, pw.PprParams(delta=4e-3, epsilon=0.5)) == pytest.approx(2 * base)


def test_walk_count_worked_example():
    params = pw.PprParams(delta=0.01, c=7.0)
    assert pw.num_walks(params, 0.11) == 77


def test_walk_count_clamps_to_one():
    params = pw.PprParams(delta=0.5, c=7.0)
    assert pw.num_walks(params, 0.001) == 1


def test_walk_count_linear_in_c():
    a = pw.num_walks(pw.PprParams(delta=0.01, c=7.0), 0.11)
    b = pw.num_walks(pw.PprParams(delta=0.01, c=14.0), 0.11)
    assert b == 2 * a


def test_estimator_degenerates_to_monte_carlo():
    g = two_cycle()
    params = pw.PprParams(delta=0.05, alpha=0.2, r_max=1.5)
    est = pw.estimate_ppr(g, 0, 0, params, seed=11)
    mc = pw.monte_carlo_ppr(g, 0, 0, params, walks=est.walks_used, seed=11)
    assert est.value == mc.value
    assert est.pushes == 0


def test_estimator_residual_pickup_arithmetic():
    # reverse phase leaves exactly one residual 0.1 at the walked node, and
    # seed 28 lands 13 of 100 walks there: estimate = 0 + 0.13 * 0.1 = 0.013
    edges = [(0, 1, 1.0), (1, 2, 1.0), (1, 3, 7.0), (2, 3, 1.0), (3, 3, 1.0)]
    g = pw.from_edges(edges, n=4)
    rev = pw.reverse_push(g, 2, 0.15, 0.2)
    assert dict(rev.residuals) == pytest.approx({1: 0.1})
    params = pw.PprParams(delta=0.0105, alpha=0.2, c=7.0, r_max=0.15)
    assert pw.num_walks(params, 0.15) == 100
    est = pw.estimate_ppr(g, 0, 2, params, seed=28)
    assert est.value == pytest.approx(0.013)
    assert est.walks_used == 100


def test_single_pair_estimators_share_one_result_type():
    g = pw.from_edges([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)], n=3, undirected=True)
    params = pw.PprParams(delta=0.05, r_max=0.05)
    results = [
        pw.estimate_ppr(g, 0, 1, params, seed=1),
        pw.estimate_ppr_balanced(g, 0, 1, params, seed=1),
        pw.monte_carlo_ppr(g, 0, 1, params, walks=50, seed=1),
        pw.estimate_ppr_undirected(g, 0, 1, params, seed=1),
    ]
    assert all(type(r) is pw.PprEstimate for r in results)
    assert results[0].pushes == pw.reverse_push(g, 1, 0.05, 0.2).pushes_performed
    assert results[2].pushes == 0
    assert results[3].pushes == pw.forward_push(g, 0, 0.05, 0.2).pushes_performed


def test_walk_only_budget_is_the_chernoff_count():
    g = two_cycle()
    params = pw.PprParams(delta=0.01, epsilon=0.4, p_fail=0.05)
    want = math.ceil(3 * math.log(2 / 0.05) / (0.4**2 * 0.01))
    assert params.chernoff_walks() == want
    assert pw.monte_carlo_ppr(g, 0, 1, params).walks_used == want
    spec = cli.BenchSpec(delta=0.01, epsilon=0.4, p_fail=0.05)
    assert spec.resolved_mc_walks(g) == want


def test_r_max_override_or_default():
    g = _regular_graph()
    params = pw.PprParams(delta=0.01)
    assert params.resolved_r_max(g) == pw.default_r_max(g, params)
    assert pw.PprParams(delta=0.01, r_max=0.3).resolved_r_max(g) == 0.3


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("field", ["delta", "c", "r_max"])
def test_params_reject_non_finite_values(field, value):
    with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
        pw.PprParams(**{"delta": 0.01, field: value})


def test_balanced_estimator_zero_walks_when_drained():
    g = pw.apply_sink_convention(pw.from_edges([(0, 1, 1.0)], n=2))
    est = pw.estimate_ppr_balanced(g, 0, 1, pw.PprParams(delta=1e-4))
    pi = pw.exact_ppr(g, 0, 0.2)
    assert est.walks_used == 0
    assert est.value == pytest.approx(pi[1], abs=1e-10)


def test_balanced_is_deterministic_for_fixed_seed(rng):
    g = rand_graph(rng, n_max=20, directed=True)
    t = int(rng.integers(g.n))
    first = pw.estimate_ppr_balanced(g, 0, t, pw.PprParams(delta=0.02), seed=5)
    again = pw.estimate_ppr_balanced(g, 0, t, pw.PprParams(delta=0.02), seed=5)
    assert again.value == first.value
    assert again.walks_used == first.walks_used
    assert again.r_max_used == first.r_max_used


def test_balanced_budget_tradeoff(rng):
    g = rand_graph(rng, n_max=30, directed=True)
    t = int(rng.integers(g.n))
    tight = pw.estimate_ppr_balanced(
        g, 0, t, pw.PprParams(delta=5e-3), walk_time_constant=0.01, seed=1)
    loose = pw.estimate_ppr_balanced(
        g, 0, t, pw.PprParams(delta=5e-3), walk_time_constant=50.0, seed=1)
    assert loose.pushes <= tight.pushes
    assert loose.walks_used >= tight.walks_used


# Pairs whose push alone passes delta on the undirected load of a 200-node
# power-law graph: s == t at the top hub and at node 150, a source into
# the hubs 2 and 0, and a distribution source. The balanced push is stopped
# after one level (walk_time_constant 1000) so that its walks have residual
# to pick up.
_SOURCE_AWARE_WTC = 1000.0


@pytest.mark.parametrize("balanced", [False, True])
def test_source_aware_walk_budget_meets_the_exact_pickup_variance(balanced):
    # The walks draw c * r_max / max(delta, p[s]) instead of c * r_max /
    # delta. Over 400 seeds per pair, the mean squared error over the exact
    # variance of that many pickups, Var(r[V]) / w with V ~ pi_s, is 1 when
    # the estimator draws w walks (0.90-1.12 on five blocks of 400 seeds)
    # and about 4 when it draws a quarter of them. Under use_theorem_c the
    # (eps, delta, p_fail) contract holds too.
    g = pw.parse_edge_lines(cli.generate_synthetic("power-law", 200, seed=4), undirected=True)
    params = pw.PprParams(delta=1e-3, r_max=0.1, use_theorem_c=True)
    c = params.effective_c()
    ppr = pw.exact_ppr_matrix(g, params.alpha)
    dist = np.zeros(g.n)
    dist[[7, 2, 150]] = [0.5, 0.25, 0.25]
    n_seeds = 400
    margin = n_seeds * params.p_fail + 3 * math.sqrt(n_seeds * params.p_fail * (1 - params.p_fail))
    for s, t in ((1, 1), (150, 150), (7, 2), (7, 0), (dist, 2)):
        if balanced:
            pr = pw.reverse_push_balanced(g, t, params.alpha, params.delta, c, _SOURCE_AWARE_WTC)
            r_max = pr.achieved_rmax
        else:
            pr = pw.reverse_push(g, t, params.r_max, params.alpha)
            r_max = params.r_max
        source = dist if isinstance(s, np.ndarray) else np.eye(g.n)[s]
        pi = source @ ppr
        p_hat = sum(source[v] * x for v, x in dict(pr.estimates).items())
        r = np.zeros(g.n)
        r[list(dict(pr.residuals))] = list(dict(pr.residuals).values())
        var = pi @ r**2 - (pi @ r) ** 2
        assert p_hat > params.delta and var > 0.0
        w = math.ceil(c * r_max / max(params.delta, p_hat))
        assert w < pw.num_walks(params, r_max) / 20
        errors = np.empty(n_seeds)
        for seed in range(n_seeds):
            if balanced:
                est = pw.estimate_ppr_balanced(g, s, t, params, _SOURCE_AWARE_WTC, seed=seed)
            else:
                est = pw.estimate_ppr(g, s, t, params, seed=seed)
            assert est.walks_used == w
            errors[seed] = est.value - pi[t]
        assert 0.7 <= np.mean(errors**2) / (var / w) <= 1.4, (s, t)
        violations = np.count_nonzero(np.abs(errors) > params.epsilon * max(pi[t], params.delta))
        assert violations <= margin


def test_guarantee_floor_warns():
    g = two_cycle()
    params = pw.PprParams(delta=0.2, alpha=0.2, epsilon=0.5, r_max=1e-4)
    floor = params.guarantee_floor()
    assert params.r_max <= floor
    with pytest.warns(UserWarning):
        pw.estimate_ppr(g, 0, 1, params, seed=1)


def test_theorem_constant_is_larger():
    loose = pw.PprParams(delta=0.01)
    strict = pw.PprParams(delta=0.01, use_theorem_c=True)
    assert strict.effective_c() == pytest.approx(
        (3 / 0.25) * math.log(2 / 0.1))
    assert strict.effective_c() > loose.effective_c()


def test_monte_carlo_self_loop():
    g = pw.from_edges([(0, 0, 1.0)], n=1)
    est = pw.monte_carlo_ppr(g, 0, 0, pw.PprParams(delta=0.1), walks=10)
    assert est.value == 1.0
    assert est.r_max_used == math.inf


def test_monte_carlo_rejects_zero_walks():
    g = two_cycle()
    with pytest.raises(ValueError):
        pw.monte_carlo_ppr(g, 0, 0, pw.PprParams(delta=0.1), walks=0)


def test_delta_choice_two_cycle():
    g = two_cycle()
    assert pw.choose_delta_from_target(g, 0, 0.2) == pytest.approx(0.5)
    assert pw.choose_delta_from_target(g, 1, 0.2) == pytest.approx(0.5)


def test_delta_choice_floors_at_inverse_n():
    edges = [(0, 1, 1.0), (1, 0, 1.0), (2, 0, 1.0), (3, 0, 1.0), (4, 0, 1.0)]
    g = pw.apply_sink_convention(pw.from_edges(edges, n=5))
    pr = pw.exact_global_pagerank(g, 0.2)
    cold = int(np.argmin(pr))
    assert pr[cold] < 1 / g.n
    assert pw.choose_delta_from_target(g, cold, 0.2) == pytest.approx(1 / g.n)


def test_delta_choice_single_node():
    g = pw.from_edges([(0, 0, 1.0)], n=1)
    assert pw.choose_delta_from_target(g, 0, 0.2) == pytest.approx(1.0)


def test_estimate_accuracy_small_graph(rng):
    g = two_cycle()
    pi = pw.exact_ppr(g, 0, 0.2)
    params = pw.PprParams(delta=0.05, alpha=0.2, c=7.0)
    vals = [pw.estimate_ppr(g, 0, 1, params, seed=k).value for k in range(200)]
    se = np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert abs(np.mean(vals) - pi[1]) < 3 * se + 1e-12

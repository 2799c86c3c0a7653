"""Layered fixed-length estimator, diffusion weighting, first-passage mode."""

import dataclasses
import math

import numpy as np
import pytest

import pushwalk as pw
from pushwalk import multistep
from pushwalk.cli import generate_synthetic
from pushwalk.multistep import _ladder
from pushwalk.sampling import WalkConfig, random_walk_path, source_of
from conftest import rand_graph, two_cycle


def test_ladder_trace_on_two_cycle():
    g = two_cycle()
    estimates, residuals = _ladder(g, 1, 3, 0.5, False)
    # each level pushes the lone unit residual; the top level banks it
    assert [dict(p) for p in estimates] == [{1: 1.0}, {0: 1.0}, {1: 1.0}, {0: 1.0}]
    assert not any(residuals)


def test_ladder_invariant_random_thresholds(rng):
    for _ in range(6):
        g = rand_graph(rng, n_max=20)
        t = int(rng.integers(g.n))
        ell_max = int(rng.integers(2, 5))
        # from 10^0.2 > 1, where nothing pushes, down to deep ladders
        eps_r = 10.0 ** rng.uniform(-4.0, 0.2)
        estimates, residuals = _ladder(g, t, ell_max, eps_r, False)
        W = pw.transition_matrix(g)
        for s in range(g.n):
            s_vec = np.zeros(g.n)
            s_vec[s] = 1.0
            powers = [s_vec]
            for _ in range(ell_max):
                powers.append(powers[-1] @ W)
            for ell in range(ell_max + 1):
                truth = powers[ell][t]
                recon = sum(s_vec[v] * pv for v, pv in estimates[ell].items())
                for k in range(ell + 1):
                    for v, rv in residuals[ell - k].items():
                        recon += powers[k][v] * rv
                assert abs(truth - recon) < 1e-10


def test_initial_state_invariant_is_indicator():
    g = two_cycle()
    estimates, residuals = _ladder(g, 1, 2, 1.0, False)
    assert not any(estimates)
    assert [dict(r) for r in residuals] == [{1: 1.0}, {}, {}]
    # <s, p^0> + <s W^0, r^0> = s[t]
    for s in (0, 1):
        recon = estimates[0].get(s, 0.0) + residuals[0].get(s, 0.0)
        assert recon == (1.0 if s == 1 else 0.0)


def test_two_cycle_level_one_estimate():
    g = two_cycle()
    params = pw.MstpParams(ell_max=3, delta=0.01, eps_r=0.005)
    est = pw.estimate_mstp(g, 0, 1, params, seed=3)
    assert abs(est[0] - 1.0) <= 0.5


def test_degenerate_thresholds_are_pure_monte_carlo():
    g = two_cycle()
    params = pw.MstpParams(ell_max=4, delta=2.0, eps_r=2.0)
    est = pw.estimate_mstp(g, 0, 1, params, seed=5)
    # no reverse mass beyond the seed residual; odd levels only
    assert est[1] == 0.0 and est[3] == 0.0


def test_ensemble_unbiased_per_level(rng):
    g = rand_graph(rng, n_max=8, directed=True)
    W = pw.transition_matrix(g)
    s, t = 0, int(rng.integers(g.n))
    params = pw.MstpParams(ell_max=4, delta=0.05)
    runs = np.array([pw.estimate_mstp(g, s, t, params, seed=k)
                     for k in range(300)])
    s_vec = np.zeros(g.n)
    s_vec[s] = 1.0
    for ell in range(1, 5):
        s_vec = s_vec @ W
        truth = s_vec[t]
        se = runs[:, ell - 1].std(ddof=1) / math.sqrt(len(runs))
        assert abs(runs[:, ell - 1].mean() - truth) <= 3 * se + 1e-12


def _heat_truth(g, s, t, hk):
    """Dense truncated heat score sum_{l<=ell_max} w_l P[X_l = t | X_0 = s]."""
    W = pw.transition_matrix(g)
    weights, _ = pw.poisson_weights(hk.t_param, hk.ell_max)
    vec = np.zeros(g.n)
    vec[s] = 1.0
    truth = weights[0] * vec[t]
    for ell in range(1, hk.ell_max + 1):
        vec = vec @ W
        truth += weights[ell] * vec[t]
    return float(truth)


def test_heat_kernel_ensemble_unbiased(rng):
    g = rand_graph(rng, n_max=8, directed=True)
    s, t = 0, int(rng.integers(g.n))
    hk = pw.HeatKernelParams(1.5)
    params = pw.MstpParams(ell_max=hk.ell_max, delta=0.05)
    runs = np.array([pw.estimate_heat_kernel(g, s, t, hk, params, seed=k)
                     for k in range(300)])
    se = runs.std(ddof=1) / math.sqrt(len(runs))
    assert se > 0.0  # the paths, not the ladder alone, shape the score
    assert abs(runs.mean() - _heat_truth(g, s, t, hk)) <= 3 * se + 1e-12


def test_heat_kernel_envelope_at_theorem_budget():
    # undirected, so paths meet the residual the ladder leaves; eps_r 0.05
    # leaves more of it than the default 0.01 would
    g = pw.parse_edge_lines(generate_synthetic("power-law", 100, seed=7), undirected=True)
    hk = pw.HeatKernelParams(3.0)
    weights, _ = pw.poisson_weights(hk.t_param, hk.ell_max)
    params = pw.MstpParams(ell_max=hk.ell_max, delta=4.0 / g.n, eps_r=0.05,
                           use_theorem_c=True)
    rng = np.random.default_rng(31)
    n_runs = 40
    violations = 0
    for j in range(n_runs):
        s, t = (int(v) for v in rng.integers(g.n, size=2))
        est = pw.estimate_heat_kernel(g, s, t, hk, params, seed=900 + j)
        estimates, _ = _ladder(g, t, hk.ell_max, params.eps_r, False)
        pushed = weights[0] * (s == t) + sum(
            weights[ell] * estimates[ell].get(s, 0.0) for ell in range(1, hk.ell_max + 1))
        assert abs(est - pushed) > 1e-9  # the sampled term is nonzero
        truth = _heat_truth(g, s, t, hk)
        violations += abs(est - truth) > params.epsilon * max(truth, params.delta)
    assert violations / n_runs <= params.p_fail


def _pickup_variances(W, s, levels, ell_max):
    """Exact variance of one path's pickup sum_{k=0..ell} r^{ell-k}[V_k], for
    ell = 1..ell_max, over fixed-length walks V from node s. With f_k the
    dense level r^{ell-k}, E[X^2] = sum_k mu_k . (f_k^2 + 2 f_k * G_k), where
    mu_k is the walk's law at step k and G_k = W (f_{k+1} + G_{k+1})."""
    n = W.shape[0]
    dense = np.zeros((len(levels), n))
    for i, level in enumerate(levels):
        dense[i, list(level)] = list(level.values())
    mu = np.zeros((ell_max + 1, n))
    mu[0, s] = 1.0
    for k in range(ell_max):
        mu[k + 1] = mu[k] @ W
    var = np.empty(ell_max)
    for ell in range(1, ell_max + 1):
        after = np.zeros(n)
        mean = second = 0.0
        for k in range(ell, -1, -1):
            f = dense[ell - k]
            mean += mu[k] @ f
            second += mu[k] @ (f * f + 2.0 * f * after)
            after = W @ (f + after)
        var[ell - 1] = second - mean**2
    return var


def test_mstp_envelope_at_theorem_budget_on_the_undirected_load():
    # Criterion 5's per-length envelope, drawn as it draws, on the undirected
    # load of its graph: there the ladder leaves residual that the paths
    # meet, so every run's sampled term is nonzero (on the directed load no
    # run's is). The theorem budget keeps every error far inside the
    # envelope: with num_paths() // 20 paths it still holds in all 40 runs.
    # So the runs' squared errors are also checked against the exact
    # variance of num_paths() paths: their mean is 1 when estimate_mstp
    # draws its budget, and k when it draws 1/k of it.
    g = pw.parse_edge_lines(generate_synthetic("power-law", 100, seed=7), undirected=True)
    rng = np.random.default_rng(23)
    delta = 4.0 / g.n
    W = pw.transition_matrix(g)
    params = pw.MstpParams(ell_max=20, delta=delta, epsilon=0.5, p_fail=0.1,
                           use_theorem_c=True)
    n_runs = 40
    violations = 0
    z2 = []
    for j in range(n_runs):
        s = int(rng.integers(g.n))
        t = int(rng.integers(g.n))
        est = pw.estimate_mstp(g, s, t, params, seed=40 + j)
        estimates, levels = _ladder(g, t, params.ell_max, params.effective_eps_r(), False)
        pushed = [estimates[ell].get(s, 0.0) for ell in range(1, params.ell_max + 1)]
        assert np.abs(est - pushed).max() > 1e-9  # the sampled term is nonzero
        vec = np.zeros(g.n)
        vec[s] = 1.0
        truth = np.empty(params.ell_max)
        for ell in range(params.ell_max):
            vec = vec @ W
            truth[ell] = vec[t]
        violations += bool((np.abs(est - truth) > np.maximum(params.epsilon * truth, delta)).any())
        var = _pickup_variances(W, s, levels, params.ell_max) / params.num_paths()
        seen = var > 1e-18
        z2.append(float(np.mean((est - truth)[seen] ** 2 / var[seen])))
    assert violations / n_runs <= params.p_fail
    assert 0.7 <= np.mean(z2) <= 1.4


def _heat_pickup_moments(W, s, levels, weights):
    """Exact mean and variance of one path's heat pickup X = sum_k a_k[V_k],
    a_k[v] = sum_i w_{k+i} r^i[v], over fixed-length walks V from node s.
    Backwards from the top position, h_k = a_k + W h_{k+1} is the mean and
    q_k = a_k^2 + 2 a_k (W h_{k+1}) + W q_{k+1} the second moment of the
    pickups from position k on."""
    ell_max = len(weights) - 1
    dense = np.zeros((ell_max + 1, W.shape[0]))
    for i, level in enumerate(levels):
        dense[i, list(level)] = list(level.values())
    h = q = np.zeros(W.shape[0])
    for k in range(ell_max, -1, -1):
        a = weights[k:] @ dense[: ell_max + 1 - k]
        ahead = W @ h
        q = a * a + 2.0 * a * ahead + W @ q
        h = a + ahead
    return h[s], q[s] - h[s] ** 2


def test_heat_kernel_paths_meet_the_exact_pickup_variance():
    # The heat estimate's error is the mean of n_f path pickups minus their
    # mean, so over many seeds its mean square is Var(X) / n_f when the
    # estimator draws n_f = ceil(c * R * eps_r / delta) paths: 0.91-1.07 on
    # five blocks of 250 seeds per pair, and about 10 with a tenth of the
    # paths. On this undirected graph at eps_r 0.1 the sampled term is a
    # third of the first pair's score and all of the others'.
    g = pw.parse_edge_lines(generate_synthetic("power-law", 60, seed=3), undirected=True)
    W = pw.transition_matrix(g)
    hk = pw.HeatKernelParams(3.0)
    weights, _ = pw.poisson_weights(hk.t_param, hk.ell_max)
    params = pw.MstpParams(ell_max=hk.ell_max, delta=0.02, eps_r=0.1)
    reach = float(weights[1:] @ np.arange(2, hk.ell_max + 2))
    n_f = math.ceil(params.c * reach * params.eps_r / params.delta)
    assert n_f == 139
    z2 = []
    for s, t in ((0, 1), (5, 9), (17, 40), (2, 30)):
        _, levels = _ladder(g, t, hk.ell_max, params.eps_r, False)
        mean, var = _heat_pickup_moments(W, s, levels, weights)
        truth = _heat_truth(g, s, t, hk)
        assert mean >= truth / 3 and var > 0.0
        for seed in range(250):
            err = pw.estimate_heat_kernel(g, s, t, hk, params, seed=seed) - truth
            z2.append(err**2 / (var / n_f))
    assert 0.7 <= np.mean(z2) <= 1.4


@pytest.mark.parametrize("use_theorem_c, heat, per_horizon", [
    (False, 523, 2646),
    (True, 1953, 19771),
])
def test_heat_kernel_path_budget_is_one_score(use_theorem_c, heat, per_horizon):
    # c * R * eps_r / delta with R = sum_{l>=1} w_l (l+1) = 3.95 at t = 3,
    # against c * ell_max * eps_r / delta with ell_max = 20
    hk = pw.HeatKernelParams(3.0)
    params = pw.MstpParams(ell_max=hk.ell_max, delta=4e-4, use_theorem_c=use_theorem_c)
    assert pw.heat_kernel_paths(hk, params) == heat
    assert params.num_paths() == per_horizon


def test_heat_kernel_draws_its_own_budget(monkeypatch):
    drawn = []
    real = multistep.random_walk_path

    def counting(g, starts, *args, **kwargs):
        drawn.append(len(starts))
        return real(g, starts, *args, **kwargs)

    monkeypatch.setattr(multistep, "random_walk_path", counting)
    g = _pinned_graphs()["undirected"]
    hk = pw.HeatKernelParams(3.0)
    params = pw.MstpParams(ell_max=hk.ell_max, delta=0.01)
    pw.estimate_heat_kernel(g, 0, 4, hk, params, seed=1)
    pw.estimate_heat_kernel(g, 0, 4, hk, dataclasses.replace(params, ell_max=3), seed=1)
    assert drawn == [pw.heat_kernel_paths(hk, params)] * 2


@pytest.mark.parametrize("make", [
    lambda: pw.MstpParams(ell_max=2.5, delta=0.01),
    lambda: pw.MstpParams(ell_max=True, delta=0.01),
    lambda: pw.MstpParams(ell_max=0, delta=0.01),
    lambda: pw.HeatKernelParams(3.0, 25.5),
    lambda: pw.HeatKernelParams(3.0, True),
    lambda: pw.HeatKernelParams(1e-12, 0),
], ids=["mstp-float", "mstp-bool", "mstp-zero", "heat-float", "heat-bool", "heat-zero"])
def test_params_reject_bad_ell_max(make):
    with pytest.raises(ValueError, match="ell_max must be"):
        make()


def test_params_take_numpy_integer_ell_max():
    assert pw.MstpParams(ell_max=np.int64(3), delta=0.01).num_paths() == \
        pw.MstpParams(ell_max=3, delta=0.01).num_paths()


def test_heat_kernel_default_horizon_is_at_least_one():
    # round(t + 10 sqrt(t)) is 0 here; its weight tail is already ~1e-24
    assert pw.HeatKernelParams(1e-12).ell_max == 1


def test_poisson_truncation_point():
    hk = pw.HeatKernelParams(t_param=5.0)
    assert hk.ell_max == 27


def test_poisson_weights_cover_mass():
    wts, tail = pw.poisson_weights(5.0, 27)
    assert wts.sum() >= 1 - 1e-12
    assert tail <= 1e-12


@pytest.mark.parametrize("t_param", [0.5, 3, 50, 700, 745, 800, 2000])
def test_poisson_weights_sum_to_one(t_param):
    # e^{-t} is subnormal beyond t = 708, where a recurrence from it loses mass
    hk = pw.HeatKernelParams(t_param)
    wts, tail = pw.poisson_weights(t_param, hk.ell_max)
    assert abs(wts.sum() - 1.0) <= 1e-9
    assert tail <= 1e-9


@pytest.mark.parametrize("t_param", [0.5, 3, 50])
def test_poisson_weights_match_recurrence(t_param):
    ell_max = int(t_param + 10 * math.sqrt(t_param)) + 10
    wts, _ = pw.poisson_weights(t_param, ell_max)
    rec = [math.exp(-t_param)]
    for ell in range(1, ell_max + 1):
        rec.append(rec[-1] * t_param / ell)
    np.testing.assert_allclose(wts, rec, rtol=1e-12, atol=0.0)


def test_heat_kernel_self_loop_is_one():
    g = pw.from_edges([(0, 0, 1.0)], n=1)
    hk = pw.HeatKernelParams(t_param=5.0)
    val = pw.estimate_heat_kernel(g, 0, 0, hk, seed=1)
    assert val == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("field", ["delta", "c", "eps_r", "t_param"])
def test_params_reject_non_finite_values(field, value):
    with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
        if field == "t_param":
            pw.HeatKernelParams(t_param=value)
        else:
            pw.MstpParams(**{"ell_max": 3, "delta": 0.01, field: value})


def test_heat_kernel_rejects_small_truncation():
    with pytest.raises(ValueError, match="tail"):
        pw.HeatKernelParams(t_param=5.0, ell_max=6)


def test_first_passage_two_cycle_exact():
    g = two_cycle()
    params = pw.MstpParams(ell_max=5, delta=0.01, eps_r=0.001)
    est = pw.estimate_truncated_hitting(g, 0, 1, params, seed=2)
    assert est[0] == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(est[1:], 0.0, atol=1e-9)


def test_first_passage_self_loop_return():
    g = pw.from_edges([(0, 0, 1.0)], n=1)
    params = pw.MstpParams(ell_max=4, delta=0.01, eps_r=0.001)
    est = pw.estimate_truncated_hitting(g, 0, 0, params, seed=2)
    oracle = pw.exact_first_passage(g, 0, 0, 4)
    assert np.allclose(est, oracle, atol=1e-9)


def test_first_passage_unreachable_all_zero():
    g = pw.apply_sink_convention(
        pw.from_edges([(0, 0, 1.0), (1, 1, 1.0)], n=2))
    params = pw.MstpParams(ell_max=4, delta=0.05)
    est = pw.estimate_truncated_hitting(g, 0, 1, params, seed=2)
    assert not est.any()


def test_first_passage_ensemble_unbiased(rng):
    g = rand_graph(rng, n_max=7, directed=True)
    s, t = 0, g.n - 1
    oracle = pw.exact_first_passage(g, s, t, 4)
    params = pw.MstpParams(ell_max=4, delta=0.2)
    runs = np.array([pw.estimate_truncated_hitting(g, s, t, params, seed=k)
                     for k in range(300)])
    for ell in range(4):
        se = runs[:, ell].std(ddof=1) / math.sqrt(len(runs))
        assert abs(runs[:, ell].mean() - oracle[ell]) <= 3 * se + 1e-12


def _pickups_by_loop(g, s, t, params, seed, first_arrival):
    """The estimators' output recomputed by plain loops over the same paths:
    for horizon ell, each path adds sum_{k=0..ell} r^{ell-k}[V_k], stopping
    in first-arrival mode at its first visit to t after time zero, which
    only counts (as r^0[t]) when it is at ell itself."""
    src = source_of(g, s)
    estimates, residuals = _ladder(g, t, params.ell_max, params.effective_eps_r(),
                                   first_arrival)
    cfg = WalkConfig(alpha=0.5, seed=seed)
    rng = cfg.stream()
    n_f = params.num_paths()
    paths = random_walk_path(g, src.starts(rng, n_f), cfg,
                             fixed_len=params.ell_max, rng=rng).tolist()
    out = []
    for ell in range(1, params.ell_max + 1):
        total = 0.0
        for path in paths:
            for k in range(ell + 1):
                if first_arrival and k >= 1 and path[k] == t:
                    if k == ell:
                        total += residuals[0].get(t, 0.0)
                    break
                total += residuals[ell - k].get(path[k], 0.0)
        out.append(src.dot(estimates[ell]) + total / n_f)
    return out


@pytest.mark.parametrize("first_arrival", [False, True])
@pytest.mark.parametrize("s, t, eps_r", [
    (0, 2, None),                   # node source, eps_r 0.085
    ({0: 0.25, 3: 0.75}, 2, None),  # distribution source
    (1, 1, None),                   # s == t
    (0, 2, 1.0),                    # eps_r >= 1: nothing pushes, r^0[t] = 1
    (1, 1, 2.0),
])
@pytest.mark.parametrize("kind", ["undirected", "directed"])
def test_pickups_sum_every_position(kind, s, t, eps_r, first_arrival):
    g = _pinned_graphs()[kind]
    params = pw.MstpParams(ell_max=6, delta=0.05, eps_r=eps_r)
    estimator = pw.estimate_truncated_hitting if first_arrival else pw.estimate_mstp
    got = estimator(g, s, t, params, seed=7)
    want = _pickups_by_loop(g, s, t, params, 7, first_arrival)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def _pinned_graphs():
    # a 12-node ring with weighted chords, and a 9-node directed graph whose
    # node 8 has no out-edges, so the sink convention adds node 9
    ring = pw.from_edges(
        [(v, (v + 1) % 12, 1.0) for v in range(12)]
        + [(v, (v + 5) % 12, 1.0 + v % 3) for v in range(0, 12, 2)],
        n=12, undirected=True)
    directed = pw.apply_sink_convention(pw.from_edges(
        [(v, (v + 1) % 8, 1.0) for v in range(8)]
        + [(v, (3 * v + 2) % 9, 2.0) for v in range(1, 8, 2)],
        n=9))
    return {"undirected": ring, "directed": directed}


# float.hex of each estimator's output at fixed seeds; ell_max 6 and
# delta 0.05 give eps_r 0.085, which leaves residual on several levels, so
# both the ladder and the path pickups shape these numbers.
_PINNED = {
    "undirected": {
        "mstp_node": ['0x0.0p+0', '0x1.1111111111111p-4', '0x0.0p+0',
                      '0x1.399fdb2e4d80dp-3', '0x0.0p+0', '0x1.84f7a224fd8d0p-3'],
        "mstp_dist": ['0x1.8000000000000p-3', '0x1.cd85689039b0bp-7',
                      '0x1.20a1884aff475p-3', '0x1.175ef46b9938bp-5',
                      '0x1.17b1e91ebe3a4p-3', '0x1.90a022fc5df10p-5'],
        "hitting": ['0x0.0p+0', '0x1.1111111111111p-4', '0x0.0p+0',
                    '0x1.154dbe6e94451p-3', '0x0.0p+0', '0x1.000f03cb495e5p-3'],
        "hitting_return": ['0x0.0p+0', '0x1.ddddddddddddep-2', '0x0.0p+0',
                           '0x1.80c8a99cc864cp-4', '0x0.0p+0', '0x1.ad2820b0ef95dp-5'],
        "heat": ['0x1.23644d158a140p-5'],
    },
    "directed": {
        "mstp_node": ['0x0.0p+0', '0x1.5555555555555p-2', '0x0.0p+0',
                      '0x1.c71c71c71c71cp-3', '0x0.0p+0', '0x1.2f684bda12f68p-3'],
        "mstp_dist": ['0x1.0000000000000p-1', '0x1.5555555555555p-4',
                      '0x1.5555555555555p-2', '0x1.c71c71c71c71cp-5',
                      '0x1.c71c71c71c71cp-3', '0x1.2f684bda12f68p-5'],
        "hitting": ['0x0.0p+0', '0x1.5555555555555p-2', '0x0.0p+0',
                    '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
        "hitting_return": ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
                           '0x0.0p+0', '0x1.2f684bda12f68p-4', '0x0.0p+0'],
        "heat": ['0x1.6856f76cc35e8p-8'],
    },
}


@pytest.mark.parametrize("kind", sorted(_PINNED))
def test_multistep_outputs_are_pinned(kind):
    g = _pinned_graphs()[kind]
    params = pw.MstpParams(ell_max=6, delta=0.05)
    hk = pw.HeatKernelParams(t_param=1.5)
    got = {
        "mstp_node": pw.estimate_mstp(g, 0, 2, params, seed=11),
        "mstp_dist": pw.estimate_mstp(g, {0: 0.25, 3: 0.75}, 2, params, seed=12),
        "hitting": pw.estimate_truncated_hitting(g, 0, 2, params, seed=13),
        "hitting_return": pw.estimate_truncated_hitting(g, 1, 1, params, seed=14),
        "heat": [pw.estimate_heat_kernel(g, 0, 4, hk, params, seed=15)],
    }
    assert {name: [float(x).hex() for x in xs] for name, xs in got.items()} == _PINNED[kind]

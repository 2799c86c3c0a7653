"""Layered fixed-length estimator, diffusion weighting, first-passage mode."""

import math

import numpy as np
import pytest

import pushwalk as pw
from pushwalk.multistep import LayeredReverseState
from conftest import rand_graph, two_cycle


def test_single_push_trace_on_two_cycle():
    g = two_cycle()
    state = LayeredReverseState.initial(3, 1)
    pw.reverse_push_mstp(state, g, 1, 0)
    assert dict(state.estimates[0]) == {1: 1.0}
    assert dict(state.residuals[1]) == {0: 1.0}


def test_zero_residual_push_is_noop():
    g = two_cycle()
    state = LayeredReverseState.initial(3, 1)
    before = [dict(sv) for sv in state.residuals]
    pw.reverse_push_mstp(state, g, 0, 2)
    assert [dict(sv) for sv in state.residuals] == before


def test_push_level_bounds_checked():
    g = two_cycle()
    state = LayeredReverseState.initial(3, 1)
    with pytest.raises(ValueError):
        pw.reverse_push_mstp(state, g, 1, 3)


def test_layered_invariant_random_push_sequences(rng):
    for _ in range(6):
        g = rand_graph(rng, n_max=20)
        t = int(rng.integers(g.n))
        ell_max = int(rng.integers(2, 5))
        state = LayeredReverseState.initial(ell_max, t)
        for _ in range(int(rng.integers(1, 30))):
            lvl = int(rng.integers(ell_max))
            nodes = list(state.residuals[lvl])
            if not nodes:
                continue
            v = nodes[int(rng.integers(len(nodes)))]
            pw.reverse_push_mstp(state, g, v, lvl)
        W = pw.transition_matrix(g)
        for s in range(g.n):
            s_vec = np.zeros(g.n)
            s_vec[s] = 1.0
            powers = [s_vec]
            for _ in range(ell_max):
                powers.append(powers[-1] @ W)
            for ell in range(ell_max + 1):
                truth = powers[ell][t]
                recon = sum(s_vec[v] * pv
                            for v, pv in state.estimates[ell].items())
                for k in range(ell + 1):
                    for v, rv in state.residuals[ell - k].items():
                        recon += powers[k][v] * rv
                assert abs(truth - recon) < 1e-10


def test_initial_state_invariant_is_indicator():
    g = two_cycle()
    state = LayeredReverseState.initial(2, 1)
    # <s, p^0> + <s W^0, r^0> = s[t]
    for s in (0, 1):
        recon = state.estimates[0].get(s, 0.0) + state.residuals[0].get(s, 0.0)
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


def test_poisson_truncation_point():
    hk = pw.HeatKernelParams(t_param=5.0)
    assert hk.ell_max == 27


def test_poisson_weights_cover_mass():
    wts, tail = pw.poisson_weights(5.0, 27)
    assert wts.sum() >= 1 - 1e-12
    assert tail <= 1e-12


def test_heat_kernel_self_loop_is_one():
    g = pw.from_edges([(0, 0, 1.0)], n=1)
    hk = pw.HeatKernelParams(t_param=5.0)
    val = pw.estimate_heat_kernel(g, 0, 0, hk, seed=1)
    assert val == pytest.approx(1.0, abs=1e-9)


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

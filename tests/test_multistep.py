"""Layered fixed-length estimator, diffusion weighting, first-passage mode."""

import math

import numpy as np
import pytest

import pushwalk as pw
from pushwalk.multistep import _ladder
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
        "mstp_node": ['0x0.0p+0', '0x1.431095fe8ec87p-4', '0x0.0p+0',
                      '0x1.493fb4b884ca2p-3', '0x0.0p+0', '0x1.8721756f4438ap-3'],
        "mstp_dist": ['0x1.8000000000000p-3', '0x1.713786d9c7c09p-7',
                      '0x1.226f0db38f810p-3', '0x1.1028dec95851fp-5',
                      '0x1.0945bdda3c6cbp-3', '0x1.acfd670318f42p-5'],
        "hitting": ['0x0.0p+0', '0x1.e498e0fdd62cap-5', '0x0.0p+0',
                    '0x1.ba945c1ca71bcp-4', '0x0.0p+0', '0x1.0ae29a5ffe17ap-3'],
        "hitting_return": ['0x0.0p+0', '0x1.ddddddddddddep-2', '0x0.0p+0',
                           '0x1.bdd4541cbaccfp-5', '0x0.0p+0', '0x1.d4c65403c1641p-5'],
        "heat": ['0x1.2213a5b8a4e65p-5'],
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
                           '0x0.0p+0', '0x1.33ae45b57bcb2p-4', '0x0.0p+0'],
        "heat": ['0x1.64274bb5f2a83p-8'],
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

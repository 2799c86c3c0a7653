"""Acceptance battery: one test per advertised guarantee.

Run ``pytest -v tests/test_acceptance.py`` to get a pass/fail line per
criterion.  Each test states its measured numbers via print() so a failure
shows how far off the run landed.  The tolerances here are contractual;
loosening one weakens what the package promises, so treat any red line as a
bug in the code, not in the test.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

import pushwalk as pw
from pushwalk.cli import generate_synthetic
from pushwalk.multistep import _ladder
from conftest import (
    rand_graph,
    two_cycle,
    reverse_invariant_gap,
    forward_invariant_gap,
)


def _power_law_graph(n, seed):
    return pw.parse_edge_lines(
        generate_synthetic("power-law", n, seed=seed), undirected=False
    )


def _mixed_pairs(g, n_pairs, rng, alpha=0.2):
    """Random (s, t) pairs: uniform targets alternating with popularity-drawn
    targets (global-rank mass), sources always uniform."""
    pr = pw.exact_global_pagerank(g, alpha)
    pairs = []
    for j in range(n_pairs):
        s = int(rng.integers(g.n))
        if j % 2 == 0:
            t = int(rng.integers(g.n))
        else:
            t = int(pw.weighted_draw(pr, rng, 1)[0])
        pairs.append((s, t))
    return pairs


# ---------------------------------------------------------------------------
# 1. Push invariants survive arbitrary thresholds.


def test_criterion_01_push_invariants_on_random_graphs():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        g = rand_graph(rng)
        alpha = float(rng.uniform(0.1, 0.5))
        pim = pw.exact_ppr_matrix(g, alpha)
        everyone = range(g.n)

        t = int(rng.integers(g.n))
        rres = pw.reverse_push(g, t, float(rng.uniform(0.02, 0.6)), alpha)
        worst = max(worst, reverse_invariant_gap(g, t, rres, pim, everyone))

        s = int(rng.integers(g.n))
        fres = pw.forward_push(g, s, float(rng.uniform(0.02, 0.6)), alpha)
        worst = max(worst, forward_invariant_gap(g, s, fres, pim, everyone))

        # Layered fixed-length ladder at a random threshold, from 10^0.2 > 1
        # (nothing pushes) down to 1e-4 (deep ladders), checked against
        # dense matrix powers.
        ell_max = int(rng.integers(2, 6))
        eps_r = 10.0 ** rng.uniform(-4.0, 0.2)
        estimates, residuals = _ladder(g, t, ell_max, eps_r, False)
        W = pw.transition_matrix(g)
        powers = [np.eye(g.n)]
        for _ in range(ell_max):
            powers.append(powers[-1] @ W)
        for ell in range(ell_max + 1):
            recon = np.zeros(g.n)
            for v, pv in estimates[ell].items():
                recon[v] += pv
            for k in range(ell + 1):
                layer = residuals[ell - k]
                if layer:
                    dense = np.zeros(g.n)
                    for v, rv in layer.items():
                        dense[v] = rv
                    recon += powers[k] @ dense
            worst = max(worst, float(np.max(np.abs(powers[ell][:, t] - recon))))
    elapsed = time.perf_counter() - start
    print(f"[1] worst invariant gap {worst:.3e} over 200 graphs,"
          f" {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 2. Mean relative error on a 500-node heavy-tailed graph.


def test_criterion_02_relative_error_on_power_law_graph():
    g = _power_law_graph(500, seed=2)
    alpha = 0.2
    delta = 4.0 / g.n
    params = pw.PprParams(delta=delta, alpha=alpha, c=7.0)
    pim = pw.exact_ppr_matrix(g, alpha)
    rng = np.random.default_rng(11)
    pairs = _mixed_pairs(g, 1000, rng, alpha)
    start = time.perf_counter()
    rels = []
    for j, (s, t) in enumerate(pairs):
        truth = float(pim[s][t])
        if truth < delta:
            continue
        est = pw.estimate_ppr(g, s, t, params, seed=5000 + j).value
        rels.append(abs(est - truth) / truth)
    elapsed = time.perf_counter() - start
    mean_rel = float(np.mean(rels))
    print(f"[2] mean relative error {mean_rel:.4f} on {len(rels)} scored"
          f" pairs, {elapsed:.1f}s")
    assert len(rels) >= 100
    assert mean_rel < 0.10
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 3. Worst-case walk budget keeps the failure rate within p_fail.


def test_criterion_03_theorem_budget_failure_rate():
    g = _power_law_graph(500, seed=2)
    alpha = 0.2
    delta = 4.0 / g.n
    params = pw.PprParams(
        delta=delta, alpha=alpha, epsilon=0.5, p_fail=0.1, use_theorem_c=True
    )
    pim = pw.exact_ppr_matrix(g, alpha)
    rng = np.random.default_rng(13)
    pairs = _mixed_pairs(g, 1000, rng, alpha)
    floor = 2.0 * math.e * delta
    failures = 0
    for j, (s, t) in enumerate(pairs):
        truth = float(pim[s][t])
        est = pw.estimate_ppr(g, s, t, params, seed=9000 + j).value
        if abs(est - truth) > max(params.epsilon * truth, floor):
            failures += 1
    rate = failures / len(pairs)
    print(f"[3] {failures}/{len(pairs)} envelope failures (rate {rate:.3f},"
          f" budget {params.p_fail})")
    assert rate <= params.p_fail


# ---------------------------------------------------------------------------
# 4. Undirected graphs: degree-scaled symmetry, then accuracy at the
#    target's natural threshold d_t / (2m).


def test_criterion_04_undirected_symmetry_and_accuracy():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(50):
        g = rand_graph(rng, directed=False)
        alpha = float(rng.uniform(0.1, 0.5))
        pim = pw.exact_ppr_matrix(g, alpha)
        d = np.array([g.degree(v) for v in range(g.n)])
        scaled = d[:, None] * pim
        worst = max(worst, float(np.max(np.abs(scaled - scaled.T))))
    print(f"[4] worst degree-scaled symmetry gap {worst:.3e}")
    assert worst <= 1e-9

    g = pw.parse_edge_lines(
        generate_synthetic("power-law", 150, seed=3), undirected=True
    )
    alpha = 0.2
    pim = pw.exact_ppr_matrix(g, alpha)
    rels = []
    for j in range(900):
        s = int(rng.integers(g.n))
        t = int(rng.integers(g.n))
        delta_t = pw.natural_delta(g, t)
        truth = float(pim[s][t])
        if truth < delta_t:
            continue
        params = pw.PprParams(delta=delta_t, alpha=alpha, c=7.0)
        est = pw.estimate_ppr_undirected(g, s, t, params, seed=300 + j).value
        rels.append(abs(est - truth) / truth)
    mean_rel = float(np.mean(rels))
    print(f"[4] mean relative error {mean_rel:.4f} on {len(rels)} scored"
          f" pairs at per-target thresholds")
    assert len(rels) >= 50
    assert mean_rel < 0.10


# ---------------------------------------------------------------------------
# 5. Fixed-length estimates: per-length envelope at the worst-case budget,
#    diffusion-weighted accuracy, and the path-budget ordering.


def test_criterion_05_multistep_envelope_diffusion_and_budget():
    g = _power_law_graph(100, seed=7)
    rng = np.random.default_rng(23)
    delta = 4.0 / g.n
    W = pw.transition_matrix(g)

    n_runs = 40
    params = pw.MstpParams(
        ell_max=20, delta=delta, epsilon=0.5, p_fail=0.1, use_theorem_c=True
    )
    violations = 0
    for j in range(n_runs):
        s = int(rng.integers(g.n))
        t = int(rng.integers(g.n))
        est = pw.estimate_mstp(g, s, t, params, seed=40 + j)
        vec = np.zeros(g.n)
        vec[s] = 1.0
        truth = np.empty(params.ell_max)
        for ell in range(params.ell_max):
            vec = vec @ W
            truth[ell] = vec[t]
        bad = np.abs(est - truth) > np.maximum(params.epsilon * truth, delta)
        violations += bool(bad.any())
    print(f"[5] {violations}/{n_runs} runs broke the per-length envelope"
          f" (budget {params.p_fail})")
    assert violations / n_runs <= params.p_fail

    hk = pw.HeatKernelParams(5.0)
    weights, _tail = pw.poisson_weights(hk.t_param, hk.ell_max)
    hk_params = pw.MstpParams(ell_max=hk.ell_max, delta=delta)
    rels = []
    tries = 0
    while len(rels) < 27 and tries < 60:
        tries += 1
        s = int(rng.integers(g.n))
        vec = np.zeros(g.n)
        vec[s] = 1.0
        acc = weights[0] * vec
        for ell in range(1, hk.ell_max + 1):
            vec = vec @ W
            acc = acc + weights[ell] * vec
        qualified = np.flatnonzero(acc >= delta)
        if qualified.size == 0:
            continue
        t = int(qualified[int(rng.integers(qualified.size))])
        est = pw.estimate_heat_kernel(g, s, t, hk, hk_params, seed=700 + tries)
        rels.append(abs(est - float(acc[t])) / float(acc[t]))
    mean_rel = float(np.mean(rels))
    print(f"[5] diffusion mean relative error {mean_rel:.4f} on"
          f" {len(rels)} pairs")
    assert len(rels) == 27
    assert mean_rel < 0.10

    mc_paths = math.ceil(3.0 * math.log(2.0 / 0.1) / (0.5**2 * delta))
    est_paths = pw.MstpParams(ell_max=20, delta=delta).num_paths()
    print(f"[5] path budgets: two-phase {est_paths} vs plain {mc_paths}")
    assert est_paths == 265
    assert mc_paths == 899
    assert est_paths < mc_paths


# ---------------------------------------------------------------------------
# 6. Search: grouped scoring identity, sampling precision@3, and exact
#    sampler marginals.


def test_criterion_06_grouped_identity_precision_and_marginals():
    rng = np.random.default_rng(29)

    # (a) one-pass grouped scoring is bit-identical to per-target dots
    for _ in range(5):
        g = rand_graph(rng, n_max=40)
        alpha = float(rng.uniform(0.1, 0.4))
        r_max = float(rng.uniform(0.05, 0.3))
        targets = sorted({int(rng.integers(g.n)) for _ in range(8)})
        s = int(rng.integers(g.n))
        vectors = {t: pw.build_reverse_vector(g, t, r_max, alpha)
                   for t in targets}
        x = pw.build_forward_vector(
            g, s, 200, pw.WalkConfig(alpha=alpha, seed=3), rng=rng
        )
        params = pw.PprParams(delta=0.01, alpha=alpha, r_max=r_max)
        direct = pw.score_targets_direct(
            g, s, targets, params, forward=x, vectors=vectors
        )
        grouped = pw.score_targets_grouped(
            x, pw.build_grouped_index(g, targets, r_max, alpha)
        )
        assert grouped == direct

    # (b) sampling search finds the truly-best targets
    g = _power_law_graph(150, seed=1)
    alpha = 0.2
    pim = pw.exact_ppr_matrix(g, alpha)
    global_pr = pw.exact_global_pagerank(g, alpha)
    w = n_samp = 10_000
    scores = []
    built = 0
    draws = 0
    while built < 20 and draws < 200:
        draws += 1
        s = int(rng.integers(g.n))
        support = [v for v in range(g.n) if pim[s][v] > 1e-9]
        if len(support) < 5:
            continue
        t_set = sorted(int(v) for v in rng.choice(support, 5, replace=False))
        built += 1
        r_max = pw.adaptive_r_max(t_set, global_pr, w, k=3, c=20.0)
        idx = pw.build_target_sampler(g, t_set, r_max, alpha)
        x = pw.build_forward_vector(
            g, s, w, pw.WalkConfig(alpha=alpha, seed=built), rng=rng
        )
        ranked = pw.sample_targets(x, idx, n_samp, rng=rng)
        top_est = {t for t, _ in ranked[:3]}
        top_true = set(sorted(t_set, key=lambda t: (-pim[s][t], t))[:3])
        scores.append(len(top_est & top_true) / 3.0)
    precision = float(np.mean(scores))
    print(f"[6] precision@3 {precision:.3f} over {built} keyword sets")
    assert built == 20
    assert precision >= 0.9

    # (c) sampler marginals are exact: binomial envelopes at a million draws
    edges = [(i, (i + 1) % 30, 1.0) for i in range(30)]
    chord_rng = np.random.default_rng(4)
    for _ in range(45):
        u = int(chord_rng.integers(30))
        v = int(chord_rng.integers(30))
        if u != v:
            edges.append((u, v, float(chord_rng.uniform(0.5, 2.0))))
    g = pw.from_edges(edges, n=30)
    t_set = sorted(int(v) for v in
                   np.random.default_rng(8).choice(30, 15, replace=False))
    r_max, alpha = 0.05, 0.2
    vectors = {t: pw.build_reverse_vector(g, t, r_max, alpha) for t in t_set}
    x = pw.build_forward_vector(g, 0, 2000, pw.WalkConfig(alpha=alpha, seed=5))
    idx = pw.build_target_sampler(g, t_set, r_max, alpha, vectors=vectors)
    exact = dict(pw.score_targets_direct(
        g, 0, t_set, pw.PprParams(delta=0.01, alpha=alpha, r_max=r_max),
        forward=x, vectors=vectors,
    ))
    total = sum(exact.values())
    n_draws = 10**6
    counts = dict(pw.sample_targets(x, idx, n_draws, seed=6))
    worst_pull = 0.0
    for t in t_set:
        p = exact[t] / total
        emp = counts.get(t, 0) / n_draws
        bound = 4.0 * math.sqrt(p * (1.0 - p) / n_draws)
        assert abs(emp - p) <= bound
        if bound > 0.0:
            worst_pull = max(worst_pull, abs(emp - p) / bound)
    print(f"[6] all {len(t_set)} marginals inside 4-sigma envelopes"
          f" (worst pull {worst_pull:.2f})")


# ---------------------------------------------------------------------------
# 7. Conditional path sampling matches exhaustive enumeration.

CHAIN_DELAY = ([(0, 1, 0.6), (0, 3, 0.4), (1, 2, 0.7), (1, 3, 0.3),
                (2, 2, 0.3), (2, 3, 0.7), (3, 3, 1.0)], 4, 0, (2,), 0.15)
THREE_CYCLE = ([(0, 1, 0.75), (0, 4, 0.25), (1, 2, 0.65), (1, 4, 0.35),
                (2, 0, 0.45), (2, 4, 0.55), (4, 4, 1.0)], 5, 0, (2,), 0.2)
TWO_TARGETS = ([(0, 1, 0.8), (0, 5, 0.2), (1, 2, 0.35), (1, 3, 0.35),
                (1, 5, 0.3), (2, 1, 0.3), (2, 5, 0.7), (3, 5, 1.0),
                (5, 5, 1.0)], 6, 0, (2, 3), 0.25)


def test_criterion_07_path_sampler_goodness_of_fit():
    n_paths = 100_000
    worst_p = 1.0
    ratios = []
    for edges, n, s, t_tuple, alpha in (CHAIN_DELAY, THREE_CYCLE, TWO_TARGETS):
        g = pw.from_edges(edges, n=n)
        targets = list(t_tuple)
        pi_t = float(sum(pw.exact_ppr(g, s, alpha)[t] for t in targets))
        exact, _tail = pw.exact_conditional_path_dist(
            g, s, targets, alpha, max_len=14
        )
        for eps_r in (1.0, 0.3, 0.05):
            state = pw.precompute_path_samplers(g, targets, eps_r, alpha)
            cfg = pw.WalkConfig(alpha=alpha, seed=int(1000 * eps_r) + n)
            walk_rng = cfg.stream()
            counts = {}
            attempts = 0
            for _ in range(n_paths):
                path, att = pw.sample_path_to_target(
                    g, s, state, cfg, rng=walk_rng, return_attempts=True
                )
                key = tuple(path)
                counts[key] = counts.get(key, 0) + 1
                attempts += att

            big = {p: q for p, q in exact.items() if q * n_paths >= 5.0}
            obs = []
            exp = []
            leftover = n_paths
            for p in sorted(big):
                c = counts.get(p, 0)
                obs.append(c)
                exp.append(big[p] * n_paths)
                leftover -= c
            obs.append(leftover)
            exp.append(n_paths * (1.0 - sum(big.values())))
            obs = np.asarray(obs, dtype=float)
            exp = np.asarray(exp, dtype=float)
            exp *= obs.sum() / exp.sum()
            pvalue = float(stats.chisquare(obs, f_exp=exp).pvalue)
            worst_p = min(worst_p, pvalue)
            assert pvalue > 0.001

            ratio = (attempts / n_paths) / (1.0 + eps_r / pi_t)
            ratios.append(ratio)
            assert 0.9 <= ratio <= 1.1
    print(f"[7] worst goodness-of-fit p-value {worst_p:.3f};"
          f" attempt ratios {min(ratios):.3f}..{max(ratios):.3f}")


# ---------------------------------------------------------------------------
# 8. Sharded serving: broker identity and shared-walk unbiasedness.


def test_criterion_08_broker_identity_and_shared_walk_bias():
    rng = np.random.default_rng(31)
    vectors = {}
    for i in range(20):
        for side in ("x", "y"):
            coords = rng.choice(60, size=int(rng.integers(3, 12)),
                                replace=False)
            vectors[(side, i)] = {
                int(c): float(rng.uniform(0.01, 1.0)) for c in coords
            }
    mismatches = 0
    for _ in range(100):
        xs = ("x", int(rng.integers(20)))
        ys = ("y", int(rng.integers(20)))
        want = pw.exact_dot(vectors[xs], vectors[ys])
        for k in (1, 2, 7, 64):
            shards = pw.shard_vectors(vectors, k)
            got = pw.broker_estimate(
                pw.BrokerQuery(target=ys, source=xs), shards
            )
            if got != want:
                mismatches += 1
    print(f"[8] {mismatches} broker mismatches over 400 sharded queries")
    assert mismatches == 0

    g = pw.parse_edge_lines(
        generate_synthetic("power-law", 20, seed=5), undirected=False
    )
    alpha, delta, d_max = 0.2, 0.05, 6.0
    pim = pw.exact_ppr_matrix(g, alpha)
    s = 0
    t = int(np.argmax(pim[s][1:]) + 1)
    truth = float(pim[s][t])
    vals = np.array([
        pw.query_shared_walks(
            g, pw.build_shared_walk_vectors(g, alpha, delta, d_max, seed=b),
            s, t,
        )
        for b in range(400)
    ])
    se = float(vals.std(ddof=1)) / math.sqrt(len(vals))
    z = (float(vals.mean()) - truth) / se
    print(f"[8] shared-walk ensemble z-score {z:.2f} over 400 builds"
          f" (truth {truth:.4f})")
    assert abs(z) <= 3.0


# ---------------------------------------------------------------------------
# 9. Closed-form budgets reproduce the reference numbers.


def test_criterion_09_closed_form_reference_numbers():
    params = pw.PprParams(delta=0.01, alpha=0.2, c=7.0, r_max=0.11)
    walks = pw.num_walks(params, 0.11)
    assert walks == 77

    model = pw.storage_model(41_000_000, 1.0 / 41_000_000)
    assert model["unshared_optimal"] == pytest.approx(1.0e12, rel=0.02)
    assert model["shared_optimal"] == pytest.approx(1.4e11, rel=0.02)

    horizon = pw.HeatKernelParams(5.0).ell_max
    assert horizon == 27
    print(f"[9] walks {walks}, storage {model['unshared_optimal']:.3e} /"
          f" {model['shared_optimal']:.3e}, horizon {horizon}")


# ---------------------------------------------------------------------------
# 10. Two-node cycle: a million walks against the closed form 5/9.


def test_criterion_10_two_cycle_closed_form():
    g = two_cycle()
    params = pw.PprParams(delta=0.01, alpha=0.2)
    est = pw.monte_carlo_ppr(g, 0, 0, params, walks=1_000_000, seed=0)
    print(f"[10] return mass {est.value:.4f} vs closed form {5.0 / 9.0:.4f}")
    assert abs(est.value - 5.0 / 9.0) <= 0.002

"""Conditioned path sampling through provenance ledgers."""

import numpy as np
import pytest

import pushwalk as pw
from pushwalk import pathsampling, push
from conftest import rand_graph, two_cycle


def _tv_paths(counts, exact, n_samples):
    """Total variation between an empirical path distribution and the oracle."""
    keys = set(counts) | set(exact)
    return 0.5 * sum(
        abs(counts.get(k, 0) / n_samples - exact.get(k, 0.0)) for k in keys
    )


def test_degenerate_threshold_runs_no_pushes():
    g = two_cycle()
    state = pw.precompute_path_samplers(g, [0, 1], 1.0, 0.2)
    assert dict(state.estimates) == {}
    assert dict(state.residuals) == {0: 1.0, 1: 1.0}
    assert state.snapshots == []


def test_single_push_ledger_trace():
    g = two_cycle()
    state = pw.precompute_path_samplers(g, [1], 0.9, 0.2)
    assert dict(state.estimates) == pytest.approx({1: 0.2})
    assert dict(state.residuals) == pytest.approx({0: 0.8})
    assert len(state.snapshots) == 1
    frozen = state.snapshots[0]
    assert frozen.owner == 1
    assert frozen.items == (None,)
    # node 0's live ledger references the frozen sampler with the handed mass
    assert state.live[0].total == pytest.approx(0.8)
    assert state.live[0].items == [frozen]
    # node 1 got a fresh, empty ledger after its push
    assert state.live[1].total == 0.0
    # settled mass at 1 is ledgered under the same frozen sampler
    assert state.estimate_provenance[1].items == [frozen]


def test_repushed_node_freezes_distinct_snapshots():
    g = two_cycle()
    state = pw.precompute_path_samplers(g, [1], 0.5, 0.2)
    owners = [snap.owner for snap in state.snapshots]
    assert owners == [1, 0, 1, 0]
    first, second = state.snapshots[0], state.snapshots[2]
    assert first is not second
    assert first.items == (None,)
    # the second freeze of node 1 references node 0's first frozen sampler
    assert second.items == (state.snapshots[1],)
    assert dict(state.estimates) == pytest.approx({1: 0.328, 0: 0.2624})
    assert dict(state.residuals) == pytest.approx({1: 0.4096})


def test_single_target_state_is_fifo_reverse_bit_for_bit(rng):
    for trial in range(12):
        g = rand_graph(rng, n_max=30)
        t = int(rng.integers(g.n))
        for eps_r in (0.3, 0.01, 1e-4):
            state = pw.precompute_path_samplers(g, [t], eps_r, 0.2)
            pr = push._fifo_reverse(g, (t,), eps_r, 0.2, None)
            assert list(state.estimates.items()) == list(pr.estimates.items())
            assert list(state.residuals.items()) == list(pr.residuals.items())
            assert len(state.snapshots) == pr.pushes_performed


def test_precompute_rejects_bad_arguments():
    g = two_cycle()
    with pytest.raises(ValueError):
        pw.precompute_path_samplers(g, [], 0.5, 0.2)
    with pytest.raises(ValueError):
        pw.precompute_path_samplers(g, [0], 0.0, 0.2)
    with pytest.raises(ValueError):
        pw.precompute_path_samplers(g, [7], 0.5, 0.2)


def test_paths_are_walks_of_the_graph(rng):
    for trial in range(4):
        g = rand_graph(rng, n_max=12, directed=True)
        edges = {(u, v) for u in range(g.n) for v, _ in g.out_adj[u]}
        s = int(rng.integers(g.n))
        reach = pw.exact_ppr(g, s, 0.25)
        # include s so pi_s(T) >= alpha and acceptance stays fast
        targets = sorted({s} | {int(v) for v in np.flatnonzero(reach > 0.02)})
        state = pw.precompute_path_samplers(g, targets, 0.2, 0.25)
        cfg = pw.WalkConfig(alpha=0.25, seed=40 + trial)
        walk_rng = np.random.default_rng(140 + trial)
        for _ in range(50):
            path, attempts = pw.sample_path_to_target(
                g, s, state, cfg, rng=walk_rng, return_attempts=True)
            assert attempts >= 1
            assert path[0] == s
            assert path[-1] in state.targets
            for u, v in zip(path, path[1:]):
                assert (u, v) in edges


def test_pure_rejection_mode_conditions_on_return():
    # eps_r = 1 disables the ledger entirely: the sampler degenerates to
    # plain rejection of unconditioned walks, still the exact law.
    g = two_cycle()
    state = pw.precompute_path_samplers(g, [0], 1.0, 0.2)
    cfg = pw.WalkConfig(alpha=0.2, seed=11)
    rng = np.random.default_rng(11)
    n = 20_000
    counts: dict[tuple, int] = {}
    for _ in range(n):
        path = tuple(pw.sample_path_to_target(g, 0, state, cfg, rng=rng))
        assert path[-1] == 0
        assert len(path) % 2 == 1  # even edge count
        counts[path] = counts.get(path, 0) + 1
    exact, tail = pw.exact_conditional_path_dist(g, 0, [0], 0.2, 40)
    assert tail < 1e-3
    assert _tv_paths(counts, exact, n) <= 0.02


def test_ledger_mode_matches_exhaustive_path_law():
    g = two_cycle()
    state = pw.precompute_path_samplers(g, [1], 0.05, 0.2)
    cfg = pw.WalkConfig(alpha=0.2, seed=12)
    rng = np.random.default_rng(12)
    n = 100_000
    counts: dict[tuple, int] = {}
    for _ in range(n):
        path = tuple(pw.sample_path_to_target(g, 0, state, cfg, rng=rng))
        assert path[-1] == 1
        assert len(path) % 2 == 0  # odd edge count
        counts[path] = counts.get(path, 0) + 1
    exact, tail = pw.exact_conditional_path_dist(g, 0, [1], 0.2, 41)
    assert tail < 1e-3
    assert _tv_paths(counts, exact, n) <= 0.01


def test_settled_branch_frequency_matches_ledgered_share():
    # P(path came from the settled ledger | accepted) = p[s] / pi_s(T).
    g = pw.from_edges(
        [(0, 1, 0.7), (0, 2, 0.3), (1, 1, 0.4), (1, 2, 0.6), (2, 2, 1.0)],
        n=3,
    )
    state = pw.precompute_path_samplers(g, [1], 0.05, 0.3)
    p_s = state.estimates.get(0, 0.0)
    pi = float(pw.exact_ppr(g, 0, 0.3)[1])
    expected = p_s / pi
    assert expected == pytest.approx(0.9216, abs=0.001)
    cfg = pw.WalkConfig(alpha=0.3, seed=13)
    rng = np.random.default_rng(13)
    n = 200_000
    settled = 0
    for _ in range(n):
        _, branch = pw.sample_path_to_target(
            g, 0, state, cfg, rng=rng, return_branch=True)
        settled += branch == "settled"
    assert settled / n == pytest.approx(expected, abs=0.01)


def test_unreachable_target_raises_before_walking(monkeypatch):
    g = pw.from_edges([(0, 0, 1.0), (1, 1, 1.0)], n=2)
    state = pw.precompute_path_samplers(g, [1], 1.0, 0.2)
    assert state.reachable == {1}

    def no_walks(*args, **kwargs):
        raise AssertionError("walked toward an unreachable target")

    monkeypatch.setattr(pathsampling, "random_walk_path", no_walks)
    with pytest.raises(pw.UnreachableTargetError):
        pw.sample_path_to_target(g, 0, state, pw.WalkConfig(alpha=0.2, seed=14))


def test_rare_target_exhausts_attempt_cap(monkeypatch):
    # 1 is reachable from 0, but a walk from 0 ends there about once in 10^9
    g = pw.from_edges([(0, 0, 1e9), (0, 1, 1.0), (1, 1, 1.0)], n=2)
    state = pw.precompute_path_samplers(g, [1], 1.0, 0.2)
    assert state.reachable == {0, 1}
    cfg = pw.WalkConfig(alpha=0.2, seed=14)
    monkeypatch.setattr(pathsampling, "ACCEPTANCE_CAP", 200)
    with pytest.raises(RuntimeError, match="200 attempts"):
        pw.sample_path_to_target(g, 0, state, cfg)


def test_walks_at_another_alpha_are_rejected():
    g = two_cycle()
    state = pw.precompute_path_samplers(g, [1], 0.05, 0.2)
    cfg = pw.WalkConfig(alpha=0.6, seed=3)
    with pytest.raises(ValueError, match="alpha"):
        pw.sample_path_to_target(g, 0, state, cfg)
    with pytest.raises(ValueError, match="alpha"):
        pw.sample_target_exact(g, 0, state, cfg)


def test_source_out_of_range_rejected():
    g = two_cycle()
    state = pw.precompute_path_samplers(g, [1], 0.5, 0.2)
    with pytest.raises(ValueError):
        pw.sample_path_to_target(g, 9, state, pw.WalkConfig(alpha=0.2, seed=0))


def test_exact_target_draws_lone_target():
    g = two_cycle()
    state = pw.precompute_path_samplers(g, [1], 0.3, 0.2)
    cfg = pw.WalkConfig(alpha=0.2, seed=15)
    rng = np.random.default_rng(15)
    draws = {pw.sample_target_exact(g, 0, state, cfg, rng=rng)
             for _ in range(100)}
    assert draws == {1}


def test_exact_target_two_to_one_split():
    # pi_0[1] = (1-alpha)*(2/3), pi_0[2] = (1-alpha)/3: exact 2:1 within T.
    g = pw.from_edges(
        [(0, 1, 2.0), (0, 2, 1.0), (1, 1, 1.0), (2, 2, 1.0)], n=3)
    state = pw.precompute_path_samplers(g, [1, 2], 0.1, 0.2)
    cfg = pw.WalkConfig(alpha=0.2, seed=16)
    rng = np.random.default_rng(16)
    n = 100_000
    counts = {1: 0, 2: 0}
    for _ in range(n):
        counts[pw.sample_target_exact(g, 0, state, cfg, rng=rng)] += 1
    assert counts[1] / counts[2] == pytest.approx(2.0, abs=0.04)


def test_exact_target_agrees_with_score_sampler():
    # Both samplers draw from (approximately) pi_s restricted to T; compare
    # each against the oracle conditional law on a graph with uneven targets.
    g = pw.from_edges(
        [(0, 1, 0.5), (0, 2, 0.3), (0, 3, 0.2), (1, 2, 1.0),
         (2, 2, 1.0), (3, 3, 1.0)],
        n=4,
    )
    targets = [2, 3]
    pi = pw.exact_ppr(g, 0, 0.2)
    total = pi[2] + pi[3]
    exact = {t: float(pi[t] / total) for t in targets}
    n = 30_000

    state = pw.precompute_path_samplers(g, targets, 0.1, 0.2)
    cfg = pw.WalkConfig(alpha=0.2, seed=17)
    rng = np.random.default_rng(17)
    counts = {t: 0 for t in targets}
    for _ in range(n):
        counts[pw.sample_target_exact(g, 0, state, cfg, rng=rng)] += 1
    tv_ledger = 0.5 * sum(
        abs(counts[t] / n - exact[t]) for t in targets)
    assert tv_ledger <= 0.01

    x = pw.build_forward_vector(g, 0, 10_000, pw.WalkConfig(alpha=0.2, seed=18))
    idx = pw.build_target_sampler(g, targets, 0.1, 0.2)
    ranked = dict(pw.sample_targets(x, idx, n, seed=19))
    tv_score = 0.5 * sum(
        abs(ranked.get(t, 0) / n - exact[t]) for t in targets)
    assert tv_score <= 0.03

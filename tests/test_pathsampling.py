"""Conditioned path sampling through provenance ledgers."""

import numpy as np
import pytest
from scipy import stats

import pushwalk as pw
from pushwalk import pathsampling, push
from pushwalk.cli import generate_synthetic
from conftest import NoDraws, rand_graph, two_cycle, weighted_five


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


def test_single_target_state_is_fifo_reverse_bit_for_bit(rng, monkeypatch):
    # the unlogged rounds, kept on dicts as the logged push keeps them
    monkeypatch.setattr(push, "_DICT_SHARE", float("inf"))
    for trial in range(12):
        g = rand_graph(rng, n_max=30)
        t = int(rng.integers(g.n))
        for eps_r in (0.3, 0.01, 1e-4):
            state = pw.precompute_path_samplers(g, [t], eps_r, 0.2)
            pr = push._fixed(g, (t,), eps_r, 0.2)
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
    for eps_r in (float("nan"), float("inf"), -0.5):
        with pytest.raises(ValueError, match="eps_r"):
            pw.precompute_path_samplers(g, [0], eps_r, 0.2)
    # node ids that int() would turn into nodes 1, 1 and 2 of a 3-node graph
    cycle3 = pw.from_edges([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)], n=3)
    for targets in ([1.5], [True], ["2"]):
        with pytest.raises(ValueError, match="not an integer node id"):
            pw.precompute_path_samplers(cycle3, targets, 0.5, 0.2)


def test_path_samplers_refuse_a_graph_of_other_size():
    def power_law(n, seed):
        return pw.parse_edge_lines(generate_synthetic("power-law", n, seed), undirected=False)

    state = pw.precompute_path_samplers(power_law(300, 0), [5], 0.3, 0.2)
    small = power_law(50, 1)
    # the state's ledgers hold steps of the 300-node graph, such as 6 -> 5
    with pytest.raises(ValueError, match="300 nodes"):
        pw.sample_path_to_target(small, 6, state, pw.WalkConfig(0.2, 1))
    g = power_law(300, 0)
    assert pw.sample_path_to_target(g, 6, state, pw.WalkConfig(0.2, 1))[-1] == 5


def test_path_samplers_refuse_a_graph_of_the_same_size():
    four, five = (pw.parse_edge_lines(generate_synthetic("power-law", 300, seed), False)
                  for seed in (4, 5))
    assert (four.n, four.m) == (five.n, five.m)
    state = pw.precompute_path_samplers(four, [0, 1], 0.3, 0.2)
    with pytest.raises(pw.GraphMismatchError, match="built for another graph"):
        pw.sample_path_to_target(five, 6, state, pw.WalkConfig(0.2, 1))
    assert pw.sample_path_to_target(four, 6, state, pw.WalkConfig(0.2, 1))[-1] in (0, 1)


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


def test_unreachable_target_raises_before_walking():
    g = pw.from_edges([(0, 0, 1.0), (1, 1, 1.0)], n=2)
    state = pw.precompute_path_samplers(g, [1], 1.0, 0.2)
    assert state.reachable == {1}
    with pytest.raises(pw.UnreachableTargetError):
        pw.sample_path_to_target(g, 0, state, pw.WalkConfig(alpha=0.2, seed=14),
                                 rng=NoDraws())


def test_rare_target_exhausts_attempt_cap(monkeypatch):
    # 1 is reachable from 0, but a walk from 0 ends there about once in 10^9
    g = pw.from_edges([(0, 0, 1e9), (0, 1, 1.0), (1, 1, 1.0)], n=2)
    state = pw.precompute_path_samplers(g, [1], 1.0, 0.2)
    assert state.reachable == {0, 1}
    cfg = pw.WalkConfig(alpha=0.2, seed=14)
    monkeypatch.setattr(pathsampling, "ACCEPTANCE_CAP", 200)
    with pytest.raises(RuntimeError, match="200 attempts"):
        pw.sample_path_to_target(g, 0, state, cfg)


@pytest.mark.parametrize("block", [1, 3])
def test_path_law_holds_when_blocks_refill_inside_walks_and_descents(monkeypatch, block):
    # With blocks of 1 or 3 variates, refills land between a walk's length
    # variate and its edge variates, between steps and between ledger
    # levels; the law of the paths must not see them, on a graph whose walks
    # run both step rules.
    monkeypatch.setattr(pathsampling, "_BLOCK", block)
    g = weighted_five()
    targets = [1, 4]
    state = pw.precompute_path_samplers(g, targets, 0.15, 0.2)
    cfg = pw.WalkConfig(alpha=0.2, seed=50 + block)
    n = 20_000
    rng = cfg.stream()
    counts: dict[tuple, int] = {}
    branches = {"settled": 0, "walk": 0}
    for _ in range(n):
        path, branch = pw.sample_path_to_target(g, 0, state, cfg, rng=rng, return_branch=True)
        counts[tuple(path)] = counts.get(tuple(path), 0) + 1
        branches[branch] += 1
    assert min(branches.values()) > n // 10  # both branches run
    exact, _tail = pw.exact_conditional_path_dist(g, 0, targets, 0.2, 12)
    big = sorted(p for p, q in exact.items() if q * n >= 5.0)
    obs = np.array([counts.get(p, 0) for p in big] + [n - sum(counts.get(p, 0) for p in big)])
    exp = np.array([exact[p] * n for p in big] + [n * (1.0 - sum(exact[p] for p in big))])
    assert stats.chisquare(obs, f_exp=exp).pvalue > 0.001

    again = cfg.stream()
    first = [pw.sample_path_to_target(g, 0, state, cfg, rng=again) for _ in range(50)]
    again = cfg.stream()
    assert [pw.sample_path_to_target(g, 0, state, cfg, rng=again) for _ in range(50)] == first


def _thin_residual_graph():
    """Target 3's in-neighbours 1 and 2 each send it a quarter of their
    out-weight, so one push from 3 leaves residual 0.8 * 0.25 = 0.2 at both:
    at eps_r = 0.5, the largest residual r_bar is under eps_r / 2. Node 1's
    out-weights are uneven, so its steps bisect."""
    return pw.from_edges([
        (0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (1, 0, 1.0), (1, 2, 2.0),
        (2, 3, 1.0), (2, 0, 1.0), (2, 1, 1.0), (2, 2, 1.0), (3, 0, 1.0),
    ], n=4)


class _ScriptedVariates:
    """Stands in for a Generator that hands out a script of uniform variates
    one per draw (with ``pathsampling._BLOCK`` at 1) and counts them."""

    def __init__(self, xs):
        self.xs = list(xs)
        self.drawn = 0

    def random(self, size):
        assert size == 1
        self.drawn += 1
        return np.array([self.xs[self.drawn - 1]])


class _CountingLedgers(dict):
    """Live ledgers that count lookups: the sampler looks up the endpoint of
    every walk it draws, once, and nothing else."""

    walks = 0

    def get(self, key, default=None):
        self.walks += 1
        return super().get(key, default)


def _assert_mean(counts, exact):
    counts = np.asarray(counts, dtype=float)
    assert abs(counts.mean() - exact) < 5.0 * counts.std() / np.sqrt(counts.size), (
        counts.mean(), exact)


def test_certainly_rejected_attempts_draw_no_walk(monkeypatch):
    # From s = 3, p_s = 0.2 and p_s + eps_r = 0.7, so a branch variate u
    # leaves x - p_s = 0.7u - 0.2, which no ledger can accept once it
    # reaches r_bar = 0.2, at u >= 4/7. The script: two such attempts (one
    # variate each), one at u = 0.5 whose walk is drawn (length variate 0:
    # it stays at 3, whose live ledger is empty, and is rejected), then the
    # settled branch (branch variate, settled pick, one ledger level).
    monkeypatch.setattr(pathsampling, "_BLOCK", 1)
    g = _thin_residual_graph()
    state = pw.precompute_path_samplers(g, [3], 0.5, 0.2)
    assert state.estimates[3] == 0.2 and state.max_residual == 0.8 * 0.25
    state.live = ledgers = _CountingLedgers(state.live)
    rng = _ScriptedVariates([0.9, 0.9, 0.5, 0.0, 0.0, 0.0, 0.0])
    cfg = pw.WalkConfig(alpha=0.2, seed=0)
    path, attempts, branch = pw.sample_path_to_target(
        g, 3, state, cfg, rng=rng, return_attempts=True, return_branch=True)
    assert (path, attempts, branch) == ([3], 4, "settled")
    assert ledgers.walks == 1
    assert rng.drawn == 7


def test_attempts_and_drawn_walks_average_their_exact_counts():
    # Attempts average (p_s + eps_r)/pi_s(T) as without the skip; the ones
    # that go past their branch variate, into a walk or a settled descent,
    # average (p_s + r_bar)/pi_s(T).
    g = _thin_residual_graph()
    state = pw.precompute_path_samplers(g, [3], 0.5, 0.2)
    state.live = ledgers = _CountingLedgers(state.live)
    p_s, r_bar = state.estimates[3], state.max_residual
    pi = float(pw.exact_ppr(g, 3, 0.2)[3])
    cfg = pw.WalkConfig(alpha=0.2, seed=20)
    rng = cfg.stream()
    attempts, drawn = [], []
    for _ in range(20_000):
        before = ledgers.walks
        _, att, branch = pw.sample_path_to_target(
            g, 3, state, cfg, rng=rng, return_attempts=True, return_branch=True)
        attempts.append(att)
        drawn.append(ledgers.walks - before + (branch == "settled"))
    _assert_mean(attempts, (p_s + 0.5) / pi)
    _assert_mean(drawn, (p_s + r_bar) / pi)


def test_max_residual_is_the_largest_live_ledger_total(rng):
    cases = [
        (two_cycle(), [0, 1], 1.0), (two_cycle(), [1], 0.9), (two_cycle(), [1], 0.5),
        (two_cycle(), [1], 0.05), (weighted_five(), [1, 4], 0.15),
        (_thin_residual_graph(), [3], 0.5),
        (pw.from_edges([(0, 1, 0.7), (0, 2, 0.3), (1, 1, 0.4), (1, 2, 0.6), (2, 2, 1.0)],
                       n=3), [1], 0.05),
    ]
    for _ in range(6):
        g = rand_graph(rng, n_max=30)
        cases += [(g, [int(rng.integers(g.n))], eps_r) for eps_r in (0.3, 0.01)]
    for g, targets, eps_r in cases:
        state = pw.precompute_path_samplers(g, targets, eps_r, 0.2)
        assert state.max_residual == max(led.total for led in state.live.values())
        assert state.max_residual == max(dict(state.residuals).values(), default=0.0)


def test_drained_push_samples_its_source_from_the_settled_branch():
    # Target 0 has no in-edges: its one push settles alpha and hands on
    # nothing, so no residual is left, r_bar is 0.0 and no walk can be
    # accepted. Attempts still average (p_s + eps_r)/pi_s(T) = 0.7/0.2.
    g = pw.from_edges([(0, 1, 1.0), (1, 1, 1.0)], n=2)
    state = pw.precompute_path_samplers(g, [0], 0.5, 0.2)
    assert dict(state.residuals) == {} and state.max_residual == 0.0
    state.live = ledgers = _CountingLedgers(state.live)
    cfg = pw.WalkConfig(alpha=0.2, seed=21)
    rng = cfg.stream()
    attempts = []
    for _ in range(10_000):
        path, att, branch = pw.sample_path_to_target(
            g, 0, state, cfg, rng=rng, return_attempts=True, return_branch=True)
        assert (path, branch) == ([0], "settled")
        attempts.append(att)
    assert ledgers.walks == 0
    _assert_mean(attempts, 3.5)


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

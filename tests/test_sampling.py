"""Geometric walk lengths, endpoint sampling, weighted draws."""

import gc
import weakref

import numpy as np
import pytest
from scipy import stats

import pushwalk as pw
from pushwalk.sampling import sample_geometric_length
from conftest import FixedUniforms, NoDraws, reference_draw, two_cycle, weighted_five


def test_stop_at_zero_probability_is_alpha():
    cfg = pw.WalkConfig(alpha=0.2, seed=1)
    rng = np.random.default_rng(1)
    draws = np.array([sample_geometric_length(cfg, rng) for _ in range(200_000)])
    assert abs((draws == 0).mean() - 0.2) < 0.004


def test_expected_length_within_one_percent():
    rng = np.random.default_rng(2)
    draws = rng.geometric(0.2, size=1_000_000) - 1
    assert abs(draws.mean() - 4.0) < 0.04


def test_tail_probability_matches_formula():
    cfg = pw.WalkConfig(alpha=0.3, seed=3)
    rng = np.random.default_rng(3)
    draws = np.array([sample_geometric_length(cfg, rng) for _ in range(200_000)])
    assert abs((draws >= 3).mean() - 0.7 ** 3) < 0.005


def test_self_loop_endpoint_is_fixed():
    g = pw.from_edges([(0, 0, 1.0)], n=1)
    cfg = pw.WalkConfig(alpha=0.2, seed=4)
    assert all(e == 0 for e in pw.walk_endpoints(g, 0, 50, cfg))


def test_two_cycle_endpoint_rate():
    g = two_cycle()
    cfg = pw.WalkConfig(alpha=0.2, seed=5)
    ends = pw.walk_endpoints(g, 0, 200_000, cfg)
    frac_a = sum(1 for e in ends if e == 0) / len(ends)
    assert abs(frac_a - 0.2 / 0.36) < 0.005


def test_uniform_start_gives_uniform_endpoint():
    g = two_cycle()
    cfg = pw.WalkConfig(alpha=0.2, seed=6)
    ends = pw.walk_endpoints(g, {0: 0.5, 1: 0.5}, 100_000, cfg)
    frac_a = sum(1 for e in ends if e == 0) / len(ends)
    assert abs(frac_a - 0.5) < 0.01


def test_fixed_len_zero_is_just_start():
    g = two_cycle()
    cfg = pw.WalkConfig(alpha=0.2, seed=7)
    assert pw.random_walk_path(g, 0, cfg, fixed_len=0) == [0]


def test_fixed_len_three_on_two_cycle():
    g = two_cycle()
    cfg = pw.WalkConfig(alpha=0.2, seed=8)
    assert pw.random_walk_path(g, 0, cfg, fixed_len=3) == [0, 1, 0, 1]


@pytest.mark.parametrize("fixed_len", [-2, -1, 2.0, 1.5, "3", True])
def test_fixed_len_must_be_a_nonnegative_integer(fixed_len):
    # -2 once returned [0] from a node and raised numpy's "negative
    # dimensions" error from an array of starts
    g = two_cycle()
    cfg = pw.WalkConfig(alpha=0.2, seed=8)
    for start in (0, np.array([0, 1])):
        with pytest.raises(ValueError, match="fixed_len must be a nonnegative integer"):
            pw.random_walk_path(g, start, cfg, fixed_len=fixed_len)
    assert pw.random_walk_path(g, 0, cfg, fixed_len=np.int64(3)) == [0, 1, 0, 1]


def test_geometric_path_edge_count_mean():
    g = two_cycle()
    cfg = pw.WalkConfig(alpha=0.2, seed=9)
    rng = cfg.stream()
    lens = [len(pw.random_walk_path(g, 0, cfg, rng=rng)) - 1
            for _ in range(200_000)]
    assert abs(np.mean(lens) - 4.0) < 0.05


def test_alias_uniform_four_items():
    picks = pw.weighted_draw([1.0] * 4, np.random.default_rng(10), 1_000_000)
    assert picks.dtype == np.intp
    for i in range(4):
        assert abs((picks == i).mean() - 0.25) < 0.005


def test_alias_one_three_split():
    picks = pw.weighted_draw([1.0, 3.0], np.random.default_rng(11), 1_000_000)
    assert abs((picks == 1).mean() - 0.75) < 0.005


def test_alias_single_item():
    assert pw.weighted_draw([2.5], np.random.default_rng(12), 20).tolist() == [0] * 20


def test_alias_rejects_empty_and_nonpositive():
    # NaN and infinite weights were once dropped silently; no bad draw takes variates
    for weights in ([], [0.0], [0.0, 0.0], [float("nan"), 1.0], [float("inf"), 1.0],
                    [1.0, -float("inf")], [1.0, -0.5], [[1.0, 2.0]]):
        with pytest.raises(ValueError):
            pw.weighted_draw(weights, NoDraws(), 3)


# x = 0.9 takes 0.9 * total to total itself on these subnormal weights, so
# the running-total search runs off the end and is clamped to the last one.
_ROUNDS_UP = [5e-324, 0.0, 1e-323]


@pytest.mark.parametrize("weights", [
    [0.1] * 10,                               # equal: direct index (x = 0.3 picks 3, not 2)
    [0.0, 1.5, 0.0, 1.5],                     # equal among zeros
    [1.0, 3.0, 0.5, 2.25],                    # uneven
    [0.0, 1.0, 0.0, 0.0, 2.0, 0.0, 0.5],      # zeros between positive weights
    [1.0, 2.0, 0.0],                          # trailing zero: the clamp case
    _ROUNDS_UP,
])
def test_weighted_draw_matches_the_reference(weights):
    if weights is _ROUNDS_UP:
        assert 0.9 * sum(weights) == sum(weights)
    xs = np.concatenate([np.random.default_rng(0).random(1000), [0.0, 0.3, 0.5, 0.9, 1 - 2**-53]])
    picks = pw.weighted_draw(np.array(weights), FixedUniforms(xs), xs.size)
    assert picks.dtype == np.intp
    assert picks.tolist() == reference_draw(weights, xs.tolist())
    # a generator hands its next ``count`` variates to one draw
    ref = reference_draw(weights, np.random.default_rng(3).random(50).tolist())
    assert pw.weighted_draw(weights, np.random.default_rng(3), 50).tolist() == ref


def test_walked_graph_is_freed_after_del():
    g = two_cycle()
    pw.walk_endpoints(g, 0, 64, pw.WalkConfig(alpha=0.2, seed=13))
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


def test_walks_off_a_dead_end_raise():
    # node 1 has no out-edges; a walk that stopped or stayed there would
    # count mass that pushes and oracles drop
    g = pw.from_edges([(0, 1), (0, 2), (2, 0)], n=3)
    cfg = pw.WalkConfig(alpha=0.2, seed=1)
    with pytest.raises(ValueError, match="node 1"):
        pw.walk_endpoints(g, 0, 200, cfg)
    with pytest.raises(ValueError, match="node 1"):
        pw.monte_carlo_ppr(g, 0, 1, pw.PprParams(delta=0.1), walks=200)
    with pytest.raises(ValueError, match="node 1"):
        pw.random_walk_path(g, 1, cfg, fixed_len=1)
    assert pw.random_walk_path(g, 1, cfg, fixed_len=0) == [1]
    with pytest.raises(ValueError, match="node 1"):
        pw.random_walk_path(g, np.array([0, 1, 2]), cfg, fixed_len=1)
    assert pw.random_walk_path(g, np.array([1]), cfg, fixed_len=0).tolist() == [[1]]
    # the array form needs integer starts and a fixed length
    with pytest.raises(ValueError, match="integer array"):
        pw.random_walk_path(g, np.array([0.0, 2.0]), cfg, fixed_len=1)
    with pytest.raises(ValueError, match="fixed_len"):
        pw.random_walk_path(g, np.array([0, 2]), cfg)


def test_walk_streams_are_reproducible():
    g = two_cycle()
    cfg = pw.WalkConfig(alpha=0.2, seed=13)
    a = pw.walk_endpoints(g, 0, 64, cfg)
    b = pw.walk_endpoints(g, 0, 64, cfg)
    assert np.array_equal(a, b)


class _FixedVariates:
    """Stands in for a Generator whose every uniform variate is x."""

    def __init__(self, x):
        self.x = x

    def random(self, size=None):
        return self.x if size is None else np.full(size, self.x)


@pytest.mark.parametrize("x", [0.0, 1.0 - 2.0**-53])
def test_one_walk_and_lockstep_steps_pick_the_same_edge_inside_the_slice(x):
    # node 0: seven edges of weight 1/7, stepped by index; nodes 1 and 2:
    # uneven weights, stepped by key. At u >= 1, u + x rounds up to u + 1
    # for the largest x, past the node's last key, so only the clamp keeps
    # that step inside the node's slice.
    sevenths = [(0, v, 1.0) for v in range(1, 8)]
    uneven = [(1, 0, 0.1), (1, 3, 0.7), (1, 5, 0.2), (2, 4, 1.0), (2, 6, 3.0)]
    g = pw.from_edges(sevenths + uneven + [(v, 0) for v in range(3, 8)], n=8)
    cfg = pw.WalkConfig()
    for u in range(g.n):
        nbrs = [v for v, _ in g.out_adj[u]]
        one = pw.random_walk_path(g, u, cfg, fixed_len=1, rng=_FixedVariates(x))[1]
        many = pw.random_walk_path(g, np.array([u, u]), cfg, fixed_len=1, rng=_FixedVariates(x))
        assert many[:, 1].tolist() == [one, one]
        assert one == (nbrs[0] if x == 0.0 else nbrs[-1])


def _chi2_pvalue(draws, probs) -> float:
    obs = np.bincount(draws, minlength=probs.size)
    reach = probs > 0.0
    assert obs[~reach].sum() == 0
    return float(stats.chisquare(obs[reach], f_exp=probs[reach] * draws.size).pvalue)


_WEIGHTED = weighted_five()


def test_weighted_walk_laws_match_the_exact_distributions():
    g = _WEIGHTED
    cfg = pw.WalkConfig(alpha=0.2, seed=21)
    ends = np.array(pw.walk_endpoints(g, 0, 100_000, cfg))
    assert _chi2_pvalue(ends, pw.exact_ppr(g, 0, 0.2)) > 0.001
    paths = pw.random_walk_path(g, np.zeros(20_000, dtype=np.intp), cfg, fixed_len=6)
    assert (paths[:, 0] == 0).all()
    for k in range(1, 7):
        assert _chi2_pvalue(paths[:, k], pw.exact_mstp(g, 0, k)) > 0.001


def test_endpoints_from_mixed_starts_match_the_exact_rows():
    g = _WEIGHTED
    starts = np.repeat(np.arange(g.n), [30_000, 10_000, 20_000, 15_000, 25_000])
    ends = pw.walk_endpoints(g, starts, starts.size, pw.WalkConfig(alpha=0.2, seed=22))
    assert ends.dtype == np.intp and ends.shape == starts.shape
    for v in range(g.n):
        assert _chi2_pvalue(ends[starts == v], pw.exact_ppr(g, v, 0.2)) > 0.001


def test_array_of_starts_steps_like_a_node_source():
    # one batch of lengths, longest first, then the same lockstep steps
    cfg = pw.WalkConfig(alpha=0.2, seed=23)
    one = pw.walk_endpoints(_WEIGHTED, 2, 500, cfg)
    many = pw.walk_endpoints(_WEIGHTED, np.full(500, 2, dtype=np.int32), 500, cfg)
    assert one.dtype == many.dtype == np.intp
    assert np.array_equal(many, one)
    for start in (2, {2: 1.0}, np.ones(_WEIGHTED.n), np.array([], dtype=np.intp)):
        none = pw.walk_endpoints(_WEIGHTED, start, 0, cfg)
        assert none.dtype == np.intp and none.size == 0


def test_walk_order_keeps_pinned_endpoints():
    # Endpoints pinned at fixed seeds. At alpha 0.005 some length exceeds
    # 255, so the longest-first order sorts a 16-bit key, at 0.2 an 8-bit one.
    g = pw.from_edges([(0, 1), (0, 2), (1, 2), (2, 0), (2, 3), (3, 4), (4, 0),
                       (4, 1), (4, 3)], n=5)
    pinned = {
        (0.2, 11): [3, 0, 4, 1, 2, 1, 0, 3, 0, 1, 2, 2, 4, 3, 0, 2, 2, 0, 0, 2,
                    2, 1, 0, 3, 0, 1, 4, 3, 0, 0, 2, 0, 1, 1, 0, 1, 0, 2, 4, 3],
        (0.005, 12): [4, 2, 2, 3, 2, 2, 0, 3, 2, 2, 1, 3, 2, 0, 0, 0, 1, 2, 2, 1,
                      3, 0, 0, 0, 1, 4, 0, 0, 0, 4, 0, 0, 1, 0, 2, 2, 3, 4, 3, 0],
    }
    for (alpha, seed), want in pinned.items():
        cfg = pw.WalkConfig(alpha, seed)
        longest = (cfg.stream().geometric(alpha, size=40) - 1).max()
        assert (longest > 255) == (alpha < 0.2)
        assert pw.walk_endpoints(g, 0, 40, cfg).tolist() == want
        starts = np.zeros(40, dtype=np.intp)
        assert pw.walk_endpoints(g, starts, 40, cfg).tolist() == want


def test_array_of_starts_is_checked():
    g = pw.from_edges([(0, 1), (0, 2), (2, 0)], n=3)  # node 1 is a dead end
    cfg = pw.WalkConfig(alpha=0.2, seed=24)
    for bad in (-1, 3):
        with pytest.raises(ValueError, match=f"node {bad} out of range"):
            pw.walk_endpoints(g, np.array([0, bad]), 2, cfg)
    with pytest.raises(ValueError, match="1-D"):
        pw.walk_endpoints(g, np.array([[0, 2], [2, 0]]), 4, cfg)
    for count in (1, 3):
        with pytest.raises(ValueError, match=f"count {count} does not match the 2 starts"):
            pw.walk_endpoints(g, np.array([0, 2]), count, cfg)
    with pytest.raises(ValueError, match="node 1"):
        pw.walk_endpoints(g, np.array([0, 2] * 100), 200, cfg)


def test_a_float_array_is_still_a_distribution():
    g = two_cycle()
    cfg = pw.WalkConfig(alpha=0.2, seed=25)
    ends = pw.walk_endpoints(g, np.array([0.25, 0.75]), 1000, cfg)
    assert ends.dtype == np.intp
    assert np.array_equal(ends, pw.walk_endpoints(g, {0: 0.25, 1: 0.75}, 1000, cfg))
    # the estimators read every length-n array, integer ones too, as weights
    params = pw.PprParams(delta=0.1)
    assert (pw.monte_carlo_ppr(g, np.array([1, 3]), 0, params, walks=500, seed=2).value
            == pw.monte_carlo_ppr(g, {0: 1.0, 1: 3.0}, 0, params, walks=500, seed=2).value)


_PATH_WITH_SINK = pw.apply_sink_convention(pw.from_edges([(0, 1), (1, 2)], n=3))
_MSTP = pw.MstpParams(ell_max=3, delta=0.1)
_SOURCE_ENTRY_POINTS = {
    "estimate_ppr": lambda g, s: pw.estimate_ppr(g, s, 0, pw.PprParams(delta=0.1)),
    "estimate_ppr_balanced": lambda g, s: pw.estimate_ppr_balanced(
        g, s, 0, pw.PprParams(delta=0.1)),
    "monte_carlo_ppr": lambda g, s: pw.monte_carlo_ppr(
        g, s, 0, pw.PprParams(delta=0.1), walks=10),
    "estimate_heat_kernel": lambda g, s: pw.estimate_heat_kernel(
        g, s, 0, pw.HeatKernelParams(t_param=1.0)),
    "estimate_mstp": lambda g, s: pw.estimate_mstp(g, s, 0, _MSTP),
    "estimate_truncated_hitting": lambda g, s: pw.estimate_truncated_hitting(
        g, s, 0, _MSTP),
    "build_forward_vector": lambda g, s: pw.build_forward_vector(
        g, s, 10, pw.WalkConfig()),
    "walk_endpoints": lambda g, s: pw.walk_endpoints(g, s, 10, pw.WalkConfig()),
    "walk_endpoints_zero_count": lambda g, s: pw.walk_endpoints(g, s, 0, pw.WalkConfig()),
    "exact_ppr": lambda g, s: pw.exact_ppr(g, s, 0.2),
}


@pytest.mark.parametrize("bad", ["-1", "n", "{-1: 1.0}", "True", "{True: 1.0}"])
@pytest.mark.parametrize("entry", sorted(_SOURCE_ENTRY_POINTS))
def test_out_of_range_source_is_rejected(entry, bad):
    g = _PATH_WITH_SINK  # node -1 would wrap to the sink
    source = {"-1": -1, "n": g.n, "{-1: 1.0}": {-1: 1.0},
              "True": True, "{True: 1.0}": {True: 1.0}}[bad]
    node = {"n": g.n, "True": True, "{True: 1.0}": True}.get(bad, -1)
    # numpy would read True as a mask, not as node 1
    why = "is not an integer node id" if node is True else "out of range"
    with pytest.raises(ValueError, match=rf"source node {node} {why}"):
        _SOURCE_ENTRY_POINTS[entry](g, source)


@pytest.mark.parametrize("source", [
    {0: np.inf}, {0: -1.0, 1: 2.0}, {0: 0.0}, np.full(4, np.nan), np.ones(3),
])
def test_source_weights_must_be_a_finite_distribution(source):
    with pytest.raises(ValueError, match="source"):
        pw.estimate_ppr(_PATH_WITH_SINK, source, 0, pw.PprParams(delta=0.1))


_TARGET_ENTRY_POINTS = {
    "estimate_mstp": lambda g, t: pw.estimate_mstp(g, 0, t, _MSTP),
    "estimate_truncated_hitting": lambda g, t: pw.estimate_truncated_hitting(
        g, 0, t, _MSTP),
    "estimate_heat_kernel": lambda g, t: pw.estimate_heat_kernel(
        g, 0, t, pw.HeatKernelParams(t_param=1.0)),
    "monte_carlo_ppr": lambda g, t: pw.monte_carlo_ppr(
        g, 0, t, pw.PprParams(delta=0.1), walks=10),
    "choose_delta_from_target": lambda g, t: pw.choose_delta_from_target(g, t, 0.2),
    "exact_first_passage": lambda g, t: pw.exact_first_passage(g, 0, t, 3),
    # a path starts at one node, never at a distribution
    "random_walk_path": lambda g, v: pw.random_walk_path(g, v, pw.WalkConfig(), fixed_len=3),
    "random_walk_path_array": lambda g, v: pw.random_walk_path(
        g, np.array([0, v]), pw.WalkConfig(), fixed_len=3),
    # the sharded query's source indexes the stored per-node vectors
    "query_shared_walks": lambda g, s: pw.query_shared_walks(
        g, pw.build_shared_walk_vectors(g, 0.2, 0.1, d_max=8.0), s, 0),
    # a caller's reverse push does not excuse the target from the check
    "query_shared_walks_rev": lambda g, t: pw.query_shared_walks(
        g, pw.build_shared_walk_vectors(g, 0.2, 0.1, d_max=8.0), 0, t,
        rev=pw.reverse_push(g, 0, 0.1, 0.2)),
    # the undirected entry points read a ring with as many nodes as g
    "estimate_ppr_undirected": lambda g, t: pw.estimate_ppr_undirected(
        _ring(g.n), 0, t, pw.PprParams(delta=0.1)),
    "estimate_ppr_undirected_source": lambda g, s: pw.estimate_ppr_undirected(
        _ring(g.n), s, 0, pw.PprParams(delta=0.1)),
    "check_symmetry": lambda g, t: pw.check_symmetry(_ring(g.n), 0, t, 0.2),
    "check_symmetry_source": lambda g, s: pw.check_symmetry(_ring(g.n), s, 0, 0.2),
}


def _ring(n):
    return pw.from_edges([(v, (v + 1) % n) for v in range(n)], undirected=True)


@pytest.mark.parametrize("entry,bad", [
    (entry, bad) for entry in sorted(_TARGET_ENTRY_POINTS) for bad in ("-1", "n", "True")
    # np.array([0, True]) is the integer array [0, 1]: no bool is left to reject
    if (entry, bad) != ("random_walk_path_array", "True")
])
def test_out_of_range_target_is_rejected(entry, bad):
    g = _PATH_WITH_SINK
    node, why = {"-1": (-1, "out of range"), "n": (g.n, "out of range"),
                 "True": (True, "is not an integer node id")}[bad]
    with pytest.raises(ValueError, match=rf"node {node} {why}"):
        _TARGET_ENTRY_POINTS[entry](g, node)

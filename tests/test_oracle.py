"""Power-iteration and enumeration oracles: closed forms and axioms."""

import numpy as np
import pytest

import pushwalk as pw
from pushwalk import oracle
from conftest import rand_graph, two_cycle


def test_self_loop_concentrates_everything():
    g = pw.from_edges([(0, 0, 1.0)], n=1)
    assert pw.exact_ppr(g, 0, 0.2)[0] == pytest.approx(1.0, abs=1e-12)


def test_two_cycle_closed_form():
    g = two_cycle()
    pi = pw.exact_ppr(g, 0, 0.2)
    assert pi[0] == pytest.approx(0.2 / (1 - 0.8 ** 2), abs=1e-12)  # 0.555...
    assert pi[1] == pytest.approx(0.8 * 0.2 / (1 - 0.8 ** 2), abs=1e-12)


def test_scores_form_a_distribution(rng):
    for _ in range(10):
        g = rand_graph(rng, n_max=25)
        pi = pw.exact_ppr(g, int(rng.integers(g.n)), 0.3)
        assert pi.sum() == pytest.approx(1.0, abs=1e-9)
        assert (pi >= -1e-15).all()


def test_matrix_rows_match_single_source(rng):
    g = rand_graph(rng, n_max=15)
    pim = pw.exact_ppr_matrix(g, 0.25)
    for s in range(0, g.n, 3):
        assert np.allclose(pim[s], pw.exact_ppr(g, s, 0.25), atol=1e-10)


def _dense_first_passage(W, s, t, ell_max):
    """P[first hit of t at step ell], from powers of the dense matrix."""
    out, vec = [], np.eye(len(W))[s]
    for _ in range(ell_max):
        vec = vec @ W
        out.append(vec[t])
        vec[t] = 0.0  # walks that hit t stop counting
    return np.array(out)


def test_exact_ppr_builds_no_dense_matrix(rng, monkeypatch):
    g = rand_graph(rng, n_max=15)
    pim = pw.exact_ppr_matrix(g, 0.25)
    W = pw.transition_matrix(g)
    s, t = 0, g.n - 1
    mstp = [np.linalg.matrix_power(W, ell)[s] for ell in range(8)]
    passage = _dense_first_passage(W, s, t, 8)

    def dense(_g):
        raise AssertionError("an oracle built the dense transition matrix")

    monkeypatch.setattr(oracle, "transition_matrix", dense)
    assert np.allclose(pw.exact_ppr(g, 0, 0.25), pim[0], atol=1e-10)
    assert np.allclose(pw.exact_global_pagerank(g, 0.25), pim.mean(axis=0), atol=1e-10)
    for ell in range(8):
        assert np.max(np.abs(pw.exact_mstp(g, s, ell) - mstp[ell])) < 1e-12
    assert np.max(np.abs(pw.exact_first_passage(g, s, t, 8) - passage)) < 1e-12


def test_global_rank_two_cycle_symmetric():
    g = two_cycle()
    pr = pw.exact_global_pagerank(g, 0.2)
    assert np.allclose(pr, [0.5, 0.5], atol=1e-12)


def test_global_rank_star_center_dominates():
    edges = [(i, 0, 1.0) for i in range(1, 6)] + [(0, i, 1.0) for i in range(1, 6)]
    g = pw.from_edges(edges, n=6)
    pr = pw.exact_global_pagerank(g, 0.2)
    assert pr[0] > pr[1:].max()


def test_global_rank_self_loop():
    g = pw.from_edges([(0, 0, 1.0)], n=1)
    assert pw.exact_global_pagerank(g, 0.2)[0] == pytest.approx(1.0)


def test_mstp_level_zero_is_identity():
    g = two_cycle()
    assert np.allclose(pw.exact_mstp(g, 0, 0), [1.0, 0.0])


def test_mstp_two_cycle_alternates():
    g = two_cycle()
    assert np.allclose(pw.exact_mstp(g, 0, 1), [0.0, 1.0])
    assert np.allclose(pw.exact_mstp(g, 0, 2), [1.0, 0.0])


def test_conditional_path_self_loop_prefix_weight():
    # Normalization is by the full-horizon conditioning mass (here 1), so the
    # length-k path carries exactly alpha*(1-alpha)^k and the tail is the
    # leftover geometric mass beyond max_len.
    g = pw.from_edges([(0, 0, 1.0)], n=1)
    alpha = 0.2
    dist, tail = pw.exact_conditional_path_dist(g, 0, [0], alpha, 25)
    assert dist[(0,)] == pytest.approx(alpha, rel=1e-12)
    assert dist[(0, 0, 0)] == pytest.approx(alpha * (1 - alpha) ** 2, rel=1e-12)
    assert tail == pytest.approx((1 - alpha) ** 26, rel=1e-9)
    assert sum(dist.values()) + tail == pytest.approx(1.0, abs=1e-12)


def test_conditional_path_unreachable_targets_error():
    g = pw.apply_sink_convention(
        pw.from_edges([(0, 0, 1.0), (1, 1, 1.0)], n=2))
    with pytest.raises(pw.UnreachableTargetError):
        pw.exact_conditional_path_dist(g, 0, [1], 0.2, 8)


def test_conditional_path_two_cycle_odd_lengths_only():
    g = two_cycle()
    dist, _ = pw.exact_conditional_path_dist(g, 0, [1], 0.2, 9)
    assert dist
    for path in dist:
        assert (len(path) - 1) % 2 == 1
        assert path[-1] == 1


def test_first_passage_two_cycle():
    g = two_cycle()
    fp = pw.exact_first_passage(g, 0, 1, 5)
    assert np.allclose(fp, [1.0, 0.0, 0.0, 0.0, 0.0])


def test_first_passage_self_loop_return():
    g = pw.from_edges([(0, 0, 1.0)], n=1)
    fp = pw.exact_first_passage(g, 0, 0, 4)
    assert np.allclose(fp, [1.0, 0.0, 0.0, 0.0])


def test_first_passage_unreachable_is_zero():
    g = pw.apply_sink_convention(
        pw.from_edges([(0, 0, 1.0), (1, 1, 1.0)], n=2))
    assert not pw.exact_first_passage(g, 0, 1, 6).any()


def test_transition_matrix_leaves_dangling_rows_zero():
    g = pw.from_edges([(0, 1, 1.0)], n=2)
    W = pw.transition_matrix(g)
    assert W[1].sum() == 0.0

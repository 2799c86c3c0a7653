"""Local push routines: traced examples, termination bounds, invariants."""

import dataclasses
import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pushwalk as pw
from pushwalk import bidir, push
from pushwalk.cli import generate_synthetic
from pushwalk.sampling import source_of
from conftest import (forward_invariant_gap, rand_graph,
                      reverse_invariant_gap, two_cycle)


# ---------------------------------------------------------------- reverse

def test_reverse_threshold_one_returns_indicator():
    g = two_cycle()
    for r_max in (1.0, math.inf):
        res = pw.reverse_push(g, 1, r_max, 0.2)
        assert dict(res.estimates) == {}
        assert dict(res.residuals) == {1: 1.0}
        assert res.pushes_performed == 0


def test_reverse_single_push_trace():
    g = two_cycle()
    res = pw.reverse_push(g, 1, 0.9, 0.2)
    assert dict(res.estimates) == pytest.approx({1: 0.2})
    assert dict(res.residuals) == pytest.approx({0: 0.8})
    assert res.pushes_performed == 1


def test_reverse_small_threshold_brackets_oracle():
    edges = [(0, 1, 1.0), (1, 2, 0.6), (1, 3, 0.4), (2, 0, 1.0), (3, 3, 1.0)]
    g = pw.from_edges(edges, n=4)
    alpha, r_max, t = 0.2, 0.01, 2
    res = pw.reverse_push(g, t, r_max, alpha)
    assert res.residuals.max_value() <= r_max
    pim = pw.exact_ppr_matrix(g, alpha)
    for v in range(g.n):
        p = res.estimates.get(v, 0.0)
        assert p <= pim[v][t] + 1e-12
        assert pim[v][t] - p <= r_max + 1e-12


def test_reverse_push_count_bound(rng):
    for _ in range(5):
        g = rand_graph(rng, n_max=30, directed=True)
        t = int(rng.integers(g.n))
        r_max, alpha = 0.02, 0.2
        res = pw.reverse_push(g, t, r_max, alpha)
        pim = pw.exact_ppr_matrix(g, alpha)
        mass = pim[:, t].sum()
        assert res.pushes_performed <= mass / (alpha * r_max) + g.n


def test_reverse_self_loop_is_safe():
    g = pw.from_edges([(0, 0, 1.0)], n=1)
    res = pw.reverse_push(g, 0, 0.01, 0.2)
    assert res.estimates[0] >= 1 - 0.01
    assert res.residuals.max_value() <= 0.01


def test_reverse_invariant_random_graphs(rng):
    for _ in range(8):
        g = rand_graph(rng, n_max=30)
        t = int(rng.integers(g.n))
        r_max = float(rng.uniform(0.01, 0.5))
        res = pw.reverse_push(g, t, r_max, 0.2)
        pim = pw.exact_ppr_matrix(g, 0.2)
        gap = reverse_invariant_gap(g, t, res, pim, range(g.n))
        assert gap < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    r_max=st.floats(1e-4, 0.5),
    dict_share=st.sampled_from([math.inf, -1.0, push._DICT_SHARE, push._GATHER_SHARE]),
)
def test_reverse_kernels_keep_identity_threshold_and_count_bound(seed, r_max, dict_share):
    # dict_share=inf keeps every round on dicts, as the logged push does,
    # -1 runs every round dense, and the others switch where the rule says.
    g = rand_graph(np.random.default_rng(seed), n_max=30)
    t = seed % g.n
    alpha = 0.2
    pushed = []
    gathered = push._gathered_round

    def counting_round(g, est, res, frontier, alpha):
        pushed.append(frontier.copy())
        return gathered(g, est, res, frontier, alpha)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(push, "_gathered_round", counting_round)
        mp.setattr(push, "_DICT_SHARE", dict_share)
        res = push._fixed(g, (t,), r_max, alpha)
    pim = pw.exact_ppr_matrix(g, alpha)
    assert reverse_invariant_gap(g, t, res, pim, range(g.n)) < 1e-10
    assert res.residuals.max_value() <= r_max
    assert res.achieved_rmax == res.residuals.max_value()
    assert res.pushes_performed <= pim[:, t].sum() / (alpha * r_max)
    assert 0.0 not in res.estimates.values()
    assert 0.0 not in res.residuals.values()
    if dict_share == -1.0:  # every push is a round's, counted in in-degrees
        nodes = np.concatenate(pushed) if pushed else np.empty(0, dtype=int)
        assert res.pushes_performed == nodes.size
        assert res.work_units == sum(len(g.in_adj[v]) for v in nodes.tolist())


def _power_law_3000():
    lines = generate_synthetic("power-law", 3000, 0)
    return pw.apply_sink_convention(pw.parse_edge_lines(lines, undirected=False))


def test_reverse_rounds_stay_off_local_pushes_and_bound_hub_pushes():
    g = _power_law_3000()
    alpha, r_max = 0.2, 1e-3
    order = np.argsort(pw.exact_global_pagerank(g, alpha))
    # A 90th-percentile target: a real push (about 20 nodes) that stays local,
    # so it never leaves the dicts and is the logged kernel's push.
    low = int(order[int(0.9 * g.n)])
    res = pw.reverse_push(g, low, r_max, alpha)
    on_dicts = push._fixed(g, (low,), r_max, alpha, [])
    assert res.pushes_performed > 5
    assert type(res.estimates) is pw.Row
    assert list(res.estimates.items()) == list(on_dicts.estimates.items())
    assert list(res.residuals.items()) == list(on_dicts.residuals.items())
    assert ((res.pushes_performed, res.work_units)
            == (on_dicts.pushes_performed, on_dicts.work_units))
    # The top target's push reaches much of the graph and finishes dense.
    hub = int(order[-1])
    res = pw.reverse_push(g, hub, r_max, alpha)
    assert isinstance(res.estimates, pw.DenseVec)
    assert res.residuals.max_value() <= r_max
    for s in (hub, 1, 17, 500, 2999):
        truth = pw.exact_ppr(g, s, alpha)[hub]
        assert -1e-12 <= truth - res.estimates.get(s, 0.0) <= r_max


def test_rounds_results_are_dense_views_that_read_like_sparse_vectors():
    g = _power_law_3000()
    alpha, r_max = 0.2, 1e-3
    hub = int(np.argmax(pw.exact_global_pagerank(g, alpha)))
    res = pw.reverse_push(g, hub, r_max, alpha)
    assert isinstance(res.estimates, pw.DenseVec)
    assert isinstance(res.residuals, pw.DenseVec)
    for vec in (res.estimates, res.residuals):
        arr = vec.array
        nz = np.flatnonzero(arr).tolist()
        assert dict(vec) == {v: float(arr[v]) for v in nz}
        assert list(vec) == nz == sorted(nz)  # ascending iteration
        assert list(vec.keys()) == nz
        assert list(vec.values()) == arr[nz].tolist()
        assert len(vec) == len(nz) > 0
        assert bool(vec)
        assert vec.max_value() == arr.max()
        assert nz[0] in vec
        nodes = np.arange(g.n)
        assert vec.values_at(nodes).tolist() == pw.Row.of(*vec.arrays()).values_at(nodes).tolist()
    zero = int(np.flatnonzero(res.residuals.array == 0.0)[0])
    assert res.residuals.get(zero, 0.0) == 0.0 and res.residuals[zero] == 0.0
    assert zero not in res.residuals
    assert res.residual_mass() == pytest.approx(res.residuals.array.sum(), rel=1e-12)
    union = res.estimates.keys() | res.residuals.keys()
    assert union == set(np.flatnonzero(res.estimates.array + res.residuals.array).tolist())
    empty = pw.DenseVec(np.zeros(4))
    assert (len(empty), bool(empty), empty.max_value(), dict(empty)) == (0, False, 0.0, {})


def _row_view(kind):
    """One row view of ``kind``, the dict it replaces, a node it lacks, and
    the arrays that hold its entries."""
    if kind == "dense":  # a kept rounds push, whose arrays are set read-only
        g = _power_law_3000()
        hub = int(np.argmax(pw.exact_global_pagerank(g, 0.2)))
        vec = pw.reverse_push(g, hub, 1e-3, 0.2).residuals
        nz = np.flatnonzero(vec.array).tolist()
        missing = int(np.flatnonzero(vec.array == 0.0)[0])
        return vec, {v: float(vec.array[v]) for v in nz}, missing, (vec.array,)
    g = pw.apply_sink_convention(
        pw.parse_edge_lines(generate_synthetic("power-law", 200, 3), undirected=False))
    if kind == "store-row":  # the longest forward-residual row, ascending by node
        params = pw.SharedWalkParams(c3=0.5)  # r_max_f 0.04: rows of several entries
        store = pw.build_shared_walk_vectors(g, 0.2, 1e-3, 1e9, params=params, seed=2)
        table = store.fwd_residuals
        v = int(np.argmax(np.diff(table.ptr)))
        row = table[v]
        _, nodes, values = push._forward_all(g, np.array([v]), store.r_max_f, 0.2)[1]
        want = dict(zip(nodes.tolist(), values.tolist()))
    else:  # the longest slot of an index, ascending target ids
        targets = [0, 1, 2, 3, 40]
        coords = {t: dict(pw.build_reverse_vector(g, t, 0.01, 0.2).coord_items())
                  for t in targets}
        index = pw.build_grouped_index(g, targets, 0.01, 0.2)
        table = index.table
        v = int(table.keys[np.argmax(np.diff(table.ptr))])
        row = index.slots[v]
        want = {t: coords[t][v] for t in targets if v in coords[t]}
    missing = next(v for v in range(g.n) if v not in want)
    return row, want, missing, (table.nodes, table.data, table.ptr)


@pytest.mark.parametrize("kind", ["dense", "store-row", "index-slot"])
def test_rows_read_like_the_dicts_they_replace(kind):
    view, want, missing, held = _row_view(kind)
    assert len(want) > 2
    assert dict(view) == want and view == want
    assert list(view) == list(view.keys()) == list(want)  # the dict's order
    assert list(view.items()) == list(want.items())
    assert list(view.values()) == list(want.values())
    assert len(view) == len(want) and bool(view)
    for key, value in want.items():
        assert view[key] == view.get(key) == view.get(key, None) == value and key in view
    assert view[missing] == 0.0 and view.get(missing) == 0.0
    assert view.get(missing, None) is None and missing not in view
    for key in ("a", 1.5):
        assert view.get(key) == 0.0 and view.get(key, None) is None and key not in view
    with pytest.raises(TypeError):
        view[missing] = 1.0
    assert not any(a.flags.writeable for a in held)


def test_every_table_the_package_builds_has_ascending_rows(monkeypatch):
    # The store's three tables, a search index and reverse_vectors()' two
    # tables by target (estimates, residuals): the store's walk tally builds
    # its endpoint table directly, the others are caught as Table.of builds
    # them.
    built = []
    of = push.Table.of.__func__

    def recording(cls, *args, **kwargs):
        built.append(of(cls, *args, **kwargs))
        return built[-1]

    monkeypatch.setattr(push.Table, "of", classmethod(recording))
    g = pw.apply_sink_convention(
        pw.parse_edge_lines(generate_synthetic("power-law", 200, 3), undirected=False))
    params = pw.SharedWalkParams(c3=0.5)
    store = pw.build_shared_walk_vectors(g, 0.2, 1e-3, 50.0, params=params, seed=2)
    index = pw.build_grouped_index(g, [0, 1, 2, 3, 40], 0.01, 0.2)
    index.reverse_vectors()
    assert len(built) == 5
    assert built[:2] == [store.fwd_residuals, store.fwd_estimates]
    assert built[2] is index.table
    for table in built:
        assert table.nodes.size > len(table)
    # a node that no push leaves residual at stores no walks: the endpoint
    # table's entries outnumber its non-empty rows instead
    walks = store.endpoint_freqs
    assert walks.nodes.size > np.count_nonzero(np.diff(walks.ptr)) > 0
    for table in [walks, *built]:
        for row in table:
            assert (np.diff(row.arrays()[0]) > 0).all()
    row = store.fwd_residuals[int(np.argmax(np.diff(store.fwd_residuals.ptr)))]
    node = next(iter(row))
    for key in (float(node), str(node), None, (node,)):
        assert row.get(key) == 0.0 and row.get(key, None) is None and key not in row
    assert row.get(np.int32(node)) == row[node] > 0.0


def test_every_vector_the_package_hands_out_is_an_ascending_row():
    g = _power_law_3000()
    order = np.argsort(pw.exact_global_pagerank(g, 0.2))
    low, mid, hub = int(order[int(0.9 * g.n)]), int(order[int(0.95 * g.n)]), int(order[-1])
    fifo, rounds, kept = (pw.reverse_push(g, t, 1e-3, 0.2) for t in (low, mid, hub))
    assert not isinstance(fifo.estimates, pw.DenseVec)
    assert isinstance(rounds.estimates, pw.DenseVec) and rounds.work_units <= g.m
    assert pw.reverse_push(g, hub, 1e-3, 0.2) is kept
    state = pw.precompute_path_samplers(g, [low, mid], 0.01, 0.2)
    targets = [low, mid, hub, 5]
    index = pw.build_grouped_index(g, targets, 1e-3, 0.2)
    forwards = [pw.build_forward_vector(g, s, 50, pw.WalkConfig(0.2, 3))
                for s in (low, {0: 1, 7: 3})]
    vectors = [state.estimates, state.residuals]
    for res in (fifo, rounds, kept, pw.reverse_push_balanced(g, low, 0.2, 4.0 / g.n),
                pw.forward_push(g, low, 1e-3, 0.2)):
        vectors += [res.estimates, res.residuals]
    for x in forwards:
        vectors += [x.indicator, x.empirical]
    for t, rv in index.reverse_vectors().items():
        pushed = pw.build_reverse_vector(g, t, 1e-3, 0.2)
        assert dict(rv.estimates) == dict(pushed.estimates)
        assert dict(rv.residuals) == dict(pushed.residuals)
        vectors += [rv.estimates, rv.residuals, pushed.estimates, pushed.residuals]
    for vec in vectors:
        assert isinstance(vec, push.Row)
        nodes = vec.arrays()[0]
        assert (np.diff(nodes) > 0).all()
    assert sum(len(vec) for vec in vectors) > 0
    # the path sampler reads p and r from the ledger totals, bit for bit
    everyone = np.arange(g.n)
    for vec, ledgers in ((state.residuals, state.live),
                         (state.estimates, state.estimate_provenance)):
        totals = [ledgers[v].total if v in ledgers else 0.0 for v in range(g.n)]
        assert totals == vec.values_at(everyone).tolist()


def test_walk_pickup_reads_the_rounds_residuals_at_the_walk_endpoints():
    # The estimate is p[s] plus the mean residual at the same walks' endpoints,
    # of c * r_max / max(delta, p[s]) walks. The hub's push leaves p[s] above
    # 0.09 at every node, so each source draws 1 walk. A target at the 99.5%
    # PageRank quantile, also pushed in rounds, leaves residual at nodes it
    # never pushed (p[s] = 0); from two of them 700 walks pick it up.
    g = _power_law_3000()
    params = pw.PprParams(delta=1e-5, r_max=1e-3)
    order = np.argsort(pw.exact_global_pagerank(g, params.alpha))
    hub, mid = int(order[-1]), int(order[int(0.995 * g.n) - 1])
    cold = pw.reverse_push(g, mid, params.r_max, params.alpha)
    a, b = np.flatnonzero((cold.residuals.array > 0) & (cold.estimates.array == 0))[:2]
    for t, s, seed, walks in ((hub, hub, 3, 1), (hub, 17, 5, 1), (hub, 2999, 8, 1),
                              (mid, int(a), 5, 700), (mid, int(b), 8, 700)):
        pr = pw.reverse_push(g, t, params.r_max, params.alpha)
        assert isinstance(pr.residuals, pw.DenseVec)
        p_s = pr.estimates.get(s, 0.0)
        w = max(1, math.ceil(params.effective_c() * params.r_max / max(params.delta, p_s)))
        assert w == walks
        total = 0.0
        for v in pw.walk_endpoints(g, s, w, pw.WalkConfig(params.alpha, seed)):
            total += pr.residuals.get(v, 0.0)
        assert total > 0.0 or w == 1
        est = pw.estimate_ppr(g, s, t, params, seed=seed)
        assert est.walks_used == w
        assert est.value == pytest.approx(p_s + total / w, abs=1e-12)


# ---------------------------------------------------------------- kept pushes

_KEPT_KINDS = {
    "reverse_push": lambda g, t: pw.reverse_push(g, t, 1e-3, 0.2),
    "reverse_push_balanced": lambda g, t: pw.reverse_push_balanced(g, t, 0.2, 4.0 / g.n),
}


def _same_push(a, b):
    return (np.array_equal(a.estimates.array, b.estimates.array)
            and np.array_equal(a.residuals.array, b.residuals.array)
            and (a.pushes_performed, a.achieved_rmax, a.work_units)
            == (b.pushes_performed, b.achieved_rmax, b.work_units))


@pytest.mark.parametrize("kind", sorted(_KEPT_KINDS))
def test_costly_pushes_are_kept_and_equal_a_fresh_push(kind):
    run = _KEPT_KINDS[kind]
    g = _power_law_3000()
    hub = int(np.argmax(pw.exact_global_pagerank(g, 0.2)))
    first = run(g, hub)
    assert isinstance(first.estimates, pw.DenseVec) and first.work_units > g.m
    assert run(g, hub) is first
    assert len(g.kept_pushes) == 1
    fresh = run(_power_law_3000(), hub)
    assert fresh is not first and _same_push(fresh, first)
    # kept results are shared, so neither the result nor its arrays change
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.work_units = 0
    with pytest.raises(ValueError, match="read-only"):
        first.estimates.array[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        first.residuals.array[0] = 1.0


def test_cheap_pushes_are_not_kept():
    g = _power_law_3000()
    order = np.argsort(pw.exact_global_pagerank(g, 0.2))
    fifo_target, small_target = int(order[int(0.9 * g.n)]), int(order[int(0.95 * g.n)])
    fifo = pw.reverse_push(g, fifo_target, 1e-3, 0.2)
    assert not isinstance(fifo.estimates, pw.DenseVec)  # FIFO-only
    small = pw.reverse_push(g, small_target, 1e-3, 0.2)
    assert isinstance(small.estimates, pw.DenseVec) and small.work_units <= g.m
    assert small.estimates.array.flags.writeable  # only kept arrays are frozen
    balanced = pw.reverse_push_balanced(g, small_target, 0.2, 4.0 / g.n)
    assert balanced.work_units <= g.m
    assert pw.reverse_push(g, fifo_target, 1e-3, 0.2) is not fifo
    assert pw.reverse_push(g, small_target, 1e-3, 0.2) is not small
    assert pw.reverse_push_balanced(g, small_target, 0.2, 4.0 / g.n) is not balanced
    assert not g.kept_pushes


def test_kept_pushes_are_keyed_by_every_argument():
    g = _power_law_3000()
    hub = int(np.argmax(pw.exact_global_pagerank(g, 0.2)))
    fixed = pw.reverse_push(g, hub, 1e-3, 0.2)
    balanced = pw.reverse_push_balanced(g, hub, 0.2, 4.0 / g.n)
    variants = [
        lambda: pw.reverse_push(g, hub, 5e-4, 0.2),
        lambda: pw.reverse_push(g, hub, 1e-3, 0.15),
        lambda: pw.reverse_push_balanced(g, hub, 0.15, 4.0 / g.n),
        lambda: pw.reverse_push_balanced(g, hub, 0.2, 2.0 / g.n),
        lambda: pw.reverse_push_balanced(g, hub, 0.2, 4.0 / g.n, c=14.0),
        lambda: pw.reverse_push_balanced(g, hub, 0.2, 4.0 / g.n, walk_time_constant=0.1),
    ]
    seen = [fixed, balanced]
    for variant in variants:
        res = variant()
        assert all(res is not other for other in seen)
        assert variant() is res
        seen.append(res)
    assert len(g.kept_pushes) == len(seen)
    assert pw.reverse_push(g, hub, 1e-3, 0.2) is fixed
    # walk_time_constant=None means alpha, so both spellings share one entry
    assert pw.reverse_push_balanced(g, hub, 0.2, 4.0 / g.n, walk_time_constant=0.2) is balanced
    assert len(g.kept_pushes) == len(seen)


def test_kept_pushes_evict_the_least_recently_used(monkeypatch):
    g = _power_law_3000()
    monkeypatch.setattr(push, "_KEEP_BYTES", 2 * 16 * g.n)  # room for two
    hub = int(np.argmax(pw.exact_global_pagerank(g, 0.2)))
    a = pw.reverse_push(g, hub, 1e-3, 0.2)
    b = pw.reverse_push(g, hub, 5e-4, 0.2)
    assert pw.reverse_push(g, hub, 1e-3, 0.2) is a  # a is now the more recent
    c = pw.reverse_push_balanced(g, hub, 0.2, 4.0 / g.n)
    assert list(map(id, g.kept_pushes.values())) == [id(a), id(c)]
    again = pw.reverse_push(g, hub, 5e-4, 0.2)
    assert again is not b and _same_push(again, b)
    assert list(map(id, g.kept_pushes.values())) == [id(c), id(again)]


def test_a_kept_push_holds_only_its_arrays_once_read():
    g = _power_law_3000()
    hub = int(np.argmax(pw.exact_global_pagerank(g, 0.2)))
    kept = pw.reverse_push(g, hub, 1e-3, 0.2)
    rv = pw.build_reverse_vector(g, hub, 1e-3, 0.2)
    source_of(g, np.ones(g.n)).dot(kept.estimates)
    assert list(rv.estimates.items()) == list(kept.estimates.items())
    assert list(rv.residuals.items()) == list(kept.residuals.items())
    assert sum(kept.residuals.values()) == kept.residual_mass()
    assert pw.reverse_push(g, hub, 1e-3, 0.2) is kept
    for vec in (kept.estimates, kept.residuals):
        assert [x for x in gc.get_referents(vec) if x is not type(vec)] == [vec.array]


def test_kept_balanced_hub_is_pushed_deeper_and_stays_accurate():
    g = _power_law_3000()
    alpha, c = 0.2, 7.0
    delta = 4.0 / g.n
    pr = pw.exact_global_pagerank(g, alpha)
    hub, small = int(np.argmax(pr)), int(np.argsort(pr)[int(0.998 * g.n)])
    res = pw.reverse_push_balanced(g, hub, alpha, delta, c)
    assert res.work_units > g.m and pw.reverse_push_balanced(g, hub, alpha, delta, c) is res
    # at least one level below where a push paid by one call stops; a push
    # that is not kept still stops there
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(push, "_KEPT_CALLS", 1)
        one_call = pw.reverse_push_balanced(_power_law_3000(), hub, alpha, delta, c)
        unkept = pw.reverse_push_balanced(g, small, alpha, delta, c)
    assert 0.0 < res.achieved_rmax <= one_call.achieved_rmax * push._LEVEL_RATIO
    again = pw.reverse_push_balanced(g, small, alpha, delta, c)
    assert again.work_units <= g.m and again.achieved_rmax > 0.0
    assert again is not unkept and _same_push(again, unkept)
    # it stopped at a largest residual whose push would cost too much, per call kept for
    cost = [alpha * (res.work_units + len(g.in_adj[v])) / push._KEPT_CALLS
            for v in np.flatnonzero(res.residuals.array == res.achieved_rmax).tolist()]
    assert max(cost) >= c * res.achieved_rmax / delta
    for s in (0, 2, 17, 500, 2999):
        gap = pw.exact_ppr(g, s, alpha)[hub] - res.estimates.get(s, 0.0)
        assert 0.0 <= gap <= res.achieved_rmax + 1e-12
    # the estimates built on it are unbiased
    params = pw.PprParams(delta=delta, alpha=alpha, c=c)
    for s in (2, 17, 500):
        values = [pw.estimate_ppr_balanced(g, s, hub, params, seed=k).value for k in range(40)]
        stderr = np.std(values, ddof=1) / math.sqrt(len(values))
        assert 0.0 < stderr and abs(np.mean(values) - pw.exact_ppr(g, s, alpha)[hub]) <= 4 * stderr


def test_balanced_estimates_replay_identically_on_a_kept_hub(monkeypatch):
    # a kept push deepened on a hit would answer the same query differently
    g = _power_law_3000()
    hub = int(np.argmax(pw.exact_global_pagerank(g, 0.2)))
    pushes = []
    balanced = bidir.reverse_push_balanced
    monkeypatch.setattr(bidir, "reverse_push_balanced",
                        lambda *args: pushes.append(balanced(*args)) or pushes[-1])
    params = pw.PprParams(delta=4.0 / g.n)
    first = pw.estimate_ppr_balanced(g, 17, hub, params, seed=5)
    again = pw.estimate_ppr_balanced(g, 17, hub, params, seed=5)
    assert pushes[0].work_units > g.m and pushes[1] is pushes[0]
    assert first.walks_used > 0
    assert ((again.value, again.walks_used, again.r_max_used)
            == (first.value, first.walks_used, first.r_max_used))


# ---------------------------------------------------------------- forward

def test_forward_not_eligible_at_threshold():
    g = pw.from_edges([(0, 0, 1.0)], n=1)
    res = pw.forward_push(g, 0, 2.0, 0.2)
    assert dict(res.estimates) == {}
    assert dict(res.residuals) == {0: 1.0}


def test_forward_hub_spoke_eligibility_boundary():
    # s fans out to n-2 spokes which merge into t. Eligibility is strict
    # (r/d > r_max): at r_max = 1/(n-2) the source itself sits exactly on
    # the boundary and nothing fires; just below it, s pushes once and the
    # spokes (r/d = 0.8/(n-2)) still hold.
    n = 12
    spokes = list(range(1, n - 1))
    edges = [(0, v, 1.0) for v in spokes] + [(v, n - 1, 1.0) for v in spokes]
    g = pw.apply_sink_convention(pw.from_edges(edges, n=n))

    at_boundary = pw.forward_push(g, 0, 1.0 / (n - 2), 0.2)
    assert at_boundary.pushes_performed == 0
    assert dict(at_boundary.residuals) == {0: 1.0}

    below = pw.forward_push(g, 0, 0.9 / (n - 2), 0.2)
    assert below.pushes_performed == 1  # only s itself
    assert below.estimates.get(n - 1, 0.0) == 0.0
    assert dict(below.estimates) == pytest.approx({0: 0.2})
    assert dict(below.residuals) == pytest.approx(
        {v: 0.8 / (n - 2) for v in spokes})


def test_forward_self_loop_settles_geometrically():
    g = pw.from_edges([(0, 0, 1.0)], n=1)
    for r_max in (0.5, 0.1, 0.01):
        res = pw.forward_push(g, 0, r_max, 0.2)
        assert res.estimates[0] >= 1 - r_max


def test_forward_invariant_random_graphs(rng):
    for _ in range(8):
        g = rand_graph(rng, n_max=30)
        s = int(rng.integers(g.n))
        r_max = float(rng.uniform(0.01, 0.5))
        res = pw.forward_push(g, s, r_max, 0.2)
        pim = pw.exact_ppr_matrix(g, 0.2)
        gap = forward_invariant_gap(g, s, res, pim, range(g.n))
        assert gap < 1e-10


def test_forward_degree_sum_is_recorded(rng):
    g = rand_graph(rng, n_max=20, directed=False)
    res = pw.forward_push(g, 0, 0.05, 0.2)
    assert res.degree_sum > 0


def _looped_graph(rng, directed):
    """Random weighted graph with self-loops on a third of the nodes. A
    directed one keeps its nodes without out-edges (degree 0); an undirected
    one has strength degrees and may have isolated nodes."""
    n = int(rng.integers(3, 30))
    edges = {}
    for _ in range(int(rng.integers(n, 3 * n))):
        u, v = rng.integers(n, size=2).tolist()
        edges[(u, v)] = float(rng.uniform(0.2, 3.0))
    for u in rng.choice(n, size=n // 3, replace=False).tolist():
        edges[(u, u)] = float(rng.uniform(0.2, 3.0))
    return pw.from_edges([(u, v, w) for (u, v), w in edges.items()], n=n,
                         undirected=not directed)


def _batch_rows(batch, k):
    rows, nodes, values = batch
    cut = np.searchsorted(rows, np.arange(k + 1))
    return [(nodes[a:b], values[a:b]) for a, b in zip(cut, cut[1:])]


@pytest.mark.parametrize("directed", [True, False])
def test_batched_forward_rounds_keep_the_identity_stop_rule_and_row_order(directed):
    # For every source: p + r.Pi equals pi_s, every residual at a node of
    # positive degree is at most r_max * d, a node of degree 0 is never
    # pushed, rows are ascending by node, and the batch is each source's
    # push alone, bit for bit.
    rng = np.random.default_rng(20 if directed else 21)
    pushed = dangling = 0
    for _ in range(25):
        g = _looped_graph(rng, directed)
        dangling += int((g.degrees == 0).sum())
        alpha = float(rng.uniform(0.05, 0.9))
        pim = pw.exact_ppr_matrix(g, alpha)
        sources = rng.permutation(g.n)[: int(rng.integers(1, g.n + 1))]
        for r_max in (1e-4, 1e-3, 0.01, 0.05, 0.2, 0.5, 1.0, 2.0):
            est, res = push._forward_all(g, sources, r_max, alpha)
            rows = zip(sources.tolist(), _batch_rows(est, sources.size),
                       _batch_rows(res, sources.size))
            for s, (p_nodes, p_vals), (r_nodes, r_vals) in rows:
                assert (np.diff(p_nodes) > 0).all() and (np.diff(r_nodes) > 0).all()
                assert (g.degrees[p_nodes] > 0).all()
                live = g.degrees[r_nodes] > 0
                assert (r_vals[live] <= r_max * g.degrees[r_nodes][live]).all()
                p = np.zeros(g.n)
                p[p_nodes] = p_vals
                assert np.abs(p + r_vals @ pim[r_nodes] - pim[s]).max() <= 1e-12
                alone = push._forward_all(g, np.array([s]), r_max, alpha)
                assert [a.tolist() for a in alone[0][1:]] == [p_nodes.tolist(), p_vals.tolist()]
                assert [a.tolist() for a in alone[1][1:]] == [r_nodes.tolist(), r_vals.tolist()]
                pushed += p_nodes.size > 0
    assert pushed > 100
    assert dangling > 0


def test_batched_forward_pushes_of_no_sources_are_empty():
    est, res = push._forward_all(two_cycle(), np.array([], dtype=int), 0.1, 0.2)
    assert all(a.size == 0 for a in est + res)


# ---------------------------------------------------------------- balanced

def test_balanced_queue_empties_to_exact_answer():
    g = pw.apply_sink_convention(pw.from_edges([(0, 1, 1.0)], n=2))
    res = pw.reverse_push_balanced(g, 1, 0.2, delta=1e-4)
    assert res.achieved_rmax == 0.0
    pi = pw.exact_ppr(g, 0, 0.2)
    assert res.estimates.get(0, 0.0) == pytest.approx(pi[1], abs=1e-12)


def test_balanced_infinite_work_cost_stops_immediately():
    g = two_cycle()
    res = pw.reverse_push_balanced(g, 1, 0.2, delta=0.01,
                                   walk_time_constant=math.inf)
    assert dict(res.estimates) == {}
    assert dict(res.residuals) == {1: 1.0}
    assert res.achieved_rmax == 1.0


@pytest.mark.parametrize("call", [
    lambda g: pw.reverse_push_balanced(g, 0, 0.2, delta=math.nan),
    lambda g: pw.reverse_push_balanced(g, 0, 0.2, delta=math.inf),
    lambda g: pw.reverse_push_balanced(g, 0, 0.2, delta=1e-3, c=math.nan),
    lambda g: pw.reverse_push_balanced(g, 0, 0.2, delta=1e-3, c=math.inf),
    lambda g: pw.reverse_push_balanced(g, 0, 0.2, delta=1e-3, walk_time_constant=math.nan),
    lambda g: pw.reverse_push(g, 0, math.nan, 0.2),
    lambda g: pw.forward_push(g, 0, math.nan, 0.2),
], ids=["balanced-delta-nan", "balanced-delta-inf", "balanced-c-nan", "balanced-c-inf",
        "balanced-walk-time-constant-nan", "reverse-r_max-nan", "forward-r_max-nan"])
def test_non_finite_push_parameters_are_rejected(call):
    # a NaN delta or c, or an infinite c, once ran the balanced push without
    # end; an infinite delta, a NaN walk time constant or a NaN threshold
    # returned the unit residual as if it were a push
    with pytest.raises(ValueError, match="must be positive"):
        call(two_cycle())


def test_balanced_work_constant_monotonicity(rng):
    g = rand_graph(rng, n_max=25, directed=True)
    t = int(rng.integers(g.n))
    small = pw.reverse_push_balanced(g, t, 0.2, delta=1e-3,
                                     walk_time_constant=0.01)
    large = pw.reverse_push_balanced(g, t, 0.2, delta=1e-3,
                                     walk_time_constant=100.0)
    assert small.achieved_rmax <= large.achieved_rmax


def test_balanced_residuals_bounded_by_achieved(rng):
    for _ in range(5):
        g = rand_graph(rng, n_max=25, directed=True)
        t = int(rng.integers(g.n))
        res = pw.reverse_push_balanced(g, t, 0.2, delta=1e-3)
        assert res.residuals.max_value() <= res.achieved_rmax + 1e-15


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    delta=st.floats(1e-4, 0.1),
    walk_time_constant=st.floats(1e-3, 10.0),
    growth=st.floats(1.0, 100.0),
)
def test_balanced_levels_keep_identity_and_stopping_rule(
        seed, delta, walk_time_constant, growth):
    g = rand_graph(np.random.default_rng(seed), n_max=30)
    t = seed % g.n
    alpha, c = 0.2, 7.0
    res = pw.reverse_push_balanced(g, t, alpha, delta, c, walk_time_constant)
    pim = pw.exact_ppr_matrix(g, alpha)
    assert reverse_invariant_gap(g, t, res, pim, range(g.n)) < 1e-10
    assert res.achieved_rmax == res.residuals.max_value()
    assert (res.achieved_rmax == 0.0) == (not res.residuals)
    if res.residuals:
        # the run stopped at a largest residual whose push would cost too much
        cost = {v: walk_time_constant * (res.work_units + len(g.in_adj[v]))
                for v, rv in res.residuals.items() if rv == res.achieved_rmax}
        assert max(cost.values()) >= c * res.achieved_rmax / delta
    dearer = pw.reverse_push_balanced(g, t, alpha, delta, c, walk_time_constant * growth)
    assert dearer.achieved_rmax >= res.achieved_rmax


def test_balanced_hub_push_brackets_exact_scores_and_counts_in_degrees(monkeypatch):
    g = _power_law_3000()
    alpha, delta = 0.2, 4.0 / g.n
    hub = int(np.argmax(pw.exact_global_pagerank(g, alpha)))
    pushed = []
    gathered = push._gathered_round

    def counting_round(g, est, res, frontier, alpha):
        pushed.append(frontier.copy())
        return gathered(g, est, res, frontier, alpha)

    monkeypatch.setattr(push, "_gathered_round", counting_round)
    res = pw.reverse_push_balanced(g, hub, alpha, delta)
    assert res.achieved_rmax > 0.0  # the hub's push stops at its balance point
    nodes = np.concatenate(pushed)
    assert res.pushes_performed == nodes.size
    assert res.work_units == sum(len(g.in_adj[v]) for v in nodes.tolist())
    for s in (hub, 1, 17, 500, 2999):
        gap = pw.exact_ppr(g, s, alpha)[hub] - res.estimates.get(s, 0.0)
        assert 0.0 <= gap <= res.achieved_rmax + 1e-12


@pytest.mark.parametrize("entry", [
    lambda g, v: pw.reverse_push(g, v, 0.1, 0.2),
    lambda g, v: pw.reverse_push_balanced(g, v, 0.2, delta=0.01),
    lambda g, v: pw.random_walk_path(g, v, pw.WalkConfig(), fixed_len=3),
    lambda g, v: pw.query_shared_walks(
        g, pw.build_shared_walk_vectors(g, 0.2, 0.1, d_max=8.0), 0, v,
        rev=pw.reverse_push(g, 0, 0.1, 0.2)),
], ids=["reverse_push", "reverse_push_balanced", "random_walk_path", "query_shared_walks_rev"])
@pytest.mark.parametrize("node", [1.5, 1.0, "1", None])
def test_non_integer_node_ids_are_rejected(entry, node):
    with pytest.raises(ValueError, match="not an integer node id"):
        entry(two_cycle(), node)


def _dense_only(monkeypatch):
    monkeypatch.setattr(push, "_DICT_SHARE", -1.0)  # no round fits the dicts


def _entries(vec):
    return [a.tolist() for a in vec.arrays()]


@pytest.mark.parametrize("graph", ["power-law-3000", "small-random"])
def test_small_balanced_pushes_run_on_dicts_bit_for_bit(monkeypatch, graph):
    # every target, three (delta, c) pairs: the same entries, counts and
    # achieved_rmax as a push that runs every round dense
    if graph == "power-law-3000":
        graphs = [_power_law_3000()]
    else:  # dict rounds up to m/3 edges, past which dense rounds bincount
        graphs = [rand_graph(np.random.default_rng(seed), n_max=30) for seed in range(40)]
        monkeypatch.setattr(push, "_DICT_SHARE", push._GATHER_SHARE)
    pairs = [(4.0 / graphs[0].n, 7.0), (1e-3, 7.0), (0.02, 2.0)]
    runs = {}
    for form in ("as is", "dense"):
        if form == "dense":
            _dense_only(monkeypatch)
        runs[form] = [push._balanced(g, t, 0.2, delta, c, 0.2)
                      for g in graphs for t in range(g.n) for delta, c in pairs]
    ended_in_dicts = 0
    for res, dense in zip(runs["as is"], runs["dense"]):
        assert isinstance(dense.estimates, pw.DenseVec)
        ended_in_dicts += not isinstance(res.estimates, pw.DenseVec)
        assert _entries(res.estimates) == _entries(dense.estimates)
        assert _entries(res.residuals) == _entries(dense.residuals)
        assert ((res.pushes_performed, res.work_units, res.achieved_rmax)
                == (dense.pushes_performed, dense.work_units, dense.achieved_rmax))
    assert 0 < ended_in_dicts < len(runs["dense"])


def test_no_reverse_push_depends_on_where_it_goes_dense(monkeypatch):
    # Dense before the first round, at the default rule, and dicts for
    # every round a dense round would gather: the same entries, counts and
    # achieved_rmax, bit for bit, for random graphs, targets and thresholds.
    rng = np.random.default_rng(35)
    graphs = [rand_graph(rng, n_max=30) for _ in range(30)]
    graphs += [pw.parse_edge_lines(generate_synthetic("power-law", 2000, seed), undirected=seed == 1)
               for seed in (0, 1)]
    calls = []
    for g in graphs:
        for t in rng.choice(g.n, size=min(g.n, 8), replace=False).tolist():
            r_max, delta = 10 ** rng.uniform(-4, -0.5), 10 ** rng.uniform(-4, -1)
            calls.append(lambda g=g, t=t, r=r_max: push._fixed(g, (t,), r, 0.2))
            calls.append(lambda g=g, t=t, d=delta: push._balanced(g, t, 0.2, d, 7.0, 0.2))
    runs = []
    for share in (-1.0, push._DICT_SHARE, push._GATHER_SHARE):
        monkeypatch.setattr(push, "_DICT_SHARE", share)
        runs.append([call() for call in calls])
    forms = {(type(res.estimates), type(late.estimates)) for res, late in zip(*runs[1:])}
    assert (pw.Row, pw.Row) in forms and (pw.DenseVec, pw.DenseVec) in forms
    assert (pw.DenseVec, pw.Row) in forms  # the default rule goes dense sooner
    for dense, res, late in zip(*runs):
        assert isinstance(dense.estimates, pw.DenseVec)
        for other in (res, late):
            assert _entries(other.estimates) == _entries(dense.estimates)
            assert _entries(other.residuals) == _entries(dense.residuals)
            assert ((other.pushes_performed, other.work_units, other.achieved_rmax)
                    == (dense.pushes_performed, dense.work_units, dense.achieved_rmax))


@pytest.mark.parametrize("undirected", [False, True])
def test_forward_push_is_the_store_batchs_row_bit_for_bit(undirected):
    rng = np.random.default_rng(36)
    g = pw.parse_edge_lines(generate_synthetic("power-law", 1000, 2), undirected=undirected)
    graphs = [g] + [_looped_graph(rng, not undirected) for _ in range(10)]
    pushed = 0
    for g in graphs:
        for s in rng.choice(g.n, size=min(g.n, 12), replace=False).tolist():
            r_max, alpha = 10 ** rng.uniform(-4, 0), float(rng.uniform(0.05, 0.5))
            res = pw.forward_push(g, s, r_max, alpha)
            est, left = push._forward_all(g, np.array([s]), r_max, alpha)
            assert _entries(res.estimates) == [a.tolist() for a in est[1:]]
            assert _entries(res.residuals) == [a.tolist() for a in left[1:]]
            pushed += res.pushes_performed > 1
    assert pushed > 20


def test_a_leaf_targets_balanced_push_holds_no_length_n_array():
    g = _power_law_3000()
    leaf = int(np.flatnonzero(np.diff(g.in_csr[0]) == 0)[0])  # in-degree 0
    res = pw.reverse_push_balanced(g, leaf, 0.2, 4.0 / g.n)
    assert (res.pushes_performed, res.work_units, res.achieved_rmax) == (1, 0, 0.0)
    assert dict(res.estimates) == {leaf: 0.2} and not res.residuals
    for vec in (res.estimates, res.residuals):
        assert type(vec) is push.Row
        assert all(a.size == len(vec) for a in vec.arrays())
    assert pw.estimate_ppr_balanced(g, leaf, leaf, pw.PprParams(delta=4.0 / g.n)).walks_used == 0


def test_balanced_pushes_keep_what_dense_pushes_keep(monkeypatch):
    # a result is kept when its work exceeds m, in whichever form its
    # rounds ran; one that ends in the dicts with that much work ends dense
    def calls(g, targets):
        for t in targets:
            yield lambda: pw.reverse_push(g, t, 1e-3, 0.2)
            for delta, c in ((4.0 / g.n, 7.0), (1e-3, 7.0), (0.02, 2.0)):
                yield lambda: pw.reverse_push_balanced(g, t, 0.2, delta, c)

    def kept_after(make_graphs):
        kept = []
        for g, targets in make_graphs():
            results = [call() for call in calls(g, targets)]
            assert all(isinstance(res.estimates, pw.DenseVec)
                       for res in g.kept_pushes.values())
            assert all(any(res is k for res in results) for k in g.kept_pushes.values())
            kept.append(list(g.kept_pushes))
        return kept

    def graphs():
        g = _power_law_3000()
        order = np.argsort(pw.exact_global_pagerank(g, 0.2))
        yield g, [int(order[int(q * g.n)]) for q in (0.0, 0.5, 0.9, 0.95, 0.99, 0.999)] + [
            int(order[-1])]
        for seed in range(6):
            small = rand_graph(np.random.default_rng(seed), n_max=30)
            yield small, range(small.n)

    ours = kept_after(graphs)
    _dense_only(monkeypatch)
    assert ours == kept_after(graphs)
    assert all(ours) and sum(key[0] == "balanced" for keys in ours for key in keys) > 6

"""End-to-end command-line checks, run in-process through cli.main."""

import json
import os
import pickle

import numpy as np
import pytest

import pushwalk as pw
from pushwalk import cli, pathsampling, search, sharding
from conftest import NoDraws


@pytest.fixture
def two_cycle_file(tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text("a b\nb a\n")
    return str(path)


def _records(capsys):
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
    return [json.loads(ln) for ln in lines]


# ---------------------------------------------------------------------------
# synthetic generator


def test_gen_families_are_deterministic():
    a = cli.generate_synthetic("power-law", 1000, seed=9)
    b = cli.generate_synthetic("power-law", 1000, seed=9)
    assert a == b
    assert cli.generate_synthetic("cycle", 2) == ["0 1", "1 0"]
    star = cli.generate_synthetic("star", 5)
    assert len(star) == 8 and star.count("0 1") == 1 and star.count("1 0") == 1
    with pytest.raises(ValueError):
        cli.generate_synthetic("cycle", 1)
    with pytest.raises(ValueError):
        cli.generate_synthetic("mystery", 10)


def test_gen_writes_loadable_file(tmp_path, capsys):
    out = tmp_path / "cycle.txt"
    rc = cli.main(["gen", "--kind", "cycle", "--n", "6", "--output", str(out)])
    assert rc == 0
    recs = _records(capsys)
    assert recs[0]["record"] == "config" and recs[0]["parameters"]["n"] == 6
    g = pw.load_edge_list(str(out))
    assert g.n == 6 and g.m == 6
    first = out.read_text().splitlines()[0]
    assert first.startswith("# ")  # config comment survives the parser


def test_gen_rejects_tiny_graph():
    assert cli.main(["gen", "--kind", "cycle", "--n", "1"]) == 1


# ---------------------------------------------------------------------------
# happy paths


def test_oracle_pair_value(two_cycle_file, capsys):
    rc = cli.main(["oracle", "--graph", two_cycle_file, "--source", "a",
                   "--target", "b", "--alpha", "0.2"])
    assert rc == 0
    config, result = _records(capsys)
    assert config["record"] == "config"
    assert result["record"] == "result"
    assert result["estimates"]["target"] == "b"
    assert result["estimates"]["value"] == pytest.approx(4.0 / 9.0, rel=1e-9)


def test_oracle_top_listing_and_global_rank(two_cycle_file, capsys):
    rc = cli.main(["oracle", "--graph", two_cycle_file, "--source", "a",
                   "--global-rank"])
    assert rc == 0
    _, result = _records(capsys)
    top = dict(map(tuple, result["estimates"]["top"]))
    assert top["a"] == pytest.approx(0.5) and top["b"] == pytest.approx(0.5)


def test_oracle_multistep_horizon(two_cycle_file, capsys):
    rc = cli.main(["oracle", "--graph", two_cycle_file, "--source", "a",
                   "--target", "b", "--ell", "3"])
    assert rc == 0
    _, result = _records(capsys)
    assert result["estimates"]["value"] == pytest.approx(1.0)


def test_estimate_default_and_flags(two_cycle_file, capsys):
    rc = cli.main(["estimate", "--graph", two_cycle_file, "--source", "a",
                   "--target", "b", "--seed", "3"])
    assert rc == 0
    config, result = _records(capsys)
    assert config["record"] == "config"
    assert result["estimates"]["value"] == pytest.approx(4.0 / 9.0, abs=0.25)
    assert result["counters"]["pushes"] >= 0
    line = json.dumps(result, sort_keys=True)
    rec = cli.RunRecord.from_line(line)
    assert rec.to_line() == line  # lossless record round-trip


def test_estimate_monte_carlo_and_balanced(two_cycle_file, capsys):
    rc = cli.main(["estimate", "--graph", two_cycle_file, "--source", "a",
                   "--target", "a", "--method", "monte-carlo", "--walks", "700"])
    assert rc == 0
    _, result = _records(capsys)
    assert result["counters"]["walks"] == 700
    assert result["counters"]["r_max"] == "inf"
    assert result["estimates"]["value"] == pytest.approx(5.0 / 9.0, abs=0.06)

    rc = cli.main(["estimate", "--graph", two_cycle_file, "--source", "a",
                   "--target", "b", "--method", "balanced"])
    assert rc == 0
    _, result = _records(capsys)
    assert result["parameters"]["method"] == "balanced"
    assert result["estimates"]["value"] == pytest.approx(4.0 / 9.0, abs=0.25)


def test_estimate_undirected_variant(tmp_path, capsys):
    path = tmp_path / "path3.txt"
    path.write_text("a b\nb c\n")
    rc = cli.main(["estimate", "--graph", str(path), "--undirected",
                   "--method", "undirected", "--source", "a", "--target", "b"])
    assert rc == 0
    _, result = _records(capsys)
    assert result["parameters"]["method"] == "undirected"
    assert result["estimates"]["value"] >= 0.0
    # degree-symmetric estimator demands a symmetric graph
    rc = cli.main(["estimate", "--graph", str(path),
                   "--method", "undirected", "--source", "a", "--target", "b"])
    assert rc == 1


def test_estimate_rejects_flags_the_method_ignores(two_cycle_file, capsys):
    base = ["estimate", "--graph", two_cycle_file, "--source", "a", "--target", "b"]
    for method, flag in (("bidirectional", "--walks"), ("undirected", "--walks"),
                         ("balanced", "--walks"),
                         ("bidirectional", "--walk-time-constant"),
                         ("monte-carlo", "--walk-time-constant"),
                         ("balanced", "--rmax"), ("monte-carlo", "--rmax"),
                         ("monte-carlo", "--c"), ("undirected", "--c")):
        assert cli.main(base + ["--method", method, flag, "2"]) == 1
        assert f"{flag} does not apply to --method {method}" in capsys.readouterr().err
    for method in ("monte-carlo", "undirected"):
        assert cli.main(base + ["--method", method, "--use-theorem-c"]) == 1
        err = capsys.readouterr().err
        assert f"--use-theorem-c does not apply to --method {method}" in err
    with pytest.raises(SystemExit) as exc:  # the old method booleans are gone
        cli.main(base + ["--balanced"])
    assert exc.value.code == 1


@pytest.mark.parametrize("args", [
    ["estimate", "--delta", "inf", "--method", "balanced"],
    ["estimate", "--delta", "inf", "--method", "monte-carlo"],
    ["estimate", "--c", "inf"],
    ["heat-kernel", "--t", "inf"],
    ["estimate-mstp", "--eps-r", "inf", "--ell-max", "3"],
    ["estimate", "--walk-time-constant", "nan", "--method", "balanced"],
], ids=["delta-balanced", "delta-monte-carlo", "c", "t", "eps-r", "walk-time-constant-nan"])
def test_infinite_parameters_exit_one(tmp_path, capsys, args):
    # an infinite delta once gave 0.0 with exit 0; the others raised
    # OverflowError while sizing the walk budget, and a NaN walk time
    # constant ran no push and printed NaN with exit 0
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 2\n2 0\n1 0\n")
    assert cli.main(args + ["--graph", str(path), "--source", "0", "--target", "1"]) == 1
    assert f"pushwalk {args[0]}: invalid parameters" in capsys.readouterr().err


def test_estimate_walk_constant_sizes_the_walks(tmp_path, capsys):
    path = tmp_path / "g.txt"
    assert cli.main(["gen", "--kind", "power-law", "--n", "300", "--output", str(path)]) == 0
    capsys.readouterr()
    base = ["estimate", "--graph", str(path), "--source", "9", "--target", "0",
            "--delta", "0.001"]
    walks = {}
    for extra in ([], ["--c", "7"], ["--c", "50"]):
        assert cli.main(base + ["--method", "bidirectional", "--rmax", "0.01"] + extra) == 0
        walks[tuple(extra)] = _records(capsys)[1]["counters"]["walks"]
    # the default is PprParams.c; a larger constant buys more walks
    assert walks[()] == walks[("--c", "7")] < walks[("--c", "50")]


def test_estimate_mstp_and_first_passage(two_cycle_file, capsys):
    rc = cli.main(["estimate-mstp", "--graph", two_cycle_file, "--source", "a",
                   "--target", "b", "--ell-max", "3", "--c", "30"])
    assert rc == 0
    config, result = _records(capsys)
    per_ell = result["estimates"]["per_ell"]
    # entries cover horizons 1..ell_max; on the two-cycle a reaches b at
    # every odd horizon with certainty
    assert len(per_ell) == 3
    assert per_ell[0] == pytest.approx(1.0, abs=0.3)
    assert per_ell[1] == pytest.approx(0.0, abs=0.3)
    assert result["counters"]["paths"] >= 1

    rc = cli.main(["estimate-mstp", "--graph", two_cycle_file, "--source", "a",
                   "--target", "b", "--ell-max", "3", "--first-passage",
                   "--eps-r", "0.001"])
    assert rc == 0
    _, result = _records(capsys)
    # b is hit for the first time at step 1, with certainty
    assert result["estimates"]["per_ell"] == pytest.approx([1, 0, 0], abs=0.05)


def test_heat_kernel_pair(two_cycle_file, capsys):
    rc = cli.main(["heat-kernel", "--graph", two_cycle_file, "--source", "a",
                   "--target", "b", "--t", "1.0"])
    assert rc == 0
    config, result = _records(capsys)
    assert config["parameters"]["ell_max"] >= 1
    # exact value: e^-1 * sum_{odd ell} 1/ell! = e^-1 * sinh(1)
    assert result["estimates"]["value"] == pytest.approx(
        np.exp(-1.0) * np.sinh(1.0), abs=0.2)


def test_heat_kernel_counts_the_paths_it_draws(tmp_path, capsys):
    path = tmp_path / "g.txt"
    assert cli.main(["gen", "--kind", "power-law", "--n", "300", "--output", str(path)]) == 0
    capsys.readouterr()
    rc = cli.main(["heat-kernel", "--graph", str(path), "--undirected", "--source", "9",
                   "--target", "1", "--t", "3", "--delta", "0.002"])
    assert rc == 0
    _, result = _records(capsys)
    hk = pw.HeatKernelParams(3.0)
    params = pw.MstpParams(ell_max=hk.ell_max, delta=0.002)
    assert result["counters"]["paths"] == pw.heat_kernel_paths(hk, params)
    assert result["counters"]["paths"] < params.num_paths()


def test_heat_kernel_tiny_t_needs_no_ell_max(two_cycle_file, capsys):
    # the default horizon once rounded to 0 and exited 1
    rc = cli.main(["heat-kernel", "--graph", two_cycle_file, "--source", "a",
                   "--target", "b", "--t", "1e-12"])
    assert rc == 0
    config, result = _records(capsys)
    assert config["parameters"]["ell_max"] == 1
    assert result["estimates"]["value"] == pytest.approx(1e-12, abs=1e-15)


def test_search_methods_agree_on_lone_target(tmp_path, two_cycle_file, capsys):
    kw = tmp_path / "kw.tsv"
    kw.write_text("topic\tb\n")
    for method in ("direct", "grouped", "sampling"):
        rc = cli.main(["search", "--graph", two_cycle_file, "--source", "a",
                       "--keyword", "topic", "--keywords", str(kw),
                       "--method", method, "--nsamples", "200"])
        assert rc == 0
        _, result = _records(capsys)
        ranking = result["estimates"]["ranking"]
        assert ranking[0][0] == "b"


def test_search_with_nothing_reachable_exits_zero(tmp_path, capsys):
    graph = tmp_path / "two_parts.txt"
    graph.write_text("0 1\n1 0\n2 3\n3 2\n")
    kw = tmp_path / "kw.tsv"
    kw.write_text("topic\t2\ntopic\t3\n")
    for method in ("direct", "grouped", "sampling"):
        rc = cli.main(["search", "--graph", str(graph), "--source", "0",
                       "--keyword", "topic", "--keywords", str(kw),
                       "--method", method, "--rmax", "0.01"])
        assert rc == 0
        _, result = _records(capsys)
        scores = [score for _, score in result["estimates"]["ranking"]]
        assert scores == ([] if method == "sampling" else [0.0, 0.0])


def test_search_with_an_index_refuses_the_flags_it_ignores(tmp_path, two_cycle_file, capsys):
    kw = tmp_path / "kw.tsv"
    kw.write_text("topic\tb\n")
    idx = tmp_path / "idx.bin"
    assert cli.main(["precompute-search", "--graph", two_cycle_file, "--keywords",
                     str(kw), "--rmax", "0.05", "--output", str(idx)]) == 0
    capsys.readouterr()
    query = ["search", "--graph", two_cycle_file, "--source", "a", "--keyword", "topic",
             "--index", str(idx)]
    # the index ranks at its own r_max and targets, so the flags would be ignored
    for flag, value in (("--rmax", "0.9"), ("--keywords", str(kw))):
        assert cli.main(query + [flag, value]) == 1
        assert f"{flag} does not apply with --index" in capsys.readouterr().err
    assert cli.main(query) == 0


def test_search_index_at_another_alpha_exits_one(tmp_path, two_cycle_file, capsys):
    kw = tmp_path / "kw.tsv"
    kw.write_text("topic\tb\n")
    idx = tmp_path / "idx.bin"
    assert cli.main(["precompute-search", "--graph", two_cycle_file, "--keywords",
                     str(kw), "--rmax", "0.3", "--alpha", "0.5",
                     "--output", str(idx)]) == 0
    for method in ("grouped", "sampling"):
        assert cli.main(["search", "--graph", two_cycle_file, "--source", "a",
                         "--keyword", "topic", "--index", str(idx),
                         "--method", method]) == 1
    assert "alpha" in capsys.readouterr().err


def test_precompute_search_then_query(tmp_path, two_cycle_file, capsys):
    kw = tmp_path / "kw.tsv"
    kw.write_text("topic\tb\ntopic\ta\n")
    idx = tmp_path / "idx.bin"
    rc = cli.main(["precompute-search", "--graph", two_cycle_file,
                   "--keywords", str(kw), "--rmax", "0.3",
                   "--output", str(idx)])
    assert rc == 0
    recs = _records(capsys)
    assert recs[1]["counters"]["targets"] == 2
    payload = pw.load_index(idx)
    assert payload["keywords"]["topic"].r_max == 0.3

    rc = cli.main(["search", "--graph", two_cycle_file, "--source", "a",
                   "--keyword", "topic", "--index", str(idx), "--seed", "2"])
    assert rc == 0
    _, result = _records(capsys)
    names = [name for name, _ in result["estimates"]["ranking"]]
    assert sorted(names) == ["a", "b"]


def test_precompute_search_adaptive_threshold(tmp_path, two_cycle_file, capsys):
    kw = tmp_path / "kw.tsv"
    kw.write_text("topic\tb\n")
    idx = tmp_path / "adaptive.bin"
    rc = cli.main(["precompute-search", "--graph", two_cycle_file,
                   "--keywords", str(kw), "--adaptive", "--walks", "100",
                   "--topk", "1", "--output", str(idx)])
    assert rc == 0
    payload = pw.load_index(idx)
    got = payload["keywords"]["topic"].r_max
    want = pw.adaptive_r_max([1], pw.exact_global_pagerank(
        pw.load_edge_list(two_cycle_file), 0.2), 100, 1)
    assert got == pytest.approx(want)


def test_precompute_search_pushes_each_target_once(tmp_path, monkeypatch, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("\n".join(cli.generate_synthetic("power-law", 300, seed=4)) + "\n")
    kw = tmp_path / "kw.tsv"
    kw.write_text("red\t1\nred\t5\nred\t9\nred\t40\nblue\t5\nblue\t77\n")
    pushed = []
    push = search.reverse_push
    monkeypatch.setattr(search, "reverse_push",
                        lambda g, t, *rest: pushed.append(t) or push(g, t, *rest))
    idx = tmp_path / "idx.bin"
    assert cli.main(["precompute-search", "--graph", str(graph), "--keywords", str(kw),
                     "--rmax", "0.01", "--output", str(idx)]) == 0
    capsys.readouterr()
    payload = pw.load_index(idx)
    assert len(pushed) == 6  # one push per (keyword, target)
    g = pw.apply_sink_convention(pw.load_edge_list(str(graph)))
    assert set(payload) == {"graph", "keywords"}  # the graph once, one index per keyword
    keywords = {"red": ["1", "5", "9", "40"], "blue": ["5", "77"]}
    assert set(payload["keywords"]) == set(keywords)
    for word, stored in payload["keywords"].items():
        targets = sorted(g.node_id(token) for token in keywords[word])
        for build in (pw.build_grouped_index, pw.build_target_sampler):
            fresh = build(g, targets, 0.01, 0.2)
            assert stored.targets == fresh.targets == targets
            assert stored.r_max == 0.01 and stored.alpha == 0.2
            for name in ("keys", "ptr", "nodes", "data"):
                assert np.array_equal(getattr(stored.table, name), getattr(fresh.table, name))
        # the index gives back every target's reverse vector
        back = stored.reverse_vectors()
        assert sorted(back) == sorted(targets)
        for t in targets:
            fresh = pw.build_reverse_vector(g, t, 0.01, 0.2)
            assert dict(back[t].estimates) == dict(fresh.estimates)
            assert dict(back[t].residuals) == dict(fresh.residuals)
    # so direct scoring from the index pushes nothing, and ranks as a fresh push does
    query = ["search", "--graph", str(graph), "--source", "9", "--keyword", "red",
             "--method", "direct"]
    pushed.clear()
    assert cli.main(query + ["--index", str(idx)]) == 0
    assert pushed == []
    _, from_index = _records(capsys)
    assert cli.main(query + ["--keywords", str(kw), "--rmax", "0.01"]) == 0
    assert sorted(pushed) == [1, 5, 9, 40]
    _, fresh = _records(capsys)
    assert from_index["estimates"]["ranking"] == fresh["estimates"]["ranking"]
    assert any(score > 0.0 for _, score in fresh["estimates"]["ranking"])


def test_sample_path_output_format(two_cycle_file, capsys):
    rc = cli.main(["sample-path", "--graph", two_cycle_file, "--source", "a",
                   "--targets", "b", "--epsr", "0.5", "--count", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    header = json.loads(lines[0][2:])
    assert header["record"] == "config"
    assert header["parameters"]["targets"] == ["b"]
    assert len(lines) == 5
    for path_line in lines[1:4]:
        toks = path_line.split()
        assert toks[0] == "a" and toks[-1] == "b"
    assert lines[4].startswith("# paths=3 attempts=")


def test_sample_path_targets_file(tmp_path, two_cycle_file, capsys):
    tf = tmp_path / "targets.txt"
    tf.write_text("b\n")
    rc = cli.main(["sample-path", "--graph", two_cycle_file, "--source", "a",
                   "--targets-file", str(tf)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split()[-1] == "b"


@pytest.mark.parametrize("epsr", ["nan", "inf"])
def test_sample_path_non_finite_epsr_exits_one(two_cycle_file, capsys, epsr):
    rc = cli.main(["sample-path", "--graph", two_cycle_file, "--source", "a",
                   "--targets", "b", "--epsr", epsr])
    assert rc == 1
    assert "pushwalk sample-path: invalid parameters: eps_r" in capsys.readouterr().err


def test_sample_path_negative_count_exits_one(two_cycle_file, capsys):
    rc = cli.main(["sample-path", "--graph", two_cycle_file, "--source", "a",
                   "--targets", "b", "--count", "-3"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "--count" in captured.err
    assert "paths=" not in captured.out


@pytest.mark.parametrize("command, flag", [
    ("oracle", "--top"), ("search", "--topk"), ("precompute-search", "--topk"),
])
def test_negative_top_flags_exit_one(tmp_path, two_cycle_file, capsys, command, flag):
    kw = tmp_path / "kw.tsv"
    kw.write_text("topic\tb\n")
    extra = {"oracle": ["--source", "a"],
             "search": ["--source", "a", "--keyword", "topic", "--keywords", str(kw)],
             "precompute-search": ["--keywords", str(kw), "--adaptive",
                                   "--output", str(tmp_path / "idx.bin")]}[command]
    rc = cli.main([command, "--graph", two_cycle_file, *extra, flag, "-1"])
    assert rc == 1
    captured = capsys.readouterr()
    assert f"{flag} must be nonnegative, got -1" in captured.err
    assert captured.out == ""


def test_precompute_store_and_serve(tmp_path, two_cycle_file, capsys):
    store1 = tmp_path / "store1.bin"
    rc = cli.main(["precompute", "--graph", two_cycle_file, "--delta", "0.05",
                   "--shards", "1", "--output", str(store1)])
    assert rc == 0
    capsys.readouterr()

    store3 = tmp_path / "store3.bin"
    rc = cli.main(["precompute", "--graph", two_cycle_file, "--delta", "0.05",
                   "--shards", "3", "--output", str(store3)])
    assert rc == 0
    capsys.readouterr()

    values = {}
    for store in (store1, store3):
        rc = cli.main(["serve-sim", "--graph", two_cycle_file,
                       "--store", str(store), "--query", "a,b"])
        assert rc == 0
        _, result = _records(capsys)
        assert result["estimates"]["value"] == pytest.approx(
            result["estimates"]["in_process_value"], abs=1e-12)
        values[str(store)] = result["estimates"]["value"]
    # identical walks, exact partial sums: shard count cannot change the answer
    assert len(set(values.values())) == 1


def test_precompute_refuses_a_shard_count_below_one(tmp_path, two_cycle_file, capsys):
    store = tmp_path / "store.bin"
    assert cli.main(["precompute", "--graph", two_cycle_file, "--delta", "0.05",
                     "--shards", "0", "--output", str(store)]) == 1
    assert "--shards must be at least 1" in capsys.readouterr().err
    assert not store.exists()


def test_precompute_reports_the_store_walk_count_beside_the_model(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("\n".join(cli.generate_synthetic("power-law", 120, seed=3)) + "\n")
    out = tmp_path / "store.bin"
    assert cli.main(["precompute", "--graph", str(graph), "--delta", "0.01",
                     "--output", str(out)]) == 0
    config, result = _records(capsys)
    store = pw.load_index(out)["store"]
    # the walks the store drew, next to the model's uniform per-node count
    model = config["parameters"]
    assert model["shared_walks"] == store.params.shared_walks(0.01)
    assert result["counters"]["walks"] == sum(store.walk_counts) > 0
    assert result["counters"]["walks"] != model["n"] * model["shared_walks"]


# (source, target) -> (sharded value, in-process value) of the serve-sim
# round trip below, as answered by the store's batched forward push, whose
# rows are ascending by node.
_ROUND_TRIP = {
    ("0", "1"): (0.07774708500514836, 0.07774708500514836),
    ("5", "0"): (0.02411989447262114, 0.02411989447262114),
    ("17", "3"): (0.030029409199844277, 0.03002940919984428),
    ("3", "0"): (0.005824730051143205, 0.005824730051143204),
    ("40", "1"): (0.025884587754222317, 0.025884587754222317),
    ("99", "0"): (0.005766968997761373, 0.005766968997761372),
    ("2", "2"): (0.28617597591554217, 0.28617597591554217),
    ("7", "1"): (0.024566682627289404, 0.0245666826272894),
    ("60", "0"): (0.005240322817654585, 0.005240322817654584),
}


def test_precompute_serve_round_trip_answers_are_pinned(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("\n".join(cli.generate_synthetic("power-law", 120, seed=3)) + "\n")
    store = tmp_path / "store.bin"
    assert cli.main(["precompute", "--graph", str(graph), "--undirected", "--delta", "0.002",
                     "--dmax", "10", "--c3", "2", "--shards", "3", "--seed", "5",
                     "--output", str(store)]) == 0
    assert _records(capsys)[1]["counters"] == {"full_walk_nodes": 8, "walk_entries": 1751,
                                               "walks": 3484}
    assert b"numpy" not in store.read_bytes()  # the tables are plain buffers
    args = ["serve-sim", "--graph", str(graph), "--undirected", "--store", str(store)]
    for s, t in _ROUND_TRIP:
        args += ["--query", f"{s},{t}"]
    assert cli.main(args) == 0
    got = {(r["estimates"]["source"], r["estimates"]["target"]):
           (r["estimates"]["value"], r["estimates"]["in_process_value"])
           for r in _records(capsys)[1:]}
    assert got == _ROUND_TRIP


@pytest.mark.parametrize("flags", [
    ["--delta", "0"], ["--delta", "-0.01"], ["--delta", "nan"],
    ["--delta", "0.05", "--c1", "-1"], ["--delta", "0.05", "--c3", "inf"],
    ["--delta", "0.05", "--dmax", "nan"],
])
def test_precompute_rejects_bad_store_parameters(tmp_path, two_cycle_file, capsys, flags):
    store = tmp_path / "store.bin"
    assert cli.main(["precompute", "--graph", two_cycle_file, *flags,
                     "--output", str(store)]) == 1
    assert "invalid parameters" in capsys.readouterr().err
    assert not store.exists()


def test_serve_sim_queries_file(tmp_path, two_cycle_file, capsys):
    store = tmp_path / "store.bin"
    assert cli.main(["precompute", "--graph", two_cycle_file, "--delta",
                     "0.05", "--output", str(store)]) == 0
    capsys.readouterr()
    qf = tmp_path / "queries.txt"
    qf.write_text("# header\na b\nb a\n")
    rc = cli.main(["serve-sim", "--graph", two_cycle_file, "--store",
                   str(store), "--queries", str(qf)])
    assert rc == 0
    recs = _records(capsys)
    assert len(recs) == 3  # config + two queries
    assert recs[1]["estimates"]["source"] == "a"
    assert recs[2]["estimates"]["source"] == "b"


def test_serve_sim_reports_a_malformed_queries_line(tmp_path, two_cycle_file, capsys):
    store = tmp_path / "store.bin"
    assert cli.main(["precompute", "--graph", two_cycle_file, "--delta",
                     "0.05", "--output", str(store)]) == 0
    capsys.readouterr()
    qf = tmp_path / "queries.txt"
    qf.write_text("a b\n  # indented comment\n\nb\n")
    rc = cli.main(["serve-sim", "--graph", two_cycle_file, "--store",
                   str(store), "--queries", str(qf)])
    assert rc == 2
    captured = capsys.readouterr()
    assert f"{qf}:4: expected 's t', got 'b'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flag", ["--graph", "--keywords", "--targets-file", "--queries"])
def test_input_that_is_not_utf8_exits_two_naming_the_file(tmp_path, two_cycle_file, capsys,
                                                          flag):
    store = tmp_path / "store.bin"
    assert cli.main(["precompute", "--graph", two_cycle_file, "--delta",
                     "0.05", "--output", str(store)]) == 0
    capsys.readouterr()
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"a b\n\xff a\n")
    argv = {"--graph": ["estimate", "--source", "a", "--target", "b"],
            "--keywords": ["search", "--source", "a", "--keyword", "topic"],
            "--targets-file": ["sample-path", "--source", "a"],
            "--queries": ["serve-sim", "--store", str(store)]}[flag]
    argv += [flag, str(bad)]
    if flag != "--graph":
        argv += ["--graph", two_cycle_file]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"{bad}: not UTF-8 text" in err
    kind = {"--graph": "bad graph data", "--keywords": "bad keyword file"}.get(flag, "")
    assert kind in err


def test_serve_sim_reports_an_unknown_node_with_its_line(tmp_path, two_cycle_file, capsys):
    store = tmp_path / "store.bin"
    assert cli.main(["precompute", "--graph", two_cycle_file, "--delta",
                     "0.05", "--output", str(store)]) == 0
    capsys.readouterr()
    qf = tmp_path / "queries.txt"
    qf.write_text("a b\nzz a\n")
    rc = cli.main(["serve-sim", "--graph", two_cycle_file, "--store",
                   str(store), "--queries", str(qf)])
    assert rc == 2
    captured = capsys.readouterr()
    assert f"{qf}:2: unknown node 'zz'" in captured.err
    assert captured.out == ""  # no query runs before every line resolves


def test_serve_sim_pushes_once_per_query(tmp_path, two_cycle_file, capsys, monkeypatch):
    store = tmp_path / "store.bin"
    assert cli.main(["precompute", "--graph", two_cycle_file, "--delta",
                     "0.05", "--output", str(store)]) == 0
    capsys.readouterr()
    pushes = []

    def counting(*args):
        pushes.append(args[1])
        return pw.reverse_push(*args)

    monkeypatch.setattr(cli, "reverse_push", counting)
    monkeypatch.setattr(sharding, "reverse_push", counting)
    rc = cli.main(["serve-sim", "--graph", two_cycle_file, "--store",
                   str(store), "--query", "a,b", "--query", "b,b"])
    assert rc == 0
    assert pushes == [1, 1]
    monkeypatch.undo()
    g = pw.load_edge_list(two_cycle_file)
    bundle = pw.load_index(store)
    for rec, (s, t) in zip(_records(capsys)[1:], [(0, 1), (1, 1)]):
        want = pw.query_shared_walks(g, bundle["store"], s, t)
        assert rec["estimates"]["in_process_value"] == want


def test_serve_sim_rejects_a_store_for_another_graph(tmp_path, two_cycle_file, capsys):
    big = tmp_path / "big.txt"
    big.write_text("\n".join(cli.generate_synthetic("power-law", 300, seed=4)) + "\n")
    store = tmp_path / "store.bin"
    assert cli.main(["precompute", "--graph", str(big), "--delta", "0.05",
                     "--output", str(store)]) == 0
    capsys.readouterr()
    five = tmp_path / "five.txt"
    five.write_text("\n".join(cli.generate_synthetic("cycle", 5)) + "\n")
    assert cli.main(["serve-sim", "--graph", str(five), "--store", str(store),
                     "--query", "4,1"]) == 2
    err = capsys.readouterr().err
    assert "300-node graph" in err and "has 5 nodes" in err


def test_search_rejects_an_index_for_another_graph(tmp_path, capsys):
    big = tmp_path / "big.txt"
    big.write_text("\n".join(cli.generate_synthetic("power-law", 300, seed=4)) + "\n")
    kw = tmp_path / "kw.tsv"
    kw.write_text("red\t1\nred\t9\nred\t250\n")
    idx = tmp_path / "idx.bin"
    assert cli.main(["precompute-search", "--graph", str(big), "--keywords", str(kw),
                     "--rmax", "0.05", "--output", str(idx)]) == 0
    capsys.readouterr()
    small = tmp_path / "small.txt"
    small.write_text("\n".join(cli.generate_synthetic("power-law", 60, seed=4)) + "\n")
    for method in ("direct", "grouped", "sampling"):
        assert cli.main(["search", "--graph", str(small), "--source", "9", "--keyword",
                         "red", "--index", str(idx), "--method", method]) == 2
        err = capsys.readouterr().err
        assert "300-node graph with" in err and "has 60 nodes" in err
        assert cli.main(["search", "--graph", str(big), "--source", "9", "--keyword",
                         "red", "--index", str(idx), "--method", method]) == 0
        capsys.readouterr()


def test_serve_sim_rejects_a_store_for_a_graph_with_other_edges(tmp_path, capsys):
    graphs = {}
    for kind in ("cycle", "star"):
        graphs[kind] = tmp_path / f"{kind}.txt"
        graphs[kind].write_text("\n".join(cli.generate_synthetic(kind, 5)) + "\n")
    store = tmp_path / "store.bin"
    assert cli.main(["precompute", "--graph", str(graphs["cycle"]), "--delta", "0.05",
                     "--output", str(store)]) == 0
    capsys.readouterr()
    assert cli.main(["serve-sim", "--graph", str(graphs["star"]), "--store", str(store),
                     "--query", "1,2"]) == 2
    err = capsys.readouterr().err
    assert "5-node graph with 5 edges" in err and "has 5 nodes and 8 edges" in err


def test_store_and_index_refuse_a_graph_of_the_same_size(tmp_path, capsys):
    graphs = {}
    for seed in (4, 5):  # both 300 nodes and 598 edges
        graphs[seed] = tmp_path / f"g{seed}.txt"
        graphs[seed].write_text("\n".join(cli.generate_synthetic("power-law", 300, seed)) + "\n")
    kw = tmp_path / "kw.tsv"
    kw.write_text("red\t1\nred\t9\nred\t250\n")
    store, idx = tmp_path / "store.bin", tmp_path / "idx.bin"
    assert cli.main(["precompute", "--graph", str(graphs[4]), "--delta", "0.05",
                     "--output", str(store)]) == 0
    assert cli.main(["precompute-search", "--graph", str(graphs[4]), "--keywords", str(kw),
                     "--rmax", "0.05", "--output", str(idx)]) == 0
    capsys.readouterr()
    for seed, rc in ((5, 2), (4, 0)):
        assert cli.main(["serve-sim", "--graph", str(graphs[seed]), "--store", str(store),
                         "--query", "2,9"]) == rc
        assert cli.main(["search", "--graph", str(graphs[seed]), "--source", "2",
                         "--keyword", "red", "--index", str(idx)]) == rc
        if rc:
            err = capsys.readouterr().err
            assert err.count("another graph (a 300-node graph with 598 edges)") == 2


def test_serve_sim_and_search_reject_the_other_artifact(tmp_path, two_cycle_file, capsys):
    store = tmp_path / "store.bin"
    assert cli.main(["precompute", "--graph", two_cycle_file, "--delta", "0.05",
                     "--output", str(store)]) == 0
    kw = tmp_path / "kw.tsv"
    kw.write_text("topic\tb\n")
    idx = tmp_path / "idx.bin"
    assert cli.main(["precompute-search", "--graph", two_cycle_file, "--keywords",
                     str(kw), "--rmax", "0.3", "--output", str(idx)]) == 0
    capsys.readouterr()
    assert cli.main(["serve-sim", "--graph", two_cycle_file, "--store", str(idx),
                     "--query", "a,b"]) == 2
    assert "is not a shared-walk store" in capsys.readouterr().err
    assert cli.main(["search", "--graph", two_cycle_file, "--source", "a",
                     "--keyword", "topic", "--index", str(store)]) == 2
    assert "is not a search index" in capsys.readouterr().err


def test_unreadable_store_payloads_exit_two(tmp_path, two_cycle_file, capsys):
    header = b"PWIX" + search._INDEX_VERSION.to_bytes(2, "little")
    files = {"raw.bin": pickle.dumps([1, 2]), "list.bin": header + pickle.dumps([1, 2]),
             "cut.bin": header + pickle.dumps({"store": 1})[:-3]}
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
        assert cli.main(["serve-sim", "--graph", two_cycle_file, "--store",
                         str(tmp_path / name), "--query", "a,b"]) == 2
        assert "bad store/index file: " in capsys.readouterr().err
    with pytest.raises(pw.IndexFormatError, match="holds a list"):
        pw.load_index(tmp_path / "list.bin")
    with pytest.raises(pw.IndexFormatError, match="unreadable payload"):
        pw.load_index(tmp_path / "cut.bin")


def test_serve_sim_at_another_alpha_exits_one(tmp_path, two_cycle_file, capsys):
    store = tmp_path / "store.bin"
    assert cli.main(["precompute", "--graph", two_cycle_file, "--delta", "0.05",
                     "--alpha", "0.5", "--output", str(store)]) == 0
    capsys.readouterr()
    assert cli.main(["serve-sim", "--graph", two_cycle_file, "--store", str(store),
                     "--query", "a,b"]) == 1
    assert "alpha" in capsys.readouterr().err
    assert cli.main(["serve-sim", "--graph", two_cycle_file, "--store", str(store),
                     "--alpha", "0.5", "--query", "a,b"]) == 0


def test_flag_defaults_come_from_the_library():
    parser = cli._build_parser()
    ppr = pw.PprParams(delta=1.0)
    mstp = pw.MstpParams(ell_max=1, delta=1.0)
    for command in (["estimate", "--source", "0", "--target", "0"],
                    ["estimate-mstp", "--source", "0", "--target", "0", "--ell-max", "1"],
                    ["heat-kernel", "--source", "0", "--target", "0", "--t", "1"],
                    ["bench"]):
        args = parser.parse_args(command)
        assert args.alpha == ppr.alpha and args.delta is None
        c = cli._walk_constant(args)  # --c stays unset until the command reads it
        assert (args.eps, args.pfail, c) == (ppr.epsilon, ppr.p_fail, ppr.c)
        assert (args.eps, args.pfail, c) == (mstp.epsilon, mstp.p_fail, mstp.c)
    args = parser.parse_args(["precompute", "--delta", "0.1"])
    walk = pw.SharedWalkParams()
    assert (args.c1, args.c2, args.c3) == (walk.c1, walk.c2, walk.c3)
    args = parser.parse_args(["precompute-search", "--keywords", "kw"])
    assert (args.beta, args.c) == (search.DEFAULT_BETA, search.DEFAULT_SEARCH_C)
    spec = cli.BenchSpec()
    assert (spec.alpha, spec.epsilon, spec.p_fail, spec.c) == (
        ppr.alpha, ppr.epsilon, ppr.p_fail, ppr.c)


def test_bench_rows_and_empty_run(tmp_path, capsys):
    path = tmp_path / "cycle.txt"
    path.write_text("\n".join(cli.generate_synthetic("cycle", 30)) + "\n")
    rc = cli.main(["bench", "--graph", str(path), "--pairs", "3"])
    assert rc == 0
    recs = _records(capsys)
    assert [r["record"] for r in recs] == ["config", "result", "result", "result"]
    names = [r["estimates"]["algorithm"] for r in recs[1:]]
    assert names == ["bidirectional", "balanced", "monte-carlo"]
    for r in recs[1:]:
        assert r["estimates"]["pairs"] == 3
        assert r["estimates"]["median_time_s"] >= 0.0

    rc = cli.main(["bench", "--graph", str(path), "--pairs", "0"])
    assert rc == 0
    assert [r["record"] for r in _records(capsys)] == ["config"]


def test_bench_scores_accuracy_without_a_dense_matrix(tmp_path, capsys, monkeypatch):
    def no_dense(g):
        raise AssertionError("bench built a dense transition matrix")

    monkeypatch.setattr(pw.oracle, "transition_matrix", no_dense)
    path = tmp_path / "web.txt"
    path.write_text("\n".join(cli.generate_synthetic("power-law", 2100, seed=3)) + "\n")
    rc = cli.main(["bench", "--graph", str(path), "--pairs", "3", "--mode", "pagerank"])
    assert rc == 0
    for r in _records(capsys)[1:]:
        assert isinstance(r["estimates"]["scored_pairs"], int)


def test_output_file_instead_of_stdout(tmp_path, two_cycle_file, capsys):
    out = tmp_path / "recs.jsonl"
    rc = cli.main(["estimate", "--graph", two_cycle_file, "--source", "a",
                   "--target", "b", "--output", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["record"] == "config"


# ---------------------------------------------------------------------------
# exit codes


def test_usage_errors_exit_one(two_cycle_file):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["estimate", "--graph", two_cycle_file])  # missing node args
    assert exc.value.code == 1
    # post-parse usage problems return 1 instead of raising
    assert cli.main(["oracle", "--source", "a"]) == 1
    assert cli.main(["search", "--graph", two_cycle_file, "--source", "a",
                     "--keyword", "topic"]) == 1


def test_data_errors_exit_two(tmp_path, two_cycle_file):
    assert cli.main(["oracle", "--graph", str(tmp_path / "missing.txt"),
                     "--source", "0"]) == 2
    assert cli.main(["oracle", "--graph", two_cycle_file,
                     "--source", "zzz"]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("a b notaweight\n")
    assert cli.main(["oracle", "--graph", str(bad), "--source", "a"]) == 2
    garbage = tmp_path / "store.bin"
    garbage.write_bytes(b"this is not a pickle")
    assert cli.main(["serve-sim", "--graph", two_cycle_file, "--store",
                     str(garbage), "--query", "a,b"]) == 2
    kw = tmp_path / "kw.tsv"
    kw.write_text("topic\tb\n")
    assert cli.main(["search", "--graph", two_cycle_file, "--source", "a",
                     "--keyword", "absent", "--keywords", str(kw)]) == 2


def test_store_of_format_five_exits_two(tmp_path, two_cycle_file, capsys):
    # format 5 pickled the store's tables as per-node dicts
    v5 = tmp_path / "v5.bin"
    v5.write_bytes(b"PWIX" + (5).to_bytes(2, "little") + pickle.dumps({"store": None}))
    assert cli.main(["serve-sim", "--graph", two_cycle_file, "--store", str(v5),
                     "--query", "a,b"]) == 2
    assert "bad store/index file: unsupported index version 5" in capsys.readouterr().err


def test_store_of_format_seven_exits_two(tmp_path, two_cycle_file, capsys):
    # format 7 held the store's rows in push order, not ascending by node
    store = tmp_path / "store.bin"
    assert cli.main(["precompute", "--graph", two_cycle_file, "--delta", "0.05",
                     "--output", str(store)]) == 0
    v7 = tmp_path / "v7.bin"
    v7.write_bytes(b"PWIX" + (7).to_bytes(2, "little") + store.read_bytes()[6:])
    capsys.readouterr()
    assert cli.main(["serve-sim", "--graph", two_cycle_file, "--store", str(v7),
                     "--query", "a,b"]) == 2
    assert "bad store/index file: unsupported index version 7" in capsys.readouterr().err


class _Crafted:
    """Pickles as a call of ``func`` on ``args``."""

    def __init__(self, func, *args):
        self.func, self.args = func, args

    def __reduce__(self):
        return self.func, self.args


@pytest.mark.parametrize("call", ["system", "open"])
def test_index_that_names_another_global_exits_two_and_runs_nothing(
        tmp_path, two_cycle_file, capsys, call):
    marker = tmp_path / "marker"
    crafted = {"system": _Crafted(os.system, f"touch '{marker}'"),
               "open": _Crafted(open, str(marker), "w")}[call]
    path = tmp_path / "idx.bin"
    path.write_bytes(b"PWIX" + search._INDEX_VERSION.to_bytes(2, "little")
                     + pickle.dumps({"keywords": crafted}))
    assert cli.main(["search", "--graph", two_cycle_file, "--source", "a",
                     "--keyword", "topic", "--index", str(path)]) == 2
    assert "bad store/index file: " in capsys.readouterr().err
    assert cli.main(["serve-sim", "--graph", two_cycle_file, "--store", str(path),
                     "--query", "a,b"]) == 2
    with pytest.raises(pw.IndexFormatError, match="refusing to load"):
        pw.load_index(path)
    assert not marker.exists()


def test_bad_search_index_exits_two(tmp_path, two_cycle_file, capsys):
    kw = tmp_path / "kw.tsv"
    kw.write_text("topic\tb\n")
    old = tmp_path / "v1.bin"
    old.write_bytes(b"PWIX" + (1).to_bytes(2, "little") + pickle.dumps({}))
    v4 = tmp_path / "v4.bin"
    v4.write_bytes(b"PWIX" + (4).to_bytes(2, "little") + pickle.dumps({}))
    # format 6 held two copies of each keyword's index, and no graph size
    v6 = tmp_path / "v6.bin"
    v6.write_bytes(b"PWIX" + (6).to_bytes(2, "little") + pickle.dumps({"keywords": {}}))
    garbage = tmp_path / "garbage.bin"
    garbage.write_bytes(b"this is not an index")
    for path, why in ((old, "unsupported index version 1"),
                      (v4, "unsupported index version 4"),
                      (v6, "unsupported index version 6"),
                      (garbage, "is not a search index")):
        assert cli.main(["search", "--graph", two_cycle_file, "--source", "a",
                         "--keyword", "topic", "--index", str(path)]) == 2
        assert "bad store/index file: " in capsys.readouterr().err
        with pytest.raises(ValueError, match=why):
            pw.load_index(path)


def test_a_version_8_file_exits_two(tmp_path, two_cycle_file, capsys):
    # format 8 stored shards beside the store, and each keyword's targets three times
    v8 = tmp_path / "v8.bin"
    v8.write_bytes(b"PWIX" + (8).to_bytes(2, "little") + pickle.dumps({"keywords": {}}))
    assert cli.main(["search", "--graph", two_cycle_file, "--source", "a",
                     "--keyword", "topic", "--index", str(v8)]) == 2
    assert cli.main(["serve-sim", "--graph", two_cycle_file, "--store", str(v8),
                     "--query", "a,b"]) == 2
    assert capsys.readouterr().err.count("unsupported index version 8") == 2


def test_keyword_file_unknown_node_exits_two(tmp_path, two_cycle_file, capsys):
    kw = tmp_path / "kw.tsv"
    kw.write_text("topic\tb\ntopic\t99\n")
    assert cli.main(["search", "--graph", two_cycle_file, "--source", "a",
                     "--keyword", "topic", "--keywords", str(kw)]) == 2
    assert cli.main(["precompute-search", "--graph", two_cycle_file, "--keywords",
                     str(kw), "--rmax", "0.1",
                     "--output", str(tmp_path / "idx.bin")]) == 2
    assert "kw.tsv:2: unknown node '99'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["search", "precompute-search"])
def test_keyword_file_malformed_line_exits_two(tmp_path, two_cycle_file, capsys, command):
    kw = tmp_path / "kw.tsv"
    kw.write_text("topic\tb\nbroken\n")
    extra = {"search": ["--source", "a", "--keyword", "topic"],
             "precompute-search": ["--rmax", "0.1", "--output", str(tmp_path / "idx.bin")]}
    rc = cli.main([command, "--graph", two_cycle_file, "--keywords", str(kw), *extra[command]])
    assert rc == 2
    captured = capsys.readouterr()
    assert "kw.tsv:2: expected 'keyword<TAB>node', got 'broken'" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "idx.bin").exists()


def test_numerical_failure_exits_three(tmp_path, monkeypatch):
    # b is reachable from a, but a walk ends there about once in 10^9 tries
    path = tmp_path / "rare.txt"
    path.write_text("a a 1000000000\na b 1\nb b\n")
    monkeypatch.setattr(pathsampling, "ACCEPTANCE_CAP", 100)
    rc = cli.main(["sample-path", "--graph", str(path), "--source", "a",
                   "--targets", "b"])
    assert rc == 3


def test_unreachable_path_target_exits_two_without_walking(tmp_path, capsys, monkeypatch):
    path = tmp_path / "islands.txt"
    path.write_text("a a\nb b\n")

    monkeypatch.setattr(pw.WalkConfig, "stream", lambda self: NoDraws())
    rc = cli.main(["sample-path", "--graph", str(path), "--source", "a",
                   "--targets", "b"])
    assert rc == 2
    assert "no path leads from node 0" in capsys.readouterr().err

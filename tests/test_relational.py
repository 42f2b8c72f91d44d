"""Relational operators: hash/broadcast/asof/interval joins, top-k per
group, exact quantiles, integer-exact grouped sums, word repetition.

Every distributed result is checked against a single-process reference
(pa.Table.join / numpy brute force), including partition-invariance
(same answer under different block layouts)."""

import numpy as np
import pyarrow as pa
import pytest

from rasters_ray.relational import (
    asof_join,
    broadcast_join,
    exact_quantiles,
    grouped_int_sums,
    hash_join,
    interval_join,
    topk_per_group,
)


def _ds(table: pa.Table, blocks: int = 4):
    import ray.data as rd

    return rd.from_arrow(table).repartition(blocks)


@pytest.fixture()
def left_right():
    rng = np.random.default_rng(7)
    n_l, n_r = 500, 120
    left = pa.table(
        {
            "k": pa.array(rng.integers(0, 150, n_l), pa.int64()),
            "lv": pa.array(rng.normal(size=n_l)),
        }
    )
    right = pa.table(
        {
            "rk": pa.array(np.arange(150, dtype=np.int64) * 2 % 170, pa.int64()),
            "rv": pa.array(rng.normal(size=150)),
        }
    )
    return left, right


@pytest.mark.parametrize("how", ["inner", "left outer", "left semi", "left anti"])
def test_hash_join_matches_acero(ray_session, left_right, how):
    left, right = left_right
    got = (
        hash_join(_ds(left), _ds(right, 3), on="k", right_on="rk", how=how)
        .to_pandas()
    )
    exp = left.join(
        right, keys=["k"], right_keys=["rk"], join_type=how, use_threads=False
    ).to_pandas()
    cols = sorted(exp.columns)
    a = got[cols].sort_values(cols).reset_index(drop=True)
    b = exp[cols].sort_values(cols).reset_index(drop=True)
    assert a.equals(b)


def test_broadcast_join_equals_hash_join(ray_session, left_right):
    left, right = left_right
    a = (
        broadcast_join(_ds(left), right, on="k", right_on="rk")
        .to_pandas()
        .sort_values(["k", "lv"])
        .reset_index(drop=True)
    )
    b = (
        hash_join(_ds(left, 2), _ds(right), on="k", right_on="rk")
        .to_pandas()
        .sort_values(["k", "lv"])
        .reset_index(drop=True)
    )
    assert a[sorted(a.columns)].equals(b[sorted(b.columns)])


def _brute_asof(lk, lt, rk, rt, rv, tolerance=None):
    out = np.full(len(lk), np.nan)
    for i in range(len(lk)):
        m = (rk == lk[i]) & (rt <= lt[i])
        if tolerance is not None:
            m &= (lt[i] - rt) <= tolerance
        if m.any():
            out[i] = rv[np.flatnonzero(m)[np.argmax(rt[m])]]
    return out


@pytest.mark.parametrize("tolerance", [None, 50])
def test_asof_join_brute_force(ray_session, tolerance):
    rng = np.random.default_rng(11)
    nl, nr = 400, 200
    lk = rng.integers(0, 25, nl).astype(np.int64)
    lt = rng.integers(0, 1000, nl).astype(np.int64)
    rk = rng.integers(0, 30, nr).astype(np.int64)
    rt = rng.choice(5000, nr, replace=False).astype(np.int64) % 1000  # unique ts/key
    rv = rng.normal(size=nr)
    # make (rk, rt) unique so the brute-force tie rule is well defined
    _, uidx = np.unique(rk * 100000 + rt, return_index=True)
    rk, rt, rv = rk[uidx], rt[uidx], rv[uidx]
    left = pa.table({"id": pa.array(np.arange(nl)), "k": pa.array(lk), "t": pa.array(lt)})
    right = pa.table({"k": pa.array(rk), "t": pa.array(rt), "v": pa.array(rv)})
    got = (
        asof_join(
            _ds(left), _ds(right, 3), by="k", on="t", value_cols=["v"],
            tolerance=tolerance,
        )
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    exp = _brute_asof(lk, lt, rk, rt, rv, tolerance)
    assert np.allclose(got["v"].to_numpy(), exp, equal_nan=True)
    assert len(got) == nl  # left join: every left row kept


def test_asof_join_empty_sides(ray_session):
    import ray.data as rd

    left = pa.table({"k": pa.array([], pa.int64()), "t": pa.array([], pa.int64())})
    right = pa.table(
        {"k": pa.array([1], pa.int64()), "t": pa.array([5], pa.int64()),
         "v": pa.array([1.0])}
    )
    # empty sides built WITHOUT a shuffle (repartition of an empty dataset
    # loses the schema; the join raises a clear error for that case)
    got = asof_join(rd.from_arrow(left), rd.from_arrow(right), by="k", on="t").to_pandas()
    # Ray elides all-empty blocks, so a fully empty result may surface
    # without columns — row count is the contract here
    assert len(got) == 0
    got2 = asof_join(
        rd.from_arrow(right),
        rd.from_arrow(left.append_column("v", pa.array([], pa.float64()))),
        by="k",
        on="t",
    ).to_pandas()
    assert len(got2) == 1 and np.isnan(got2["v"].iloc[0])


def test_hash_join_with_a_side_filtered_to_nothing(ray_session, left_right):
    # Ray calls no map UDF on an empty block and knows no row count for
    # a map's output, so a side filtered to nothing reaches the join as
    # no rows at all: the join gives what its type implies, and a left
    # outer join, which needs the absent right side's columns, raises
    import ray.data as rd

    left, right = left_right

    def nothing(t: pa.Table) -> pa.Table:
        return t.slice(0, 0)

    def absent(t: pa.Table):
        return _ds(t).map_batches(nothing, batch_format="pyarrow")

    for l_ds, r_ds in ((_ds(left), absent(right)), (absent(left), _ds(right))):
        assert len(hash_join(l_ds, r_ds, on="k", right_on="rk").to_pandas()) == 0
    anti = hash_join(_ds(left), absent(right), on="k", right_on="rk", how="left anti")
    assert sorted(anti.to_pandas()["lv"]) == sorted(left.column("lv").to_pylist())
    # Ray Data wraps the task's ValueError in its own exception
    with pytest.raises(Exception, match="ValueError: a left outer join needs the right side's"):
        hash_join(_ds(left), absent(right), on="k", right_on="rk", how="left outer").to_pandas()
    # Ray knows an in-memory table is empty: its typed zero rows join
    empty = rd.from_arrow(right.slice(0, 0))
    outer = hash_join(_ds(left), empty, on="k", right_on="rk", how="left outer").to_pandas()
    assert len(outer) == left.num_rows and outer["rv"].isna().all()


@pytest.mark.parametrize("closed", ["left", "both"])
def test_interval_join_brute(ray_session, closed):
    rng = np.random.default_rng(3)
    n = 300
    k = rng.integers(0, 10, n).astype(np.int64)
    t = rng.integers(0, 1000, n).astype(np.int64)
    iv_k = np.repeat(np.arange(10, dtype=np.int64), 3)
    iv_s = np.tile(np.array([0, 400, 800], np.int64), 10) + iv_k * 3
    iv_e = iv_s + 150
    iv = pa.table(
        {"key": pa.array(iv_k), "start": pa.array(iv_s), "end": pa.array(iv_e),
         "interval_id": pa.array(np.arange(30, dtype=np.int64))}
    )
    pts = pa.table({"id": pa.array(np.arange(n)), "key": pa.array(k), "t": pa.array(t)})
    got = (
        interval_join(_ds(pts), iv, by="key", on="t", closed=closed)
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    rows = []
    for i in range(n):
        for j in range(30):
            if iv_k[j] != k[i]:
                continue
            inside = (iv_s[j] <= t[i] < iv_e[j]) if closed == "left" else (
                iv_s[j] <= t[i] <= iv_e[j]
            )
            if inside:
                rows.append((i, j))
    assert list(zip(got["id"], got["interval_id"])) == rows


def test_topk_per_group_partition_invariant(ray_session):
    rng = np.random.default_rng(5)
    n = 1000
    t = pa.table(
        {
            "g": pa.array(rng.integers(0, 60, n), pa.int64()),
            "v": pa.array(rng.normal(size=n)),
            "id": pa.array(np.arange(n, dtype=np.int64)),
        }
    )
    outs = []
    for blocks in (1, 7):
        got = (
            topk_per_group(_ds(t, blocks), "g", "v", k=3, carry_cols=["id"],
                           tie_col="id")
            .to_pandas()
            .sort_values(["g", "rank"])
            .reset_index(drop=True)
        )
        outs.append(got)
    assert outs[0].equals(outs[1])
    df = t.to_pandas()
    df["rank"] = df.groupby("g")["v"].rank(method="first", ascending=False)
    exp = df[df["rank"] <= 3].sort_values(["g", "rank"]).reset_index(drop=True)
    got = outs[0]
    assert (got["g"].to_numpy() == exp["g"].to_numpy()).all()
    assert np.allclose(got["v"].to_numpy(), exp["v"].to_numpy())


def test_exact_quantiles_vs_sort(ray_session):
    rng = np.random.default_rng(9)
    x = np.round(rng.normal(100, 25, 5000), 2)
    t = pa.table({"x": pa.array(x)})
    qs = [0.1, 0.5, 0.9, 0.999]
    got = exact_quantiles(_ds(t, 5), "x", qs, n_bins=64, collect_limit=100)
    xs = np.sort(x)
    for q, v in zip(got.column("q").to_pylist(), got.column("value").to_pylist()):
        rank = max(1, int(np.ceil(q * len(x))))
        assert v == xs[rank - 1], (q, v, xs[rank - 1])


def test_grouped_int_sums_matches_pandas(ray_session):
    rng = np.random.default_rng(2)
    n = 2000
    t = pa.table(
        {
            "a": pa.array(rng.integers(0, 3, n), pa.int64()),
            "b": pa.array(rng.choice(["x", "y"], n)),
            "v": pa.array(rng.integers(0, 1000, n), pa.int64()),
        }
    )

    def vals(tab):
        return {"sv": tab.column("v").to_numpy(zero_copy_only=False).astype(np.int64)}

    got = (
        grouped_int_sums(_ds(t, 6), ["a", "b"], vals)
        .to_pandas()
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )
    exp = (
        t.to_pandas()
        .groupby(["a", "b"], as_index=False)
        .agg(sv=("v", "sum"), n=("v", "size"))
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )
    assert (got["sv"].to_numpy() == exp["sv"].to_numpy()).all()
    assert (got["n"].to_numpy() == exp["n"].to_numpy()).all()


def test_hash_join_string_keys(ray_session):
    left = pa.table(
        {"k": pa.array(["a", "b", "c", "a", "zz"]), "v": pa.array([1, 2, 3, 4, 5])}
    )
    right = pa.table({"k": pa.array(["a", "c", "d"]), "w": pa.array([10, 30, 40])})
    got = (
        hash_join(_ds(left, 2), _ds(right, 2), on="k")
        .to_pandas()
        .sort_values(["k", "v"])
        .reset_index(drop=True)
    )
    exp = (
        left.join(right, keys=["k"], join_type="inner", use_threads=False)
        .to_pandas()
        .sort_values(["k", "v"])
        .reset_index(drop=True)
    )
    assert got[sorted(got.columns)].equals(exp[sorted(exp.columns)])


def test_salient_terms_brute(ray_session):
    docs = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(
                ["cat cat dog bird", "dog dog dog fish", "bird fish cat dog"]
            ),
        }
    )
    from rasters_ray.text import salient_terms

    got = (
        salient_terms(_ds(docs, 2), k=2)
        .to_pandas()
        .sort_values(["doc_id", "sel_rank"])
        .reset_index(drop=True)
    )
    # df: cat=2 docs, dog=3, bird=2, fish=2
    # doc0: tf cat=2 -> rank1; tf1 ties bird/dog -> df asc: bird(2) < dog(3)
    assert list(got[got.doc_id == 0]["term"]) == ["cat", "bird"]
    # doc1: dog tf=3 rank1; fish tf=1 rank2
    assert list(got[got.doc_id == 1]["term"]) == ["dog", "fish"]
    # doc2: all tf=1 -> df asc then term asc: bird(2), cat(2), fish(2) -> bird, cat
    assert list(got[got.doc_id == 2]["term"]) == ["bird", "cat"]
    assert list(got[got.doc_id == 0]["df"]) == [2, 2]


def test_word_repetition_hand_computed():
    from rasters_ray.text import word_repetition

    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(["a b a b a", "x", ""]),
        }
    )
    got = word_repetition(t).to_pydict()
    assert got["n_words"] == [5, 1, 0]
    assert got["n_distinct_words"] == [2, 1, 0]
    assert got["dup_words"] == [3, 0, 0]
    assert got["top_word_count"] == [3, 1, 0]
    # bigrams: "a b","b a","a b","b a" -> top count 2
    assert got["top_bigram_count"] == [2, 0, 0]


def test_grouped_quantiles_vs_numpy(ray_session):
    from rasters_ray.relational import grouped_quantiles

    rng = np.random.default_rng(11)
    g = np.array(["a", "b", "c"], dtype=object)[rng.integers(0, 3, 500)]
    v = np.round(rng.random(500) * 100, 2)
    t = pa.table({"k": pa.array(g, pa.string()), "v": pa.array(v, pa.float64())})
    qs = [0.25, 0.5, 0.9]
    for blocks in (2, 7):  # partition-invariant
        got = (
            grouped_quantiles(_ds(t, blocks), "k", "v", qs)
            .to_pandas()
            .sort_values(["k", "q"])
            .reset_index(drop=True)
        )
        for _, row in got.iterrows():
            vals = np.sort(v[g == row["k"]])
            rank = int(np.ceil(row["q"] * len(vals)))  # percentile_disc
            assert row["sel_rank"] == rank
            assert row["value"] == vals[rank - 1]
            assert row["n"] == len(vals)


def test_grouped_quantiles_bad_q():
    from rasters_ray.relational import grouped_quantiles

    with pytest.raises(ValueError):
        grouped_quantiles(None, "k", "v", [0.0, 0.5])


def test_pivot_counts_vs_pandas(ray_session):
    from rasters_ray.relational import pivot_counts

    rng = np.random.default_rng(5)
    cats = ["a", "b", "c"]
    rows = rng.integers(0, 6, 400)
    cols = np.array(cats + ["zz"], dtype=object)[rng.integers(0, 4, 400)]  # zz dropped
    t = pa.table(
        {"hour": pa.array(rows, pa.int64()), "kind": pa.array(cols, pa.string())}
    )
    got = (
        pivot_counts(_ds(t, 3), "hour", "kind", cats)
        .to_pandas()
        .sort_values("hour")
        .reset_index(drop=True)
    )
    import pandas as pd

    df = t.to_pandas()
    df = df[df["kind"].isin(cats)]
    exp = (
        pd.crosstab(df["hour"], df["kind"])
        .reindex(columns=cats, fill_value=0)
        .reset_index()
    )
    for c in cats:
        assert got[c].to_numpy().tolist() == exp[c].to_numpy().tolist()
    assert got["hour"].tolist() == exp["hour"].tolist()


def test_hash_join_composite_key(ray_session):
    rng = np.random.default_rng(13)
    left = pa.table(
        {
            "a": pa.array(rng.integers(0, 4, 60), pa.int64()),
            "b": pa.array(
                np.array(["x", "y", "z"], dtype=object)[rng.integers(0, 3, 60)],
                pa.string(),
            ),
            "v": pa.array(np.arange(60), pa.int64()),
        }
    )
    right = pa.table(
        {
            "a": pa.array(rng.integers(0, 4, 30), pa.int64()),
            "b": pa.array(
                np.array(["x", "y", "z"], dtype=object)[rng.integers(0, 3, 30)],
                pa.string(),
            ),
            "w": pa.array(np.arange(30) * 10, pa.int64()),
        }
    )
    got = (
        hash_join(_ds(left, 3), _ds(right, 2), on=["a", "b"])
        .to_pandas()
        .sort_values(["a", "b", "v", "w"])
        .reset_index(drop=True)
    )
    exp = (
        left.join(right, keys=["a", "b"], join_type="inner", use_threads=False)
        .to_pandas()
        .sort_values(["a", "b", "v", "w"])
        .reset_index(drop=True)
    )
    assert got[sorted(got.columns)].equals(exp[sorted(exp.columns)])

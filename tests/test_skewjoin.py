"""skew_join == hash_join on skewed data; hot path actually engages."""

import numpy as np
import pyarrow as pa

from rasters_ray.relational.joins import detect_hot_keys, hash_join, skew_join


def _skewed(ray_session=None):
    import ray.data as rd

    rng = np.random.default_rng(6)
    # 90% of left rows share ONE key; the rest spread over 500 keys
    n = 30_000
    keys = np.where(
        rng.random(n) < 0.9, 7, rng.integers(100, 600, n)
    ).astype(np.int64)
    left = rd.from_arrow(
        pa.table({"k": keys, "lv": np.arange(n, dtype=np.int64)})
    ).repartition(10)
    rkeys = np.r_[np.array([7]), np.arange(100, 600)].astype(np.int64)
    right = rd.from_arrow(
        pa.table({"k": rkeys, "rv": rkeys * 10})
    ).repartition(4)
    return left, right, keys


def test_skew_join_equals_hash_join(ray_session):
    left, right, keys = _skewed()
    a = (
        skew_join(left, right, on="k", hot_threshold=5_000)
        .to_pandas()
        .sort_values(["k", "lv"])
        .reset_index(drop=True)
    )
    b = (
        hash_join(left, right, on="k", how="inner")
        .to_pandas()
        .sort_values(["k", "lv"])
        .reset_index(drop=True)
    )
    assert len(a) == len(b) == (keys != 7).sum() + (keys == 7).sum()
    assert (a["k"].to_numpy() == b["k"].to_numpy()).all()
    assert (a["lv"].to_numpy() == b["lv"].to_numpy()).all()
    assert (a["rv"].to_numpy() == b["rv"].to_numpy()).all()


def test_globally_hot_never_block_hot_key_detected(ray_session):
    # key 7 appears 40x in EVERY block but 70 block-unique keys each appear
    # 50x, so 7 is never in any block's per-block top ranks — a per-block
    # top-64 truncation would miss it; the exact distributed count must not
    import ray.data as rd

    n_blocks = 30
    blocks = []
    for b in range(n_blocks):
        ks = [7] * 40
        for j in range(70):
            ks += [1000 + b * 70 + j] * 50  # unique to this block, count 50
        blocks.append(np.asarray(ks, np.int64))
    keys = np.concatenate(blocks)
    left = rd.from_arrow(
        pa.table({"k": keys, "lv": np.arange(len(keys), dtype=np.int64)})
    ).repartition(n_blocks)
    hot = detect_hot_keys(left, "k", hot_threshold=1000)
    assert hot == {7}  # 40*30=1200 >= 1000; every other key totals 50

    # and the skew path still joins identically to the plain hash join
    rkeys = np.r_[np.array([7]), np.arange(1000, 1000 + n_blocks * 70)].astype(np.int64)
    right = rd.from_arrow(pa.table({"k": rkeys, "rv": rkeys * 2})).repartition(3)
    a = (
        skew_join(left, right, on="k", hot_threshold=1000)
        .to_pandas().sort_values(["k", "lv"]).reset_index(drop=True)
    )
    b = (
        hash_join(left, right, on="k", how="inner")
        .to_pandas().sort_values(["k", "lv"]).reset_index(drop=True)
    )
    assert len(a) == len(b) == len(keys)
    assert (a["rv"].to_numpy() == b["rv"].to_numpy()).all()


def test_skew_join_no_hot_keys_falls_back(ray_session):
    import ray.data as rd

    left = rd.from_arrow(
        pa.table({"k": np.arange(200, dtype=np.int64), "lv": np.ones(200, np.int64)})
    )
    right = rd.from_arrow(
        pa.table({"k": np.arange(200, dtype=np.int64), "rv": np.zeros(200, np.int64)})
    )
    out = skew_join(left, right, on="k", hot_threshold=10).to_pandas()
    assert len(out) == 200


def test_skew_join_never_asks_the_cold_filters_for_a_schema(ray_session, monkeypatch):
    # Dataset.schema() on an unexecuted map_batches runs it under limit=1
    # and cancels the tasks still in flight; the cold-side filters keep
    # their inputs' schemas, so skew_join takes those instead
    import ray.data as rd

    cold, asked = [], []
    map_batches, schema = rd.Dataset.map_batches, rd.Dataset.schema

    def tagging_map_batches(self, fn, *args, **kwargs):
        out = map_batches(self, fn, *args, **kwargs)
        if getattr(fn, "__name__", "") in ("left_cold", "right_cold"):
            cold.append(out)
        return out

    def recording_schema(self, *args, **kwargs):
        asked.extend(d for d in cold if d is self)
        return schema(self, *args, **kwargs)

    monkeypatch.setattr(rd.Dataset, "map_batches", tagging_map_batches)
    monkeypatch.setattr(rd.Dataset, "schema", recording_schema)
    left, right, keys = _skewed()
    out = skew_join(left, right, on="k", hot_threshold=5_000).to_pandas()
    assert len(cold) == 2
    assert asked == []
    assert len(out) == len(keys)

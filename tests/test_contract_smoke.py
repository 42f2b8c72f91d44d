"""Self-contained oracle smoke: a representative slice of the driver
contract validated inside the pytest suite at sf0.001, so `pytest` alone
proves the inline query operators (the sweep of every `queries()` entry
runs via scripts/check_contract.py)."""

import duckdb
import numpy as np
import pandas as pd
import pytest

SF_DIR = "/root/testdata/sf0.001"

QUERIES = [
    "token_pack",
    "forward_fill",
    "funnel",
    "band_join",
    "inter_arrival",
    "user_fill",
    "retention",
    "session_conversion",
    "percent_rank",
    "orders_by_month",
    "weighted_sample",
    "set_except",
    "cooccurrence",
    "chunk_spans",
    "bigram_coverage",
    "analyze",
    # image / geo inline ops (fixture-driven, sf-independent formulas)
    "hillshade",
    "focal_median",
    "proximity",
    "hist_equalize",
    "mosaic_best",
    "knn_join",
    "box_overlay",
    # relational compositions
    "priority_semi",
    "region_revenue",
    "weighted_quantiles",
    "pushdown_scan",
    "events_cube",
    "dup_spans",
    "edit_near",
    "data_mix",
    # round-4 additions: codecs, projections, golden-oracle ops
    "jpeg_render",
    "cmap_render",
    "geoimage_write",
    "transform_sinu",
    "transform_stere",
    "transform_aea",
    "winnow_fp",
    "dup_substrings",
    "idw_sample",
    "cluster_assign",
    "lsh_ann",
    "pq_ann",
    # round-5 third-pass container round-trips
    "hgt_roundtrip",
    "bil_roundtrip",
    "shp_roundtrip",
    # per-user and per-series kernels on util.exchange
    "events_sessions",
    "events_window",
    "events_sliding",
    "user_running",
    "events_rollup",
    "transitions",
    "acf_lag",
    "cusum",
    "runs_test",
    "trigrams",
]

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(by=list(df.columns), kind="stable").reset_index(drop=True)


@pytest.fixture(scope="module")
def oracle_con():
    con = duckdb.connect()
    for t in TABLES:
        con.sql(
            f"CREATE VIEW {t} AS SELECT * "
            f"FROM read_parquet('{SF_DIR}/{t}.parquet')"
        )
    return con


@pytest.mark.parametrize("name", QUERIES)
def test_query_matches_oracle(ray_session, oracle_con, name):
    import ray.data

    import __ray_entry__ as entry

    res = entry.queries()[name](SF_DIR)
    ray_df = (
        res.to_pandas() if isinstance(res, ray.data.Dataset) else res.to_pandas()
    )
    sql_df = oracle_con.sql(entry.oracle_sql()[name]).df()
    assert len(ray_df) == len(sql_df), (len(ray_df), len(sql_df))
    a, b = _canon(ray_df), _canon(sql_df)
    assert list(a.columns) == list(b.columns)
    for c in a.columns:
        av, bv = a[c].to_numpy(), b[c].to_numpy()
        if np.issubdtype(a[c].dtype, np.floating):
            assert np.allclose(
                av.astype(float), bv.astype(float), rtol=0, atol=0, equal_nan=True
            ), c
        else:
            assert (av == bv).all(), c

"""Local stand-in for the driver's correctness gate: run every queries()
entry at a given sf against its oracle_sql() (DuckDB over the same parquet
views) and compare row count, schema (column names), each column's
integer/float kind, and sorted values.  A column whose kind matches but
whose width differs (int32 vs int64) is printed as a warning.

Usage: python scripts/check_contract.py [sf_dir] [query ...]

When no Ray session is running, the script starts one with
``RAY_GRAFT_CPUS`` CPUs (default 8).  ``util.exchange`` plans one
gather task at 1 CPU and a hash exchange above, so
``RAY_GRAFT_CPUS=1`` checks the 1-part plan.
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif str(df[c].dtype).startswith("bool"):
            df[c] = df[c].astype(bool)
    return df.sort_values(by=list(df.columns), kind="stable").reset_index(drop=True)


def _kind(dtype) -> str:
    if pd.api.types.is_integer_dtype(dtype):
        return "int"
    return "float" if pd.api.types.is_float_dtype(dtype) else "other"


def width_warnings(ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> list:
    """Columns of the same numeric kind but a different width."""
    return [
        f"{c}: ray={ray_df[c].dtype} sql={sql_df[c].dtype}"
        for c in sorted(set(ray_df.columns) & set(sql_df.columns))
        if _kind(ray_df[c].dtype) != "other"
        and _kind(ray_df[c].dtype) == _kind(sql_df[c].dtype)
        and ray_df[c].dtype != sql_df[c].dtype
    ]


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> str:
    if set(ray_df.columns) != set(sql_df.columns):
        return f"SCHEMA MISMATCH ray={sorted(ray_df.columns)} sql={sorted(sql_df.columns)}"
    if len(ray_df) != len(sql_df):
        return f"ROWCOUNT MISMATCH ray={len(ray_df)} sql={len(sql_df)}"
    for c in sorted(ray_df.columns):
        if {_kind(ray_df[c].dtype), _kind(sql_df[c].dtype)} == {"int", "float"}:
            return f"KIND MISMATCH col={c} ray={ray_df[c].dtype} sql={sql_df[c].dtype}"
    a = canon(ray_df)
    b = canon(sql_df)
    for c in a.columns:
        av, bv = a[c].to_numpy(), b[c].to_numpy()
        if np.issubdtype(a[c].dtype, np.floating):
            if not np.allclose(av.astype(float), bv.astype(float), rtol=0, atol=0, equal_nan=True):
                mism = (~np.isclose(av.astype(float), bv.astype(float), equal_nan=True)).sum()
                return f"VALUE MISMATCH col={c} ({mism} rows differ, float-exact)"
        else:
            if not (av == bv).all():
                i = int(np.nonzero(av != bv)[0][0])
                return f"VALUE MISMATCH col={c} first at row {i}: ray={av[i]!r} sql={bv[i]!r}"
    return "OK"


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "8")),
                 include_dashboard=False, logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.perf_counter()
        try:
            ray_df = to_pandas(fn(sf_dir))
        except Exception as e:
            print(f"{name:18s} RAY ERROR: {type(e).__name__}: {e}")
            failures += 1
            continue
        ray_s = time.perf_counter() - t0
        if name not in oracles:
            print(f"{name:18s} rows-only: {len(ray_df)} rows, cols={list(ray_df.columns)} ({ray_s:.1f}s)")
            continue
        try:
            sql_df = con.sql(oracles[name]).df()
        except Exception as e:
            print(f"{name:18s} SQL ERROR: {e}")
            failures += 1
            continue
        verdict = compare(name, ray_df, sql_df)
        status = "PASS" if verdict == "OK" else "FAIL"
        if status == "FAIL":
            failures += 1
        print(f"{name:18s} {status} ({len(ray_df)} rows, {ray_s:.1f}s) {verdict if verdict != 'OK' else ''}")
        for w in width_warnings(ray_df, sql_df):
            print(f"{name:18s} WARN width {w}")
    ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

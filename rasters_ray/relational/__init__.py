"""Distributed relational operators (joins, ranked/quantile aggregates).

The reference is a single-process raster library; these are the tabular
operators a data-processing engine needs around it (the driver's tables are
TPC-H-ish).  Everything here follows the repo-wide scale pattern: ONE
``util.exchange`` on the key (the engine's one hash shuffle) and a fully
vectorized (pyarrow.compute / numpy / Acero) kernel inside each
partition — never a per-row or per-group Python walk at data-scaled
cardinality.
"""

from .bloom import BloomFilter, bloom_filter_ds, bloom_semi_join, build_bloom
from .concomp import cluster_sizes, connected_components
from .joins import asof_join, broadcast_join, hash_join, interval_join
from .aggregates import (
    exact_quantiles,
    grouped_int_sums,
    grouped_gini,
    ks_two_sample,
    grouped_mad,
    grouped_quantiles,
    int_sum_partial,
    pivot_counts,
    topk_per_group,
)
from .distinct import approx_distinct, distinct_count, hll_count, hll_register_table

__all__ = [
    "BloomFilter",
    "cluster_sizes",
    "connected_components",
    "bloom_filter_ds",
    "bloom_semi_join",
    "build_bloom",
    "asof_join",
    "broadcast_join",
    "hash_join",
    "interval_join",
    "exact_quantiles",
    "grouped_int_sums",
    "grouped_gini",
    "ks_two_sample",
    "grouped_mad",
    "grouped_quantiles",
    "int_sum_partial",
    "pivot_counts",
    "topk_per_group",
    "approx_distinct",
    "distinct_count",
    "hll_count",
    "hll_register_table",
]

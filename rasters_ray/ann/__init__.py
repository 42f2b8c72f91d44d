from .search import (
    LSHBuckets,
    cosine_near_dups,
    cosine_topk,
    ivf_topk,
    kmeans_assign,
    kmeans_centroids,
    lsh_topk,
    recall_at_k,
)

__all__ = [
    "LSHBuckets",
    "cosine_near_dups",
    "cosine_topk",
    "ivf_topk",
    "kmeans_assign",
    "kmeans_centroids",
    "lsh_topk",
    "recall_at_k",
]

"""Distributed PCA over an embedding column (list<float>).

Textbook two-phase shape (no counterpart in the reference — rasters has
no embedding ops): the d x d scatter matrix is an ADDITIVE statistic, so

  1. partial pass (`map_batches`): per block accumulate
     ``(count, sum(x), X^T X)`` — one (d^2 + d + 1)-scalar partial per
     block, independent of row count; the embedding table itself never
     leaves the workers;
  2. driver: combine partials, form the covariance
     ``C = (S - n * mu mu^T) / (n - 1)``, eigendecompose (d x d — tiny),
     keep the top-k components with a deterministic sign convention
     (largest-|coordinate| entry positive, ties to the earlier index);
  3. projection pass (`map_batches`): broadcast the k x d component
     matrix once (`ray.put`, read per worker with `util.fetch`), project
     each batch with one matmul.

Scale: the all-data covariance costs ONE streaming pass + a d^2 driver
reduce; projection is embarrassingly parallel.  d is bounded by the
model (<= a few thousand); for d where d^2 partials get heavy, switch to
randomized sketch-based PCA — out of scope here.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from rasters_ray.ann.search import _batch_matrix
from rasters_ray.util import fetch

__all__ = ["fit_pca", "pca_project"]


def fit_pca(embeddings_ds, n_components: int, col: str = "embedding"):
    """One streaming pass -> (components [k, d], explained_var [k],
    mean [d], n).  Components are unit-norm eigenvectors of the sample
    covariance, sorted by descending eigenvalue, deterministic sign."""

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "n": pa.array([], pa.int64()),
                    "s": pa.array([], pa.list_(pa.float64())),
                    "g": pa.array([], pa.list_(pa.float64())),
                }
            )
        m = _batch_matrix(t, col).astype(np.float64)
        n, d = m.shape
        s = m.sum(axis=0)
        g = m.T @ m
        return pa.table(
            {
                "n": pa.array([n], pa.int64()),
                "s": pa.array([s.tolist()], pa.list_(pa.float64())),
                "g": pa.array([g.ravel().tolist()], pa.list_(pa.float64())),
            }
        )

    parts = embeddings_ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    # driver-small: one (1 + d + d^2)-scalar row per block
    n = int(parts["n"].sum())
    if n < 2:
        raise ValueError("need at least 2 vectors to fit PCA")
    s = np.sum(np.stack(parts["s"].to_numpy()), axis=0)
    d = len(s)
    g = np.sum(np.stack(parts["g"].to_numpy()), axis=0).reshape(d, d)
    mu = s / n
    cov = (g - n * np.outer(mu, mu)) / (n - 1)
    evals, evecs = np.linalg.eigh(cov)  # ascending
    order = np.argsort(evals)[::-1][:n_components]
    comps = evecs[:, order].T  # [k, d]
    # deterministic sign: the largest-|coordinate| entry is positive
    for row in comps:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0
    return comps, np.maximum(evals[order], 0.0), mu, n


def pca_project(
    embeddings_ds,
    n_components: int = 4,
    col: str = "embedding",
    id_col: str = "vec_id",
):
    """Fit on the full dataset, then project every vector ->
    Dataset[(id, proj: list<double>[k])]."""
    import ray

    comps, evals, mu, _ = fit_pca(embeddings_ds, n_components, col=col)
    state_ref = ray.put((comps, mu))

    def project(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    id_col: t.column(id_col),
                    "proj": pa.array([], pa.list_(pa.float64())),
                }
            )
        c, m = fetch(state_ref)
        x = _batch_matrix(t, col).astype(np.float64)
        p = (x - m) @ c.T
        return pa.table(
            {
                id_col: t.column(id_col),
                "proj": pa.array(list(p), pa.list_(pa.float64())),
            }
        )

    return embeddings_ds.map_batches(project, batch_format="pyarrow"), evals

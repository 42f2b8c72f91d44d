"""Exact set-similarity self-join (Jaccard >= t) via prefix filtering.

The SSJoin / PPJoin prefix-filter principle (Chaudhuri-Ganti-Kaushik
ICDE'06, Xiao et al. WWW'08 — public algorithms): order every record's
distinct tokens by one global total order (ascending document frequency,
rarest first); if two records share NO token within their first
``|d| - ceil(t*|d|) + 1`` tokens in that order, their Jaccard is provably
< t.  Candidates therefore come only from per-prefix-token buckets —
rare tokens by construction, so buckets stay small on natural corpora —
pruned further by the length filter (``|b| >= t*|a|``), then
exact-verified with the same distributed pair-text join the MinHash path
uses (``dedup.exact_verify_pairs``).  Approximate (MinHash) and exact
(prefix-filter) near-dup detection differ ONLY in candidate generation.

Unlike MinHash, the output is EXACT: every pair with Jaccard >= t over
distinct word tokens, no false negatives — which is why it carries a
value oracle (SQL recomputes all-pairs Jaccard directly).

Distributed shape:
  1. token pass (map_batches) -> distinct (token, doc) rows;
  2. groupby(token) count -> document frequencies; the DF table is
     vocabulary-sized and becomes the broadcast rank order (same
     documented vocabulary broadcast as text/analysis.py tf-idf);
  3. prefix pass (map_batches, rank order read once per worker from the
     object store) -> (prefix-token rank, doc, size) rows;
  4. ONE ``util.exchange`` on the prefix-token rank -> vectorized
     in-bucket pair generation with the length filter;
  5. exact verify (two exchanges shared with minhash_near_dups).

Float safety: prefix length uses ``s - floor(t*s) + 1`` — any float
rounding only LENGTHENS the prefix (extra candidates, never a missed
pair); the length filter prunes only strictly-below-threshold sizes with
an epsilon slack.  Exactness is decided by the verify stage alone.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from rasters_ray.text.dedup import exact_verify_pairs
from rasters_ray.util import exchange, fetch

__all__ = ["set_similarity_join", "word_token_set"]


def word_token_set(text: str) -> set:
    """Distinct whitespace-delimited tokens (the '\\S+' tokenization every
    text oracle in this repo uses)."""
    return set(text.split())


def _distinct_token_rows(t: pa.Table, id_col: str, text_col: str, set_fn,
                         token_type: pa.DataType) -> pa.Table:
    """``token_type`` is fixed per join (pa.string() for word tokens,
    pa.uint64() for n-gram hash sets) so EMPTY blocks emit the same
    schema as full ones — inferring from data made a token-less block
    produce string-typed empties beside uint64 blocks and fail the
    downstream concat/groupby."""
    ids = t.column(id_col).to_numpy(zero_copy_only=False)
    texts = t.column(text_col).to_pylist()
    out_tok: list = []
    out_id: list = []
    for did, txt in zip(ids, texts):
        toks = sorted(set_fn(txt or ""))
        out_tok.extend(toks)
        out_id.append(np.full(len(toks), did, dtype=ids.dtype))
    if not out_tok:
        return pa.table(
            {"token": pa.array([], token_type), "doc": pa.array([], pa.int64())}
        )
    return pa.table({"token": pa.array(out_tok, token_type),
                     "doc": pa.array(np.concatenate(out_id))})


def set_similarity_join(
    docs_ds,
    threshold: float = 0.6,
    id_col: str = "doc_id",
    text_col: str = "text",
    set_fn=None,
    token_type: "pa.DataType" = None,
):
    """All pairs (a < b) with Jaccard(``set_fn`` sets) >= threshold.

    ``set_fn(text) -> set`` defaults to distinct word tokens
    (:func:`word_token_set`); pass e.g. ``lambda s: word_ngrams(s, 3)``
    with ``token_type=pa.uint64()`` for n-gram-shingle Jaccard (the
    scale path behind ``dedup.ngram_jaccard_pairs``).  Returns
    Dataset[(a, b, jaccard)] — exact, order-independent.
    """
    import ray
    from ray.data.aggregate import Count

    set_fn = set_fn or word_token_set
    token_type = token_type or pa.string()
    tok = docs_ds.map_batches(
        lambda t: _distinct_token_rows(t, id_col, text_col, set_fn, token_type),
        batch_format="pyarrow",
    )
    df_tab = tok.groupby("token").aggregate(Count(alias_name="df")).to_pandas()
    # vocabulary-sized (same documented broadcast as analysis.py tf-idf):
    # rank = position in the global (df asc, token asc) total order
    df_tab = df_tab.sort_values(["df", "token"], kind="mergesort").reset_index(
        drop=True
    )
    rank_ref = ray.put(
        {tk: r for r, tk in enumerate(df_tab["token"].to_numpy())}
    )

    thr = float(threshold)

    def prefix_rows(t: pa.Table) -> pa.Table:
        """Emits (rank, doc, size) prefix rows; the rank order is read
        with ``util.fetch`` (stateless task stage — no actor-pool CPU
        reservation to deadlock against the groupbys downstream)."""
        rank = fetch(rank_ref)
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        texts = t.column(text_col).to_pylist()
        ranks_out: list = []
        docs_out: list = []
        sizes_out: list = []
        for did, txt in zip(ids, texts):
            toks = set_fn(txt or "")
            s = len(toks)
            if s == 0:
                continue
            p = s - int(np.floor(thr * s)) + 1  # float-safe: never short
            r = np.sort(np.fromiter((rank[w] for w in toks), np.int64, s))
            r = r[: min(p, s)]
            ranks_out.append(r)
            docs_out.append(np.full(len(r), did, dtype=ids.dtype))
            sizes_out.append(np.full(len(r), s, np.int64))
        if not ranks_out:
            return pa.table(
                {
                    "rank": pa.array([], pa.int64()),
                    "doc": pa.array([], pa.int64()),
                    "size": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "rank": pa.array(np.concatenate(ranks_out), pa.int64()),
                "doc": pa.array(np.concatenate(docs_out)),
                "size": pa.array(np.concatenate(sizes_out), pa.int64()),
            }
        )

    prefix = docs_ds.map_batches(prefix_rows, batch_format="pyarrow")

    def bucket_pairs(group: pa.Table) -> pa.Table:
        """All (a < b) doc pairs sharing a prefix token, length-filtered.
        Vectorized per rank run; pairs deduplicate downstream inside
        exact_verify_pairs' keyed attach."""
        n = group.num_rows
        ty = group.schema.field("doc").type
        if n == 0:
            return pa.table({"a": pa.array([], ty), "b": pa.array([], ty)})
        r = group.column("rank").to_numpy(zero_copy_only=False)
        d = group.column("doc").to_numpy(zero_copy_only=False)
        s = group.column("size").to_numpy(zero_copy_only=False)
        order = np.lexsort((d, r))
        r, d, s = r[order], d[order], s[order]
        starts = np.r_[0, np.flatnonzero(r[1:] != r[:-1]) + 1, n]
        out_a: list = []
        out_b: list = []
        for i, j in zip(starts[:-1], starts[1:]):
            m = j - i
            if m < 2:
                continue
            dd, ss = d[i:j], s[i:j]
            # triu pair indices, vectorized
            ia = np.repeat(np.arange(m - 1), np.arange(m - 1, 0, -1))
            ib = np.concatenate([np.arange(k + 1, m) for k in range(m - 1)])
            a, b = dd[ia], dd[ib]
            sa, sb = ss[ia], ss[ib]
            lo = np.minimum(sa, sb).astype(np.float64)
            hi = np.maximum(sa, sb).astype(np.float64)
            keep = lo >= thr * hi - 1e-9  # prune only clearly-impossible
            swap = a > b
            a2 = np.where(swap, b, a)
            b2 = np.where(swap, a, b)
            out_a.append(a2[keep])
            out_b.append(b2[keep])
        if not out_a:
            return pa.table({"a": pa.array([], ty), "b": pa.array([], ty)})
        aa = np.concatenate(out_a)
        bb = np.concatenate(out_b)
        # local dedup before the wire: the same pair often shares several
        # prefix tokens within one partition
        if aa.size and max(int(aa.max()), int(bb.max())) < (1 << 31):
            key = aa.astype(np.int64) * np.int64(1 << 32) + bb.astype(np.int64)
            _, first = np.unique(key, return_index=True)
        else:  # ids too wide to pack: unique over the stacked pair
            _, first = np.unique(np.stack([aa, bb]), axis=1, return_index=True)
        return pa.table({"a": pa.array(aa[first]), "b": pa.array(bb[first])})

    pairs = exchange(prefix, "rank", bucket_pairs)
    return exact_verify_pairs(
        pairs,
        docs_ds,
        id_col=id_col,
        text_col=text_col,
        threshold=thr,
        set_fn=set_fn,
    )

"""Winnowing document fingerprints (Schleimer, Wilkerson & Aiken,
SIGMOD 2003 — the public MOSS algorithm).

The local fingerprinting primitive plagiarism/near-dup pipelines use:
hash every k-gram with a rolling polynomial hash, slide a window of w
consecutive hashes, keep each window's MINIMUM (rightmost position on
ties — the paper's robust-winnowing rule), dedupe consecutive picks.
Guarantees: any shared substring of length >= w + k - 1 produces at
least one shared fingerprint, and the density is ~2/(w+1).

Distributed shape: strictly per-document (embarrassingly parallel
``map_batches``; nothing shuffles). The hash is a base-B polynomial in
WRAPPING uint64 arithmetic — exact and platform-independent — computed
with k vectorized passes (k is small), and the window minimum is one
``sliding_window_view`` argmin; no per-character Python.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from rasters_ray.util import exchange, run_starts

_B = np.uint64(1000003)  # odd multiplier; wrapping mod 2^64


def kgram_hashes(text: str, k: int) -> np.ndarray:
    """uint64 polynomial hash of every k-gram of UTF-8 bytes.
    len = max(0, n - k + 1)."""
    raw = np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.uint64)
    n = len(raw)
    if n < k:
        return np.zeros(0, dtype=np.uint64)
    with np.errstate(over="ignore"):
        h = np.zeros(n - k + 1, dtype=np.uint64)
        for j in range(k):  # k small: k vector ops, no per-char python
            h = h * _B + raw[j : n - k + 1 + j]
    return h


def winnow_positions(h: np.ndarray, w: int) -> np.ndarray:
    """Robust winnowing: per window of ``w`` hashes keep the RIGHTMOST
    minimum's global position; consecutive duplicates collapse."""
    if len(h) == 0:
        return np.zeros(0, dtype=np.int64)
    if len(h) <= w:
        # single (short) window: rightmost min
        rev = h[::-1]
        return np.array([len(h) - 1 - int(np.argmin(rev))], dtype=np.int64)
    win = np.lib.stride_tricks.sliding_window_view(h, w)
    # rightmost min: argmin over the reversed window, flipped back
    rm = w - 1 - np.argmin(win[:, ::-1], axis=1)
    pos = rm + np.arange(len(rm))
    return np.unique(pos).astype(np.int64)


def winnow_fingerprints(
    docs_ds, k: int = 8, w: int = 16, id_col: str = "doc_id", text_col: str = "text"
):
    """-> Dataset[(doc_id, pos, fp)] — one row per selected fingerprint,
    ``fp`` the k-gram hash reinterpreted as int64, ``pos`` its k-gram
    start offset (UTF-8 bytes)."""

    def fp(t: pa.Table) -> pa.Table:
        ids_out, pos_out, fp_out = [], [], []
        ids = t.column(id_col).to_pylist()
        texts = t.column(text_col).to_pylist()
        for did, txt in zip(ids, texts):
            h = kgram_hashes(txt or "", k)
            sel = winnow_positions(h, w)
            if not len(sel):
                continue
            ids_out.append(np.full(len(sel), did, dtype=np.int64))
            pos_out.append(sel)
            fp_out.append(h[sel].view(np.int64))
        if not ids_out:
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "pos": pa.array([], pa.int64()),
                    "fp": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                id_col: pa.array(np.concatenate(ids_out), pa.int64()),
                "pos": pa.array(np.concatenate(pos_out), pa.int64()),
                "fp": pa.array(np.concatenate(fp_out), pa.int64()),
            }
        )

    return docs_ds.map_batches(fp, batch_format="pyarrow")


def winnow_local(texts, ids, k: int = 8, w: int = 16):
    """Sequential reference: [(doc_id, pos, fp)] via the same kernels
    (per-document compute is layout-independent by construction; this
    exists for the golden oracle and tests)."""
    out = []
    for did, txt in zip(ids, texts):
        h = kgram_hashes(txt or "", k)
        sel = winnow_positions(h, w)
        for p, f in zip(sel, h[sel].view(np.int64)):
            out.append((int(did), int(p), int(f)))
    return out


def duplicate_spans(docs_ds, k: int = 20, min_docs: int = 2,
                    id_col: str = "doc_id", text_col: str = "text"):
    """Cross-document duplicated text spans -> Dataset[(doc_id, start,
    end, n_grams)] with [start, end) byte offsets.

    The k-gram inverted-index approximation of exact substring dedup
    (Lee et al. 2021 use suffix arrays; k-gram hashing is the
    distributed-friendly variant): any substring of length >= k shared
    by >= ``min_docs`` documents is covered exactly; shorter repeats are
    invisible by construction.

    Distributed shape (two shuffles, no broadcast, no driver payloads):

      1. per batch: explode (gram hash, doc, pos) rows;
      2. ``util.exchange`` on the gram -> ONE vectorized boundary scan
         per partition (lexsort + reduceat, no per-gram Python) keeps the
         positions of grams whose distinct-doc count >= min_docs;
      3. ``groupby(doc)`` -> vectorized merge of overlapping [p, p+k)
         windows into maximal spans.
    """

    def explode(t: pa.Table) -> pa.Table:
        ids_out, h_out, p_out = [], [], []
        for did, txt in zip(t.column(id_col).to_pylist(),
                            t.column(text_col).to_pylist()):
            h = kgram_hashes(txt or "", k)
            if not len(h):
                continue
            ids_out.append(np.full(len(h), did, dtype=np.int64))
            h_out.append(h.view(np.int64))
            p_out.append(np.arange(len(h), dtype=np.int64))
        if not ids_out:
            e = np.zeros(0, np.int64)
            return pa.table({"doc": pa.array(e), "gram": pa.array(e), "pos": pa.array(e)})
        return pa.table(
            {
                "doc": pa.array(np.concatenate(ids_out), pa.int64()),
                "gram": pa.array(np.concatenate(h_out), pa.int64()),
                "pos": pa.array(np.concatenate(p_out), pa.int64()),
            }
        )

    def dup_positions(group: pa.Table) -> pa.Table:
        g = group.column("gram").to_numpy(zero_copy_only=False)
        d = group.column("doc").to_numpy(zero_copy_only=False)
        p = group.column("pos").to_numpy(zero_copy_only=False)
        order = np.lexsort((p, d, g))
        gs, ds_, ps = g[order], d[order], p[order]
        # distinct-doc count per gram run, fully vectorized
        gstart = run_starts(gs)
        gid = np.repeat(np.arange(len(gstart)), np.diff(np.r_[gstart, len(gs)]))
        ndocs = np.bincount(gid[run_starts(gs, ds_)], minlength=len(gstart))
        keep = ndocs[gid] >= min_docs
        return pa.table(
            {
                "doc": pa.array(ds_[keep], pa.int64()),
                "pos": pa.array(ps[keep], pa.int64()),
            }
        )

    def merge_spans(group: pa.Table) -> pa.Table:
        d = group.column("doc")[0].as_py()
        p = np.sort(group.column("pos").to_numpy(zero_copy_only=False))
        new = np.r_[True, p[1:] > p[:-1] + k]  # gap > k breaks the span
        sid = np.cumsum(new) - 1
        n = sid[-1] + 1
        starts = p[new]
        ends = np.zeros(n, np.int64)
        np.maximum.at(ends, sid, p + k)
        cnt = np.bincount(sid, minlength=n)
        return pa.table(
            {
                "doc_id": pa.array(np.full(n, d, np.int64), pa.int64()),
                "start": pa.array(starts, pa.int64()),
                "end": pa.array(ends, pa.int64()),
                "n_grams": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    return (
        exchange(docs_ds.map_batches(explode, batch_format="pyarrow"), "gram", dup_positions)
        .groupby("doc")
        .map_groups(merge_spans, batch_format="pyarrow")
    )


def duplicate_spans_local(texts, ids, k: int = 20, min_docs: int = 2):
    """Sequential reference for ``duplicate_spans`` (same kernels, one
    process): [(doc_id, start, end, n_grams)] sorted by (doc_id, start)."""
    from collections import defaultdict

    docs_of = defaultdict(set)
    grams = {}
    for did, txt in zip(ids, texts):
        h = kgram_hashes(txt or "", k)
        grams[did] = h
        for v in set(h.tolist()):
            docs_of[v].add(did)
    out = []
    for did, txt in zip(ids, texts):
        h = grams[did]
        pos = [i for i, v in enumerate(h.tolist()) if len(docs_of[v]) >= min_docs]
        i = 0
        while i < len(pos):
            j = i
            while j + 1 < len(pos) and pos[j + 1] <= pos[j] + k:
                j += 1
            out.append((int(did), int(pos[i]), int(pos[j] + k), j - i + 1))
            i = j + 1
    return out

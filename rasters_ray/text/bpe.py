"""Distributed BPE merge training (Sennrich et al. 2016, public algorithm).

The tokenizer-training core of an LLM data pipeline: repeatedly find the
corpus's most frequent adjacent symbol pair and merge it.  Each round is
ONE streaming pass + a tiny reduce:

  * per batch: count DISTINCT words once (``np.unique``), apply the
    current merge list to each distinct word, emit (pair, count) rows
    weighted by word frequency — the classic trainer optimization, so a
    round's wire volume is vocabulary-sized, not token-stream-sized;
  * one ``util.exchange`` on the pair -> per-partition top-1 -> driver
    picks the global best over at most one candidate row per partition.

Ties break (count DESC, pair ASC), so the merge sequence is fully
deterministic and block-layout independent — the distributed trainer is
asserted BIT-EQUAL to a sequential single-process reference in tests
(the correctness gate; the merge loop itself is inherently iterative and
not SQL-expressible, hence a rows-only contract entry).

Merge application is the standard greedy left-to-right pair scan per
word; the per-round merge list is broadcast (``ray.put`` once, read per
worker with ``util.fetch``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from rasters_ray.util import exchange, fetch

__all__ = ["apply_merges", "train_bpe", "bpe_train_local"]

_SEP = "\x1f"  # pair-string separator (never appears in tokens)


def apply_merges(word: str, merges: list) -> list:
    """Greedy BPE application: chars -> symbols under ``merges`` order."""
    syms = list(word)
    for a, b in merges:
        if len(syms) < 2:
            break
        out = []
        i = 0
        while i < len(syms):
            if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
                out.append(a + b)
                i += 2
            else:
                out.append(syms[i])
                i += 1
        syms = out
    return syms


def _pair_rows(texts, merges):
    """(pair, weighted count) rows over a batch of texts."""
    words: list = []
    for txt in texts:
        words.extend((txt or "").split())
    if not words:
        return pa.table(
            {
                "pair": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
            }
        )
    uniq, counts = np.unique(np.asarray(words, dtype=object), return_counts=True)
    pair_strs: list = []
    pair_wts: list = []
    for w, wc in zip(uniq, counts):
        syms = apply_merges(w, merges)
        for i in range(len(syms) - 1):
            pair_strs.append(syms[i] + _SEP + syms[i + 1])
            pair_wts.append(wc)
    if not pair_strs:
        return pa.table(
            {
                "pair": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
            }
        )
    parr = np.asarray(pair_strs, dtype=object)
    warr = np.asarray(pair_wts, dtype=np.int64)
    puniq, pinv = np.unique(parr, return_inverse=True)
    sums = np.zeros(len(puniq), np.int64)
    np.add.at(sums, pinv, warr)
    return pa.table({"pair": pa.array(puniq, pa.string()), "n": pa.array(sums, pa.int64())})


def train_bpe(docs_ds, n_merges: int = 8, text_col: str = "text") -> pa.Table:
    """Distributed trainer -> Table[(merge_idx, left, right, n)]."""
    import ray

    merges: list = []
    rows = {"merge_idx": [], "left": [], "right": [], "n": []}
    for round_idx in range(n_merges):
        merges_ref = ray.put(list(merges))

        def pair_counts(t: pa.Table, _ref=merges_ref) -> pa.Table:
            return _pair_rows(t.column(text_col).to_pylist(), fetch(_ref))

        def top1(group: pa.Table) -> pa.Table:
            p = group.column("pair").to_numpy(zero_copy_only=False)
            n = group.column("n").to_numpy(zero_copy_only=False)
            uniq, inv = np.unique(p, return_inverse=True)
            sums = np.zeros(len(uniq), np.int64)
            np.add.at(sums, inv, n)
            best = np.lexsort((uniq, -sums))[:1]
            return pa.table(
                {
                    "pair": pa.array(uniq[best], pa.string()),
                    "n": pa.array(sums[best], pa.int64()),
                }
            )

        cand = exchange(docs_ds.map_batches(pair_counts, batch_format="pyarrow"),
                        "pair", top1).to_pandas()  # <= one row per partition
        if not len(cand):
            break
        cand = cand.sort_values(["n", "pair"], ascending=[False, True],
                                kind="mergesort")
        pair, n = cand.iloc[0]["pair"], int(cand.iloc[0]["n"])
        left, right = pair.split(_SEP)
        merges.append((left, right))
        rows["merge_idx"].append(round_idx)
        rows["left"].append(left)
        rows["right"].append(right)
        rows["n"].append(n)
    return pa.table(
        {
            "merge_idx": pa.array(rows["merge_idx"], pa.int64()),
            "left": pa.array(rows["left"], pa.string()),
            "right": pa.array(rows["right"], pa.string()),
            "n": pa.array(rows["n"], pa.int64()),
        }
    )


def bpe_train_local(texts, n_merges: int = 8) -> list:
    """Sequential reference (the truth tests compare against):
    [(left, right, count)] with the same (count DESC, pair ASC) rule."""
    words: list = []
    for txt in texts:
        words.extend((txt or "").split())
    uniq, counts = np.unique(np.asarray(words, dtype=object), return_counts=True)
    merges: list = []
    out: list = []
    for _ in range(n_merges):
        tally: dict = {}
        for w, wc in zip(uniq, counts):
            syms = apply_merges(w, merges)
            for i in range(len(syms) - 1):
                key = (syms[i], syms[i + 1])
                tally[key] = tally.get(key, 0) + int(wc)
        if not tally:
            break
        best = min(tally.items(), key=lambda kv: (-kv[1], kv[0]))
        merges.append(best[0])
        out.append((best[0][0], best[0][1], best[1]))
    return out

"""Multi-pattern substring counting as a stateless task stage.

The training-data use case: count occurrences of a fixed dictionary of
phrases (PII markers, boilerplate, contamination probes) across a
document corpus.  The stage is a callable object passed to
``map_batches`` as a task: pattern byte arrays compile once on the
driver in ``__init__``; ``__call__`` concatenates the batch's
documents with NUL guards and counts every pattern by vectorized
shifted-window equality (L boolean ANDs of byte shifts per pattern —
no per-character Python automaton walk; an Aho-Corasick trie is the
character-serial alternative with the same output).

Counts include OVERLAPPING occurrences.  For self-overlap-free
patterns (no proper border, e.g. ``fast``), overlapping equals
non-overlapping, which is what a replace-based SQL oracle counts —
:func:`assert_border_free` guards that contract.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

__all__ = ["MultiPatternStage", "multi_pattern_counts",
           "assert_border_free"]


def assert_border_free(pattern: str) -> None:
    """Raise unless the pattern has no proper border (prefix == suffix),
    i.e. it cannot overlap itself."""
    b = pattern.encode("utf-8")
    for k in range(1, len(b)):
        if b[:k] == b[-k:]:
            raise ValueError(
                f"pattern {pattern!r} has border {b[:k]!r}: overlapping "
                "and non-overlapping counts differ"
            )


class MultiPatternStage:
    """map_batches stage: documents -> (doc id, pattern, n) rows with
    n > 0.  ``patterns`` compile once, in the constructor."""

    def __init__(self, patterns: list[str], id_col: str = "doc_id",
                 text_col: str = "text"):
        self.patterns = list(patterns)
        self.pat_bytes = [np.frombuffer(p.encode("utf-8"), np.uint8)
                          for p in self.patterns]
        if any(0 in pb for pb in self.pat_bytes):
            raise ValueError("patterns must not contain NUL")
        self.id_col = id_col
        self.text_col = text_col

    def __call__(self, t: pa.Table) -> pa.Table:
        texts = [s.encode("utf-8") for s in t.column(self.text_col).to_pylist()]
        ids = t.column(self.id_col)
        if not texts:
            return pa.table(
                {
                    self.id_col: pa.array([], ids.type),
                    "pattern": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        # NUL-guarded concatenation + doc start offsets
        buf = np.frombuffer(b"\x00".join(texts), np.uint8)
        lens = np.asarray([len(x) for x in texts], np.int64)
        starts = np.concatenate(([0], np.cumsum(lens + 1)[:-1]))
        out_ids, out_pat, out_n = [], [], []
        for pat, pb in zip(self.patterns, self.pat_bytes):
            L = len(pb)
            if L > len(buf):
                continue
            m = buf[: len(buf) - L + 1] == pb[0]
            for j in range(1, L):
                m = m & (buf[j: len(buf) - L + 1 + j] == pb[j])
            pos = np.flatnonzero(m)
            if not len(pos):
                continue
            di = np.searchsorted(starts, pos, side="right") - 1
            cnt = np.bincount(di, minlength=len(texts))
            nz = np.flatnonzero(cnt)
            out_ids.extend(ids[i].as_py() for i in nz)
            out_pat.extend([pat] * len(nz))
            out_n.extend(cnt[nz].tolist())
        return pa.table(
            {
                self.id_col: pa.array(out_ids, ids.type),
                "pattern": pa.array(out_pat, pa.string()),
                "n": pa.array(out_n, pa.int64()),
            }
        )


def multi_pattern_counts(docs_ds, patterns: list[str],
                         id_col: str = "doc_id", text_col: str = "text"):
    """Dataset[docs] -> Dataset[(id, pattern, n)] via the task stage.
    Patterns are validated border-free so replace-count oracles agree."""
    for p in patterns:
        assert_border_free(p)
    return docs_ds.map_batches(
        MultiPatternStage(patterns, id_col=id_col, text_col=text_col),
        batch_format="pyarrow",
    )

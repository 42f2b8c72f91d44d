"""Text analysis + dedup operators."""

import numpy as np
import pyarrow as pa
import pytest

from rasters_ray.text import (
    MinHasher,
    add_fingerprints,
    add_simhash,
    char_shingles,
    fingerprint64,
    hamming64,
    jaccard,
    lang_id,
    quality_score,
    simhash64,
    token_stats,
    word_ngrams,
)


def _docs():
    return pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    "The cat and the dog",
                    "  leading  spaces and   runs ",
                    "",
                    "UPPER Case MiXeD 123",
                ],
                pa.string(),
            ),
        }
    )


def test_token_stats_semantics():
    t = token_stats(_docs())
    assert t.column("n_tokens").to_pylist() == [5, 4, 0, 4]
    assert t.column("n_chars").to_pylist() == [19, 29, 0, 20]
    # UPPER(5) + C + M,X,D = 9
    assert t.column("n_upper").to_pylist() == [1, 0, 0, 9]
    # stopwords: the, and, the | and | - | -
    assert t.column("n_stop").to_pylist() == [3, 1, 0, 0]


def test_quality_score_bounds():
    t = quality_score(_docs())
    q = t.column("quality").to_pylist()
    assert all(0.0 <= v <= 1.0 for v in q)


def test_lang_id_profiles():
    docs = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(
                [
                    "the cat is on the mat and it is happy",
                    "el perro y el gato en la casa con su amigo",
                    "der Hund und die Katze in den Haus mit",
                ],
                pa.string(),
            ),
        }
    )
    out = lang_id(docs).column("lang_pred").to_pylist()
    assert out == ["en", "es", "de"]


def test_fingerprint_stable():
    assert fingerprint64("hello world") == fingerprint64("hello world")
    assert fingerprint64("hello world") != fingerprint64("hello worlD")
    t = add_fingerprints(_docs())
    assert t.column("content_key")[0].as_py() == __import__("hashlib").md5(
        b"The cat and the dog"
    ).hexdigest()


def test_jaccard_and_shingles():
    a = char_shingles("the quick brown fox", 5)
    b = char_shingles("the quick brown fox", 5)
    assert jaccard(a, b) == 1.0
    c = char_shingles("a completely different text here", 5)
    assert jaccard(a, c) < 0.2
    assert word_ngrams("a b c d", 3) == {
        w for w in word_ngrams("a b c d", 3)
    }


def test_minhash_estimates_jaccard():
    h = MinHasher(256)
    a = char_shingles("the quick brown fox jumps over the lazy dog " * 5, 5)
    b = char_shingles("the quick brown fox jumps over the lazy cat " * 5, 5)
    sa = h.signature(a)
    sb = h.signature(b)
    est = (sa == sb).mean()
    true = jaccard(a, b)
    assert abs(est - true) < 0.15


def test_simhash_near_duplicates_close():
    s1 = simhash64("the quick brown fox jumps over the lazy dog and runs far away")
    s2 = simhash64("the quick brown fox jumps over the lazy dog and runs far home")
    s3 = simhash64("completely unrelated content about databases and query engines")
    assert hamming64(s1, s2) < hamming64(s1, s3)
    t = add_simhash(_docs())
    assert len(t.column("simhash").to_pylist()) == 4


def test_minhash_near_dups_pipeline(ray_session):
    import ray.data as rd

    from rasters_ray.text import minhash_near_dups

    base = "spark table join filter scan row batch value key part hash merge sort window " * 4
    texts = [base, base + "extra", "something else entirely different words here " * 6]
    docs = rd.from_arrow(
        pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()), "text": pa.array(texts)})
    )
    pairs = minhash_near_dups(docs, threshold=0.5, concurrency=2).to_pandas()
    got = {(min(a, b), max(a, b)) for a, b in zip(pairs.a, pairs.b)}
    assert (0, 1) in got
    assert all(2 not in p for p in got)


def test_batch_signatures_match_single():
    from rasters_ray.text.dedup import MinHasher, char_shingles

    h = MinHasher(64)
    texts = ["alpha beta gamma delta " * 3, "", "one two three four five six " * 2]
    sets = [char_shingles(t) for t in texts]
    batch = h.signatures(sets)
    for i, s in enumerate(sets):
        np.testing.assert_array_equal(batch[i], h.signature(s))


def test_hot_bucket_star_pairs():
    from rasters_ray.text.dedup import candidate_pairs_from_buckets

    ids = pa.table({"doc_id": pa.array(list(range(10)), pa.int64())})
    full = candidate_pairs_from_buckets(ids, cap=64)
    assert full.num_rows == 45  # all pairs
    star = candidate_pairs_from_buckets(ids, cap=4)
    assert star.num_rows == 9  # n-1 star pairs to min id
    assert set(star.column("a").to_pylist()) == {0}
    assert sorted(star.column("b").to_pylist()) == list(range(1, 10))
    empty = candidate_pairs_from_buckets(ids.slice(0, 1))
    assert empty.num_rows == 0


def test_simhash_batch_matches_expected_bits():
    from rasters_ray.text.dedup import simhash_batch

    texts = ["hello world hello", "", "hello world hello"]
    out = simhash_batch(texts)
    assert out[0] == out[2]
    assert out[1] == 0
    # deterministic across calls (memoized token hashes)
    np.testing.assert_array_equal(out, simhash_batch(texts))


def test_misra_gries_guarantee():
    from rasters_ray.text import misra_gries

    # any token with freq > N/(capacity+1) must survive
    toks = ["hot"] * 60 + [f"t{i}" for i in range(300)]
    got = misra_gries(toks, capacity=8)
    assert "hot" in got
    assert len(got) <= 8
    assert got["hot"] <= 60  # lower bound


def test_heavy_hitter_tokens_exact(ray_session):
    import collections

    import ray.data as rd

    from rasters_ray.text import heavy_hitter_tokens
    from rasters_ray.text.analysis import _TOKEN_RE

    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(200)]
    weights = 1.0 / (np.arange(200) + 1.0)  # zipf-ish
    weights /= weights.sum()
    texts = [
        " ".join(rng.choice(vocab, p=weights, size=80)) for _ in range(50)
    ]
    docs = rd.from_arrow(pa.table({"text": pa.array(texts)})).repartition(4)
    got = heavy_hitter_tokens(docs, k=10, capacity=64)
    counter = collections.Counter(
        w.lower() for t in texts for w in _TOKEN_RE.findall(t)
    )
    want = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    assert list(zip(got.column("token").to_pylist(), got.column("n").to_pylist())) == want


def test_ngram_jaccard_pairs(ray_session):
    import ray.data as rd

    from rasters_ray.text import jaccard, ngram_jaccard_pairs, word_ngrams

    texts = {
        0: "alpha beta gamma delta epsilon zeta",
        1: "alpha beta gamma delta epsilon eta",
        2: "one two three four five six seven",
    }
    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(list(texts), pa.int64()),
                "text": pa.array(list(texts.values())),
            }
        )
    )
    out = ngram_jaccard_pairs(docs, n=3).to_pandas().set_index(["a", "b"])
    assert len(out) == 3
    for a in texts:
        for b in texts:
            if a < b:
                want = jaccard(word_ngrams(texts[a]), word_ngrams(texts[b]))
                assert out.loc[(a, b), "jaccard"] == want


def test_ngram_jaccard_routes_to_setjoin_above_guard(ray_session):
    # above max_docs with a threshold: the exact prefix-filter join takes
    # over and must return exactly the dense path's pairs >= threshold
    import ray.data as rd

    from rasters_ray.text import ngram_jaccard_pairs

    rng = np.random.default_rng(23)
    vocab = [f"w{i}" for i in range(40)]
    texts = {
        i: " ".join(rng.choice(vocab, size=12, replace=True)) for i in range(30)
    }
    # plant near-dup pairs
    texts[30] = texts[0]
    texts[31] = texts[1] + " extra"
    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(list(texts), pa.int64()),
                "text": pa.array(list(texts.values())),
            }
        )
    ).repartition(5)
    thr = 0.5
    dense = ngram_jaccard_pairs(docs, n=3, max_docs=1000).to_pandas()
    dense = dense[dense["jaccard"] >= thr].sort_values(["a", "b"]).reset_index(drop=True)
    assert len(dense) >= 2  # the planted pairs are present
    routed = ngram_jaccard_pairs(docs, n=3, max_docs=10, threshold=thr)
    routed = routed.to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    assert len(routed) == len(dense)
    assert (routed["a"].to_numpy() == dense["a"].to_numpy()).all()
    assert (routed["b"].to_numpy() == dense["b"].to_numpy()).all()
    np.testing.assert_allclose(
        routed["jaccard"].to_numpy(), dense["jaccard"].to_numpy(), rtol=0, atol=0
    )
    # without a threshold the guard still raises
    with pytest.raises(ValueError, match="quadratic"):
        ngram_jaccard_pairs(docs, n=3, max_docs=10)
    # the DENSE path honors threshold too (same filtered contents)
    dense_thr = (
        ngram_jaccard_pairs(docs, n=3, max_docs=1000, threshold=thr)
        .to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    )
    assert dense_thr["a"].tolist() == dense["a"].tolist()
    np.testing.assert_allclose(
        dense_thr["jaccard"].to_numpy(), dense["jaccard"].to_numpy(), atol=0
    )
    # empty blocks beside token-bearing ones: schema stays uint64 on the
    # routed path (a doc with < n words produces zero n-grams)
    few = docs.union(
        __import__("ray").data.from_arrow(
            pa.table({"doc_id": pa.array([999], pa.int64()),
                      "text": pa.array(["ab"], pa.string())})
        ).repartition(1)
    )
    routed2 = ngram_jaccard_pairs(few, n=3, max_docs=10, threshold=thr).to_pandas()
    assert len(routed2) == len(dense)


def test_hamming_near_dups(ray_session):
    import ray.data as rd

    from rasters_ray.text import hamming_near_dups

    base = 0x0123456789ABCDEF
    rows = {
        "a0": base,
        "a1": base ^ 0b111,            # distance 3
        "a2": base ^ (0xF << 20),      # distance 4
        "far": base ^ 0x00FF00FF00FF00FF,  # distance 32
        "dup": base,                   # distance 0
    }
    ds = rd.from_arrow(
        pa.table(
            {
                "image_id": pa.array(list(rows), pa.string()),
                "phash": pa.array([np.int64(v - (1 << 64) if v >= 1 << 63 else v) for v in rows.values()], pa.int64()),
            }
        )
    )
    out = hamming_near_dups(ds, max_dist=6).to_pandas()
    got = {tuple(sorted((r.a, r.b))): r.hamming for r in out.itertuples()}
    assert got[("a0", "a1")] == 3
    assert got[("a0", "dup")] == 0
    assert got[("a1", "dup")] == 3
    assert got[("a0", "a2")] == 4
    assert not any("far" in p for p in got)
    with pytest.raises(ValueError):
        hamming_near_dups(ds, max_dist=8, bands=8)


def test_exact_dedup_groups(ray_session):
    import ray.data as rd

    from rasters_ray.text import exact_dedup_groups

    texts = ["aaa", "bbb", "aaa", "ccc", "bbb", "aaa"]
    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([10, 11, 12, 13, 14, 15], pa.int64()),
                "text": pa.array(texts),
            }
        )
    ).repartition(3)
    out = exact_dedup_groups(docs).to_pandas().set_index("keeper_doc_id")
    assert out.loc[10, "n_dupes"] == 3  # aaa: 10, 12, 15
    assert out.loc[11, "n_dupes"] == 2  # bbb: 11, 14
    assert out.loc[13, "n_dupes"] == 1
    assert len(out) == 3


def test_minhash_no_driver_collection_and_string_ids(ray_session, monkeypatch):
    """VERDICT r2 #3: the pipeline must build with ZERO driver-side
    collection (no iter_batches/materialize/take during construction),
    and string doc ids must route through the crc32 partition path."""
    import ray.data as rd
    from ray.data import Dataset

    from rasters_ray.text import minhash_near_dups

    base = "spark table join filter scan row batch value key part hash merge sort window " * 4
    texts = [base, base + "extra", "something else entirely different words here " * 6]
    docs = rd.from_arrow(
        pa.table({"doc_id": pa.array(["d0", "d1", "d2"], pa.string()),
                  "text": pa.array(texts)})
    )

    def deny(name):
        def guard(self, *a, **k):
            raise AssertionError(f"driver-side Dataset.{name}() inside minhash_near_dups")
        return guard

    for name in ("iter_batches", "materialize", "take", "take_all", "to_pandas"):
        monkeypatch.setattr(Dataset, name, deny(name))
    ds = minhash_near_dups(docs, threshold=0.5, concurrency=2)
    monkeypatch.undo()

    pairs = ds.to_pandas()
    got = {(min(a, b), max(a, b)) for a, b in zip(pairs.a, pairs.b)}
    assert ("d0", "d1") in got
    assert all("d2" not in p for p in got)


def test_ngram_jaccard_guard_trips(ray_session):
    import ray.data as rd

    import pytest as _pytest

    from rasters_ray.text import ngram_jaccard_pairs

    docs = rd.from_arrow(
        pa.table({"doc_id": pa.array(list(range(5)), pa.int64()),
                  "text": pa.array([f"alpha beta gamma doc {i}" for i in range(5)])})
    )
    with _pytest.raises(ValueError, match="max_docs"):
        ngram_jaccard_pairs(docs, max_docs=3)

"""util.fetch: a broadcast is deserialized once per worker process, and
the per-worker cache never holds more than FETCH_CACHE_SIZE values."""

import numpy as np


def test_fetch_deserializes_once_per_worker(ray_session):
    import ray

    from rasters_ray.util import fetch

    @ray.remote
    def fetch_twice(wrapped):
        ref = wrapped[0]  # a ref inside a list reaches the task unresolved
        first = fetch(ref)
        return first is fetch(ref), int(first.sum())

    ref = ray.put(np.arange(100, dtype=np.int64))
    same, total = ray.get(fetch_twice.remote([ref]))
    assert same
    assert total == 4950


def test_fetch_cache_is_bounded_lru(ray_session):
    import ray

    from rasters_ray import util

    @ray.remote
    def fetch_all(refs):
        for r in refs:
            util.fetch(r)
        util.fetch(refs[-util.FETCH_CACHE_SIZE])  # touched again: stays
        util.fetch(refs[-1])
        return list(util._FETCHED), util.FETCH_CACHE_SIZE

    n = util.FETCH_CACHE_SIZE + 3
    refs = [ray.put(np.full(4, i)) for i in range(n)]
    held, cap = ray.get(fetch_all.remote(refs))
    assert len(held) <= cap
    # the most recently used refs, in least- to most-recent order
    newest = [r.hex() for r in refs[n - cap:]]
    assert held == newest[1:-1] + newest[:1] + newest[-1:]


def test_fetch_threads_share_one_bounded_cache(ray_session):
    import ray

    from rasters_ray import util

    @ray.remote
    def hammer(refs):
        import sys
        import threading

        errors = []

        def work(offset):
            try:
                for i in range(400):
                    v = util.fetch(refs[(i + offset) % len(refs)])
                    assert len(v) == 4
            except Exception as e:  # surfaced through the result below
                errors.append(repr(e))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            alive = sum(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(old)
        return errors, alive, len(util._FETCHED), util.FETCH_CACHE_SIZE

    refs = [ray.put(np.full(4, i)) for i in range(util.FETCH_CACHE_SIZE + 3)]
    errors, alive, held, cap = ray.get(hammer.remote(refs), timeout=120)
    assert errors == [] and alive == 0
    assert held <= cap

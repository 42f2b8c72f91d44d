"""Cluster job entrypoint for `ray job submit` (the north rule's launch
path). On a real cluster:

    ray job submit --working-dir . -- python scripts/job_entry.py \
        --input /data/images --output /out/tiles --level 8

The script connects to the cluster it runs on (RAY_ADDRESS is injected
by the job server; `ray.init()` with no address attaches), runs the
partitioned, checkpoint-resumable flagship pipeline and prints one JSON
line of per-partition metrics. The job reads the input table once, in
one streaming execution that routes each tile to its image-id hash
partition; the partitions are committed after that execution, so a
rerun skips the committed ones and redoes the rest. Standalone (no job
server) it starts a local session instead — same code path.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", default=None, help="parquet image table (default: synthetic)")
    ap.add_argument("--output", required=True, help="partitioned parquet output root")
    ap.add_argument("--level", type=int, default=8)
    ap.add_argument("--partitions", type=int, default=8)
    ap.add_argument("--n-images", type=int, default=256, help="synthetic input size")
    ap.add_argument("--num-cpus", type=int, default=None, help="standalone-mode CPU cap")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        # under `ray job submit` RAY_ADDRESS points at the cluster; locally
        # this starts a fresh session
        kwargs = {"include_dashboard": False, "logging_level": "ERROR"}
        if args.num_cpus:
            kwargs.update(address="local", num_cpus=args.num_cpus)
        ray.init(**kwargs)

    import ray.data as rd

    from rasters_ray.pipelines import run_flagship_partitioned

    if args.input:
        import pyarrow.dataset as pads

        total = pads.dataset(args.input).count_rows()

        def make_images_ds(lo: int, hi: int):
            # the job calls the feed once, for the whole table [0, total)
            return rd.read_parquet(args.input)

    else:
        total = args.n_images

        def make_images_ds(lo: int, hi: int):
            from rasters_ray.sources.images import make_fixture_images

            import numpy as np

            return rd.from_arrow(make_fixture_images(np.arange(lo, hi)))

    make_images_ds.total = total
    manifest = run_flagship_partitioned(
        make_images_ds, args.output, n_partitions=args.partitions, level=args.level
    )
    print(json.dumps({"partitions": len(manifest), "manifest": manifest[:2]}))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload for one seed and print one JSON result line.

    python3 perfbench/run.py --workload tile_job --seed 42 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics (job_rel, setup_s, peak_rss_mb,
ok_ratio); ``--trace 1`` prints the per-layer metrics.
Progress goes to stderr; everything Ray prints goes to a log file under
``.perfbench/logs``; the result is the last line of stdout:

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

See perfbench/README.md for the workloads, metrics and layers.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

MIN_TIMED_JOBS = 3
MAX_FAILED_JOBS = 3
FLOOR_REPEATS = 3
SETUP_SESSIONS = 3  # Ray sessions started per untraced run; setup_s uses their median
# peak_rss_mb is read after this many timed jobs (or at the end of a shorter
# run): the broadcast cache grows with every point_sample job, so a reading
# at the end of the run would rise whenever jobs got faster
RSS_AFTER_JOBS = 5

END_TO_END_UNITS = {"job_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}
PER_LAYER_UNITS = {
    "sources.read_s": "s", "sources.bytes_read": "B",
    "checkpoint.partitions": "count", "checkpoint.bytes_written": "B",
    "checkpoint.input_read_factor": "ratio",
    "codec.decode_s": "s", "codec.decode_n": "count", "codec.encode_s": "s", "codec.encode_n": "count",
    "tiling.cover_s": "s", "tiling.make_tiles_s": "s", "tiling.tiles_out": "count",
    "tiling.passthrough_ratio": "ratio",
    "point_join.buckets_s": "s", "point_join.sample_s": "s", "point_join.candidates": "count",
    "point_join.hits": "count", "point_join.hit_ratio": "ratio", "point_join.misses": "count",
    "point_join.antijoin_s": "s",
    "composite.group_s": "s", "composite.cells_out": "count", "composite.hot_cells": "count",
    "composite.cell_skew": "ratio",
    "relational.floor_s": "s", "relational.rows_in": "count",
    "ray.tasks": "count", "ray.udf_s": "s", "ray.cpu_s": "s", "ray.overhead_s": "s",
    "ray.bytes_out": "B", "ray.shuffle_bytes": "B", "ray.partition_skew": "ratio",
    "ray.peak_heap_mb": "MB", "ray.warnings": "count",
    "floor_1proc_s": "s", "floor_ratio": "ratio", "trace_overhead_s": "s",
    "job_s": "s", "items_per_s": "1/s",
}


def _args(argv):
    from perfbench.workloads import SCALES, WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(SCALES), default="bench",
                    help="input sizes; 'smoke' is for the self-tests")
    return ap.parse_args(argv)


class Runner:
    """Runs jobs of one workload in a closed loop and counts outcomes.
    With a tracer set, each job is wrapped in spans and returns its
    output together with the ``ray.*`` metrics of its operator table."""

    def __init__(self, wl, say):
        self.wl, self.say = wl, say
        self.attempted = self.failed = 0
        self.next_id = 0
        self.tracer = None

    def run(self):
        """One job; returns (seconds, output), seconds None if it failed."""
        from perfbench.trace import TraceLost, operator_table, ray_metrics

        self.attempted += 1
        i, self.next_id = self.next_id, self.next_id + 1
        out = None
        try:
            t0 = time.perf_counter()
            if self.tracer is None:
                out = self.wl.job(i)
            else:
                capture = []
                with self.tracer.span("job"):
                    with self.tracer.span("job.run"):
                        out = self.wl.job(i, capture)
                    with self.tracer.span("job.operator_table"):
                        ray = ray_metrics(operator_table(capture))
            dt = time.perf_counter() - t0
            ok = self.wl.check(out)
        except TraceLost:  # the measurement is broken, not the job: fail the run
            raise
        except Exception:  # a failed job is counted, the run goes on
            self.say("job %d raised:\n%s" % (i, traceback.format_exc()))
            ok = False
        if not ok:
            self.failed += 1
            self.say(f"job {i} produced a wrong output")
            return None, out
        return dt, out if self.tracer is None else (out, ray)

    def loop(self, seconds, after_job=None):
        """Jobs until ``seconds`` have passed and at least MIN_TIMED_JOBS
        succeeded; returns (times, outputs).  ``after_job`` is called with
        each job's time, None for a failed job."""
        times, outs = [], []
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds or len(times) < MIN_TIMED_JOBS:
            if self.failed >= MAX_FAILED_JOBS:
                break
            dt, out = self.run()
            if dt is not None:
                times.append(dt)
                outs.append(out)
            if after_job is not None:
                after_job(dt)
        return times, outs


def main(argv=None) -> int:
    args = _args(argv)
    # a terminated run still stops its Ray session (the finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not os.path.isfile(os.path.join(ROOT, "rasters_ray", "__init__.py")):
        print(f"perfbench: the rasters_ray package is not under {ROOT}", file=sys.stderr)
        return 2
    from perfbench import inputs, session
    from perfbench.workloads import WORKLOADS

    run_tag = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    for sub in ("logs", "runs", "cache", "work"):
        os.makedirs(os.path.join(session.WORK, sub), exist_ok=True)
    log = session.LogCapture(os.path.join(session.WORK, "logs", run_tag + ".log"))
    info = None
    try:
        # set-up: imports once, then Ray init + warm worker several times;
        # the last session is the one the jobs run in
        session.import_engine()
        imports_s = session.boot_elapsed_s()
        sessions = []
        n_sessions = 1 if args.trace else SETUP_SESSIONS
        for k in range(n_sessions):
            t0 = time.perf_counter()
            info = session.start_session()
            sessions.append(time.perf_counter() - t0)
            if k < n_sessions - 1:
                session.stop_session(info)
                info = None
        samples = [imports_s + s for s in sessions]
        host = session.host_block()
        log.say(f"host {json.dumps(host)}; session {json.dumps(info)}")
        log.say(f"setup_s samples {[round(s, 3) for s in samples]}")
        if info["cluster_cpus"] != host["nproc"]:
            raise RuntimeError(f"Ray CPUs {info['cluster_cpus']} != nproc {host['nproc']}")

        wl = WORKLOADS[args.workload](
            os.path.join(session.WORK, "cache"), os.path.join(session.WORK, "work", run_tag),
            args.seed, args.scale)
        t0 = time.perf_counter()
        wl.prepare()
        wl.prepare_yardstick()
        inputs.prune(wl.cache)
        log.say(f"inputs and reference ready in {time.perf_counter() - t0:.2f}s")
        runner = Runner(wl, log.say)
        runner.run()  # warm-up: the first iteration of a pipeline is slower
        wl.yardstick()
        session.reset_driver_peak()

        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "scale": args.scale, "host": host, "setup_samples": samples}
        ticks = session.cpu_ticks()
        if not args.trace:
            # the yardstick runs before the first job and after every job;
            # each job's time is divided by the mean of the two around it
            rss_trail, yard, rel = [], [wl.yardstick()], []

            def after_job(dt):
                rss_trail.append(session.peak_rss_mb(info["raylet_pid"]))
                yard.append(wl.yardstick())
                if dt is not None:
                    rel.append(dt / ((yard[-2] + yard[-1]) / 2.0))

            times, _ = runner.loop(args.seconds, after_job=after_job)
            record["peak_rss_mb_after_each_job"] = rss_trail
            record["yardstick_times"] = yard
            rss = rss_trail[min(RSS_AFTER_JOBS, len(rss_trail)) - 1]
            if not times:
                raise RuntimeError(f"all {runner.attempted} jobs failed")
            metrics = {
                "job_rel": statistics.median(rel),
                "setup_s": statistics.median(samples),
                "peak_rss_mb": rss,
                "ok_ratio": (runner.attempted - runner.failed) / runner.attempted,
            }
            record["job_times"] = times
        else:
            metrics, extra = traced(args, wl, runner, log)
            record.update(extra)
        record["host_cpu_shares"] = session.cpu_shares(ticks, session.cpu_ticks())
        metrics = {k: metrics[k] for k in (PER_LAYER_UNITS if args.trace else END_TO_END_UNITS)}
        session.stop_session(info)
        info = None
        correct = runner.failed == 0 and record.get("floor_correct", True)
        record.update(attempted=runner.attempted, failed=runner.failed, metrics=metrics)
        with open(os.path.join(session.WORK, "runs", run_tag + ".json"), "w") as f:
            json.dump(record, f, indent=1)
        n = len(record.get("job_times", record.get("traced_times", [])))
        log.say(f"{args.workload}: {runner.attempted} jobs, {runner.failed} failed, "
                f"{n} timed; metrics {json.dumps(metrics)}")
        units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
        result = {
            "correct": bool(correct),
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        log.result.write(json.dumps(result) + "\n")
        log.result.flush()
        return 0
    except Exception:
        log.say("run failed:\n" + traceback.format_exc())
        return 1
    finally:
        if info is not None:
            session.stop_session(info)
        shutil.rmtree(os.path.join(session.WORK, "work", run_tag), ignore_errors=True)
        log.close()


def traced(args, wl, runner, log):
    """Untraced jobs, traced jobs, floor and one-process layers."""
    from perfbench import session
    from perfbench.trace import Tracer

    tr = Tracer(args.workload, f"s{args.seed}-{os.getpid()}")
    half = args.seconds / 2.0
    plain, _ = runner.loop(half)
    runner.tracer = tr
    traced_times, outs = runner.loop(half)
    runner.tracer = None
    job_s = statistics.median(plain)
    ray = {k: statistics.median(o[1][k] for o in outs) for k in outs[0][1]}
    ray["ray.overhead_s"] = statistics.median(traced_times) - ray["ray.udf_s"]

    floors, floor_ok = [], True
    for _ in range(FLOOR_REPEATS):
        with tr.span("floor"):
            dt, out = wl.floor()
        floors.append(dt)
        floor_ok = floor_ok and wl.check(out)
    with tr.span("layers"):
        layers = wl.layer_metrics(tr)
    checkpoint = {"checkpoint.partitions": 0, "checkpoint.bytes_written": 0}
    if hasattr(wl, "checkpoint_metrics"):
        checkpoint = wl.checkpoint_metrics(outs[-1][0])
    floor = statistics.median(floors)
    metrics = dict(layers)
    metrics.update(ray)
    metrics.update(checkpoint)
    metrics["checkpoint.input_read_factor"] = ray["sources.bytes_read"] / wl.input_bytes()
    metrics["ray.warnings"] = log.warnings()
    metrics["floor_1proc_s"] = floor
    metrics["floor_ratio"] = job_s / floor
    metrics["trace_overhead_s"] = statistics.median(traced_times) - job_s
    metrics["job_s"] = job_s
    metrics["items_per_s"] = wl.items() / job_s
    tr.write(os.path.join(session.WORK, "runs", f"{args.workload}-s{args.seed}-{os.getpid()}.spans.jsonl"))
    extra = {"job_times": plain, "traced_times": traced_times, "floor_times": floors,
             "floor_correct": floor_ok}
    return metrics, extra


if __name__ == "__main__":
    sys.exit(main())

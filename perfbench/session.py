"""Host facts, the benchmark's own Ray session, its logs and its memory.

One local Ray session per run: logical CPUs = ``os.cpu_count()``, a small
object store, its temp directory inside the checkout, and
``PYTHONPATH`` pointing at the checkout so workers import ``rasters_ray``
whatever the working directory.  Everything the process and its children
write to stdout/stderr goes to a log file (the JSON result is printed to
the saved original stdout), and the log's warning lines are counted, not
filtered.
"""

from __future__ import annotations

import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench")
OBJECT_STORE_BYTES = 256 * 1024 * 1024
# Ray's unix socket paths must fit in 107 bytes:
# <temp_dir>/session_<date>_<time>_<us>_<pid>/sockets/plasma_store
_SOCKET_SUFFIX_LEN = 67

WARNING_RE = re.compile(r"\bWARNING\b|Warning:")


def boot_elapsed_s() -> float:
    """Seconds since this process started (kernel start time)."""
    with open("/proc/self/stat") as f:
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def host_block() -> dict:
    import numpy
    import pyarrow
    import ray

    with open("/proc/meminfo") as f:
        mem_kb = int(f.readline().split()[1])
    try:
        import duckdb

        duck = duckdb.__version__
    except ImportError:
        duck = None
    return {
        "nproc": nproc(),
        "cpus_online": os.cpu_count(),
        "ram_gb": round(mem_kb / 2**20, 1),
        "ray_cpus": nproc(),
        "python": platform.python_version(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "numpy": numpy.__version__,
        "duckdb": duck,
    }


def cpu_ticks() -> dict:
    """Host-wide CPU time counters from /proc/stat, in clock ticks."""
    with open("/proc/stat") as f:
        vals = [int(v) for v in f.readline().split()[1:9]]
    return dict(zip(("user", "nice", "system", "idle", "iowait", "irq", "softirq", "steal"), vals))


def cpu_shares(before: dict, after: dict) -> dict:
    """Share of host CPU time per counter between two ``cpu_ticks``."""
    delta = {k: after[k] - before[k] for k in before}
    total = sum(delta.values()) or 1
    return {k: round(v / total, 4) for k, v in delta.items()}


def nproc() -> int:
    """What ``nproc`` prints: the CPUs this process may use, capped by
    ``OMP_NUM_THREADS`` when that is set."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True, check=True).stdout
        return int(out)
    except (OSError, subprocess.CalledProcessError, ValueError):
        return len(os.sched_getaffinity(0))


class LogCapture:
    """Redirect fds 1 and 2 (ours and every child's) into ``path``; keep a
    private handle on the original stdout for the result line and on the
    original stderr for progress."""

    def __init__(self, path: str):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        self.path = path
        sys.stdout.flush()
        sys.stderr.flush()
        self._saved = (os.dup(1), os.dup(2))
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        os.dup2(fd, 1)
        os.dup2(fd, 2)
        os.close(fd)
        self.result = os.fdopen(os.dup(self._saved[0]), "w")
        self.progress = os.fdopen(os.dup(self._saved[1]), "w")

    def say(self, msg: str) -> None:
        self.progress.write(f"[perfbench] {msg}\n")
        self.progress.flush()

    def warnings(self) -> int:
        sys.stdout.flush()
        sys.stderr.flush()
        with open(self.path, errors="replace") as f:
            return sum(1 for line in f if WARNING_RE.search(line))

    def close(self) -> None:
        sys.stdout.flush()
        sys.stderr.flush()
        os.dup2(self._saved[0], 1)
        os.dup2(self._saved[1], 2)
        for fd in self._saved:
            os.close(fd)
        self.result.close()
        self.progress.close()


def _temp_dir():
    """Ray's session directory inside the checkout when the socket paths
    fit; otherwise Ray's default, which is reported to the caller."""
    path = os.path.join(ROOT, ".rt")
    if len(path) + _SOCKET_SUFFIX_LEN <= 107:
        return path
    return None


def _warm_worker(batch):
    import rasters_ray.pipelines  # noqa: F401
    import rasters_ray.relational  # noqa: F401
    import rasters_ray.stages  # noqa: F401

    return batch


def import_engine() -> None:
    """Make the checkout importable here and in every Ray worker, and
    import Ray and the engine."""
    path = os.environ.get("PYTHONPATH", "")
    if ROOT not in path.split(os.pathsep):
        os.environ["PYTHONPATH"] = ROOT + (os.pathsep + path if path else "")
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    import ray.data  # noqa: F401

    import rasters_ray.pipelines  # noqa: F401
    import rasters_ray.relational  # noqa: F401
    import rasters_ray.stages  # noqa: F401


def start_session() -> dict:
    """Start Ray on ``nproc`` CPUs and bring one worker up with the engine
    imported.  Returns session facts."""
    import_engine()
    import ray
    import ray.data as rd

    temp_dir = _temp_dir()
    kwargs = {"_temp_dir": temp_dir} if temp_dir else {}
    ray.init(
        address="local",
        num_cpus=nproc(),
        include_dashboard=False,
        object_store_memory=OBJECT_STORE_BYTES,
        **kwargs,
    )
    ctx = rd.DataContext.get_current()
    ctx.enable_progress_bars = False
    rd.range(1, override_num_blocks=1).map_batches(_warm_worker).materialize()
    node = ray._private.worker._global_node
    return {
        "raylet_pid": node.all_processes["raylet"][0].process.pid,
        "session_dir": node.get_session_dir_path(),
        "temp_dir": temp_dir or "ray default",
        "cluster_cpus": int(ray.cluster_resources().get("CPU", 0)),
    }


def _children(pid: int) -> list:
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if ppid == pid:
            out.append(int(name))
    return out


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def _vm_hwm_kb(pid) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def reset_driver_peak() -> None:
    """Reset this process's VmHWM to its current RSS (Linux >= 4.0), so
    input generation done before the timed loop does not count."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def worker_pids(raylet_pid: int) -> list:
    """Ray worker processes of the session: the raylet's children that
    run ``default_worker.py`` (titled ``ray::...`` once started)."""
    return [
        p
        for p in _children(raylet_pid)
        if _cmdline(p).startswith("ray::") or "default_worker.py" in _cmdline(p)
    ]


def peak_rss_mb(raylet_pid: int) -> float:
    """Σ VmHWM over the driver and every live Ray worker of the session."""
    kb = _vm_hwm_kb("self") + sum(_vm_hwm_kb(p) for p in worker_pids(raylet_pid))
    return kb / 1024.0


def stop_session(info: dict, timeout_s: float = 20.0) -> None:
    """``ray.shutdown()``, then SIGKILL whatever the session started that
    is still alive, wait until it is gone and remove the session dir."""
    import ray

    # Ray's own processes are this process's children; workers and agents
    # are the raylet's.  Collect both before shutdown re-parents them.
    pids = set(_children(os.getpid())) | set(_children(info["raylet_pid"]))
    ray.shutdown()
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        for pid in pids:  # reap our own children
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        if all(_state(p) == "Z" for p in pids):
            break
        time.sleep(0.05)
    shutil.rmtree(info["session_dir"], ignore_errors=True)


def _state(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return "Z"

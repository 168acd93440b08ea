"""What the machine was doing during a run, and what a run left behind.

Read-only views of ``/proc`` and ``/dev/shm``: the environment record
printed with every run (so an outlier can be explained rather than
averaged in), the child-process scan behind the pool-worker memory
sampler, and the leak checks that fail a run which leaves a shared-memory
segment or a process behind.
"""

from __future__ import annotations

import os
import resource
import subprocess
import threading
from pathlib import Path

#: Environment variables that pin BLAS/OpenMP pools to one thread.  Set
#: before numpy is imported; pool workers inherit them.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SHM_DIR = Path("/dev/shm")


def steal_ticks() -> int:
    """Cumulative CPU-steal ticks of the whole machine (``/proc/stat``)."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return -1


def git_commit(root: Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def environment(root: Path) -> dict:
    """The per-run record: CPUs, affinity, BLAS pinning, load, commit."""
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "loadavg": list(os.getloadavg()),
        "steal_ticks": steal_ticks(),
        "commit": git_commit(root),
    }


def children_usage() -> tuple:
    """CPU time and peak RSS of every child reaped so far; unchanged across
    a job means the job started no process that has ended."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime, usage.ru_stime, usage.ru_maxrss


def shm_segments() -> set[str]:
    try:
        return {p.name for p in SHM_DIR.iterdir()}
    except OSError:
        return set()


def _stat_fields(pid: str) -> list[str] | None:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # the command name may hold spaces; everything after ")" splits cleanly
    return raw[raw.rindex(")") + 2 :].split()


def processes_where(field: int, value: int) -> list[int]:
    """Pids whose ``/proc/<pid>/stat`` field (0 = state) equals ``value``.

    Field 1 is the parent pid, field 2 the process group.
    """
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(entry)
            if fields is not None and int(fields[field]) == value:
                found.append(int(entry))
    return found


def is_resource_tracker(pid: int) -> bool:
    try:
        return b"resource_tracker" in Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return False


def peak_rss_kb(pid: int | str = "self") -> int:
    """A process's resident-set high-water mark (``VmHWM``), in KiB."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


class WorkerSampler:
    """Polls this process's children while a job runs.

    Records each pool worker's peak RSS (the resource tracker is not a
    worker and is skipped).  A job's worker memory is the sum of those
    peaks; ``workers_seen`` lets a run prove that a pool really ran, or
    really did not.
    """

    INTERVAL_S = 0.1

    def __init__(self) -> None:
        self.peaks: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self) -> None:
        for pid in processes_where(1, os.getpid()):
            if pid in self.peaks or not is_resource_tracker(pid):
                self.peaks[pid] = max(self.peaks.get(pid, 0), peak_rss_kb(pid))

    def _loop(self) -> None:
        while not self._stop.wait(self.INTERVAL_S):
            self._sample()

    def __enter__(self) -> "WorkerSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def workers_seen(self) -> int:
        return len(self.peaks)

    @property
    def worker_rss_kb(self) -> int:
        return sum(self.peaks.values())

"""Benchmark of the default decomposition path.

    python3 perf/run.py --workload ring-default --seed 1 --seconds 12 --trace 0

Runs from the root of a source checkout (``src/repro`` must exist; nothing
is installed).  A run is a fixed list of jobs derived from ``--seed``: the
job count is ``ceil(seconds × share / nominal job time)``, at least one
per process, and never depends on a clock, so every run of a workload
does identical work.

``--trace 0`` starts :data:`PROCESSES` fresh job processes one after
another (``jobproc.py``); each sets up, warms up and times its share of
the jobs, dealt out round-robin.  The last line of standard output is the end-to-end result.
``--trace 1`` starts one job process that runs the whole job list
untraced and then traced, and reports the per-layer metrics.

The run fails (``correct`` false, exit code 1) when an audit fails, a job
raises, a seam guard or hygiene check trips, the traced outputs differ,
or a job disagrees with an earlier run of the same code on the same
inputs (``barbell-2w`` against ``barbell-wide`` included).  It exits with
code 2, printing no result, when the library is missing.  A record of
every run, with the environment and per-job numbers, is written under
``.perf_runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import sysinfo  # noqa: E402

for _var in sysinfo.BLAS_THREAD_VARS:
    os.environ[_var] = "1"  # inherited by every job process and pool worker

from workloads import WORKLOADS  # noqa: E402

#: Fresh job processes per untraced run; ``setup_s`` is their median.
PROCESSES = 3
#: Every job process must finish inside this many seconds of the run.
RUN_LIMIT_S = 170.0
#: How long a finished job process's session may take to empty.
SETTLE_S = 3.0
RECORD_DIR = ROOT / ".perf_runs"

SEAM_GUARDS = {
    # workload: [(metric, predicate, what it must be)]
    "ring-default": [("nibble.scan_dict.calls", lambda v: v > 0, "> 0")],
    "barbell-2w": [
        ("shared.publish.calls", lambda v: v > 0, "> 0"),
        ("executor.degrade_events", lambda v: v == 0, "= 0"),
    ],
    "triangle-queries": [("triangles.cache.hit_ratio", lambda v: v == 0.5, "= 0.5")],
}
SEQUENTIAL_ZERO = ("shared.publish.calls", "executor.run_batch.calls", "scheduler.tasks")


def source_digest() -> str:
    """Identity of the library source and of the inputs and output digests
    (``workloads.py``), so only runs of the same code compare."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + [HERE / "workloads.py"]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def start_job_process(args, keys, warmup, spans_out=None) -> dict:
    """Run one ``jobproc.py`` in its own session; returns its JSON result.

    Whatever the process leaves running in its session afterwards is
    killed and reported as a leak.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    command = [
        sys.executable,
        str(HERE / "jobproc.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--keys", ",".join(f"{p}:{i}" for p, i in keys),
        "--warmup", f"{warmup[0]}:{warmup[1]}",
        "--trace", str(args.trace),
    ]
    if spans_out:
        command += ["--spans-out", str(spans_out)]
    child = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True
    )
    try:
        out, _ = child.communicate(timeout=max(1.0, args.deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit("job process overran the run's time limit")
    finally:
        if child.poll() is None:  # overran, or this run was stopped
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
    # The resource tracker exits once it sees the job process gone; give
    # the session a moment to empty before calling anything a leak.
    settle = time.monotonic() + SETTLE_S
    leftovers = sysinfo.processes_where(2, child.pid)
    while leftovers and time.monotonic() < settle:
        time.sleep(0.05)
        leftovers = sysinfo.processes_where(2, child.pid)
    if leftovers:
        os.killpg(child.pid, signal.SIGKILL)
    if child.returncode == 3:
        raise SystemExit("the library could not be imported or set up")
    if child.returncode != 0:
        raise SystemExit(f"job process failed with exit code {child.returncode}")
    result = json.loads(out.decode().strip().splitlines()[-1])
    if leftovers:
        result["problems"].append(f"processes {leftovers} outlived their job process")
    return result


def check_ledger(args, jobs: list[dict]) -> list[str]:
    """Compare each job with earlier runs of the same code on the same inputs."""
    family = WORKLOADS[args.workload].family
    RECORD_DIR.mkdir(exist_ok=True)
    ledger = RECORD_DIR / "ledger.jsonl"
    earlier = {}
    if ledger.exists():
        for line in ledger.read_text().splitlines():
            entry = json.loads(line)
            earlier[(entry["src"], entry["family"], entry["seed"], tuple(entry["key"]))] = entry
    problems, lines = [], []
    for job in jobs:
        if "digest" not in job:
            continue
        entry = {
            "src": args.source,
            "family": family,
            "seed": args.seed,
            "key": job["key"],
            "workload": args.workload,
            "digest": job["digest"],
            "rounds": job["rounds"],
        }
        key = (args.source, family, args.seed, tuple(job["key"]))
        before = earlier.get(key)
        if before is None:
            earlier[key] = entry
            lines.append(json.dumps(entry) + "\n")
        elif before["rounds"] != job["rounds"]:
            problems.append(
                f"job {job['key']}: congest_rounds {job['rounds']} here, "
                f"{before['rounds']} on {before['workload']}"
            )
        elif before["digest"] != job["digest"]:
            problems.append(f"job {job['key']}: output differs from {before['workload']}")
    with open(ledger, "a") as handle:
        handle.writelines(lines)
    return problems


def end_to_end(results: list[dict]) -> dict:
    jobs = [job for result in results for job in result["jobs"]]
    done = [job for job in jobs if "seconds" in job]
    seconds = [job["seconds"] for job in done]
    rounds = [r for job in done for r in job["rounds"]]
    components = sum(job.get("components", 0) for job in done)
    decomposed = sum(job.get("decomposed_edges", 0) for job in done)
    rss = [
        (r["self_rss_kb"] + max((j["worker_rss_kb"] for j in r["jobs"]), default=0)) / 1024
        for r in results
    ]
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in results), "s"),
        "job_s.p50": (statistics.median(seconds) if seconds else 0.0, "s"),
        "edges_per_s": (
            sum(job["edges"] for job in done) / sum(seconds) if seconds else 0.0,
            "edges/s",
        ),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "congest_rounds": (statistics.median(rounds) if rounds else 0.0, "rounds"),
        "certified_fraction": (
            sum(job.get("certified", 0) for job in done) / components if components else 0.0,
            "ratio",
        ),
        "kept_edge_fraction": (
            1.0 - sum(job.get("cut", 0) for job in done) / decomposed if decomposed else 0.0,
            "ratio",
        ),
        "audit_pass_fraction": (
            sum(1 for job in jobs if not job["audit"]) / len(jobs) if jobs else 0.0,
            "ratio",
        ),
    }
    return metrics


def per_layer(workload: str, result: dict, problems: list[str]) -> dict:
    layers = dict(result["layers"])
    plain = [j["seconds"] for j in result["jobs"] if "seconds" in j]
    traced = [j["seconds"] for j in result["traced_jobs"] if "seconds" in j]
    layers["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(plain) if plain and traced else 0.0
    )
    guards = list(SEAM_GUARDS.get(workload, []))
    if not WORKLOADS[workload].workers:
        guards += [(name, lambda v: v == 0, "= 0") for name in SEQUENTIAL_ZERO]
    for name, holds, wanted in guards:
        if not holds(layers[name]):
            problems.append(f"seam guard: {name} = {layers[name]} on {workload}, must be {wanted}")
    units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {m["name"]: (layers[m["name"]], m["unit"]) for m in units}


def _stop(signum, _frame):
    raise SystemExit(f"stopped by signal {signum}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _stop)
    args.deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    args.source = source_digest()
    workload = WORKLOADS[args.workload]
    jobs_total = max(
        PROCESSES, math.ceil(args.seconds * workload.share / workload.nominal_job_s)
    )
    keys = [
        [(p, i) for i in range(1, jobs_total // PROCESSES + (p < jobs_total % PROCESSES) + 1)]
        for p in range(PROCESSES)
    ]

    env_before = sysinfo.environment(ROOT)
    segments = sysinfo.shm_segments()
    RECORD_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}_{int(time.time())}"
    if args.trace:
        spans_out = RECORD_DIR / f"{stem}.spans.json.gz"
        all_keys = [key for process in keys for key in process]
        results = [start_job_process(args, all_keys, (0, 0), spans_out)]
    else:
        results = [start_job_process(args, keys[p], (p, 0)) for p in range(PROCESSES)]

    problems = [p for r in results for p in r["problems"]]
    leaked = sysinfo.shm_segments() - segments
    if leaked:
        problems.append(f"shared-memory segments {sorted(leaked)} outlived the run")
    jobs = [job for r in results for job in r["jobs"] + r.get("traced_jobs", [])]
    problems += check_ledger(args, jobs)
    if args.trace:
        metrics = per_layer(args.workload, results[0], problems)
    else:
        metrics = end_to_end(results)
    failed = sum(1 for job in jobs if job.get("audit") or job.get("error"))
    environment = {
        **env_before,
        "source": args.source,
        "loadavg_after": list(os.getloadavg()),
        "steal_ticks_during": sysinfo.steal_ticks() - env_before["steal_ticks"],
    }
    report = {
        "correct": not problems and failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = {
        "args": {k: getattr(args, k) for k in ("workload", "seed", "seconds", "trace")},
        "environment": environment,
        "problems": problems,
        "results": results,
        "report": report,
    }
    (RECORD_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({"environment": environment}), file=sys.stderr)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

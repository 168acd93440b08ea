"""One job process of a benchmark run.

Started fresh by ``run.py``: pins BLAS to one thread before numpy loads,
imports the library, builds its inputs, runs one untimed warm-up job (all
of that is ``setup_s``), then runs its timed jobs with an untimed
``gc.collect()`` between them.  Audits run after every timed job is done,
so their allocations never reach the memory high-water mark.  With
``--trace 1`` the same jobs then run a second time under the layer tracer
and the two passes' output digests must agree.  A workload with a
``reference`` (``barbell-2w``) re-runs its first job under the reference
workload in the run's first process, untimed, and the outputs must agree.

Prints one JSON object as its last line of standard output.  Exit code 3
means the library could not be imported or set up.
"""

from __future__ import annotations

import os
import sys
import time

_STARTED = time.perf_counter()

from sysinfo import BLAS_THREAD_VARS  # noqa: E402  (stdlib-only module)

for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"  # must precede the first numpy import

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import traceback  # noqa: E402

import sysinfo  # noqa: E402
import workloads  # noqa: E402


def _run_pass(workload, inputs, tracer=None):
    """Run every job once; returns (outcomes, records, problems)."""
    outcomes, records, problems = [], [], []
    segments = sysinfo.shm_segments()
    for job in inputs:
        gc.collect()
        outcome, error = None, None
        children = sysinfo.children_usage()
        # Only pooled jobs have workers to watch; a sampler thread would
        # only add noise to a sequential job.
        sampler = sysinfo.WorkerSampler() if workload.workers else None
        with sampler or contextlib.nullcontext():
            try:
                run = workloads.run_job if tracer is None else tracer.wrap("job", workloads.run_job)
                outcome = run(workload, job)
            except Exception:  # a failed job is counted, not fatal
                error = traceback.format_exc(limit=5)
        outcomes.append(outcome)
        record = {
            "key": list(job.key),
            "edges": len(job.edges),
            "workers_seen": sampler.workers_seen if sampler else 0,
            "worker_rss_kb": sampler.worker_rss_kb if sampler else 0,
            "error": error,
        }
        if outcome is not None:
            record.update(
                seconds=outcome.seconds,
                call_seconds=outcome.call_seconds,
                rounds=outcome.rounds,
                digest=outcome.digest,
                cache_hits=outcome.cache_hits,
                cache_misses=outcome.cache_misses,
            )
        records.append(record)
        problems += _seam_and_hygiene(workload, job, sampler, children, segments)
    return outcomes, records, problems


def _seam_and_hygiene(workload, job, sampler, children, segments) -> list[str]:
    """A pool that must run did run (or must not and did not); nothing leaked."""
    problems = []
    where = f"{workload.name} job {tuple(job.key)}"
    if sampler is not None and sampler.workers_seen == 0:
        problems.append(f"{where}: no pool worker ever ran (silent inline fallback)")
    if sampler is None and sysinfo.children_usage() != children:
        problems.append(f"{where}: a sequential job started a process")
    left = [
        pid
        for pid in sysinfo.processes_where(1, os.getpid())
        if not sysinfo.is_resource_tracker(pid)
    ]
    if left:
        problems.append(f"{where}: child processes {left} still running after the job")
    leaked = sysinfo.shm_segments() - segments
    if leaked:
        problems.append(f"{where}: shared-memory segments {sorted(leaked)} left in /dev/shm")
    return problems


def _check_reference(workload, job, record) -> list[str]:
    """Re-run one job under the reference workload; the outputs must agree."""
    reference = workloads.WORKLOADS[workload.reference]
    where = f"{workload.name} job {tuple(job.key)} against {reference.name}"
    try:
        again = workloads.run_job(reference, job)
    except Exception:
        return [f"{where}: the reference run raised\n{traceback.format_exc(limit=5)}"]
    if again.rounds != record.get("rounds"):
        return [f"{where}: congest_rounds {record.get('rounds')} vs {again.rounds}"]
    if again.digest != record.get("digest"):
        return [f"{where}: the outputs differ"]
    return []


def _summarise(inputs, outcomes, records) -> list:
    """Audit each job and reduce its outputs to the numbers run.py needs."""
    for job, outcome, record in zip(inputs, outcomes, records):
        if outcome is None:
            record["audit"] = ["job raised: " + record["error"]]
            continue
        record["audit"] = workloads.audit_job(job, outcome)
        record["components"] = len(outcome.components)
        record["certified"] = sum(1 for _, ok in outcome.components if ok)
        record["cut"] = sum(len(d[3]) for d in outcome.decompositions)
        record["decomposed_edges"] = sum(len(d[1]) for d in outcome.decompositions)
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--keys", required=True, help="comma-separated process:index job keys")
    parser.add_argument("--warmup", required=True, help="process:index of the warm-up job")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    def key(text: str) -> tuple[int, int]:
        a, b = text.split(":")
        return int(a), int(b)

    workload = workloads.WORKLOADS[args.workload]
    try:
        import repro.decomposition  # noqa: F401
        import repro.triangles  # noqa: F401

        warm = workloads.build_input(workload, args.seed, key(args.warmup))
        inputs = [workloads.build_input(workload, args.seed, key(k)) for k in args.keys.split(",")]
        workloads.run_job(workload, warm)
    except Exception:
        traceback.print_exc()
        return 3
    setup_s = time.perf_counter() - _STARTED

    outcomes, records, problems = _run_pass(workload, inputs)
    self_rss_kb = sysinfo.peak_rss_kb()
    if workload.reference and key(args.warmup)[0] == 0:
        problems += _check_reference(workload, inputs[0], records[0])
    result = {
        "setup_s": setup_s,
        "self_rss_kb": self_rss_kb,
        "jobs": _summarise(inputs, outcomes, records),
        "problems": problems,
    }
    del outcomes

    if args.trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        try:
            traced_outcomes, traced, traced_problems = _run_pass(workload, inputs, tracer)
        finally:
            tracer.uninstall()
        del traced_outcomes
        problems += traced_problems
        for plain, again in zip(records, traced):
            if plain.get("digest") != again.get("digest"):
                problems.append(f"traced job {plain['key']} output differs from the untraced run")
        seconds = [r["seconds"] for r in traced if "seconds" in r]
        layers = layer_metrics(tracer, len(inputs), seconds)
        hits = sum(r.get("cache_hits", 0) for r in traced)
        lookups = hits + sum(r.get("cache_misses", 0) for r in traced)
        layers["triangles.cache.hit_ratio"] = hits / lookups if lookups else 0.0
        repeats = [r["call_seconds"][1] for r in traced if len(r.get("call_seconds", [])) > 1]
        layers["triangles.cache.hit_s"] = sum(repeats) / len(repeats) if repeats else 0.0
        result.update(traced_jobs=traced, layers=layers, span_count=len(tracer.spans))
        if args.spans_out:
            with gzip.open(args.spans_out, "wt") as handle:
                json.dump(tracer.spans, handle)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

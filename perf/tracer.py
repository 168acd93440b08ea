"""Outside-in layer tracer: spans around the library's public entry points.

The tracer replaces each traced function or method with a wrapper that
pushes a span on a stack, calls the original, and on return records the
span's duration and its *self* time (duration minus the time of the
wrapped calls made inside it).  Nothing inside the library changes; the
wrappers are installed from here and removed again by :meth:`uninstall`.

A function imported by name into another module (``from .sweep import
build_sweep``) is a separate binding that patching the defining module
would miss, so :meth:`Tracer.install` replaces *every* binding of the
original object across the loaded ``repro`` modules.  Methods and
classmethods are patched once, on their class.

Spans stay in memory as tuples ``(name, parent, start, duration,
self_s)`` until the caller writes them out.  Pool workers run their own
copies of the code, so spans inside them are invisible here; the
driver-side waits for their results are not.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Optional

import numpy as np

Probe = Callable[[dict, tuple, object], None]


def _probe_walk(counters, args, result) -> None:
    # the workspace kernel returns sparse (indices, values); the plain one a dense vector
    support = len(result[0]) if isinstance(result, tuple) else np.count_nonzero(result)
    counters["csr.support_total"] += int(support)


def _probe_nibble(counters, args, result) -> None:
    counters["nibble.cuts"] += result is not None


def _probe_sparse_cut(counters, args, result) -> None:
    counters["sparse_cut.batches"] += result.batches
    counters["sparse_cut.precheck_skips"] += result.precheck_skips


def _probe_harvest(counters, args, result) -> None:
    counters["sparse_cut.harvest.offered"] += len(args[0])
    counters["sparse_cut.harvest.kept"] += len(result)


def _probe_executor(counters, args, result) -> None:
    counters.setdefault("executors", []).append(args[0])


def _probe_publish(counters, args, result) -> None:
    counters["shared.publish.bytes"] += result.shm.size


def _probe_siblings(counters, args, result) -> None:
    counters["scheduler.tasks"] += len(args[1])


def _probe_query(counters, args, result) -> None:
    counters["triangles.levels"] += result.num_levels
    counters["triangles.queries"] += 1


#: (span name, module, attribute path, probe).  The span names are the
#: per-layer metric prefixes; several targets may share one name.
TARGETS: list[tuple[str, str, str, Optional[Probe]]] = [
    ("csr.walk_step", "repro.graphs.csr", "WalkWorkspace.truncated_step", _probe_walk),
    ("csr.walk_step", "repro.graphs.csr", "truncated_walk_step", _probe_walk),
    ("csr.sweep", "repro.graphs.csr", "WalkWorkspace.build_sweep", None),
    ("csr.sweep", "repro.graphs.csr", "build_sweep", None),
    ("csr.sweep", "repro.graphs.peel", "build_sweep", None),
    ("csr.candidates", "repro.graphs.csr", "candidate_indices_from_volumes", None),
    ("csr.snapshot", "repro.graphs.csr", "CSRGraph.from_graph", None),
    ("walks.walk_step", "repro.walks.lazy_walk", "truncated_walk_step", None),
    ("sweep.build", "repro.nibble.sweep", "build_sweep", None),
    ("sweep.candidates", "repro.nibble.sweep", "candidate_indices", None),
    ("nibble.instance", "repro.nibble.nibble", "approximate_nibble", _probe_nibble),
    ("nibble.instance", "repro.nibble.nibble", "nibble", _probe_nibble),
    ("nibble.scan_csr", "repro.nibble.nibble", "scan_walk_sequence_csr", None),
    ("nibble.scan_dict", "repro.nibble.nibble", "scan_walk_sequence", None),
    ("worker.instance", "repro.parallel.worker", "run_nibble_instance", None),
    ("decomposition", "repro.decomposition.expander", "expander_decomposition", None),
    ("sparse_cut", "repro.decomposition.sparse_cut", "nearly_most_balanced_sparse_cut", _probe_sparse_cut),
    ("sparse_cut.harvest", "repro.decomposition.sparse_cut", "harvest_disjoint_cuts", _probe_harvest),
    ("peel.peel", "repro.graphs.peel", "PeeledCSR.peel", None),
    ("peel.for_subset", "repro.graphs.peel", "PeeledCSR.for_subset", None),
    ("peel.components", "repro.graphs.peel", "PeeledCSR.connected_components", None),
    ("spectral.precheck", "repro.graphs.spectral", "conductance_lower_bound", None),
    ("spectral.certify", "repro.graphs.spectral", "certify_conductance", None),
    ("spectral.batched", "repro.graphs.spectral", "batched_component_certificates", None),
    ("executor.init", "repro.parallel.executor", "ShardedExecutor.__init__", _probe_executor),
    ("executor.run_batch", "repro.parallel.executor", "ShardedExecutor.run_batch", None),
    ("shared.publish", "repro.parallel.shared", "SharedCSR.publish", _probe_publish),
    ("scheduler.run_siblings", "repro.parallel.scheduler", "PooledComponentScheduler.run_siblings", _probe_siblings),
    ("pool.submit", "concurrent.futures.process", "ProcessPoolExecutor.submit", None),
    ("pool.wait", "concurrent.futures._base", "Future.result", None),
    ("triangles.query", "repro.triangles.workload", "decomposition_triangle_enumeration", _probe_query),
    ("triangles.oriented", "repro.triangles.oriented", "oriented_triangles", None),
    ("triangles.fingerprint", "repro.triangles.workload", "graph_fingerprint", None),
]


#: Spans whose self time is the benchmark's or an entry point's glue.
ENTRY_SPANS = ("job", "decomposition", "triangles.query")


class Tracer:
    """A span stack plus counters, filled by wrappers it installs."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict = defaultdict(float)
        self._stack: list[list] = []
        self._restore: list[tuple] = []

    # ------------------------------------------------------------------
    def wrap(self, name: str, fn: Callable, probe: Optional[Probe] = None) -> Callable:
        """``fn`` wrapped in a span called ``name``."""
        stack, spans, counters = self._stack, self.spans, self.counters
        clock, thread, owner = time.perf_counter, threading.get_ident, threading.get_ident()

        def traced(*args, **kwargs):
            if thread() != owner:  # one span stack: other threads run untraced
                return fn(*args, **kwargs)
            frame = [clock(), 0.0, name]  # start, time covered by child spans, name
            parent = stack[-1] if stack else None
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                stack.pop()
                if parent is not None:
                    parent[1] += duration
                spans.append(
                    (name, parent[2] if parent else None, frame[0], duration, duration - frame[1])
                )
            if probe is not None:
                probe(counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every target; installing again needs :meth:`uninstall` first."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for name, module_name, path, probe in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if outer:
                self._patch_class(owner, attr, name, probe)
            else:
                self._patch_bindings(getattr(owner, attr), name, probe)

    def uninstall(self) -> None:
        """Put every original binding back, last patch first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _patch_class(self, cls, attr: str, name: str, probe) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(name, raw.__func__, probe))
        else:
            wrapped = self.wrap(name, raw, probe)
        self._restore.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def _patch_bindings(self, original, name: str, probe) -> None:
        wrapped = self.wrap(name, original, probe)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapped)


def layer_metrics(tracer: Tracer, jobs: int, job_seconds: list[float]) -> dict:
    """Per-layer metrics (per job) from one traced pass of ``jobs`` jobs."""
    calls: dict = defaultdict(int)
    self_s: dict = defaultdict(float)
    submits_from = defaultdict(int)
    wait_under = defaultdict(float)
    for name, parent, _start, duration, own in tracer.spans:
        calls[name] += 1
        self_s[name] += own
        if name == "pool.submit":
            submits_from[parent] += 1
        elif name == "pool.wait":
            wait_under[parent] += duration
    c = tracer.counters
    per = 1.0 / max(jobs, 1)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    walk_calls = calls["csr.walk_step"] + calls["walks.walk_step"]
    # Time the named layers explain: everything but the job roots and the
    # entry points' own glue.
    layer_self = sum(v for k, v in self_s.items() if k not in ENTRY_SPANS)
    executors = c.get("executors", [])
    metrics = {
        "csr.walk_step.calls": calls["csr.walk_step"] * per,
        "csr.walk_step.self_s": self_s["csr.walk_step"] * per,
        "csr.sweep.self_s": self_s["csr.sweep"] * per,
        "csr.candidates.self_s": self_s["csr.candidates"] * per,
        "csr.support_mean": ratio(c["csr.support_total"], calls["csr.walk_step"]),
        "csr.snapshot.self_s": self_s["csr.snapshot"] * per,
        "walks.walk_step.calls": calls["walks.walk_step"] * per,
        "walks.walk_step.self_s": self_s["walks.walk_step"] * per,
        "sweep.build.self_s": self_s["sweep.build"] * per,
        "sweep.candidates.self_s": self_s["sweep.candidates"] * per,
        "nibble.instances": calls["nibble.instance"] * per,
        "nibble.steps_per_instance": ratio(walk_calls, calls["nibble.instance"]),
        "nibble.cut_ratio": ratio(c["nibble.cuts"], calls["nibble.instance"]),
        "nibble.scan_csr.calls": calls["nibble.scan_csr"] * per,
        "nibble.scan_csr.self_s": self_s["nibble.scan_csr"] * per,
        "nibble.scan_dict.calls": calls["nibble.scan_dict"] * per,
        "nibble.scan_dict.self_s": self_s["nibble.scan_dict"] * per,
        "decomposition.self_s": self_s["decomposition"] * per,
        "sparse_cut.calls": calls["sparse_cut"] * per,
        "sparse_cut.self_s": self_s["sparse_cut"] * per,
        "sparse_cut.batches": c["sparse_cut.batches"] * per,
        "sparse_cut.precheck_skip_ratio": ratio(
            c["sparse_cut.precheck_skips"], c["sparse_cut.batches"]
        ),
        "sparse_cut.harvest.offered": c["sparse_cut.harvest.offered"] * per,
        "sparse_cut.harvest.kept_ratio": ratio(
            c["sparse_cut.harvest.kept"], c["sparse_cut.harvest.offered"]
        ),
        "peel.peel.calls": calls["peel.peel"] * per,
        "peel.peel.self_s": self_s["peel.peel"] * per,
        "peel.for_subset.self_s": self_s["peel.for_subset"] * per,
        "peel.components.self_s": self_s["peel.components"] * per,
        "spectral.precheck.calls": calls["spectral.precheck"] * per,
        "spectral.precheck.self_s": self_s["spectral.precheck"] * per,
        "spectral.certify.calls": calls["spectral.certify"] * per,
        "spectral.certify.self_s": self_s["spectral.certify"] * per,
        "spectral.batched.self_s": self_s["spectral.batched"] * per,
        "executor.run_batch.calls": calls["executor.run_batch"] * per,
        "executor.run_batch.self_s": self_s["executor.run_batch"] * per,
        "executor.memo_hit_ratio": 1.0 - ratio(
            calls["nibble.instance"], calls["worker.instance"]
        )
        if calls["worker.instance"]
        else 0.0,
        "executor.degrade_events": float(sum(len(e.events) for e in executors)),
        "shared.publish.calls": calls["shared.publish"] * per,
        "shared.publish.self_s": self_s["shared.publish"] * per,
        "shared.publish.bytes": c["shared.publish.bytes"] * per,
        "scheduler.tasks": c["scheduler.tasks"] * per,
        "scheduler.shipped_tasks": submits_from["scheduler.run_siblings"] * per,
        "scheduler.wait_s": wait_under["scheduler.run_siblings"] * per,
        "triangles.query.self_s": self_s["triangles.query"] * per,
        "triangles.levels": ratio(c["triangles.levels"], c["triangles.queries"]),
        "triangles.oriented.self_s": self_s["triangles.oriented"] * per,
        "triangles.fingerprint.self_s": self_s["triangles.fingerprint"] * per,
        "trace.coverage": ratio(layer_self, sum(job_seconds)),
    }
    return metrics

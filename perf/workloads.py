"""The benchmark's workloads: inputs from the seed, one public-API call per job.

A job key ``(process, index)`` and the workload seed fix every input and
every decomposition seed through :class:`numpy.random.SeedSequence`, so a
run does the same work whenever it is given the same seed.  Index 0 of
each process is its untimed warm-up job.  ``barbell-wide`` and
``barbell-2w`` share one input family: the same key gives both the same
graph and the same decomposition seed.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np

EPSILON = 0.1
PHI = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    #: Inputs are shared by workloads of the same family.
    family: str
    #: Median seconds of one timed job on a shared 2-CPU x86 container;
    #: with ``--seconds`` it fixes how many jobs a run makes, never how
    #: long the run may take.
    nominal_job_s: float
    workers: int | None = None
    #: Multiple of ``--seconds`` this workload measures per run.
    share: float = 1.0
    #: A workload on the same inputs whose outputs this one must reproduce;
    #: one job per run is re-run under it (untimed) and compared.
    reference: str | None = None


WORKLOADS = {
    w.name: w
    for w in (
        # Its job times vary most (seed-dependent work, and pure-Python
        # code that host contention slows most), so it measures longest.
        Workload("ring-default", "ring", 4.3, share=3.0),
        Workload("barbell-wide", "barbell", 4.6),
        Workload("barbell-2w", "barbell", 2.9, workers=2, reference="barbell-wide"),
        Workload("triangle-queries", "triangles", 1.2),
    )
}


@dataclass
class JobInput:
    key: tuple[int, int]
    graph: object
    decomposition_seed: int
    #: The graph's vertices and edges as lists, for the audit.
    vertices: list
    edges: list


@dataclass
class JobOutcome:
    """What one job produced, gathered outside the timed region."""

    seconds: float
    call_seconds: list[float]
    rounds: list[float]
    #: (vertex set, certified) per component, over every decomposition.
    components: list[tuple[frozenset, bool]]
    #: (vertices, edges, components, cut_edges) per decomposition to audit.
    decompositions: list[tuple]
    triangles: frozenset | None
    digest: str
    #: DecompositionCache lookups that hit and missed (triangle jobs only).
    cache_hits: int = 0
    cache_misses: int = 0


def job_seeds(seed: int, key: tuple[int, int]) -> tuple[int, int]:
    """(graph seed, decomposition seed) of job ``key`` under ``seed``."""
    state = np.random.SeedSequence(seed, spawn_key=key).generate_state(2)
    return int(state[0]), int(state[1])


def build_input(workload: Workload, seed: int, key: tuple[int, int]) -> JobInput:
    from repro.graphs.generators import (
        barbell_expanders,
        ring_of_cliques,
        triangle_rich_graph,
    )

    graph_seed, decomposition_seed = job_seeds(seed, key)
    if workload.family == "ring":
        graph = ring_of_cliques(10, 12)
    elif workload.family == "barbell":
        graph = barbell_expanders(1024, seed=graph_seed)
    else:
        graph = triangle_rich_graph(1000, 0.05, seed=graph_seed)
    return JobInput(
        key=key,
        graph=graph,
        decomposition_seed=decomposition_seed,
        vertices=list(graph.vertices()),
        edges=list(graph.edges()),
    )


def _decomposition_digest(result) -> str:
    components = sorted(
        (sorted(map(repr, c.vertices)), c.certified) for c in result.components
    )
    cut = sorted(sorted(map(repr, e)) for e in result.cut_edges)
    return repr((components, cut, result.report.total_rounds))


def _recording_cache():
    """A fresh ``DecompositionCache`` that remembers what it was asked."""
    from repro.triangles import DecompositionCache

    class RecordingCache(DecompositionCache):
        def __init__(self) -> None:
            super().__init__()
            self.seen: list = []

        def decomposition(self, work, **kwargs):
            result = super().decomposition(work, **kwargs)
            self.seen.append((work, result))
            return result

    return RecordingCache()


def run_job(workload: Workload, job: JobInput) -> JobOutcome:
    """Run one job: the timed public-API call(s), then gather the outputs."""
    import repro.decomposition as decomposition
    import repro.triangles as triangles

    if workload.family != "triangles":
        begin = time.perf_counter()
        result = decomposition.expander_decomposition(
            job.graph,
            EPSILON,
            PHI,
            seed=job.decomposition_seed,
            workers=workload.workers,
        )
        seconds = time.perf_counter() - begin
        components = [(c.vertices, c.certified) for c in result.components]
        return JobOutcome(
            seconds=seconds,
            call_seconds=[seconds],
            rounds=[result.report.total_rounds],
            components=components,
            decompositions=[(job.vertices, job.edges, components, result.cut_edges)],
            triangles=None,
            digest=hashlib.sha256(_decomposition_digest(result).encode()).hexdigest(),
        )

    cache = _recording_cache()
    results, call_seconds = [], []
    for _ in range(2):  # a cold query, then the same query again
        begin = time.perf_counter()
        results.append(
            triangles.decomposition_triangle_enumeration(
                job.graph, seed=job.decomposition_seed, verify=True, cache=cache
            )
        )
        call_seconds.append(time.perf_counter() - begin)
    first, repeat = results
    if repeat.triangles != first.triangles:
        raise AssertionError("the cached repeat query returned other triangles")
    distinct = {id(result): (work, result) for work, result in cache.seen}
    decompositions, components = [], []
    for work, result in distinct.values():
        parts = [(c.vertices, c.certified) for c in result.components]
        components.extend(parts)
        decompositions.append(
            (list(work.vertices()), list(work.edges()), parts, result.cut_edges)
        )
    body = repr(
        (
            sorted(sorted(map(repr, t)) for t in first.triangles),
            [_decomposition_digest(r) for _, r in distinct.values()],
            [r.report.total_rounds for r in results],
            cache.hits,
            cache.misses,
        )
    )
    return JobOutcome(
        seconds=sum(call_seconds),
        call_seconds=call_seconds,
        rounds=[r.report.total_rounds for r in results],
        components=components,
        decompositions=decompositions,
        triangles=first.triangles,
        digest=hashlib.sha256(body.encode()).hexdigest(),
        cache_hits=cache.hits,
        cache_misses=cache.misses,
    )


def audit_job(job: JobInput, outcome: JobOutcome) -> list[str]:
    """Every outside check of one job's outputs (see :mod:`audit`)."""
    from audit import audit_decomposition, audit_triangles

    problems: list[str] = []
    for vertices, edges, components, cut_edges in outcome.decompositions:
        problems += audit_decomposition(vertices, edges, components, cut_edges, EPSILON, PHI)
    if outcome.triangles is not None:
        problems += audit_triangles(job.vertices, job.edges, outcome.triangles)
    return problems

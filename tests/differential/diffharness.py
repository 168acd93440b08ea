"""Differential-testing harness: one matrix, every backend, bit-identical.

The repository's core correctness contract is that every execution backend
— the dict oracle, the CSR engine (:class:`~repro.graphs.csr.WalkWorkspace`
kernels), int32 and int64 index storage, memory-mapped snapshots, and the
certification fast path on or off — produces *bit-identical* outputs: the same cuts, the same RNG
post-states, the same round accounting.  This module is the single place
that contract is written down as executable code.

:data:`MATRIX` enumerates the backend configurations.  The one entry
point, :func:`assert_pipeline_identical`, drives a graph through a full
expander decomposition and a sparse-cut harvest under every configuration
and asserts:

* identical decomposition signatures (component vertex sets, removed-edge
  multisets, per-component certification flags and estimates);
* identical sparse-cut results (cut set, conductance, balance, size,
  certification, batch count);
* identical RNG post-states (``rng.bit_generator.state`` after the call)
  — the fast path burns skipped batches' draws, so even it may not
  perturb the stream;
* identical round totals *within each fast-path group* (the pre-check
  charges spectral rounds instead of skipped-batch rounds, so totals are
  only comparable between configurations with the same ``fast_path``).

To add a backend: append a :class:`BackendConfig` to :data:`MATRIX` and
teach :func:`_host_graph` how to build its host view if it needs one.
Every differential test picks the new configuration up automatically
(see ``docs/KERNELS.md``).
"""

from __future__ import annotations

import os
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.decomposition import (
    expander_decomposition,
    nearly_most_balanced_sparse_cut,
)
from repro.graphs.csr import CSRGraph, forced_index_dtype
from repro.graphs.generators import (
    barbell_expanders,
    dumbbell_cliques,
    erdos_renyi_graph,
    grid_graph,
    planted_partition_graph,
    power_law_graph,
    random_regular_graph,
    ring_of_cliques,
)
from repro.graphs.graph import Graph
from repro.graphs.peel import PeeledCSR


@dataclass(frozen=True)
class BackendConfig:
    """One cell of the backend matrix.

    ``backend`` is the engine argument handed to the pipeline entry points;
    ``index_dtype`` forces the CSR index-dtype policy; ``fast_path`` toggles the
    spectral pre-check layer; ``mmap`` round-trips the graph through a
    memory-mapped :class:`CSRGraph` snapshot and uses it as the host.
    """

    name: str
    backend: str = "auto"
    index_dtype: str = "auto"
    fast_path: bool = True
    mmap: bool = False
    #: Component-scheduler column: ``"inline"`` (the oracle ordering) or
    #: ``"permuted"`` — sibling subtrees executed in a deterministic
    #: shuffled order, the in-process stand-in for pool completion races.
    scheduler: str = "inline"


#: The full backend matrix.  ``dict`` is the oracle; everything else must
#: match it bit for bit.  Keep at least one dict configuration per
#: fast-path group so round totals always have an oracle to compare to.
MATRIX = (
    BackendConfig("dict", backend="dict"),
    BackendConfig("auto", backend="auto"),
    BackendConfig("csr-int64", backend="csr", index_dtype="int64"),
    BackendConfig("csr-int32", backend="csr", index_dtype="int32"),
    BackendConfig("mmap", mmap=True),
    BackendConfig("dict-nofast", backend="dict", fast_path=False),
    BackendConfig("auto-nofast", backend="auto", fast_path=False),
    BackendConfig("component-parallel", backend="auto", scheduler="permuted"),
)

#: A cheaper matrix that still touches every axis once (dict oracle,
#: int32, int64, mmap, fast path off, permuted scheduling) — used on the
#: broader generator families where the full matrix would make the
#: suite's runtime quadratic in coverage.
CORE_MATRIX = (
    MATRIX[0],  # dict
    MATRIX[3],  # csr-int32
    MATRIX[2],  # csr-int64
    MATRIX[4],  # mmap
    MATRIX[6],  # auto-nofast
    MATRIX[7],  # component-parallel (permuted sibling scheduling)
)


def generator_families() -> list[tuple[str, Graph]]:
    """Seeded instances of every generator family, at matrix-friendly sizes.

    The first four are the benchmark families every existing parity suite
    pins; the rest broaden structural coverage (sparse random, regular,
    lattice, and the pathological low-conductance chain).
    """
    return [
        ("ring_of_cliques", ring_of_cliques(6, 8)),
        ("barbell", barbell_expanders(32, seed=7)),
        ("planted", planted_partition_graph(4, 12, 0.7, 0.02, seed=7)),
        ("power_law", power_law_graph(80, seed=7)),
        ("erdos_renyi", erdos_renyi_graph(28, 0.2, seed=3)),
        ("random_regular", random_regular_graph(30, 4, seed=11)),
        ("grid", grid_graph(6, 6)),
        ("dumbbell", dumbbell_cliques(4, 3)),
    ]


def decomposition_signature(result):
    """Everything output-relevant about one decomposition."""
    return (
        {c.vertices for c in result.components},
        Counter(frozenset(e) for e in result.cut_edges),
        sorted(
            (tuple(sorted(map(repr, c.vertices))), c.certified, c.conductance_estimate)
            for c in result.components
        ),
    )


def sparse_cut_signature(result):
    """Everything output-relevant about one sparse-cut harvest."""
    return (
        result.cut,
        result.conductance,
        result.balance,
        result.cut_size,
        result.certified_no_cut,
        result.batches,
    )


def _host_graph(graph: Graph, config: BackendConfig, stack):
    """The host object a configuration hands the pipeline.

    For ``mmap`` configurations the graph is converted to CSR, written to
    a memory-mapped snapshot in a temporary directory (kept alive on the
    ``stack``), and read back — so the pipeline really runs off the
    on-disk arrays.
    """
    if not config.mmap:
        return graph
    tmp = stack.enter_context(tempfile.TemporaryDirectory())
    path = CSRGraph.from_graph(graph).to_mmap(Path(tmp) / "snapshot")
    return CSRGraph.from_mmap(path)


_AMBIENT_EXECUTOR = None


def ambient_executor():
    """The suite-wide execution engine, or ``None`` for the sequential default.

    The CI ``component-parity`` job sets ``REPRO_DIFF_WORKERS=<n>`` to run
    this whole differential suite against a real ``n``-worker sharded
    executor with the pool forced on (``min_shard_vertices=1``), so every
    matrix cell exercises pool-side batches *and* pool-side sibling
    subtrees while still asserting bit-identity to the dict oracle.  One
    engine is shared across the suite (one pool, one snapshot cache); the
    executor module's ``atexit`` backstop unlinks its segments at
    interpreter exit.

    The ``chaos-parity`` job additionally sets ``REPRO_DIFF_CHAOS=<seed>``:
    the engine becomes a :class:`~repro.resilience.chaos.ChaosExecutor`
    injecting seeded crashes, slowdowns, and corrupted results into the
    pooled work — every fault recovered by the retry layer, every run
    still asserted bit-identical to the fault-free dict oracle.  Hangs are
    exercised by the dedicated chaos tests (``tests/test_chaos.py``), not
    ambiently: a per-item hang would multiply the whole suite's runtime by
    the task timeout.
    """
    global _AMBIENT_EXECUTOR
    workers = int(os.environ.get("REPRO_DIFF_WORKERS", "0") or "0")
    if workers < 1:
        return None
    if _AMBIENT_EXECUTOR is None:
        chaos_seed = os.environ.get("REPRO_DIFF_CHAOS", "")
        if chaos_seed:
            from repro.resilience import ChaosExecutor, ChaosSpec

            _AMBIENT_EXECUTOR = ChaosExecutor(
                workers,
                spec=ChaosSpec(
                    seed=int(chaos_seed),
                    crash=0.05,
                    corrupt=0.05,
                    slow=0.05,
                    slow_seconds=0.01,
                ),
                min_shard_vertices=1,
            )
        else:
            from repro.parallel import ShardedExecutor

            _AMBIENT_EXECUTOR = ShardedExecutor(workers, min_shard_vertices=1)
    return _AMBIENT_EXECUTOR


def _config_scheduler(config: BackendConfig):
    """The component scheduler a configuration forces (``None`` = engine's)."""
    if config.scheduler == "permuted":
        from repro.parallel import PermutedScheduler

        # Fresh per run so every decomposition sees the same deterministic
        # permutation sequence (the scheduler is stateful across groups).
        return PermutedScheduler(seed=101)
    return None


def run_decomposition(graph, config, seed, epsilon, phi, **kwargs):
    """One decomposition under ``config``; returns (result, rng post-state)."""
    from contextlib import ExitStack

    with ExitStack() as stack:
        stack.enter_context(forced_index_dtype(config.index_dtype))
        host = _host_graph(graph, config, stack)
        rng = np.random.default_rng(seed)
        result = expander_decomposition(
            host,
            epsilon,
            phi,
            seed=rng,
            backend=config.backend,
            fast_path=config.fast_path,
            executor=ambient_executor(),
            scheduler=_config_scheduler(config),
            **kwargs,
        )
        return result, rng.bit_generator.state


def run_sparse_cut(graph, config, seed, phi, **kwargs):
    """One sparse-cut harvest under ``config``; returns (result, post-state).

    An ``mmap`` configuration runs off a full peeled view over the
    memory-mapped snapshot — the same shape the decomposition driver
    hands the sparse-cut stage for CSR hosts.
    """
    from contextlib import ExitStack

    with ExitStack() as stack:
        stack.enter_context(forced_index_dtype(config.index_dtype))
        host = _host_graph(graph, config, stack)
        if config.mmap:
            host = PeeledCSR.full(host)
        rng = np.random.default_rng(seed)
        result = nearly_most_balanced_sparse_cut(
            host,
            phi,
            seed=rng,
            backend=config.backend,
            fast_path=config.fast_path,
            executor=ambient_executor(),
            **kwargs,
        )
        return result, rng.bit_generator.state


def assert_pipeline_identical(
    graph: Graph,
    *,
    seed: int = 7,
    epsilon: float = 0.2,
    phi: float = 0.1,
    configs=MATRIX,
    label: str = "",
    sparse_cut: bool = True,
    **kwargs,
):
    """Drive ``graph`` through every backend configuration; assert identity.

    Runs a full expander decomposition (and, unless ``sparse_cut=False``,
    a sparse-cut harvest) under each entry of ``configs`` and asserts
    bit-identical signatures, RNG post-states, and — within each
    fast-path group — round totals.  Returns the reference decomposition
    signature so callers can pin structural expectations on top.
    """
    ref_sig = ref_state = None
    rounds_by_group: dict[bool, float] = {}
    for config in configs:
        result, state = run_decomposition(graph, config, seed, epsilon, phi, **kwargs)
        sig = decomposition_signature(result)
        if ref_sig is None:
            ref_sig, ref_state = sig, state
        assert sig == ref_sig, (label, config.name)
        assert state == ref_state, (label, config.name)
        rounds = result.report.total_rounds
        expected = rounds_by_group.setdefault(config.fast_path, rounds)
        assert rounds == expected, (label, config.name)

    if sparse_cut:
        cut_sig = cut_state = None
        cut_rounds: dict[bool, float] = {}
        for config in configs:
            result, state = run_sparse_cut(graph, config, seed, phi)
            sig = sparse_cut_signature(result)
            if cut_sig is None:
                cut_sig, cut_state = sig, state
            assert sig == cut_sig, (label, config.name)
            assert state == cut_state, (label, config.name)
            rounds = result.report.total_rounds
            expected = cut_rounds.setdefault(config.fast_path, rounds)
            assert rounds == expected, (label, config.name)
    return ref_sig

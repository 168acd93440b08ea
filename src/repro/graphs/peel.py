"""Incremental peeling layer over :class:`~repro.graphs.csr.CSRGraph`.

PR 2 vectorized the *read-only* hot path (walk / truncate / sweep), but the
mutable side of the decomposition — Theorem 3's Remove-j loop and the
``G{U}`` re-snapshotting between recursion levels — still rebuilt a dict
``Graph`` (and then a fresh ``CSRGraph``) after every found cut.  This
module removes that rebuild: a :class:`PeeledCSR` is one immutable CSR
snapshot plus

* an ``alive`` boolean vertex mask,
* a per-vertex *residual* proper-degree array (``proper_degree[v]`` =
  number of alive neighbors of ``v``), and
* a per-vertex residual self-loop array (``loops[v]`` = original loops
  plus one compensating loop per peeled neighbor),

so removing a certified cut is an O(Vol(cut)) masked update
(:meth:`PeeledCSR.peel`) instead of an O(n + m) graph rebuild — the same
peeling idea Spielman–Teng's Partition uses to reach its near-linear bound.

Degree preservation is the load-bearing invariant.  For every alive vertex

    proper_degree[v] + loops[v] == base.degree[v]           (INV-1)

holds at all times, because :meth:`PeeledCSR.peel` converts each
alive-to-peeled edge into a compensating self loop at the alive endpoint —
exactly the paper's degree-preserving Remove-j operation
(:meth:`repro.graphs.graph.Graph.remove_edge_with_loops` followed by
:meth:`~repro.graphs.graph.Graph.remove_vertex`).  Consequently a view with
alive set ``S`` is *structurally identical* to ``Graph.induced_with_loops(S)``
of the snapshotted graph: same proper edges, same degrees, and
``loops[v] = loops_G(v) + (deg_G(v) - deg_{G[S]}(v))`` — the ``G{S}``
loop-degree identity (see ``docs/PEELING.md`` for the two-line proof).
Peeling is also *path independent*: any sequence of peels ending at alive
set ``S`` yields the same arrays as :meth:`PeeledCSR.for_subset` built for
``S`` directly, which is what lets one snapshot serve an entire recursion
branch of the expander decomposition.

The vectorized kernels of :mod:`repro.graphs.csr` touch a graph only
through ``n`` / ``degree`` / ``loops`` / ``proper_degree`` /
``total_volume`` / ``vertices`` / ``index`` / ``flat_adjacency``.
:class:`PeeledCSR` exposes that exact surface with the mask applied
(``flat_adjacency`` drops edges into peeled vertices, ``degree`` is the
unchanged base array per INV-1), so the *same* kernel code runs masked,
bit-for-bit equal to the dict backend on the materialised ``G{U}`` — no
second kernel implementation to keep in sync.  The Nibble driver walks and
sweeps a view through its :class:`~repro.graphs.csr.WalkWorkspace`
(:func:`repro.graphs.csr.get_workspace`), whose ``walk_iter`` rejects
peeled start vertices; the module-level :func:`build_sweep` is the dense
masked sweep reference.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from . import csr as csr_kernels
from .csr import CSRGraph, CSRSweep, SparseMass
from .graph import Graph, Vertex
from ..utils.rng import sample_index_by_weight


class PeeledCSR:
    """A mutable alive-subset view of one immutable :class:`CSRGraph`.

    The view starts with every vertex alive (:meth:`full`) or restricted to
    a subset (:meth:`for_subset`) and shrinks monotonically through
    :meth:`peel`.  All arrays are indexed by the *base* snapshot's vertex
    indices; dead rows are zeroed and never consulted.

    Attributes
    ----------
    base:
        The shared immutable CSR snapshot (never mutated).
    alive:
        Boolean mask over ``base`` indices.
    proper_degree:
        Residual proper degree: number of alive neighbors (0 on dead rows).
    loops:
        Residual self-loop multiplicity: base loops plus one compensating
        loop per peeled neighbor (0 on dead rows).
    total_volume:
        Vol of the alive set.  Equal to ``base.degree[alive].sum()`` by
        degree preservation (INV-1).
    num_edges:
        Number of residual proper (alive–alive) edges.
    """

    __slots__ = (
        "base",
        "alive",
        "proper_degree",
        "loops",
        "total_volume",
        "num_edges",
        "_ws",
    )

    def __init__(
        self,
        base: CSRGraph,
        alive: np.ndarray,
        proper_degree: np.ndarray,
        loops: np.ndarray,
        total_volume: int,
        num_edges: int,
    ) -> None:
        self.base = base
        self.alive = alive
        self.proper_degree = proper_degree
        self.loops = loops
        self.total_volume = total_volume
        self.num_edges = num_edges
        self._ws = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def full(cls, base: CSRGraph) -> "PeeledCSR":
        """A view of ``base`` with every vertex alive (nothing peeled yet)."""
        return cls(
            base=base,
            alive=np.ones(base.n, dtype=bool),
            proper_degree=base.proper_degree.astype(np.int64).copy(),
            loops=base.loops.astype(np.int64).copy(),
            total_volume=int(base.total_volume),
            num_edges=len(base.indices) // 2,
        )

    @classmethod
    def from_graph(cls, graph: Graph) -> "PeeledCSR":
        """Snapshot a dict ``Graph`` and return the all-alive view of it."""
        return cls.full(CSRGraph.from_graph(graph))

    @classmethod
    def for_subset(cls, base: CSRGraph, indices: Iterable[int]) -> "PeeledCSR":
        """The view whose alive set is exactly ``indices`` (base indices).

        Structurally identical to ``G{S}`` = ``induced_with_loops`` of the
        snapshotted graph restricted to the subset: residual proper degrees
        count within-subset neighbors and every out-of-subset edge becomes a
        compensating self loop.  O(n + Vol(S)) — no dict graph is built.
        """
        idx = np.asarray(sorted(set(int(i) for i in indices)), dtype=np.int64)
        if idx.size and (idx[0] < 0 or idx[-1] >= base.n):
            raise IndexError("subset index out of range for the base snapshot")
        alive = np.zeros(base.n, dtype=bool)
        alive[idx] = True
        proper = np.zeros(base.n, dtype=np.int64)
        if idx.size:
            row_id, flat = base.flat_adjacency(idx)
            if flat.size:
                keep = alive[flat]
                counts = np.bincount(row_id[keep], minlength=len(idx))
                proper[idx] = counts
        loops = np.zeros(base.n, dtype=np.int64)
        loops[idx] = base.degree[idx] - proper[idx]
        return cls(
            base=base,
            alive=alive,
            proper_degree=proper,
            loops=loops,
            total_volume=int(base.degree[idx].sum()),
            num_edges=int(proper[idx].sum()) // 2,
        )

    def clone(self) -> "PeeledCSR":
        """An independent copy sharing the immutable base snapshot."""
        return PeeledCSR(
            base=self.base,
            alive=self.alive.copy(),
            proper_degree=self.proper_degree.copy(),
            loops=self.loops.copy(),
            total_volume=self.total_volume,
            num_edges=self.num_edges,
        )

    # ------------------------------------------------------------------
    # the CSR kernel surface (masked)
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Size of the *base* index space (mass vectors stay this length)."""
        return self.base.n

    @property
    def degree(self) -> np.ndarray:
        """Per-vertex degree — the base array, unchanged, by INV-1."""
        return self.base.degree

    @property
    def vertices(self) -> list:
        """Base vertex labels in index order (shared with the snapshot)."""
        return self.base.vertices

    @property
    def index(self) -> dict:
        """Label → base-index mapping (shared with the snapshot)."""
        return self.base.index

    @property
    def num_vertices(self) -> int:
        """Number of alive vertices."""
        return int(np.count_nonzero(self.alive))

    def alive_indices(self) -> np.ndarray:
        """Alive base indices, ascending (= ``repr``-sorted label order)."""
        return np.flatnonzero(self.alive)

    def flat_adjacency(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Masked gather: like :meth:`CSRGraph.flat_adjacency`, minus dead targets.

        ``row_id`` keeps its meaning (position within ``rows``), so the walk
        and sweep kernels consume the filtered arrays unchanged; per-target
        accumulation order (ascending source index) is preserved because
        filtering never reorders.
        """
        row_id, flat = self.base.flat_adjacency(rows)
        if flat.size == 0:
            return row_id, flat
        keep = self.alive[flat]
        return row_id[keep], flat[keep]

    def neighbors(self, i: int) -> np.ndarray:
        """Alive neighbor indices of base index ``i`` (ascending)."""
        row = self.base.neighbors(i)
        return row[self.alive[row]]

    # ------------------------------------------------------------------
    # peeling (the vectorized Remove-j + vertex drop)
    # ------------------------------------------------------------------
    def peel(self, indices: Iterable[int]) -> int:
        """Peel ``indices`` out of the view; returns how many were alive.

        Equivalent to, on the materialised dict graph: Remove-j every
        boundary edge of the peeled set (remove it, add one compensating
        self loop at each endpoint) and then remove the peeled vertices —
        which cancels the peeled endpoints' compensations, leaving exactly
        one new loop per boundary edge, at the surviving endpoint.  Alive
        degrees never change (INV-1).  Cost: O(Vol(peeled)) plus an O(n)
        bincount, with no Python per-edge loop.
        """
        idx = np.unique(
            np.asarray(
                indices if isinstance(indices, np.ndarray) else list(indices),
                dtype=np.int64,
            )
        )
        if idx.size:
            idx = idx[self.alive[idx]]
        if idx.size == 0:
            return 0
        # The alive mask and residual loops are kernel inputs; any cached
        # walk workspace (gather/scatter caches) would go stale with them.
        self._ws = None
        self.alive[idx] = False
        row_id, flat = self.base.flat_adjacency(idx)
        boundary = 0
        if flat.size:
            targets = flat[self.alive[flat]]  # alive survivors only
            boundary = int(targets.size)
            if boundary:
                compensation = np.bincount(targets, minlength=self.base.n)
                self.proper_degree -= compensation
                self.loops += compensation
        # Residual proper degrees of the peeled rows still count their
        # alive-at-call-time neighbors: 2·(internal edges) + boundary.
        internal_twice = int(self.proper_degree[idx].sum()) - boundary
        self.num_edges -= boundary + internal_twice // 2
        self.total_volume -= int(self.base.degree[idx].sum())
        self.proper_degree[idx] = 0
        self.loops[idx] = 0
        return int(idx.size)

    def compact(self) -> "PeeledCSR":
        """Re-snapshot the alive set into a fresh all-alive compact view.

        The masked kernels cost O(base.n) per walk step no matter how few
        vertices remain alive, so once a view has shrunk well below its
        index space it pays to rebuild: this gathers the residual
        alive–alive adjacency with one masked ``flat_adjacency`` pass and
        re-indexes it into a new :class:`CSRGraph` — O(n + Vol(alive))
        numpy work, no dict graph in sight.  The compact base keeps the
        alive labels in their old relative (``repr``-sorted) order, and
        degrees/loops carry over unchanged, so walks, sweeps, and cuts on
        the compact view are bit-identical to the uncompacted ones.
        :func:`maybe_compact` applies the 2× shrink heuristic.
        """
        idx = self.alive_indices()
        remap = np.full(self.base.n, -1, dtype=np.int64)
        remap[idx] = np.arange(idx.size, dtype=np.int64)
        _, flat = self.flat_adjacency(idx)
        indptr = np.zeros(idx.size + 1, dtype=np.int64)
        np.cumsum(self.proper_degree[idx], out=indptr[1:])
        dtype = csr_kernels.choose_index_dtype(idx.size, int(indptr[-1]))
        base = CSRGraph(
            indptr=indptr.astype(dtype, copy=False),
            indices=remap[flat].astype(dtype, copy=False),
            loops=self.loops[idx].copy(),
            vertices=[self.base.vertices[int(i)] for i in idx],
        )
        return PeeledCSR.full(base)

    def alive_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Residual proper edges as index arrays ``(u, v)`` with ``u < v``.

        Exactly the alive–alive edges of the view (each undirected edge
        once), gathered with one masked ``flat_adjacency`` pass.  This is
        the "intra-cluster edge list" primitive of the Theorem 2 triangle
        workload: a cluster's view yields the edges whose wedges the
        cluster is responsible for closing (:mod:`repro.triangles`).
        """
        idx = self.alive_indices()
        if idx.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        row_id, flat = self.flat_adjacency(idx)
        u = idx[row_id]
        keep = u < flat
        return u[keep], flat[keep]

    # ------------------------------------------------------------------
    # masked cut / volume queries (twins of the Graph methods)
    # ------------------------------------------------------------------
    def volume(self, indices: Iterable[int]) -> int:
        """Vol of an alive index set (degree mass; loops included via INV-1).

        ``indices`` is treated as a set: duplicates count once, as in
        :meth:`Graph.volume` over a vertex set.
        """
        idx = np.unique(
            np.asarray(
                indices if isinstance(indices, np.ndarray) else list(indices),
                dtype=np.int64,
            )
        )
        return int(self.base.degree[idx].sum())

    def cut_edges(self, indices: Iterable[int]) -> list[tuple[Vertex, Vertex]]:
        """∂(S) against the alive rest, as label pairs (S-endpoint first)."""
        idx = np.asarray(sorted(set(int(i) for i in indices)), dtype=np.int64)
        if idx.size == 0:
            return []
        inside = np.zeros(self.base.n, dtype=bool)
        inside[idx] = True
        row_id, flat = self.flat_adjacency(idx)
        crossing = ~inside[flat]
        labels = self.base.vertices
        return [
            (labels[int(idx[r])], labels[int(t)])
            for r, t in zip(row_id[crossing], flat[crossing])
        ]

    def cut_size(self, indices: Iterable[int]) -> int:
        """|∂(S)| against the alive rest."""
        idx = np.asarray(sorted(set(int(i) for i in indices)), dtype=np.int64)
        if idx.size == 0:
            return 0
        inside = np.zeros(self.base.n, dtype=bool)
        inside[idx] = True
        row_id, flat = self.flat_adjacency(idx)
        return int(np.count_nonzero(~inside[flat]))

    def conductance_of_cut(self, indices: Iterable[int]) -> float:
        """Φ(S) = |∂(S)| / min{Vol(S), Vol(alive∖S)}; ``inf`` on empty sides."""
        idx = list(indices)
        vol_s = self.volume(idx)
        denom = min(vol_s, self.total_volume - vol_s)
        if denom == 0:
            return float("inf")
        return self.cut_size(idx) / denom

    def balance_of_cut(self, indices: Iterable[int]) -> float:
        """bal(S) = min{Vol(S), Vol(alive∖S)} / Vol(alive) (0 if volume 0)."""
        if self.total_volume == 0:
            return 0.0
        vol_s = self.volume(list(indices))
        return min(vol_s, self.total_volume - vol_s) / self.total_volume

    # ------------------------------------------------------------------
    # traversal / sampling
    # ------------------------------------------------------------------
    def connected_components(self) -> list[set[Vertex]]:
        """Alive components as label sets, ordered by smallest member index.

        Vertices whose residual edges are all self loops come out as
        singletons, matching the dict graph's ``connected_components`` on
        the materialised ``G{U}``.  The ordering (ascending smallest alive
        index = ascending smallest ``repr``) is the canonical one the
        decomposition recursion uses on both backends.
        """
        unvisited = self.alive.copy()
        components: list[set[Vertex]] = []
        labels = self.base.vertices
        for start in np.flatnonzero(self.alive):
            if not unvisited[start]:
                continue
            unvisited[start] = False
            member = [int(start)]
            frontier = np.asarray([start], dtype=np.int64)
            while frontier.size:
                _, flat = self.flat_adjacency(frontier)
                if flat.size == 0:
                    break
                fresh = np.unique(flat[unvisited[flat]])
                unvisited[fresh] = False
                member.extend(int(i) for i in fresh)
                frontier = fresh
            components.append({labels[i] for i in member})
        return components

    def sample_start(self, rng: np.random.Generator) -> Optional[int]:
        """Degree-proportional alive start index (ψ_V), or ``None`` if empty.

        Consumes the RNG stream exactly like the dict path's
        :func:`repro.utils.rng.sample_by_degree` over ``repr``-sorted
        positive-degree vertices (same weight vector, same
        :func:`~repro.utils.rng.sample_index_by_weight` call), which is what
        keeps dict and peeled runs of RandomNibble in lockstep for a shared
        seed.
        """
        idx = self.alive_indices()
        if idx.size:
            idx = idx[self.base.degree[idx] > 0]
        if idx.size == 0:
            return None
        weights = np.asarray(self.base.degree[idx], dtype=float)
        return int(idx[sample_index_by_weight(rng, weights)])

    # ------------------------------------------------------------------
    # interop
    # ------------------------------------------------------------------
    def indices_of(self, labels: Iterable[Vertex]) -> np.ndarray:
        """Base indices of the given vertex labels, ascending."""
        index = self.base.index
        return np.asarray(sorted(index[v] for v in labels), dtype=np.int64)

    def labels_of(self, indices: Iterable[int]) -> frozenset:
        """Vertex labels of the given base indices."""
        labels = self.base.vertices
        return frozenset(labels[int(i)] for i in indices)

    def to_graph(self) -> Graph:
        """Materialise the alive view into a dict ``Graph``.

        The result equals ``induced_with_loops(alive labels)`` of the
        snapshotted graph with every prior peel's Remove-j compensation
        applied — vertices in ascending index (``repr``) order.
        """
        labels = self.base.vertices
        idx = self.alive_indices()
        g = Graph(vertices=(labels[int(i)] for i in idx))
        for i in idx:
            row = self.neighbors(int(i))
            for j in row[row > i]:
                g.add_edge(labels[int(i)], labels[int(j)])
            if self.loops[i]:
                g.add_self_loops(labels[int(i)], int(self.loops[i]))
        return g

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PeeledCSR(alive={self.num_vertices}/{self.base.n}, "
            f"m={self.num_edges}, vol={self.total_volume})"
        )


# ----------------------------------------------------------------------
# compaction and the masked sweep
# ----------------------------------------------------------------------
# The CSR kernels only touch their graph argument through the surface
# PeeledCSR masks (degree / loops / flat_adjacency / n / total_volume), so
# the masked variants *are* the CSR kernels run on the view.  Any new
# kernel that reaches past the masked surface (e.g. into base.indptr
# directly) must grow a genuinely masked variant here instead.


def maybe_compact(peel: PeeledCSR) -> PeeledCSR:
    """Compact a view once it has shrunk below half of its index space.

    The 2× rule keeps total compaction cost linear over any peeling
    sequence (a geometric series, the standard amortisation argument) while
    capping the masked kernels' dense-vector overhead at 2× the alive count.
    Returns the view unchanged when compaction wouldn't pay.
    """
    if 2 * peel.num_vertices <= peel.n:
        return peel.compact()
    return peel


def build_sweep(peel: PeeledCSR, mass: SparseMass) -> CSRSweep:
    """Masked sweep prefix scan over an alive-supported mass vector.

    Prefix volumes use the preserved degrees, prefix cut sizes count only
    alive–alive edges (residual ``proper_degree`` minus twice the
    earlier-alive-neighbor counts), and ``total_volume`` is the alive
    volume — the exact integers the dict sweep computes on ``G{U}``.
    """
    return csr_kernels.build_sweep(peel, mass)

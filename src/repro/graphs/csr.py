"""Vectorized CSR walk engine (the numpy backend of the Nibble family).

The dict-of-sets :class:`~repro.graphs.graph.Graph` is the mutable substrate
of the decomposition (Remove-j edits, G{S} construction), but pure-Python
iteration over it caps the truncated-walk hot path (paper Appendix A) at
roughly 10³ vertices.  This module provides the flat, immutable view the hot
path actually needs:

* :class:`CSRGraph` — a compressed-sparse-row snapshot of a ``Graph`` with a
  *stable* vertex ↔ index mapping (vertices sorted by ``repr``, the same
  total order the dict sweep uses for tie-breaks);
* :class:`WalkWorkspace` — the one production walk and sweep engine: sparse
  truncated walk steps (:meth:`WalkWorkspace.walk_iter`) and the sweep
  prefix scan (:meth:`WalkWorkspace.build_sweep`) touching only the walk's
  support, obtained per snapshot or view through :func:`get_workspace`;
* the dense single-step kernels — :func:`lazy_walk_step`, :func:`truncate`,
  :func:`truncated_walk_step` and :func:`build_sweep` — over length-``n``
  mass vectors: the step-level references the workspace is tested against;
* :func:`candidate_indices_from_volumes`, ApproximateNibble's geometric
  candidate prefixes of a sweep.

Bit-for-bit parity with the dict backend is a design goal, not an accident:
the kernels evaluate the *same* IEEE expressions as
:mod:`repro.walks.lazy_walk` and accumulate incoming mass in the *same*
canonical order (ascending vertex index, which equals the dict path's
``repr``-sorted order), so ``backend="csr"`` and ``backend="dict"`` produce
identical walk vectors, identical sweeps, and therefore identical certified
cuts.  ``tests/test_csr.py`` and ``tests/differential`` pin this across all
benchmark families.

Integer sweep statistics (prefix volume / cut size) are exact in both
backends, so conductance values — ratios of those integers — agree exactly
as well.
"""

from __future__ import annotations

import os
import pickle
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .graph import Graph

#: ``backend="auto"`` switches from the dict to the CSR engine at this many
#: vertices.  Below it the per-step numpy dispatch overhead outweighs the
#: vectorization win; above it the CSR path dominates.  PR 5 re-measured
#: the crossover after the walk-budget and pre-check changes shifted the
#: mix toward long cut-finding walks on mid-size working graphs: the CSR
#: engine now wins from a few dozen vertices up (≈1.2× end-to-end on the
#: n=10240 ring decomposition vs the old 512 cutoff — see EXPERIMENTS.md),
#: so only genuinely tiny graphs stay on the dict reference engine.
CSR_AUTO_THRESHOLD = 32

#: The three recognised backend names.
BACKENDS = ("dict", "csr", "auto")

# ----------------------------------------------------------------------
# index-width policy (int32 vs int64 CSR arrays)
# ----------------------------------------------------------------------
#: Largest value an index array entry may take for the int32 layout to be
#: chosen: both vertex indices (``indices`` entries, up to ``n - 1``) and
#: adjacency offsets (``indptr`` entries, up to the directed entry count
#: ``2m``) must fit.  Module-level on purpose — the boundary tests
#: monkeypatch it down to exercise the decision edge without building a
#: 2³¹-entry graph.
INDEX32_LIMIT = 2**31 - 1

#: The recognised index-width policies: ``"auto"`` picks int32 whenever it
#: fits (the default), ``"int32"``/``"int64"`` force a width (forcing int32
#: onto a too-large graph raises :class:`OverflowError`, never wraps).
INDEX_DTYPE_POLICIES = ("auto", "int32", "int64")

_INDEX_DTYPE_POLICY = os.environ.get("REPRO_INDEX_DTYPE", "auto")


def index_dtype_policy() -> str:
    """The current index-width policy (env ``REPRO_INDEX_DTYPE`` seeds it)."""
    return _INDEX_DTYPE_POLICY


def set_index_dtype_policy(policy: str) -> str:
    """Set the process-wide index-width policy; returns the previous one."""
    global _INDEX_DTYPE_POLICY
    if policy not in INDEX_DTYPE_POLICIES:
        raise ValueError(
            f"unknown index dtype policy {policy!r}; expected one of {INDEX_DTYPE_POLICIES}"
        )
    previous = _INDEX_DTYPE_POLICY
    _INDEX_DTYPE_POLICY = policy
    return previous


@contextmanager
def forced_index_dtype(policy: str):
    """Scoped index-width policy override (used by the differential matrix)."""
    previous = set_index_dtype_policy(policy)
    try:
        yield
    finally:
        set_index_dtype_policy(previous)


def choose_index_dtype(
    num_vertices: int, num_entries: int, policy: Optional[str] = None
) -> np.dtype:
    """Pick the index dtype for a snapshot with the given dimensions.

    ``num_entries`` is the number of directed adjacency entries (``2m``);
    both it and ``num_vertices`` must stay at or below
    :data:`INDEX32_LIMIT` for the int32 layout.  Under ``policy="int32"``
    an oversized graph raises :class:`OverflowError` — an explicit guard,
    because a silently wrapped index array would corrupt every downstream
    kernel rather than fail loudly.
    """
    if policy is None:
        policy = _INDEX_DTYPE_POLICY
    if policy not in INDEX_DTYPE_POLICIES:
        raise ValueError(
            f"unknown index dtype policy {policy!r}; expected one of {INDEX_DTYPE_POLICIES}"
        )
    if policy == "int64":
        return np.dtype(np.int64)
    fits = num_vertices <= INDEX32_LIMIT and num_entries <= INDEX32_LIMIT
    if policy == "int32" and not fits:
        raise OverflowError(
            f"int32 index layout forced but the snapshot does not fit: "
            f"n={num_vertices}, directed entries={num_entries}, "
            f"limit={INDEX32_LIMIT}"
        )
    return np.dtype(np.int32) if fits else np.dtype(np.int64)


def resolve_backend_size(num_vertices: int, backend: str) -> str:
    """Resolve a backend name to ``"dict"`` or ``"csr"`` for a vertex count.

    ``"auto"`` picks the CSR engine at :data:`CSR_AUTO_THRESHOLD` vertices
    and above.  Both engines return identical results, so the choice is
    purely a performance knob.  The count-based form exists so the
    decomposition recursion can resolve a subset's backend *before*
    materialising any working graph for it.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    if backend == "auto":
        return "csr" if num_vertices >= CSR_AUTO_THRESHOLD else "dict"
    return backend


def resolve_backend(graph: Graph, backend: str) -> str:
    """Resolve a backend name to ``"dict"`` or ``"csr"`` for a graph."""
    return resolve_backend_size(graph.num_vertices, backend)


class CSRGraph:
    """Immutable CSR snapshot of a :class:`~repro.graphs.graph.Graph`.

    Vertices are assigned indices ``0 .. n-1`` in ``sorted(..., key=repr)``
    order — the same total order the dict sweep (:mod:`repro.nibble.sweep`)
    and the spectral tooling (:func:`repro.graphs.spectral.vertex_index`) use
    — so index order and the dict backend's tie-break order coincide.

    Attributes
    ----------
    n:
        Number of vertices.
    indptr, indices:
        CSR adjacency of the proper (non-loop) edges; the neighbor indices of
        vertex ``i`` are ``indices[indptr[i]:indptr[i+1]]``, sorted
        ascending.  Each undirected edge appears twice.
    loops:
        Self-loop multiplicities (``int64``), following the paper's
        convention that every self loop adds 1 to its endpoint's degree.
    proper_degree, degree:
        Per-vertex proper degree (``indptr`` diffs) and total degree
        (proper + loops).
    total_volume:
        ``Vol(V)`` as a Python int (matches ``Graph.total_volume()``).
    vertices:
        The original vertex labels in index order.
    index:
        Mapping from vertex label to index.
    """

    __slots__ = (
        "n",
        "indptr",
        "indices",
        "loops",
        "proper_degree",
        "degree",
        "total_volume",
        "vertices",
        "index",
        "_edge_keys",
        "_ws",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        loops: np.ndarray,
        vertices: list,
    ) -> None:
        self.indptr = indptr
        self.indices = indices
        self.loops = loops
        self.vertices = vertices
        self.n = len(vertices)
        self.index = {v: i for i, v in enumerate(vertices)}
        self.proper_degree = np.diff(indptr)
        self.degree = self.proper_degree + loops
        self.total_volume = int(self.degree.sum())
        self._edge_keys: Optional[np.ndarray] = None
        self._ws = None

    @classmethod
    def from_graph(cls, graph: Graph) -> "CSRGraph":
        """Snapshot ``graph`` into CSR form (one O(n log n + m) pass).

        The index arrays take the width :func:`choose_index_dtype` picks
        for the snapshot's dimensions (int32 whenever it fits, under the
        default policy).  ``loops`` — and therefore ``degree`` — stay
        int64 regardless, so every arithmetic expression downstream of
        degrees is unchanged by the index width.
        """
        vertices = sorted(graph.vertices(), key=repr)
        index = {v: i for i, v in enumerate(vertices)}
        counts = np.fromiter(
            (len(graph.neighbors(v)) for v in vertices), dtype=np.int64, count=len(vertices)
        )
        indptr64 = np.zeros(len(vertices) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr64[1:])
        dtype = choose_index_dtype(len(vertices), int(indptr64[-1]))
        indptr = indptr64.astype(dtype, copy=False)
        indices = np.empty(int(indptr64[-1]), dtype=dtype)
        for i, v in enumerate(vertices):
            nbrs = sorted(index[u] for u in graph.neighbors(v))
            indices[indptr64[i] : indptr64[i + 1]] = nbrs
        loops = np.fromiter(
            (graph.self_loops(v) for v in vertices), dtype=np.int64, count=len(vertices)
        )
        return cls(indptr, indices, loops, vertices)

    # ------------------------------------------------------------------
    # memory-mapped snapshots
    # ------------------------------------------------------------------
    def to_mmap(self, path) -> Path:
        """Persist the snapshot as a directory of ``.npy`` files + labels.

        The layout is ``indptr.npy`` / ``indices.npy`` / ``loops.npy``
        (saved at their in-memory widths, so an int32 snapshot stays
        int32 on disk) plus ``vertices.pkl``.  :meth:`from_mmap` reopens
        it with the index arrays memory-mapped, letting decompositions
        run on graphs whose adjacency does not fit in RAM.
        """
        target = Path(path)
        target.mkdir(parents=True, exist_ok=True)
        np.save(target / "indptr.npy", self.indptr)
        np.save(target / "indices.npy", self.indices)
        np.save(target / "loops.npy", self.loops)
        with open(target / "vertices.pkl", "wb") as fh:
            pickle.dump(self.vertices, fh, protocol=pickle.HIGHEST_PROTOCOL)
        return target

    @classmethod
    def from_mmap(cls, path) -> "CSRGraph":
        """Reopen a :meth:`to_mmap` snapshot with memory-mapped arrays.

        ``indptr``/``indices``/``loops`` become read-only ``np.memmap``
        views paged in on demand; the derived per-vertex arrays
        (``proper_degree``, ``degree``) are computed into RAM as usual, so
        every kernel — and the :class:`~repro.graphs.peel.PeeledCSR` and
        :class:`~repro.parallel.shared.SharedCSR` wrappers — composes
        unchanged.  The arrays are opened read-only, so an accidental
        write fails loudly instead of corrupting the snapshot.

        The snapshot is validated before use: a missing, truncated, or
        unreadable array, a non-integer or mismatched index dtype, or
        inconsistent shapes all raise :class:`ValueError` naming the bad
        file — a damaged snapshot (e.g. one torn by a mid-``to_mmap``
        kill) must fail here, not as a wrong decomposition later.
        """
        source = Path(path)
        arrays = {}
        for name in ("indptr", "indices", "loops"):
            file = source / f"{name}.npy"
            if not file.exists():
                raise ValueError(f"mmap snapshot at {source} is missing {name}.npy")
            try:
                arrays[name] = np.load(file, mmap_mode="r")
            except Exception as exc:
                raise ValueError(
                    f"mmap snapshot array {name}.npy at {source} is unreadable "
                    f"or truncated ({type(exc).__name__}: {exc})"
                ) from exc
        indptr, indices, loops = arrays["indptr"], arrays["indices"], arrays["loops"]
        for name in ("indptr", "indices"):
            if arrays[name].dtype not in (np.dtype(np.int32), np.dtype(np.int64)):
                raise ValueError(
                    f"mmap snapshot array {name}.npy at {source} has dtype "
                    f"{arrays[name].dtype}; expected int32 or int64"
                )
        if indptr.dtype != indices.dtype:
            raise ValueError(
                f"mmap snapshot at {source} mixes index dtypes: indptr.npy is "
                f"{indptr.dtype} but indices.npy is {indices.dtype}"
            )
        if indptr.ndim != 1 or indptr.size < 1:
            raise ValueError(
                f"mmap snapshot array indptr.npy at {source} must be a "
                f"non-empty 1-d array"
            )
        if indices.ndim != 1 or indices.size != int(indptr[-1]):
            raise ValueError(
                f"mmap snapshot array indices.npy at {source} has "
                f"{indices.size} entries but indptr.npy promises "
                f"{int(indptr[-1])}"
            )
        if loops.ndim != 1 or loops.size != indptr.size - 1:
            raise ValueError(
                f"mmap snapshot array loops.npy at {source} has {loops.size} "
                f"entries for {indptr.size - 1} vertices"
            )
        vertices_file = source / "vertices.pkl"
        if not vertices_file.exists():
            raise ValueError(f"mmap snapshot at {source} is missing vertices.pkl")
        try:
            with open(vertices_file, "rb") as fh:
                vertices = pickle.load(fh)
        except Exception as exc:
            raise ValueError(
                f"mmap snapshot labels vertices.pkl at {source} are unreadable "
                f"or truncated ({type(exc).__name__}: {exc})"
            ) from exc
        if len(vertices) != indptr.size - 1:
            raise ValueError(
                f"mmap snapshot labels vertices.pkl at {source} hold "
                f"{len(vertices)} labels for {indptr.size - 1} vertices"
            )
        return cls(indptr, indices, loops, vertices)

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices (mirrors ``Graph.num_vertices``)."""
        return self.n

    @property
    def num_edges(self) -> int:
        """Number of proper (non-loop) edges (mirrors ``Graph.num_edges``)."""
        return len(self.indices) // 2

    # ------------------------------------------------------------------
    def neighbors(self, i: int) -> np.ndarray:
        """Neighbor indices of vertex index ``i`` (ascending)."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def volume(self, idx: np.ndarray) -> int:
        """Vol of the vertex-index set ``idx`` (degree mass, loops included)."""
        return int(self.degree[idx].sum())

    def flat_adjacency(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated adjacency lists of ``rows``.

        Returns ``(row_id, flat)`` where ``flat`` is the concatenation of
        each row's neighbor indices (row-major, ascending within a row) and
        ``row_id[k]`` is the position *within* ``rows`` that produced
        ``flat[k]``.  This is the gather primitive behind both the walk step
        and the sweep cut scan.
        """
        counts = self.proper_degree[rows]
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        row_id = np.repeat(np.arange(len(rows), dtype=np.int64), counts)
        starts = self.indptr[rows]
        offsets = np.arange(total, dtype=np.int64)
        offsets -= np.repeat(np.concatenate(([0], np.cumsum(counts[:-1]))), counts)
        flat = self.indices[np.repeat(starts, counts) + offsets]
        return row_id, flat

    def directed_edge_keys(self) -> np.ndarray:
        """Every directed adjacency entry ``(u, v)`` encoded as ``u·n + v``.

        The array is ascending by construction (rows ascend, and within a
        row ``indices`` ascend), so it is directly usable with
        ``np.searchsorted`` as an O(log m) edge-membership test — the
        primitive behind the vectorized triangle machinery
        (:mod:`repro.triangles`).  Both directions of each undirected edge
        are present, so a lookup never needs to canonicalise its key.

        The array is built once and memoised on the snapshot (the snapshot
        is immutable, so it can never go stale): every cluster of a
        triangle-workload level, and every repeated query through a
        :class:`~repro.triangles.workload.DecompositionCache`, shares one
        copy.  Callers must treat it as read-only.
        """
        if self._edge_keys is None:
            rows = np.repeat(np.arange(self.n, dtype=np.int64), self.proper_degree)
            self._edge_keys = rows * np.int64(self.n) + self.indices
        return self._edge_keys

    def to_graph(self) -> Graph:
        """Materialise back into a mutable dict-of-sets ``Graph``."""
        g = Graph(vertices=self.vertices)
        for i, v in enumerate(self.vertices):
            for j in self.neighbors(i):
                if i < j:
                    g.add_edge(v, self.vertices[int(j)])
            if self.loops[i]:
                g.add_self_loops(v, int(self.loops[i]))
        return g

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRGraph(n={self.n}, entries={len(self.indices)})"


# ----------------------------------------------------------------------
# sparse mass vectors
# ----------------------------------------------------------------------
#: A walk vector restricted to its support: ``(indices, values)`` with
#: ascending ``indices`` and strictly positive ``values``.
SparseMass = tuple[np.ndarray, np.ndarray]


def sparsify(p: np.ndarray) -> SparseMass:
    """Restrict a dense mass vector to its (positive) support."""
    idx = np.flatnonzero(p)
    return idx, p[idx]


def mass_to_dict(csr: CSRGraph, mass: SparseMass) -> dict:
    """Convert a sparse CSR mass vector into the dict backend's form."""
    idx, vals = mass
    return {csr.vertices[int(i)]: float(m) for i, m in zip(idx, vals)}


# ----------------------------------------------------------------------
# walk kernels (paper Appendix A)
# ----------------------------------------------------------------------
def lazy_walk_step(csr: CSRGraph, p: np.ndarray) -> np.ndarray:
    """One lazy walk step ``M p`` with ``M = (A D^{-1} + I) / 2``, vectorized.

    Work is O(n + Vol(support)): only the support's adjacency is gathered.
    The expression and accumulation order match the dict backend exactly
    (incoming shares summed in ascending source-index order, self-retained
    mass added last), so the two backends stay bit-identical.
    """
    active = np.flatnonzero(p)
    if active.size == 0:
        return np.zeros(csr.n)
    mass = p[active]
    deg = csr.degree[active]
    zero = deg == 0
    safe = np.where(zero, 1, deg)
    keep = np.where(zero, mass, mass * (0.5 + (0.5 * csr.loops[active]) / safe))
    nz = active[~zero]
    result = np.zeros(csr.n)
    if nz.size:
        share = mass[~zero] / (2.0 * deg[~zero])
        row_id, flat = csr.flat_adjacency(nz)
        if flat.size:
            # bincount accumulates sequentially in input order, i.e. for each
            # target vertex the shares arrive in ascending source index —
            # the canonical order the dict backend also uses.
            result = np.bincount(flat, weights=share[row_id], minlength=csr.n)
    result[active] += keep
    return result


def truncate(csr: CSRGraph, p: np.ndarray, epsilon: float) -> np.ndarray:
    """[p]_ε: zero every entry with ``p(x) < 2 ε deg(x)`` (in place on a copy)."""
    out = p.copy()
    out[out < 2.0 * epsilon * csr.degree] = 0.0
    return out


def truncated_walk_step(csr: CSRGraph, p: np.ndarray, epsilon: float) -> np.ndarray:
    """One truncated lazy walk step: ``[M p]_ε``."""
    return truncate(csr, lazy_walk_step(csr, p), epsilon)


# ----------------------------------------------------------------------
# vectorized sweep prefix scan (paper Appendix A's π̃ orderings)
# ----------------------------------------------------------------------
@dataclass
class CSRSweep:
    """Prefix statistics of one ρ̃-ordering, fully materialised as arrays.

    The numpy twin of :class:`repro.nibble.sweep.SweepState`: ``order`` is
    the support sorted by (-ρ̃, vertex index), ``prefix_volume[j]`` and
    ``prefix_cut[j]`` are Vol/|∂| of the length-``j`` prefix (index 0 is the
    empty prefix), and ``rho`` holds ρ̃ in sweep order.  All integer columns
    are exact, so conductances derived from them match the dict backend
    bit-for-bit.
    """

    order: np.ndarray
    rho: np.ndarray
    total_volume: int
    prefix_volume: np.ndarray
    prefix_cut: np.ndarray

    @property
    def jmax(self) -> int:
        """Largest prefix index (1-based) with positive truncated mass."""
        return len(self.order)

    def conductances(self) -> np.ndarray:
        """Φ of every nonempty prefix (1-based j maps to entry j-1)."""
        vol = self.prefix_volume[1:]
        cut = self.prefix_cut[1:]
        denom = np.minimum(vol, self.total_volume - vol)
        out = np.full(len(vol), np.inf)
        ok = denom > 0
        out[ok] = cut[ok] / denom[ok]
        return out

    def prefix(self, j: int) -> np.ndarray:
        """The prefix π̃(1..j) as vertex indices."""
        return self.order[:j]


def candidate_indices_from_volumes(prefix_volume: np.ndarray, phi: float) -> list[int]:
    """ApproximateNibble's geometric candidate prefixes of a CSR sweep.

    The CSR scan's entry to the one candidate construction,
    :func:`repro.nibble.sweep.candidate_indices_from_profile`, which binary
    searches a plain ``tolist()`` copy of the profile with
    :func:`bisect.bisect_right`: exact int-vs-float comparisons and no
    per-call numpy dispatch, so it is the same sequence the dict scan
    examines at every sweep length.
    """
    from ..nibble.sweep import candidate_indices_from_profile

    return candidate_indices_from_profile(prefix_volume, phi)


def prefix_cut_profile(csr: CSRGraph, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prefix volumes and prefix cut sizes of an explicit vertex-index order.

    The numpy twin of :meth:`repro.graphs.graph.Graph.prefix_cut_profile`:
    ``prefix_volume[j]`` / ``prefix_cut[j]`` are Vol / |∂| of the length-``j``
    prefix of ``order`` (entry 0 is the empty prefix), computed with one
    ``cumsum`` and one ``flat_adjacency`` gather.  ``csr`` may be a
    :class:`~repro.graphs.peel.PeeledCSR` view — the masked surface drops
    dead targets, so the integers are those of the alive working graph.
    Both the ρ̃-sweep (:func:`build_sweep`) and the spectral sweep cut
    (:func:`repro.graphs.spectral.sweep_cut`'s masked path) build on it.
    """
    jmax = len(order)
    prefix_volume = np.zeros(jmax + 1, dtype=np.int64)
    np.cumsum(csr.degree[order], out=prefix_volume[1:])
    # position of each ordered vertex; vertices outside the order sort
    # as "after every prefix" so their edges always count toward the cut.
    pos = np.full(csr.n, jmax, dtype=np.int64)
    pos[order] = np.arange(jmax, dtype=np.int64)
    row_id, flat = csr.flat_adjacency(order)
    delta = csr.proper_degree[order].astype(np.int64)
    if flat.size:
        earlier = pos[flat] < row_id
        delta -= 2 * np.bincount(row_id[earlier], minlength=jmax).astype(np.int64)
    prefix_cut = np.zeros(jmax + 1, dtype=np.int64)
    np.cumsum(delta, out=prefix_cut[1:])
    return prefix_volume, prefix_cut


def build_sweep(csr: CSRGraph, mass: SparseMass) -> CSRSweep:
    """Order the support of ``mass`` by ρ̃ and precompute prefix statistics.

    The numpy analogue of :func:`repro.nibble.sweep.build_sweep` +
    :meth:`repro.graphs.graph.Graph.prefix_cut_profile`: ρ̃ = mass/degree,
    sort by (-ρ̃, index) via ``lexsort`` (index order equals the dict
    backend's ``repr`` tie-break by construction), prefix volumes by
    ``cumsum`` of degrees, and prefix cut sizes by counting, for each swept
    vertex, how many of its neighbors precede it in the ordering
    (:func:`prefix_cut_profile`).
    """
    idx, vals = mass
    deg = csr.degree[idx]
    keep = (vals > 0) & (deg > 0)
    idx = idx[keep]
    vals = vals[keep]
    rho = vals / csr.degree[idx]
    perm = np.lexsort((idx, -rho))
    order = idx[perm]
    prefix_volume, prefix_cut = prefix_cut_profile(csr, order)
    return CSRSweep(
        order=order,
        rho=rho[perm],
        total_volume=csr.total_volume,
        prefix_volume=prefix_volume,
        prefix_cut=prefix_cut,
    )


# ----------------------------------------------------------------------
# preallocated walk workspace
# ----------------------------------------------------------------------
_EMPTY_IDX = np.empty(0, dtype=np.int64)
_EMPTY_VALS = np.empty(0)


class WalkWorkspace:
    """The CSR walk and sweep engine: reusable, allocation-lean scratch state.

    The dense kernels above are O(n) *per step* even when the truncated
    support has a handful of vertices: ``lazy_walk_step`` materialises a
    length-``n`` result and scans it (``flatnonzero``), ``truncate`` copies
    and thresholds length-``n`` vectors, and ``prefix_cut_profile`` fills a
    length-``n`` position array per sweep.  On deep-recursion components
    (tiny alive sets inside a 10⁴-vertex base) those O(n) passes dominate
    the whole decomposition.  A workspace runs every CSR walk and sweep
    with sparse kernels that touch only the support:

    * :meth:`truncated_step` maps a :data:`SparseMass` directly to the next
      :data:`SparseMass` — union support via ``np.unique``, incoming shares
      scattered into compacted slots by one ``np.bincount``, retained mass
      added, truncation threshold applied — with zero length-``n`` work;
    * :meth:`build_sweep` reuses one persistent position array (sentinel
      ``n``, set/reset O(support) per sweep) instead of ``np.full(n, ...)``;
    * one *gather cache* serves both: the sweep of p̃_t and the walk step to
      p̃_{t+1} gather the adjacency of the same row set (the positive-mass,
      positive-degree support), so each time step pays for at most one
      ``flat_adjacency`` call — and none once the support stabilises.

    Bit-identity with the dense kernels is by construction, not tolerance:
    every float expression is evaluated element-restricted but otherwise
    verbatim, and the scatter accumulates per-target contributions in the
    same ascending-source order as ``np.bincount`` over the dense vector
    (``bincount`` adds sequentially in input order), so each partial-sum
    sequence — and therefore each IEEE result — is identical.
    ``tests/differential`` pins this against the dict oracle across the
    whole backend matrix.

    A workspace belongs to one :class:`CSRGraph` snapshot or one
    :class:`~repro.graphs.peel.PeeledCSR` view; views invalidate theirs on
    ``peel`` (the alive mask and residual loops change the kernels'
    inputs).  Obtain one with :func:`get_workspace`.
    """

    __slots__ = (
        "graph",
        "_pos",
        "_rows",
        "_row_id",
        "_flat",
        "_active",
        "_out_support",
        "_scatter_ids",
        "_keep_pos",
        "_deg_support",
    )

    def __init__(self, graph) -> None:
        self.graph = graph
        self._pos = np.full(graph.n, graph.n, dtype=np.int64)
        self._rows: Optional[np.ndarray] = None
        self._row_id: Optional[np.ndarray] = None
        self._flat: Optional[np.ndarray] = None
        self._active: Optional[np.ndarray] = None
        self._out_support: Optional[np.ndarray] = None
        self._scatter_ids: Optional[np.ndarray] = None
        self._keep_pos: Optional[np.ndarray] = None
        self._deg_support: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def _gather(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``flat_adjacency(rows)`` through the one-entry content cache."""
        if (
            self._rows is not None
            and self._rows.size == rows.size
            and np.array_equal(self._rows, rows)
        ):
            return self._row_id, self._flat
        row_id, flat = self.graph.flat_adjacency(rows)
        self._rows = rows
        self._row_id = row_id
        self._flat = flat
        return row_id, flat

    # ------------------------------------------------------------------
    def truncated_step(self, mass: SparseMass, epsilon: float) -> SparseMass:
        """One truncated lazy walk step, sparse in and sparse out.

        Produces bit-for-bit the :func:`sparsify` of
        ``truncate(lazy_walk_step(dense(mass)))`` — see the class docstring
        for the accumulation-order argument.
        """
        g = self.graph
        active, vals = mass
        if active.size == 0:
            return _EMPTY_IDX, _EMPTY_VALS
        deg = g.degree[active]
        zero = deg == 0
        safe = np.where(zero, 1, deg)
        keep = np.where(zero, vals, vals * (0.5 + (0.5 * g.loops[active]) / safe))
        nz = active[~zero]
        if nz.size:
            share = vals[~zero] / (2.0 * deg[~zero])
            row_id, flat = self._gather(nz)
        else:
            share = _EMPTY_VALS
            row_id = flat = _EMPTY_IDX
        if (
            self._active is not None
            and self._active.size == active.size
            and np.array_equal(self._active, active)
        ):
            out_support = self._out_support
            scatter_ids = self._scatter_ids
            keep_pos = self._keep_pos
            deg_support = self._deg_support
        else:
            if flat.size:
                out_support = np.unique(np.concatenate((active, flat)))
            else:
                out_support = active
            scatter_ids = (
                np.searchsorted(out_support, flat) if flat.size else _EMPTY_IDX
            )
            keep_pos = np.searchsorted(out_support, active)
            deg_support = g.degree[out_support]
            self._active = active
            self._out_support = out_support
            self._scatter_ids = scatter_ids
            self._keep_pos = keep_pos
            self._deg_support = deg_support
        if flat.size:
            out = np.bincount(
                scatter_ids, weights=share[row_id], minlength=len(out_support)
            )
        else:
            out = np.zeros(len(out_support))
        out[keep_pos] += keep
        kept = (out >= 2.0 * epsilon * deg_support) & (out != 0.0)
        return out_support[kept], out[kept]

    # ------------------------------------------------------------------
    def walk_iter(self, start: int, steps: int, epsilon: float):
        """Lazily yield p̃_0, ..., p̃_steps from a point mass at index ``start``.

        The index twin of :func:`repro.walks.lazy_walk.truncated_walk_iter`:
        the same vectors (as :data:`SparseMass`) in the same order, each
        step computed only when the consumer asks for it, and no further
        step once all mass truncates to zero.  ``start`` must be an index of
        the graph and, on a :class:`~repro.graphs.peel.PeeledCSR` view, an
        alive one — a walk seeded at a dead base index would leak mass
        through the base adjacency into nonsense cuts.
        """
        g = self.graph
        if not 0 <= start < g.n:
            raise KeyError(f"start index {start!r} not in graph")
        alive = getattr(g, "alive", None)
        if alive is not None and not alive[start]:
            raise KeyError(f"start index {start!r} is peeled")
        mass: SparseMass = (
            np.array([start], dtype=np.int64),
            np.array([1.0]),
        )
        yield mass
        for _ in range(steps):
            mass = self.truncated_step(mass, epsilon)
            yield mass
            if mass[0].size == 0:
                return

    # ------------------------------------------------------------------
    def build_sweep(self, mass: SparseMass) -> CSRSweep:
        """Sweep statistics of ``mass``, equal to :func:`build_sweep`.

        All prefix statistics are integer arithmetic, so sharing the
        ascending-row gather with the walk step (instead of gathering in
        sweep order) changes nothing: the per-position neighbor counts are
        permuted with ``pos``/``invperm``, which is exact.
        """
        g = self.graph
        idx, vals = mass
        deg = g.degree[idx]
        keepmask = (vals > 0) & (deg > 0)
        idx = idx[keepmask]
        vals = vals[keepmask]
        rho = vals / g.degree[idx]
        perm = np.lexsort((idx, -rho))
        order = idx[perm]
        jmax = len(order)
        prefix_volume = np.zeros(jmax + 1, dtype=np.int64)
        np.cumsum(g.degree[order], out=prefix_volume[1:])
        row_id, flat = self._gather(idx)
        pos = self._pos
        pos[order] = np.arange(jmax, dtype=np.int64)
        delta = g.proper_degree[order].astype(np.int64)
        if flat.size:
            sweep_row = pos[idx][row_id]
            earlier = pos[flat] < sweep_row
            delta -= 2 * np.bincount(sweep_row[earlier], minlength=jmax).astype(np.int64)
        pos[order] = g.n
        prefix_cut = np.zeros(jmax + 1, dtype=np.int64)
        np.cumsum(delta, out=prefix_cut[1:])
        return CSRSweep(
            order=order,
            rho=rho[perm],
            total_volume=g.total_volume,
            prefix_volume=prefix_volume,
            prefix_cut=prefix_cut,
        )


def get_workspace(graph) -> WalkWorkspace:
    """The graph's :class:`WalkWorkspace`, lazily created and memoised on
    the snapshot or view (``_ws``; :meth:`PeeledCSR.peel` drops it)."""
    ws = graph._ws
    if ws is None:
        ws = WalkWorkspace(graph)
        graph._ws = ws
    return ws

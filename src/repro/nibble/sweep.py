"""Prefix-sweep machinery shared by Nibble and ApproximateNibble.

Both algorithms order the support of the truncated walk vector by
ρ̃_t(v) = p̃_t(v)/deg(v) (ties broken by vertex identifier, as the paper
allows) and then examine prefixes π̃_t(1..j).  This module materialises the
ordering once per time step and exposes prefix volume, prefix cut size, and
prefix conductance incrementally, so a full sweep costs O(Vol(support)).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..graphs.graph import Graph, Vertex


@dataclass
class SweepState:
    """Incremental statistics of the prefixes of one ordering."""

    graph: Graph
    order: list[Vertex]
    rho: dict[Vertex, float]
    total_volume: int
    prefix_volume: list[int]
    prefix_cut: list[int]

    @property
    def jmax(self) -> int:
        """Largest prefix index (1-based) with positive truncated mass."""
        return len(self.order)

    def volume(self, j: int) -> int:
        """Vol(π̃(1..j)); ``j`` is 1-based, j = 0 gives 0."""
        return self.prefix_volume[j]

    def cut_size(self, j: int) -> int:
        """|∂(π̃(1..j))| in the graph."""
        return self.prefix_cut[j]

    def conductance(self, j: int) -> float:
        """Φ(π̃(1..j)) = cut / min(volume, total - volume)."""
        vol = self.prefix_volume[j]
        denom = min(vol, self.total_volume - vol)
        if denom <= 0:
            return float("inf")
        return self.prefix_cut[j] / denom

    def rho_at(self, j: int) -> float:
        """ρ̃ of the j-th vertex in the ordering (1-based)."""
        return self.rho[self.order[j - 1]]

    def prefix(self, j: int) -> set[Vertex]:
        """The prefix set π̃(1..j)."""
        return set(self.order[:j])


def build_sweep(graph: Graph, mass: Mapping[Vertex, float]) -> SweepState:
    """Order the support of ``mass`` by ρ̃ and precompute prefix statistics.

    The conductance is measured in ``graph`` (which, in the decomposition, is
    already the degree-preserving subgraph G{U}).
    """
    adj = graph._adj
    loops = graph._loops
    rho = {
        v: m / (len(adj[v]) + loops[v])
        for v, m in mass.items()
        if m > 0.0 and (len(adj[v]) + loops[v]) > 0
    }
    order = sorted(rho, key=lambda v: (-rho[v], repr(v)))
    total_volume = graph.total_volume()
    prefix_volume, prefix_cut = graph.prefix_cut_profile(order)
    return SweepState(
        graph=graph,
        order=order,
        rho=rho,
        total_volume=total_volume,
        prefix_volume=prefix_volume,
        prefix_cut=prefix_cut,
    )


#: Consecutive time steps whose sweep signature (support ordering +
#: certified prefix set) must repeat unchanged before the adaptive walk
#: budget stops the walk.  The value is the safety dial of the fast path:
#: the parity suite (``tests/test_fast_path.py``) and the bench smoke gate
#: assert that at this setting the adaptive stop never changes an output on
#: any benchmark family.
ADAPTIVE_STABLE_STEPS = 3


class WalkBudgetTracker:
    """The shared adaptive walk-budget rule of both certification scans.

    ROADMAP's leftover scale item: the truncated walk visits every one of
    its ``t0`` sweep steps even after its support has stabilised short of an
    exact IEEE fixpoint (late steps jitter by ULPs without ever reproducing
    a predecessor bit-for-bit).  This tracker implements the stop rule the
    two scan twins (:func:`repro.nibble.nibble.scan_walk_sequence` and
    :func:`~repro.nibble.nibble.scan_walk_sequence_csr`) share: after each
    swept time step the scan feeds in a *signature* — the ρ̃-ordering of the
    support plus the set of certified prefix indices — and the scan stops
    walking once the signature has repeated ``stable_steps`` consecutive
    times **and** the support is *closed* (zero boundary edges, i.e. a
    union of connected components of the working graph — the scans read
    this off the already-computed full-support prefix cut for free).

    Closure is the load-bearing half: an open support can grow again long
    after its ordering stabilises (diffusing mass pushes a neighbor back
    over the truncation threshold) and certify a strictly better cut at
    that later step, so no open-support stop is safe.  A closed support can
    never gain a vertex, its prefix (Φ, Vol) pairs are all determined by
    the frozen ordering, and an identical certified prefix at a later time
    step always loses the (Φ, −Vol, t, j) tie; only a late (C.2) ρ̃
    threshold crossing could still change the outcome, which the repeat
    requirement guards against.  The rule is deliberately *identical* on
    both backends (bit-identical walks produce identical signatures up to
    the vertex↔index bijection), so dict and CSR engines stop at the same
    step and stay bit-identical with the budget on or off — pinned by the
    fast-path parity suite and the bench smoke gate rather than assumed.
    """

    __slots__ = ("stable_steps", "_previous", "_repeats")

    def __init__(self, stable_steps: int = ADAPTIVE_STABLE_STEPS) -> None:
        self.stable_steps = stable_steps
        self._previous = None
        self._repeats = 0

    def stabilized(self, signature) -> bool:
        """Record one step's signature; ``True`` once it has repeated enough."""
        if self._previous is not None and signature == self._previous:
            self._repeats += 1
        else:
            self._repeats = 0
            self._previous = signature
        return self._repeats >= self.stable_steps


def candidate_indices(state: SweepState, phi: float) -> list[int]:
    """The geometric candidate sequence (j_x) of ApproximateNibble.

    j_1 = 1 and j_i = max(j_{i-1}+1, largest j with
    Vol(π̃(1..j)) ≤ (1+φ) · Vol(π̃(1..j_{i-1}))), stopping once j_max is
    reached.  There are O(φ⁻¹ log Vol) candidates.
    """
    return candidate_indices_from_profile(state.prefix_volume, phi)


def candidate_indices_from_profile(
    prefix_volume: Sequence[int], phi: float
) -> list[int]:
    """Candidate prefixes from a prefix-volume profile alone.

    ``prefix_volume[j]`` is Vol(π̃(1..j)) with ``prefix_volume[0] = 0``, as
    produced by both :func:`build_sweep` and the CSR backend's
    :class:`repro.graphs.csr.WalkWorkspace`.  It is the one candidate
    construction: the CSR scan reaches it through
    :func:`repro.graphs.csr.candidate_indices_from_volumes`, at every sweep
    length.

    Each "largest j with Vol(π̃(1..j)) ≤ (1+φ)·Vol(π̃(1..j_prev))" is found
    by :func:`bisect.bisect_right` over a plain Python list — the profile
    is non-decreasing, the elements are exact ints, and int-vs-float
    comparison in Python is exact, so the result equals the linear scan
    this replaced while doing O(log jmax) C-level comparisons per
    candidate instead of O(jmax) interpreted iterations per time step
    (the single biggest pure-Python cost of the CSR ApproximateNibble on
    deep-recursion components before PR 8).
    """
    jmax = len(prefix_volume) - 1
    if jmax <= 0:
        return []
    volumes = (
        prefix_volume.tolist()
        if hasattr(prefix_volume, "tolist")
        else list(prefix_volume)
    )
    candidates = [1]
    while candidates[-1] < jmax:
        prev = candidates[-1]
        threshold = (1.0 + phi) * volumes[prev]
        j = bisect_right(volumes, threshold, lo=prev, hi=jmax + 1) - 1
        nxt = max(prev + 1, j)
        candidates.append(min(nxt, jmax))
    return candidates

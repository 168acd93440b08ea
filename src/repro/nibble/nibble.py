"""Nibble and ApproximateNibble (paper Appendix A / Spielman–Teng 2004).

Both algorithms run the truncated lazy random walk

    p̃_0 = χ_v,      p̃_t = [M p̃_{t-1}]_{ε_b}

for ``t0`` steps and sweep each vector's support ordered by
ρ̃_t(x) = p̃_t(x)/deg(x), looking for a prefix π̃_t(1..j) that satisfies the
certification conditions

    (C.1)  Φ(π̃_t(1..j)) ≤ φ
    (C.2)  ρ̃_t at position j  ≥  γ / Vol(π̃_t(1..j))
    (C.3)  (5/7)·2^{b-1}  ≤  Vol(π̃_t(1..j))  ≤  (5/6)·Vol(V)

``Nibble`` examines every prefix of every time step.  ``ApproximateNibble``
examines only the geometric candidate sequence of
:func:`repro.nibble.sweep.candidate_indices` and relaxes the upper bound of
(C.3) to 11/12 (condition (C.3*)), which is what makes the distributed
implementation's round complexity independent of the cut volume.

The shared certification scan, :func:`scan_walk_sequence`, is deliberately a
pure function of the walk vectors: the distributed implementation
(:mod:`repro.congest.nibble_program`) computes the same vectors with the
CONGEST diffusion program and feeds them through this exact code path, so
centralized and distributed cuts coincide whenever their walk vectors do
(the diffusion program's vectors are pinned to the centralized ones to
1e-12 by ``tests/test_congest.py``).  The dict and CSR *backends*, by
contrast, are bit-identical by construction — same IEEE expressions, same
canonical accumulation order — so ``backend`` never changes an output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Optional

import numpy as np

from ..graphs import csr as csr_backend
from ..graphs.csr import CSRGraph, resolve_backend
from ..graphs.graph import Graph, Vertex
from ..graphs.peel import PeeledCSR
from ..resilience.deadline import check_walk_deadline
from ..utils.rounds import RoundReport
from ..walks.lazy_walk import truncated_walk_iter
from .parameters import NibbleParameters
from .sweep import (
    ADAPTIVE_STABLE_STEPS,
    SweepState,
    WalkBudgetTracker,
    build_sweep,
    candidate_indices,
)


@dataclass(frozen=True)
class NibbleCut:
    """A cut certified by the (C.1)–(C.3) conditions.

    ``conductance``/``volume``/``cut_size`` are measured in the graph the
    walk ran on (in the decomposition that graph is already ``G{U}``).
    """

    vertices: frozenset
    conductance: float
    volume: int
    cut_size: int
    time_step: int
    prefix_index: int
    scale: int
    start: Hashable

    @property
    def is_empty(self) -> bool:
        """Whether the cut contains no vertices (no prefix certified)."""
        return len(self.vertices) == 0


def conditions_hold(
    state: SweepState,
    j: int,
    scale: int,
    params: NibbleParameters,
    relaxed: bool = False,
) -> bool:
    """Check (C.1)–(C.3) for prefix ``j`` of one sweep at truncation scale ``b``.

    ``relaxed=True`` uses the (C.3*) upper bound (11/12 instead of 5/6),
    which is what ApproximateNibble certifies against.
    """
    vol = state.volume(j)
    if vol <= 0:
        return False
    if state.conductance(j) > params.phi:  # (C.1)
        return False
    if state.rho_at(j) < params.gamma / vol:  # (C.2)
        return False
    max_fraction = (
        params.relaxed_max_cut_volume_fraction
        if relaxed
        else params.max_cut_volume_fraction
    )
    return (  # (C.3) / (C.3*)
        params.min_cut_volume(scale) <= vol <= max_fraction * state.total_volume
    )


def scan_walk_sequence(
    graph: Graph,
    sequence: Iterable[Mapping[Vertex, float]],
    scale: int,
    params: NibbleParameters,
    start: Hashable,
    approximate: bool = False,
    return_first: bool = False,
    stable_steps: Optional[int] = None,
) -> Optional[NibbleCut]:
    """Sweep every time step of ``sequence`` and return a certified cut.

    With ``approximate=True`` only the geometric candidate prefixes are
    examined and (C.3*) replaces (C.3) — the ApproximateNibble scan.  The
    function is shared verbatim by the centralized and distributed Nibble so
    their outputs coincide whenever their walk vectors do.

    By default the *best* certified cut over all (t, j) is returned (lowest
    conductance, ties to larger volume then earlier time).  The paper's
    analysis only needs the first certified prefix (``return_first=True``),
    but early time steps certify ragged cuts whose boundaries inflate the
    decomposition's removed-edge budget; scanning the whole sequence costs no
    extra walk steps and returns the cleaned-up cut the walk converges to.

    ``sequence`` may be a lazy generator
    (:func:`repro.walks.lazy_walk.truncated_walk_iter`): the scan consumes
    one vector at a time and every break skips the remaining walk steps.
    With ``stable_steps`` set, the adaptive walk budget
    (:class:`repro.nibble.sweep.WalkBudgetTracker`) additionally stops the
    scan once the sweep signature — support ordering plus certified prefix
    set — has repeated that many consecutive steps; the rule is shared
    bit-for-bit with the CSR twin, so the backends stop at the same step.
    """
    best: Optional[NibbleCut] = None
    previous: Optional[Mapping[Vertex, float]] = None
    tracker = WalkBudgetTracker(stable_steps) if stable_steps is not None else None
    for t, mass in enumerate(sequence):
        check_walk_deadline()
        if t == 0:
            continue  # p̃_0 = χ_v is never certified (its prefix is trivial)
        if not mass:
            break  # all later vectors are identically zero
        if previous is not None and (mass is previous or mass == previous):
            # The walk hit its truncated fixpoint: every later sweep is a
            # copy of the one just scanned, and an identical certified
            # prefix at a later t always loses the (Φ, -Vol, t, j) tie.
            break
        previous = mass
        state = build_sweep(graph, mass)
        if state.jmax == 0:
            # All mass sits on zero-degree vertices; the next step repeats
            # this one bit-for-bit and the fixpoint rule above breaks.
            continue
        if approximate:
            indices = candidate_indices(state, params.phi)
        else:
            indices = range(1, state.jmax + 1)
        certified_js: list[int] = []
        for j in indices:
            if not conditions_hold(state, j, scale, params, relaxed=approximate):
                continue
            certified_js.append(j)
            cut = NibbleCut(
                vertices=frozenset(state.prefix(j)),
                conductance=state.conductance(j),
                volume=state.volume(j),
                cut_size=state.cut_size(j),
                time_step=t,
                prefix_index=j,
                scale=scale,
                start=start,
            )
            if return_first:
                return cut
            if best is None or (cut.conductance, -cut.volume) < (
                best.conductance,
                -best.volume,
            ):
                best = cut
        if (
            tracker is not None
            and tracker.stabilized(
                (
                    state.order,
                    certified_js,
                    np.asarray(
                        [state.rho[v] for v in state.order], dtype=np.float32
                    ).tobytes(),
                )
            )
            and state.prefix_cut[state.jmax] == 0
        ):
            # Adaptive budget: the sweep signature — ordering, certified
            # set, and the ρ̃ values themselves at float32 resolution — has
            # been stable long enough and the support is closed
            # (|∂(support)| = 0), so no later step can reach a new vertex
            # and the walk has converged past the point of changing a tie.
            break
    return best


def scan_walk_sequence_csr(
    csr: CSRGraph | PeeledCSR,
    sequence: Iterable[csr_backend.SparseMass],
    scale: int,
    params: NibbleParameters,
    start: Hashable,
    approximate: bool = False,
    return_first: bool = False,
    stable_steps: Optional[int] = None,
) -> Optional[NibbleCut]:
    """Vectorized twin of :func:`scan_walk_sequence` for the CSR backend.

    Each time step's (C.1)–(C.3) checks are evaluated as boolean masks over
    the whole sweep at once instead of prefix-by-prefix.  The integer sweep
    statistics, the candidate sequence, the condition thresholds, and the
    best-cut tie rule (lowest conductance, larger volume, earlier time,
    smaller prefix) replicate the dict scan exactly, so for bit-identical
    walk vectors — which the canonical accumulation order guarantees — the
    returned cut is identical too.  ``csr`` may be a
    :class:`~repro.graphs.peel.PeeledCSR` view: the kernels only reach the
    graph through the masked surface, so the scan then certifies prefixes
    of the peeled working graph.

    ``sequence`` may be a lazy generator
    (:meth:`repro.graphs.csr.WalkWorkspace.walk_iter`) and ``stable_steps``
    enables the adaptive walk budget, both exactly as in
    :func:`scan_walk_sequence` — the stop signature (support ordering +
    certified prefix indices) is the same rule in index space, so the two
    backends stop at the same time step for bit-identical walks.

    Every sweep runs through the graph's
    :class:`~repro.graphs.csr.WalkWorkspace`, whose gather cache is shared
    with a walk drawn from the same workspace, so each time step pays for
    at most one adjacency gather.
    """
    workspace = csr_backend.get_workspace(csr)
    best: Optional[tuple] = None  # ((Φ, -Vol), t, j, cut_size, prefix indices)
    max_fraction = (
        params.relaxed_max_cut_volume_fraction
        if approximate
        else params.max_cut_volume_fraction
    )
    previous: Optional[csr_backend.SparseMass] = None
    tracker = WalkBudgetTracker(stable_steps) if stable_steps is not None else None
    for t, mass in enumerate(sequence):
        check_walk_deadline()
        if t == 0:
            continue  # p̃_0 = χ_v is never certified (its prefix is trivial)
        if mass[0].size == 0:
            break  # all later vectors are identically zero
        if previous is not None and (
            mass is previous
            or (
                np.array_equal(mass[0], previous[0])
                and np.array_equal(mass[1], previous[1])
            )
        ):
            # Truncated fixpoint: later sweeps are copies of this one and
            # can never win the (Φ, -Vol, t, j) tie; same rule as the dict
            # scan so the backends break at the same step.
            break
        previous = mass
        state = workspace.build_sweep(mass)
        if state.jmax == 0:
            # All mass sits on zero-degree vertices; the next step repeats
            # this one bit-for-bit and the fixpoint rule above breaks.
            continue
        if approximate:
            j_values = np.asarray(
                csr_backend.candidate_indices_from_volumes(
                    state.prefix_volume, params.phi
                ),
                dtype=np.int64,
            )
        else:
            j_values = np.arange(1, state.jmax + 1, dtype=np.int64)
        vol = state.prefix_volume[j_values]
        cut = state.prefix_cut[j_values]
        cond = np.full(len(j_values), np.inf)
        denom = np.minimum(vol, state.total_volume - vol)
        ok = denom > 0
        cond[ok] = cut[ok] / denom[ok]
        certified = (
            (vol > 0)
            & (cond <= params.phi)  # (C.1)
            & (state.rho[j_values - 1] >= params.gamma / vol)  # (C.2)
            & (params.min_cut_volume(scale) <= vol)  # (C.3) / (C.3*)
            & (vol <= max_fraction * state.total_volume)
        )
        hit = np.flatnonzero(certified)
        if hit.size:
            if return_first:
                pick = hit[0]
            else:
                # same tie rule as the dict scan: min (Φ, -Vol), then smallest j
                pick = hit[np.lexsort((j_values[hit], -vol[hit], cond[hit]))[0]]
            key = (float(cond[pick]), -int(vol[pick]))
            if return_first or best is None or key < best[0]:
                j = int(j_values[pick])
                best = (key, t, j, int(cut[pick]), state.prefix(j).copy())
                if return_first:
                    break
        if (
            tracker is not None
            and tracker.stabilized(
                (
                    state.order.tobytes(),
                    j_values[hit].tobytes(),
                    state.rho.astype(np.float32).tobytes(),
                )
            )
            and state.prefix_cut[state.jmax] == 0
        ):
            # Adaptive budget: stable signature (ordering + certified set +
            # float32 ρ̃ values) + closed support — the same stop rule, in
            # index space, as the dict scan.
            break
    if best is None:
        return None
    (conductance, neg_volume), t, j, cut_size, prefix = best
    return NibbleCut(
        vertices=frozenset(csr.vertices[int(i)] for i in prefix),
        conductance=conductance,
        volume=-neg_volume,
        cut_size=cut_size,
        time_step=t,
        prefix_index=j,
        scale=scale,
        start=start,
    )


def _charge_rounds(
    report: Optional[RoundReport], label: str, params: NibbleParameters
) -> None:
    """Charge the paper's round cost for one Nibble instance.

    Lemma 9 accounting, simplified to its leading terms: ``t0`` diffusion
    rounds plus ``2ℓ`` rounds of sweep aggregation per examined scale.
    """
    if report is not None:
        report.subreport(label).charge(params.t0 + 2 * params.ell)


def _run_nibble(
    graph: Graph | PeeledCSR,
    start: Vertex,
    scale: int,
    params: NibbleParameters,
    report: Optional[RoundReport],
    approximate: bool,
    backend: str,
    csr: Optional[CSRGraph | PeeledCSR],
    adaptive: bool = True,
) -> Optional[NibbleCut]:
    """Shared walk-then-scan body of Nibble and ApproximateNibble.

    ``graph`` may be a :class:`~repro.graphs.peel.PeeledCSR` view, in which
    case the masked CSR engine runs directly on it (``backend`` is ignored)
    and the cut is measured in the peeled working graph — exactly what the
    dict path measures on the materialised ``G{U}``.

    The walk is generated lazily and scanned step by step; with
    ``adaptive=True`` (default) the scan stops the walk early under the
    shared :class:`~repro.nibble.sweep.WalkBudgetTracker` rule once the
    sweep has stabilised, skipping the remaining walk steps on both
    backends identically.
    """
    if not 1 <= scale <= params.ell:
        raise ValueError(f"scale b={scale} outside 1..ell={params.ell}")
    label = "approximate_nibble" if approximate else "nibble"
    _charge_rounds(report, f"{label}(b={scale})", params)
    stable = ADAPTIVE_STABLE_STEPS if adaptive else None
    if isinstance(graph, PeeledCSR):
        # A peeled view always runs the masked CSR engine: there is no dict
        # graph to fall back to, and the view already *is* the snapshot.
        chosen = "csr"
        if csr is None:
            csr = graph
    else:
        # The backend request wins over a supplied snapshot: an explicit
        # backend="dict" must run the dict engine even if a csr object is
        # around.
        chosen = resolve_backend(graph, backend)
    if chosen == "csr":
        if csr is None:
            csr = CSRGraph.from_graph(graph)
        if start not in csr.index:
            raise KeyError(f"start vertex {start!r} not in graph")
        # walk_iter rejects a peeled start on a view.
        sequence = csr_backend.get_workspace(csr).walk_iter(
            csr.index[start], params.t0, params.epsilon_b(scale)
        )
        return scan_walk_sequence_csr(
            csr,
            sequence,
            scale,
            params,
            start,
            approximate=approximate,
            stable_steps=stable,
        )
    sequence = truncated_walk_iter(graph, start, params.t0, params.epsilon_b(scale))
    return scan_walk_sequence(
        graph,
        sequence,
        scale,
        params,
        start,
        approximate=approximate,
        stable_steps=stable,
    )


def nibble(
    graph: Graph,
    start: Vertex,
    scale: int,
    params: NibbleParameters,
    report: Optional[RoundReport] = None,
    backend: str = "auto",
    csr: Optional[CSRGraph] = None,
    adaptive: bool = True,
) -> Optional[NibbleCut]:
    """Nibble(G, v, φ, b): exhaustive sweep certification (paper Appendix A).

    Returns the best prefix satisfying (C.1)–(C.3) over all time steps (see
    :func:`scan_walk_sequence` for the deviation from the paper's first-hit
    rule), or ``None`` when no prefix of any of the ``t0`` truncated walk
    vectors certifies.

    ``backend`` selects the walk/sweep engine — ``"dict"`` (the reference
    sparse-dictionary path), ``"csr"`` (the vectorized
    :mod:`repro.graphs.csr` path), or ``"auto"`` (CSR above
    :data:`~repro.graphs.csr.CSR_AUTO_THRESHOLD` vertices).  Both produce
    identical cuts; a prebuilt ``csr`` snapshot may be passed to amortise
    conversion across calls on the same graph.  The snapshot is honored
    only when the resolved backend is ``"csr"`` and must describe the
    current state of ``graph`` (rebuild it after any mutation).

    ``adaptive`` toggles the adaptive walk budget (on by default; the
    fast-path parity suite pins that toggling it never changes a cut).
    """
    return _run_nibble(
        graph,
        start,
        scale,
        params,
        report,
        approximate=False,
        backend=backend,
        csr=csr,
        adaptive=adaptive,
    )


def approximate_nibble(
    graph: Graph,
    start: Vertex,
    scale: int,
    params: NibbleParameters,
    report: Optional[RoundReport] = None,
    backend: str = "auto",
    csr: Optional[CSRGraph] = None,
    adaptive: bool = True,
) -> Optional[NibbleCut]:
    """ApproximateNibble: candidate prefixes only, relaxed volume bound (C.3*).

    The O(φ⁻¹ log Vol) candidate prefixes are the only ones a CONGEST node
    set can afford to evaluate; Lemma 4 of the paper shows the relaxation
    preserves the output guarantees up to constants.  ``backend``, ``csr``,
    and ``adaptive`` are as in :func:`nibble`.
    """
    return _run_nibble(
        graph,
        start,
        scale,
        params,
        report,
        approximate=True,
        backend=backend,
        csr=csr,
        adaptive=adaptive,
    )

"""Outside audit of decomposition and triangle outputs.

Every check here is recomputed from the input graph with the benchmark's
own numpy/scipy code; nothing is taken from ``repro.graphs.spectral`` or
from the result's own certificates.  Each function returns a list of
problems (empty means the output passed), so a caller can count a failed
audit as a failed operation and still report why.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

import numpy as np

#: Components up to this size are re-checked by enumerating every cut.
EXACT_LIMIT = 16
#: Slack for the floating-point eigenvalue comparison λ₂/2 ≥ φ.
EIG_TOLERANCE = 1e-9


def _normalise_edges(edges: Iterable[Sequence[Hashable]]) -> list[frozenset]:
    return [frozenset(e) for e in edges if len(frozenset(e)) == 2]


def component_conductance_ok(
    members: Sequence[Hashable],
    degree: dict,
    adjacency: dict,
    phi: float,
) -> bool:
    """Whether G{U} (U = ``members``, with degree-preserving loops) has Φ ≥ φ.

    ``degree`` is the degree in the input graph, so every edge leaving U
    becomes a self loop of its endpoint and volumes are input-graph
    volumes.  Components of at most :data:`EXACT_LIMIT` vertices are
    settled by enumerating every cut; larger ones by Cheeger's lower
    bound Φ ≥ λ₂/2 of the normalised Laplacian.
    """
    n = len(members)
    if n < 2:
        return True
    index = {v: i for i, v in enumerate(members)}
    deg = np.array([degree[v] for v in members], dtype=float)
    if np.any(deg == 0):
        return False  # an isolated vertex inside a multi-vertex component
    rows, cols = [], []
    for v in members:
        i = index[v]
        for u in adjacency[v]:
            j = index.get(u)
            if j is not None:
                rows.append(i)
                cols.append(j)
    rows_a = np.asarray(rows, dtype=np.int64)
    cols_a = np.asarray(cols, dtype=np.int64)
    if n <= EXACT_LIMIT:
        return _exact_conductance(n, rows_a, cols_a, deg) >= phi
    weights = np.zeros((n, n))
    weights[rows_a, cols_a] = 1.0
    inside = weights.sum(axis=1)
    weights[np.arange(n), np.arange(n)] += deg - inside  # the loops of G{U}
    scale = 1.0 / np.sqrt(deg)
    normalised = scale[:, None] * weights * scale[None, :]
    eigenvalues = np.linalg.eigvalsh(normalised)  # ascending; top one is 1
    lam2 = 1.0 - eigenvalues[-2]
    return lam2 / 2.0 + EIG_TOLERANCE >= phi


def _exact_conductance(
    n: int, rows: np.ndarray, cols: np.ndarray, deg: np.ndarray
) -> float:
    """Minimum conductance over every cut of an n-vertex component."""
    masks = np.arange(1, 1 << (n - 1), dtype=np.int64)  # vertex n-1 stays out
    bits = (masks[:, None] >> np.arange(n)) & 1
    volume = bits @ deg
    upper = rows < cols
    crossing = bits[:, rows[upper]] != bits[:, cols[upper]]
    cut = crossing.sum(axis=1)
    smaller = np.minimum(volume, deg.sum() - volume)
    return float(np.min(cut / smaller))


def audit_decomposition(
    vertices: Iterable[Hashable],
    edges: Iterable[Sequence[Hashable]],
    components: Sequence[tuple[Iterable[Hashable], bool]],
    cut_edges: Iterable[Sequence[Hashable]],
    epsilon: float,
    phi: float,
) -> list[str]:
    """Problems with one (ε, φ) expander decomposition of (vertices, edges).

    ``components`` pairs each component's vertex set with its claimed
    ``certified`` flag.  Checks that the components partition V, that the
    reported cut is exactly the set of input edges between components,
    that |cut| ≤ ε·m, and that every component claimed certified really
    has conductance ≥ φ on its own G{U}.
    """
    problems: list[str] = []
    vertex_list = list(vertices)
    edge_list = _normalise_edges(edges)
    label: dict = {}
    for c, (members, _) in enumerate(components):
        for v in members:
            if v in label:
                problems.append(f"vertex {v!r} is in two components")
            label[v] = c
    missing = [v for v in vertex_list if v not in label]
    if missing:
        problems.append(f"{len(missing)} vertices in no component, e.g. {missing[0]!r}")
    extra = set(label) - set(vertex_list)
    if extra:
        problems.append(f"{len(extra)} component vertices not in the input")

    reported = [frozenset(e) for e in cut_edges]
    reported_set = set(reported)
    if len(reported_set) != len(reported):
        problems.append("cut_edges lists an edge twice")
    expected = {e for e in edge_list if len({label.get(v) for v in e}) == 2}
    if reported_set != expected:
        problems.append(
            f"cut_edges differs from the inter-component edges: "
            f"{len(reported_set - expected)} extra, {len(expected - reported_set)} missing"
        )
    if len(reported) > epsilon * len(edge_list):
        problems.append(f"|cut|={len(reported)} exceeds ε·m={epsilon * len(edge_list):g}")

    adjacency: dict = {v: [] for v in vertex_list}
    for e in edge_list:
        u, v = tuple(e)
        adjacency[u].append(v)
        adjacency[v].append(u)
    degree = {v: len(nbrs) for v, nbrs in adjacency.items()}
    for c, (members, certified) in enumerate(components):
        if not certified:
            continue
        members = [v for v in members if v in adjacency]
        if not component_conductance_ok(members, degree, adjacency, phi):
            problems.append(f"component {c} (n={len(members)}) is certified but Φ < φ")
    return problems


def sparse_triangle_count(
    vertices: Sequence[Hashable], edges: Iterable[Sequence[Hashable]]
) -> int:
    """Triangles of the input graph, counted as trace(A³)/6 on a sparse A."""
    import scipy.sparse as sp

    index = {v: i for i, v in enumerate(vertices)}
    pairs = np.array(
        [(index[u], index[v]) for u, v in (tuple(e) for e in _normalise_edges(edges))],
        dtype=np.int64,
    ).reshape(-1, 2)
    n = len(index)
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    adjacency = sp.csr_matrix(
        (np.ones(len(rows), dtype=np.int64), (rows, cols)), shape=(n, n)
    )
    return int((adjacency @ adjacency).multiply(adjacency).sum()) // 6


def audit_triangles(
    vertices: Sequence[Hashable],
    edges: Iterable[Sequence[Hashable]],
    triangles: Iterable[Iterable[Hashable]],
) -> list[str]:
    """Problems with a reported triangle set of (vertices, edges).

    Every reported triple must be three distinct vertices joined pairwise
    by input edges, no triple may repeat, and their number must equal an
    independent sparse count.  Together these pin the set exactly.
    """
    problems: list[str] = []
    edge_list = _normalise_edges(edges)
    edge_set = set(edge_list)
    seen: set = set()
    bad = 0
    for triple in triangles:
        members = frozenset(triple)
        if len(members) != 3:
            bad += 1
            continue
        a, b, c = tuple(members)
        if not (
            frozenset((a, b)) in edge_set
            and frozenset((b, c)) in edge_set
            and frozenset((a, c)) in edge_set
        ):
            bad += 1
        seen.add(members)
    if bad:
        problems.append(f"{bad} reported triples are not triangles")
    expected_count = sparse_triangle_count(vertices, edge_list)
    if len(seen) != expected_count:
        problems.append(
            f"{len(seen)} distinct triangles reported, the sparse count is {expected_count}"
        )
    return problems

"""The outside audit must catch every kind of corrupted output."""

import itertools

import pytest

from audit import _exact_conductance, audit_decomposition, audit_triangles
from repro.decomposition import expander_decomposition
from repro.graphs.generators import ring_of_cliques, triangle_rich_graph
from repro.triangles import decomposition_triangle_enumeration

import numpy as np

EPS, PHI = 0.1, 0.1


def _decompose(cliques: int, size: int):
    graph = ring_of_cliques(cliques, size)
    result = expander_decomposition(graph, EPS, PHI, seed=3)
    components = [(set(c.vertices), c.certified) for c in result.components]
    return list(graph.vertices()), list(graph.edges()), components, list(result.cut_edges)


@pytest.fixture(scope="module")
def small():
    return _decompose(6, 5)


@pytest.fixture(scope="module")
def large():
    return _decompose(4, 10)


def test_real_outputs_pass(small, large):
    for vertices, edges, components, cut in (small, large):
        assert all(ok for _, ok in components)
        assert audit_decomposition(vertices, edges, components, cut, EPS, PHI) == []


def test_dropped_vertex_is_caught(small):
    vertices, edges, components, cut = small
    broken = [(set(members), ok) for members, ok in components]
    broken[0][0].pop()
    problems = audit_decomposition(vertices, edges, broken, cut, EPS, PHI)
    assert any("in no component" in p for p in problems)


def test_extra_cut_edge_is_caught(small):
    vertices, edges, components, cut = small
    members = sorted(components[0][0])
    extra = cut + [(members[0], members[1])]
    problems = audit_decomposition(vertices, edges, components, extra, EPS, PHI)
    assert any("inter-component" in p for p in problems)


def test_budget_overrun_is_caught(small):
    vertices, edges, components, cut = small
    problems = audit_decomposition(vertices, edges, components, cut, 0.001, PHI)
    assert any("exceeds" in p for p in problems)


@pytest.mark.parametrize("which", ["small", "large"])
def test_wrongly_certified_component_is_caught(which, small, large):
    """Two cliques merged across their ring edge are no φ-expander.

    The small case (10 vertices) is settled by enumeration, the large one
    (20 vertices) by the eigenvalue bound.
    """
    vertices, edges, components, cut = small if which == "small" else large
    edge_set = {frozenset(e) for e in edges}
    a, b = next(
        (i, j)
        for i, j in itertools.combinations(range(len(components)), 2)
        if any(frozenset(e) in edge_set and frozenset(e) & components[i][0]
               and frozenset(e) & components[j][0] for e in cut)
    )
    merged = components[a][0] | components[b][0]
    broken = [c for k, c in enumerate(components) if k not in (a, b)] + [(merged, True)]
    kept_cut = [e for e in cut if not frozenset(e) <= merged]
    problems = audit_decomposition(vertices, edges, broken, kept_cut, EPS, PHI)
    assert problems == [f"component {len(broken) - 1} (n={len(merged)}) is certified but Φ < φ"]


def test_exact_conductance_of_two_joined_triangles():
    # triangles {0,1,2} and {3,4,5} joined by edge 2-3: best cut 1/7
    pairs = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
    rows = np.array([u for u, v in pairs] + [v for u, v in pairs])
    cols = np.array([v for u, v in pairs] + [u for u, v in pairs])
    deg = np.bincount(rows, minlength=6).astype(float)
    assert _exact_conductance(6, rows, cols, deg) == pytest.approx(1 / 7)


@pytest.fixture(scope="module")
def triangle_case():
    graph = triangle_rich_graph(60, 0.3, seed=5)
    result = decomposition_triangle_enumeration(graph, seed=5)
    return list(graph.vertices()), list(graph.edges()), set(result.triangles)


def test_real_triangles_pass(triangle_case):
    vertices, edges, triangles = triangle_case
    assert audit_triangles(vertices, edges, triangles) == []


def test_missing_triangle_is_caught(triangle_case):
    vertices, edges, triangles = triangle_case
    fewer = set(triangles)
    fewer.pop()
    problems = audit_triangles(vertices, edges, fewer)
    assert any("sparse count" in p for p in problems)


def test_false_triangle_is_caught(triangle_case):
    vertices, edges, triangles = triangle_case
    edge_set = {frozenset(e) for e in edges}
    fake = next(
        frozenset(t)
        for t in itertools.combinations(vertices, 3)
        if frozenset(t[:2]) not in edge_set
    )
    swapped = set(triangles)
    swapped.pop()
    swapped.add(fake)
    problems = audit_triangles(vertices, edges, swapped)
    assert problems == ["1 reported triples are not triangles"]

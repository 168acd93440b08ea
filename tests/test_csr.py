"""Dict-vs-CSR backend parity: the randomized property harness.

The CSR walk engine (`repro.graphs.csr`) promises *bit-identical* results to
the reference dict backend — same walk vectors, same sweep statistics, same
certified cuts — because both accumulate floating-point mass in the same
canonical order.  These tests pin that promise on randomized graphs (the
property harness ROADMAP asked for) and on every benchmark family; the
full-pipeline matrix (decompositions and sparse cuts across every backend
configuration) lives in ``tests/differential/``.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.graphs import csr as csr_backend
from repro.graphs.csr import CSR_AUTO_THRESHOLD, CSRGraph, get_workspace, resolve_backend
from repro.graphs.generators import (
    barbell_expanders,
    erdos_renyi_graph,
    planted_partition_graph,
    power_law_graph,
    random_regular_graph,
    ring_of_cliques,
)
from repro.graphs.graph import Graph
from repro.nibble.nibble import approximate_nibble, nibble
from repro.nibble.parameters import NibbleParameters
from repro.nibble.sweep import build_sweep, candidate_indices
from repro.walks.lazy_walk import lazy_walk_step, truncate, truncated_walk_iter


def random_graphs(num: int = 6) -> list[Graph]:
    """A spread of random test graphs, some with self loops (via G{S})."""
    graphs = []
    for seed in range(num):
        g = erdos_renyi_graph(24 + 4 * seed, 0.15 + 0.05 * (seed % 3), seed=seed)
        graphs.append(g)
        # G{S} of a random half: exercises self loops and degree preservation
        rng = np.random.default_rng(seed)
        vertices = list(g.vertices())
        half = [v for v in vertices if rng.random() < 0.5]
        if len(half) >= 2:
            graphs.append(g.induced_with_loops(half))
    graphs.append(random_regular_graph(30, 4, seed=11))
    graphs.append(power_law_graph(40, seed=13))
    return graphs


def family_graphs() -> list[tuple[str, Graph]]:
    """The four benchmark families at test-friendly sizes."""
    return [
        ("ring_of_cliques", ring_of_cliques(6, 8)),
        ("barbell", barbell_expanders(32, seed=7)),
        ("planted", planted_partition_graph(4, 12, 0.7, 0.02, seed=7)),
        ("power_law", power_law_graph(80, seed=7)),
    ]


def assert_mass_equal(csr: CSRGraph, sparse, dense_dict):
    """Sparse CSR mass and dict mass must agree exactly (support and bits)."""
    converted = csr_backend.mass_to_dict(csr, sparse)
    assert set(converted) == set(dense_dict)
    for v, mass in dense_dict.items():
        assert converted[v] == mass  # bit-identical, not approx


class TestCSRGraphStructure:
    def test_degrees_volume_and_index_are_consistent(self):
        for g in random_graphs():
            csr = CSRGraph.from_graph(g)
            assert csr.n == g.num_vertices
            assert csr.total_volume == g.total_volume()
            for i, v in enumerate(csr.vertices):
                assert csr.index[v] == i
                assert int(csr.degree[i]) == g.degree(v)
                assert int(csr.proper_degree[i]) == len(g.neighbors(v))
                assert int(csr.loops[i]) == g.self_loops(v)
                nbrs = {csr.vertices[int(j)] for j in csr.neighbors(i)}
                assert nbrs == g.neighbors(v)

    def test_adjacency_is_symmetric_and_sorted(self):
        for g in random_graphs(3):
            csr = CSRGraph.from_graph(g)
            for i in range(csr.n):
                row = csr.neighbors(i)
                assert list(row) == sorted(row)
                for j in row:
                    assert i in csr.neighbors(int(j))

    def test_roundtrip_to_graph(self):
        for g in random_graphs(3):
            back = CSRGraph.from_graph(g).to_graph()
            assert set(back.vertices()) == set(g.vertices())
            for v in g.vertices():
                assert back.neighbors(v) == g.neighbors(v)
                assert back.self_loops(v) == g.self_loops(v)

    def test_resolve_backend(self):
        small = ring_of_cliques(2, 4)
        assert resolve_backend(small, "dict") == "dict"
        assert resolve_backend(small, "csr") == "csr"
        assert resolve_backend(small, "auto") == "dict"
        big = Graph(vertices=range(CSR_AUTO_THRESHOLD))
        assert resolve_backend(big, "auto") == "csr"
        with pytest.raises(ValueError):
            resolve_backend(small, "numpy")


class TestWalkParity:
    def test_single_step_bit_identical(self):
        for g in random_graphs():
            if g.num_vertices == 0:
                continue
            csr = CSRGraph.from_graph(g)
            start = csr.vertices[0]
            p_dict = {start: 1.0}
            p_dense = np.zeros(csr.n)
            p_dense[0] = 1.0
            for _ in range(4):
                p_dict = lazy_walk_step(g, p_dict)
                p_dense = csr_backend.lazy_walk_step(csr, p_dense)
                assert_mass_equal(csr, csr_backend.sparsify(p_dense), p_dict)

    def test_truncation_bit_identical(self):
        for g in random_graphs(4):
            csr = CSRGraph.from_graph(g)
            rng = np.random.default_rng(42)
            dense = rng.random(csr.n)
            as_dict = csr_backend.mass_to_dict(csr, csr_backend.sparsify(dense))
            for eps in (1e-4, 1e-2, 0.05):
                assert_mass_equal(
                    csr,
                    csr_backend.sparsify(csr_backend.truncate(csr, dense, eps)),
                    truncate(g, as_dict, eps),
                )

    def test_truncated_sequences_bit_identical(self):
        for g in random_graphs():
            if g.total_volume() == 0:
                continue
            csr = CSRGraph.from_graph(g)
            params = NibbleParameters.practical(g, 0.15)
            start = csr.vertices[len(csr.vertices) // 2]
            for scale in (1, params.ell):
                eps = params.epsilon_b(scale)
                dict_seq = list(truncated_walk_iter(g, start, params.t0, eps))
                csr_seq = list(
                    get_workspace(csr).walk_iter(csr.index[start], params.t0, eps)
                )
                assert len(dict_seq) == len(csr_seq)
                for dict_mass, sparse in zip(dict_seq, csr_seq):
                    assert_mass_equal(csr, sparse, dict_mass)

    def test_missing_start_raises_keyerror(self):
        g = ring_of_cliques(2, 4)
        csr = CSRGraph.from_graph(g)
        for start in (-1, csr.n, csr.n + 3):
            with pytest.raises(KeyError):
                next(get_workspace(csr).walk_iter(start, 5, 0.01))


class TestSweepParity:
    def sweeps(self, g: Graph, csr: CSRGraph, seed: int):
        """Paired (dict, csr) sweeps of a few random mass vectors."""
        rng = np.random.default_rng(seed)
        for _ in range(3):
            dense = np.where(rng.random(csr.n) < 0.6, rng.random(csr.n), 0.0)
            mass = csr_backend.mass_to_dict(csr, csr_backend.sparsify(dense))
            if not mass:
                continue
            yield build_sweep(g, mass), csr_backend.build_sweep(
                csr, csr_backend.sparsify(dense)
            )

    def test_order_and_prefix_statistics_identical(self):
        for seed, g in enumerate(random_graphs()):
            csr = CSRGraph.from_graph(g)
            for dict_state, csr_state in self.sweeps(g, csr, seed):
                assert csr_state.jmax == dict_state.jmax
                order = [csr.vertices[int(i)] for i in csr_state.order]
                assert order == dict_state.order
                assert list(csr_state.prefix_volume) == dict_state.prefix_volume
                assert list(csr_state.prefix_cut) == dict_state.prefix_cut
                conds = csr_state.conductances()
                for j in range(1, dict_state.jmax + 1):
                    assert conds[j - 1] == dict_state.conductance(j)

    def long_sweeps(self):
        """Paired sweeps of exactly ``jmax`` support vertices: the edge
        cases 1 and 2, both sides of 512, and long sweeps up to 10⁴."""
        g = power_law_graph(10_000, seed=5)
        csr = CSRGraph.from_graph(g)
        rng = np.random.default_rng(7)
        for jmax in (1, 2, 511, 512, 513, 2000, 10_000):
            support = np.sort(rng.choice(csr.n, size=jmax, replace=False))
            sparse = (support, rng.random(jmax) + 1e-3)
            yield build_sweep(
                g, csr_backend.mass_to_dict(csr, sparse)
            ), csr_backend.build_sweep(csr, sparse)

    def test_candidate_indices_identical(self):
        # candidate_indices_from_volumes is the entry the CSR scan actually
        # calls — compare it against the dict backend's construction and
        # against the definition, scanned linearly.
        def by_definition(volumes, phi):
            jmax = len(volumes) - 1
            candidates = [1] if jmax else []
            while candidates and candidates[-1] < jmax:
                prev = candidates[-1]
                j = max(
                    k for k in range(jmax + 1) if volumes[k] <= (1.0 + phi) * volumes[prev]
                )
                candidates.append(min(max(prev + 1, j), jmax))
            return candidates

        random_sweeps = (
            pair
            for seed, g in enumerate(random_graphs(4))
            for pair in self.sweeps(g, CSRGraph.from_graph(g), seed + 100)
        )
        for dict_state, csr_state in itertools.chain(random_sweeps, self.long_sweeps()):
            assert csr_state.jmax == dict_state.jmax
            for phi in (0.01, 0.05, 0.1, 0.2, 0.5):
                got = csr_backend.candidate_indices_from_volumes(
                    csr_state.prefix_volume, phi
                )
                assert got == candidate_indices(dict_state, phi)
                if csr_state.jmax <= 2000:
                    assert got == by_definition(dict_state.prefix_volume, phi)

    def test_prefix_cut_matches_graph_profile(self):
        for g in random_graphs(4):
            csr = CSRGraph.from_graph(g)
            idx = np.flatnonzero(csr.degree)
            state = csr_backend.build_sweep(csr, (idx, csr.degree[idx] / csr.total_volume))
            order = [csr.vertices[int(i)] for i in state.order]
            volumes, cuts = g.prefix_cut_profile(order)
            assert list(state.prefix_volume) == volumes
            assert list(state.prefix_cut) == cuts


class TestCutParity:
    def test_nibble_cuts_identical_on_random_graphs(self):
        for seed, g in enumerate(random_graphs()):
            if g.total_volume() == 0:
                continue
            params = NibbleParameters.practical(g, 0.2)
            csr = CSRGraph.from_graph(g)
            start = csr.vertices[seed % csr.n]
            for scale in (1, max(1, params.ell // 2)):
                for fn in (nibble, approximate_nibble):
                    dict_cut = fn(g, start, scale, params, backend="dict")
                    csr_cut = fn(g, start, scale, params, backend="csr", csr=csr)
                    assert dict_cut == csr_cut

    def test_nibble_cuts_identical_on_families(self):
        for _, g in family_graphs():
            params = NibbleParameters.practical(g, 0.1)
            csr = CSRGraph.from_graph(g)
            for start in (csr.vertices[0], csr.vertices[csr.n // 2]):
                for scale in (1, params.ell):
                    assert nibble(g, start, scale, params, backend="dict") == nibble(
                        g, start, scale, params, backend="csr"
                    )
                    assert approximate_nibble(
                        g, start, scale, params, backend="dict"
                    ) == approximate_nibble(g, start, scale, params, backend="csr")

    def test_scale_out_of_range_raises_on_both_backends(self):
        g = ring_of_cliques(3, 5)
        params = NibbleParameters.practical(g, 0.1)
        for backend in ("dict", "csr"):
            with pytest.raises(ValueError):
                nibble(g, next(iter(g.vertices())), params.ell + 1, params, backend=backend)


# Full-pipeline parity (sparse cuts and decompositions across backends)
# lives in tests/differential/test_pipeline.py, which drives the complete
# backend matrix — dict / csr / int32 / int64 / workspace / mmap / fast
# path — through every generator family via assert_pipeline_identical.

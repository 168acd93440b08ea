"""The incremental peeling engine: PeeledCSR vs the dict reference.

Three layers of pinning:

* structural — a peeled view is *equal* (degrees, loops, residual edges,
  volumes) to the ``G{U}`` the dict path materialises, peeling is path
  independent, and compaction changes nothing;
* kernel — masked walks and sweeps are bit-identical to the dict backend
  run on the materialised ``G{U}``;
* pipeline — RandomNibble start draws, multi-cut harvests, sparse cuts,
  and whole decompositions coincide across ``dict`` / ``csr`` / ``auto``
  and direct ``PeeledCSR`` inputs for a shared seed.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.decomposition import (
    expander_decomposition,
    harvest_disjoint_cuts,
    nearly_most_balanced_sparse_cut,
    parallel_nibble,
    parallel_nibble_cuts,
    random_nibble,
)
from repro.graphs import csr as csr_backend
from repro.graphs.csr import CSRGraph, get_workspace
from repro.graphs.generators import (
    barbell_expanders,
    erdos_renyi_graph,
    planted_partition_graph,
    power_law_graph,
    ring_of_cliques,
)
from repro.graphs.graph import Graph
from repro.graphs import peel as peel_backend
from repro.graphs.peel import PeeledCSR, maybe_compact
from repro.nibble.nibble import NibbleCut, approximate_nibble
from repro.nibble.parameters import NibbleParameters
from repro.nibble.sweep import build_sweep as dict_build_sweep
from repro.walks.lazy_walk import truncated_walk_iter as dict_walk_iter
from repro.utils.rng import ensure_rng


def random_cases(num: int = 5):
    """(host graph, subset) pairs over random graphs, subsets of ~60%."""
    cases = []
    for seed in range(num):
        g = erdos_renyi_graph(26 + 3 * seed, 0.16, seed=seed)
        rng = np.random.default_rng(seed + 50)
        subset = [v for v in g.vertices() if rng.random() < 0.6]
        if len(subset) >= 3:
            cases.append((g, subset))
    return cases


def family_graphs() -> list[tuple[str, Graph]]:
    """The four benchmark families at test-friendly sizes."""
    return [
        ("ring_of_cliques", ring_of_cliques(6, 8)),
        ("barbell", barbell_expanders(32, seed=7)),
        ("planted", planted_partition_graph(4, 12, 0.7, 0.02, seed=7)),
        ("power_law", power_law_graph(80, seed=7)),
    ]


class TestStructure:
    def test_for_subset_equals_induced_with_loops(self):
        for g, subset in random_cases():
            base = CSRGraph.from_graph(g)
            view = PeeledCSR.for_subset(base, (base.index[v] for v in subset))
            work = g.induced_with_loops(subset)
            assert view.num_edges == work.num_edges
            assert view.total_volume == work.total_volume()
            assert view.num_vertices == work.num_vertices
            for v in subset:
                i = base.index[v]
                assert int(view.proper_degree[i]) == work.proper_degree(v)
                assert int(view.loops[i]) == work.self_loops(v)
                assert int(view.degree[i]) == work.degree(v)  # INV-1

    def test_peel_matches_remove_j_plus_vertex_drop(self):
        for g, subset in random_cases():
            view = PeeledCSR.from_graph(g)
            reference = g.copy()
            for u, v in reference.cut_edges(set(subset)):
                reference.remove_edge_with_loops(u, v)
            for v in subset:
                reference.remove_vertex(v)
            view.peel(view.indices_of(subset))
            assert view.num_edges == reference.num_edges
            assert view.total_volume == reference.total_volume()
            materialised = view.to_graph()
            assert set(materialised.vertices()) == set(reference.vertices())
            for v in reference.vertices():
                assert materialised.neighbors(v) == reference.neighbors(v)
                assert materialised.self_loops(v) == reference.self_loops(v)

    def test_peeling_is_path_independent(self):
        for g, subset in random_cases(3):
            base = CSRGraph.from_graph(g)
            keep = sorted(base.index[v] for v in subset)
            direct = PeeledCSR.for_subset(base, keep)
            stepped = PeeledCSR.full(base)
            complement = [i for i in range(base.n) if i not in set(keep)]
            # peel the complement in three arbitrary chunks
            stepped.peel(complement[::3])
            stepped.peel(complement[1::3])
            stepped.peel(complement[2::3])
            assert np.array_equal(stepped.alive, direct.alive)
            assert np.array_equal(stepped.proper_degree, direct.proper_degree)
            assert np.array_equal(stepped.loops, direct.loops)
            assert stepped.total_volume == direct.total_volume
            assert stepped.num_edges == direct.num_edges

    def test_peel_ignores_dead_and_returns_alive_count(self):
        g = ring_of_cliques(3, 5)
        view = PeeledCSR.from_graph(g)
        first = view.peel([0, 1, 2])
        again = view.peel([0, 1, 2])
        assert first == 3 and again == 0

    def test_peel_and_volume_treat_duplicates_as_a_set(self):
        """Regression: duplicated indices used to apply boundary compensation
        and volume decrements once per copy, corrupting every invariant."""
        g = Graph(edges=[(0, 1), (1, 2)])
        view = PeeledCSR.from_graph(g)
        doubled = view.volume(np.asarray([1, 1]))
        assert doubled == view.volume([1]) == 2
        assert view.peel(np.asarray([1, 1, 1])) == 1
        reference = PeeledCSR.from_graph(g)
        reference.peel([1])
        assert np.array_equal(view.proper_degree, reference.proper_degree)
        assert np.array_equal(view.loops, reference.loops)
        assert view.total_volume == reference.total_volume == 2
        assert view.num_edges == reference.num_edges == 0

    def test_peel_to_empty(self):
        for g, _ in random_cases(2):
            view = PeeledCSR.from_graph(g)
            view.peel(np.arange(view.n))
            assert view.num_edges == 0
            assert view.total_volume == 0
            assert view.num_vertices == 0
            assert view.connected_components() == []
            assert view.to_graph().num_vertices == 0

    def test_compact_preserves_everything(self):
        for g, subset in random_cases(3):
            base = CSRGraph.from_graph(g)
            view = PeeledCSR.for_subset(base, (base.index[v] for v in subset))
            compacted = view.compact()
            assert compacted.n == len(subset)
            assert compacted.num_edges == view.num_edges
            assert compacted.total_volume == view.total_volume
            ref = view.to_graph()
            got = compacted.to_graph()
            assert set(got.vertices()) == set(ref.vertices())
            for v in ref.vertices():
                assert got.neighbors(v) == ref.neighbors(v)
                assert got.self_loops(v) == ref.self_loops(v)

    def test_maybe_compact_threshold(self):
        g = ring_of_cliques(8, 8)
        base = CSRGraph.from_graph(g)
        big = PeeledCSR.for_subset(base, range(40))
        assert maybe_compact(big) is big  # > half alive: untouched
        small = PeeledCSR.for_subset(base, range(16))
        compacted = maybe_compact(small)
        assert compacted is not small and compacted.n == 16


class TestMaskedKernels:
    def test_walk_and_sweep_bit_identical_to_dict_on_guq(self):
        for g, subset in random_cases():
            base = CSRGraph.from_graph(g)
            view = PeeledCSR.for_subset(base, (base.index[v] for v in subset))
            work = g.induced_with_loops(subset)
            params = NibbleParameters.practical(work, 0.15)
            start = sorted(subset, key=repr)[0]
            for scale in (1, params.ell):
                eps = params.epsilon_b(scale)
                dict_seq = list(dict_walk_iter(work, start, params.t0, eps))
                peel_seq = list(
                    get_workspace(view).walk_iter(base.index[start], params.t0, eps)
                )
                assert len(dict_seq) == len(peel_seq)
                for mass_dict, sparse in zip(dict_seq, peel_seq):
                    converted = csr_backend.mass_to_dict(view, sparse)
                    assert set(converted) == set(mass_dict)
                    for v, m in mass_dict.items():
                        assert converted[v] == m  # bit-identical
                for mass_dict, sparse in zip(dict_seq, peel_seq):
                    if not mass_dict:
                        break
                    ds = dict_build_sweep(work, mass_dict)
                    for ps in (
                        get_workspace(view).build_sweep(sparse),
                        peel_backend.build_sweep(view, sparse),
                    ):
                        assert [view.vertices[int(i)] for i in ps.order] == ds.order
                        assert list(ps.prefix_volume) == ds.prefix_volume
                        assert list(ps.prefix_cut) == ds.prefix_cut
                # the dense single-step kernels follow the same masked contract
                dense = np.zeros(view.n)
                dense[base.index[start]] = 1.0
                stepped = csr_backend.truncated_walk_step(view, dense, eps)
                assert csr_backend.mass_to_dict(view, csr_backend.sparsify(stepped)) == dict_seq[1]

    def test_nibble_cut_identical_on_view_and_guq(self):
        for g, subset in random_cases(4):
            base = CSRGraph.from_graph(g)
            view = PeeledCSR.for_subset(base, (base.index[v] for v in subset))
            work = g.induced_with_loops(subset)
            params = NibbleParameters.practical(work, 0.2)
            start = sorted(subset, key=repr)[len(subset) // 2]
            dict_cut = approximate_nibble(work, start, 1, params, backend="dict")
            peel_cut = approximate_nibble(view, start, 1, params)
            compact_cut = approximate_nibble(view.compact(), start, 1, params)
            assert dict_cut == peel_cut == compact_cut

    def test_connected_components_match_and_are_canonically_ordered(self):
        for g, subset in random_cases():
            base = CSRGraph.from_graph(g)
            view = PeeledCSR.for_subset(base, (base.index[v] for v in subset))
            work = g.induced_with_loops(subset)
            got = view.connected_components()
            expected = work.connected_components()
            assert sorted(map(frozenset, got), key=repr) == sorted(
                map(frozenset, expected), key=repr
            )
            reps = [min(map(repr, piece)) for piece in got]
            assert reps == sorted(reps)  # ascending smallest-repr order

    def test_cut_queries_match_graph(self):
        for g, subset in random_cases(4):
            base = CSRGraph.from_graph(g)
            view = PeeledCSR.for_subset(base, (base.index[v] for v in subset))
            work = g.induced_with_loops(subset)
            half = set(sorted(subset, key=repr)[: len(subset) // 2])
            idx = view.indices_of(half)
            assert view.cut_size(idx) == work.cut_size(half)
            assert view.volume(idx) == work.volume(half)
            assert view.conductance_of_cut(idx) == work.conductance_of_cut(half)
            assert view.balance_of_cut(idx) == work.balance_of_cut(half)
            assert Counter(map(frozenset, view.cut_edges(idx))) == Counter(
                map(frozenset, work.cut_edges(half))
            )

    def test_sample_start_in_lockstep_with_dict_random_nibble(self):
        for g, subset in random_cases(4):
            base = CSRGraph.from_graph(g)
            view = PeeledCSR.for_subset(base, (base.index[v] for v in subset))
            work = g.induced_with_loops(subset)
            params = NibbleParameters.practical(work, 0.2)
            for seed in range(4):
                dict_cut = random_nibble(work, params, rng=seed, backend="dict")
                peel_cut = random_nibble(view, params, rng=seed)
                assert dict_cut == peel_cut


class TestHarvest:
    @staticmethod
    def _cut(vertices, conductance, volume):
        return NibbleCut(
            vertices=frozenset(vertices),
            conductance=conductance,
            volume=volume,
            cut_size=1,
            time_step=1,
            prefix_index=len(vertices),
            scale=1,
            start=next(iter(vertices)),
        )

    def test_harvest_orders_and_drops_overlaps(self):
        a = self._cut({1, 2}, 0.05, 10)
        b = self._cut({2, 3}, 0.02, 8)  # best conductance, overlaps a
        c = self._cut({4, 5}, 0.05, 12)  # ties a on Φ, larger volume
        d = self._cut({5, 6}, 0.5, 4)  # overlaps c
        picked = harvest_disjoint_cuts([a, b, c, d, None])
        assert picked == [b, c]  # b first (lowest Φ), a killed by overlap

    def test_harvest_is_stable_on_full_ties(self):
        a = self._cut({1}, 0.1, 5)
        b = self._cut({2}, 0.1, 5)
        assert harvest_disjoint_cuts([a, b]) == [a, b]
        assert harvest_disjoint_cuts([b, a]) == [b, a]

    def test_parallel_nibble_best_is_head_of_harvest(self):
        g = ring_of_cliques(6, 8)
        params = NibbleParameters.practical(g, 0.1)
        cuts = parallel_nibble_cuts(g, params, 8, rng=3)
        best = parallel_nibble(g, params, 8, rng=3)
        assert cuts and best == cuts[0]
        seen: set = set()
        for cut in cuts:
            assert seen.isdisjoint(cut.vertices)
            seen |= set(cut.vertices)

    def test_batch_harvests_multiple_cliques_per_batch(self):
        g = ring_of_cliques(8, 8)
        result = nearly_most_balanced_sparse_cut(g, 0.1, seed=7, num_instances=8)
        assert not result.is_empty
        # the harvest peels several cliques per batch: far fewer batches
        # than cliques accumulated
        assert result.batches <= 2


class TestPipelineParity:
    def test_sparse_cut_identical_across_all_engines(self):
        for name, g in family_graphs():
            dict_result = nearly_most_balanced_sparse_cut(g, 0.1, seed=7, backend="dict")
            csr_result = nearly_most_balanced_sparse_cut(g, 0.1, seed=7, backend="csr")
            peel_result = nearly_most_balanced_sparse_cut(
                PeeledCSR.from_graph(g), 0.1, seed=7
            )
            assert dict_result.cut == csr_result.cut == peel_result.cut, name
            assert dict_result.batches == csr_result.batches == peel_result.batches
            assert (
                dict_result.conductance
                == csr_result.conductance
                == peel_result.conductance
            )
            assert (
                dict_result.certified_no_cut
                == csr_result.certified_no_cut
                == peel_result.certified_no_cut
            )

    def test_decomposition_identical_across_all_engines(self):
        for name, g in family_graphs():
            results = [
                expander_decomposition(g, 0.2, 0.1, seed=7, backend=b)
                for b in ("dict", "csr", "auto")
            ]
            reference = {c.vertices for c in results[0].components}
            reference_cuts = Counter(frozenset(e) for e in results[0].cut_edges)
            for r in results[1:]:
                assert {c.vertices for c in r.components} == reference, name
                assert Counter(frozenset(e) for e in r.cut_edges) == reference_cuts

    def test_sparse_cut_measured_in_input_graph_on_peel_path(self):
        g = barbell_expanders(32, seed=7)
        found = nearly_most_balanced_sparse_cut(g, 0.1, seed=7, backend="csr")
        assert not found.is_empty
        assert found.conductance == pytest.approx(g.conductance_of_cut(found.cut))
        assert found.cut_size == g.cut_size(found.cut)
        assert found.balance == pytest.approx(g.balance_of_cut(found.cut))

    def test_auto_mixes_engines_per_level_and_stays_identical(self, monkeypatch):
        """With the auto threshold forced low, the recursion genuinely mixes
        peeled-CSR top levels with dict deep levels — and must still equal
        the pure dict and pure csr runs."""
        import repro.graphs.csr as csr_module

        monkeypatch.setattr(csr_module, "CSR_AUTO_THRESHOLD", 16)
        for name, g in family_graphs()[:2]:
            results = [
                expander_decomposition(g, 0.2, 0.1, seed=11, backend=b)
                for b in ("dict", "csr", "auto")
            ]
            reference = {c.vertices for c in results[0].components}
            for r in results[1:]:
                assert {c.vertices for c in r.components} == reference, name

    def test_peeled_input_rejects_nothing_alive(self):
        g = ring_of_cliques(2, 4)
        view = PeeledCSR.from_graph(g)
        view.peel(np.arange(view.n))
        params = NibbleParameters.practical(g, 0.2)
        rng = ensure_rng(0)
        assert view.sample_start(rng) is None
        assert random_nibble(view, params, rng=rng) is None

    def test_nibble_rejects_peeled_start_vertex(self):
        """Regression: a peeled label still resolves through the base index,
        and a walk seeded there used to leak mass through the base adjacency
        into a nonsense "certified" cut (negative conductance)."""
        g = ring_of_cliques(4, 8)
        view = PeeledCSR.from_graph(g)
        clique = [v for v in g.vertices() if v[0] == 0]
        view.peel(view.indices_of(clique))
        params = NibbleParameters.practical(g, 0.1)
        with pytest.raises(KeyError):
            approximate_nibble(view, clique[0], 1, params)

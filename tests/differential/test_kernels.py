"""Granular kernel parity: workspace walks and sweeps vs the oracles.

The pipeline matrix (test_pipeline.py) pins end-to-end identity; this
module pins the individual :class:`WalkWorkspace` kernels — truncated walk
sequences and sweep construction — step by step and field by field against
the dict oracle (and the sweep against the dense CSR step-level reference),
plus the CSR scan built on them against the dict scan, so a divergence is
localised to the exact step and vector that drifted.
"""

import numpy as np
import pytest

from diffharness import generator_families
from repro.graphs import csr as csr_backend
from repro.graphs.csr import CSRGraph, WalkWorkspace, get_workspace
from repro.graphs.generators import erdos_renyi_graph
from repro.nibble.nibble import scan_walk_sequence, scan_walk_sequence_csr
from repro.nibble.parameters import NibbleParameters
from repro.nibble.sweep import build_sweep as dict_build_sweep
from repro.nibble.sweep import candidate_indices
from repro.graphs.peel import PeeledCSR
from repro.walks.lazy_walk import truncated_walk_iter as dict_walk_iter


def walk_graphs():
    """Family instances plus loop-bearing random graphs (via G{S})."""
    graphs = [g for _, g in generator_families()]
    for seed in (0, 1):
        g = erdos_renyi_graph(26, 0.2, seed=seed)
        graphs.append(g)
        rng = np.random.default_rng(seed)
        half = [v for v in g.vertices() if rng.random() < 0.5]
        if len(half) >= 2:
            graphs.append(g.induced_with_loops(half))
    return graphs


def assert_same_mass(csr, sparse, dense_dict):
    converted = csr_backend.mass_to_dict(csr, sparse)
    assert set(converted) == set(dense_dict)
    for v, mass in dense_dict.items():
        assert converted[v] == mass  # bit-identical, not approx


class TestWorkspaceWalkParity:
    def test_walk_iter_matches_dict_sequences(self):
        for g in walk_graphs():
            if g.total_volume() == 0:
                continue
            csr = CSRGraph.from_graph(g)
            ws = WalkWorkspace(csr)
            params = NibbleParameters.practical(g, 0.15)
            start = csr.vertices[len(csr.vertices) // 2]
            for scale in (1, params.ell):
                eps = params.epsilon_b(scale)
                dict_seq = list(dict_walk_iter(g, start, params.t0, eps))
                ws_seq = list(ws.walk_iter(csr.index[start], params.t0, eps))
                assert len(ws_seq) == len(dict_seq)
                for ws_mass, dict_mass in zip(ws_seq, dict_seq):
                    assert_same_mass(csr, ws_mass, dict_mass)

    def test_workspace_reuse_across_walks_stays_identical(self):
        """One workspace serving many walks (the production pattern) must
        give the same vectors as a fresh workspace per walk."""
        g = walk_graphs()[0]
        csr = CSRGraph.from_graph(g)
        shared = WalkWorkspace(csr)
        params = NibbleParameters.practical(g, 0.1)
        eps = params.epsilon_b(1)
        for start in range(0, csr.n, 5):
            fresh = WalkWorkspace(csr)
            for a, b in zip(
                shared.walk_iter(start, params.t0, eps),
                fresh.walk_iter(start, params.t0, eps),
            ):
                assert np.array_equal(a[0], b[0])
                assert np.array_equal(a[1], b[1])

    def test_peeled_start_raises_keyerror(self):
        """Out-of-range (and, on a view, peeled) starts fail with KeyError
        before any mass vector is yielded, whatever the step count."""
        csr = CSRGraph.from_graph(walk_graphs()[0])
        view = PeeledCSR.full(csr)
        view.peel([0])
        out_of_range = [-1, csr.n, csr.n + 3]
        for graph, starts in ((csr, out_of_range), (view, out_of_range + [0])):
            for start in starts:
                for steps in (0, 5):
                    with pytest.raises(KeyError):
                        next(WalkWorkspace(graph).walk_iter(start, steps, 0.01))

    def test_walk_iter_zero_steps_yields_only_the_point_mass(self):
        """``steps=0`` yields exactly p̃_0 = χ_start, on a snapshot and on a
        view, as the dict walk does."""
        g = walk_graphs()[0]
        csr = CSRGraph.from_graph(g)
        view = PeeledCSR.full(csr)
        view.peel([0])
        for graph in (csr, view):
            for start in (1, graph.n - 1):
                seq = list(WalkWorkspace(graph).walk_iter(start, 0, 0.01))
                assert len(seq) == 1
                assert seq[0][0].tolist() == [start]
                assert seq[0][1].tolist() == [1.0]
                label = graph.vertices[start]
                assert csr_backend.mass_to_dict(graph, seq[0]) == next(
                    dict_walk_iter(g, label, 0, 0.01)
                )

    def test_walk_iter_stops_once_all_mass_truncates(self):
        """A threshold that truncates everything ends the walk after the
        first (empty) step instead of running on to ``steps``, exactly
        where the dict walk ends."""
        for g in walk_graphs():
            if g.total_volume() == 0:
                continue
            csr = CSRGraph.from_graph(g)
            start = max(csr.vertices, key=g.degree)
            dict_seq = list(dict_walk_iter(g, start, 10, 1.0))
            ws_seq = list(get_workspace(csr).walk_iter(csr.index[start], 10, 1.0))
            assert len(ws_seq) == len(dict_seq) == 2
            assert ws_seq[-1][0].size == 0 and not dict_seq[-1]
            assert_same_mass(csr, ws_seq[0], dict_seq[0])


class TestWorkspaceSweepParity:
    def masses(self, csr, seed):
        rng = np.random.default_rng(seed)
        for _ in range(3):
            dense = np.where(rng.random(csr.n) < 0.6, rng.random(csr.n), 0.0)
            sparse = csr_backend.sparsify(dense)
            if sparse[0].size:
                yield sparse

    def test_sweep_fields_match_dense_and_dict(self):
        for seed, g in enumerate(walk_graphs()):
            csr = CSRGraph.from_graph(g)
            ws = WalkWorkspace(csr)
            for sparse in self.masses(csr, seed):
                dense_state = csr_backend.build_sweep(csr, sparse)
                ws_state = ws.build_sweep(sparse)
                assert np.array_equal(ws_state.order, dense_state.order)
                assert np.array_equal(ws_state.rho, dense_state.rho)
                assert np.array_equal(
                    ws_state.prefix_volume, dense_state.prefix_volume
                )
                assert np.array_equal(ws_state.prefix_cut, dense_state.prefix_cut)
                assert ws_state.total_volume == dense_state.total_volume
                mass = csr_backend.mass_to_dict(csr, sparse)
                dict_state = dict_build_sweep(g, mass)
                order = [csr.vertices[int(i)] for i in ws_state.order]
                assert order == dict_state.order
                assert list(ws_state.prefix_volume) == dict_state.prefix_volume
                assert list(ws_state.prefix_cut) == dict_state.prefix_cut

    def test_candidate_scan_matches_dict_linear_scan(self):
        """The CSR scan's candidate entry and the dict scan must pick the
        same sweep candidates on shared profiles."""
        for seed, g in enumerate(walk_graphs()[:6]):
            csr = CSRGraph.from_graph(g)
            ws = WalkWorkspace(csr)
            for sparse in self.masses(csr, seed + 50):
                ws_state = ws.build_sweep(sparse)
                dict_state = dict_build_sweep(
                    g, csr_backend.mass_to_dict(csr, sparse)
                )
                for phi in (0.05, 0.2, 0.5):
                    assert csr_backend.candidate_indices_from_volumes(
                        ws_state.prefix_volume, phi
                    ) == candidate_indices(dict_state, phi)


class TestScanParity:
    def test_scan_walk_sequence_csr_matches_dict_scan(self):
        """The CSR scan, which sweeps through the graph's workspace, and the
        dict scan certify the same cut (or none) — on a snapshot against G
        and on a peeled view against G{U}, for Nibble and ApproximateNibble."""
        found = 0
        for g in walk_graphs():
            if g.total_volume() == 0:
                continue
            csr = CSRGraph.from_graph(g)
            keep = csr.vertices[: max(2, 2 * csr.n // 3)]
            view = PeeledCSR.for_subset(csr, (csr.index[v] for v in keep))
            for graph, work in ((csr, g), (view, g.induced_with_loops(keep))):
                if work.total_volume() == 0:
                    continue
                params = NibbleParameters.practical(work, 0.15)
                start = keep[0]
                for scale in (1, params.ell):
                    eps = params.epsilon_b(scale)
                    for approximate in (False, True):
                        dict_cut = scan_walk_sequence(
                            work,
                            dict_walk_iter(work, start, params.t0, eps),
                            scale,
                            params,
                            start,
                            approximate=approximate,
                        )
                        csr_cut = scan_walk_sequence_csr(
                            graph,
                            get_workspace(graph).walk_iter(
                                csr.index[start], params.t0, eps
                            ),
                            scale,
                            params,
                            start,
                            approximate=approximate,
                        )
                        assert csr_cut == dict_cut
                        found += dict_cut is not None
        assert found > 0  # the comparison is not vacuous


class TestGetWorkspace:
    def test_get_workspace_memoises_per_snapshot(self):
        csr = CSRGraph.from_graph(walk_graphs()[0])
        ws = get_workspace(csr)
        assert isinstance(ws, WalkWorkspace)
        assert get_workspace(csr) is ws
        view = PeeledCSR.full(csr)
        view_ws = get_workspace(view)
        assert view_ws is not ws and get_workspace(view) is view_ws
        view.peel([0])  # the mask changed: the view's workspace is rebuilt
        assert get_workspace(view) is not view_ws

"""The backend matrix: full pipelines, every configuration, bit-identical.

This module hosts the parity contract that used to be split across
``tests/test_csr.py::TestPipelineParity`` and ``tests/test_fast_path.py``'s
``TestDecompositionParity`` / ``TestSparseCutParity`` — every pinned case
from those classes lives on here, now driven through the shared
:mod:`diffharness` matrix, which also covers the workspace kernels, int32
storage, and memory-mapped snapshots those suites predate.
"""

import pytest

from diffharness import (
    CORE_MATRIX,
    MATRIX,
    assert_pipeline_identical,
    decomposition_signature,
    generator_families,
)
from repro.decomposition import (
    expander_decomposition,
    nearly_most_balanced_sparse_cut,
)
from repro.graphs.graph import Graph
from repro.graphs.generators import ring_of_cliques
from repro.utils.rng import ensure_rng

FAMILIES = generator_families()


class TestBackendMatrix:
    # The four benchmark families get the full matrix (the contract the
    # bench timings and migrated suites stand on); the broader structural
    # families get the axis-covering core matrix, which keeps the suite's
    # runtime linear in coverage rather than quadratic.
    @pytest.mark.parametrize("name,graph", FAMILIES[:4], ids=[n for n, _ in FAMILIES[:4]])
    def test_benchmark_family_identical_across_full_matrix(self, name, graph):
        assert_pipeline_identical(graph, label=name)

    @pytest.mark.parametrize("name,graph", FAMILIES[4:], ids=[n for n, _ in FAMILIES[4:]])
    def test_extra_family_identical_across_core_matrix(self, name, graph):
        assert_pipeline_identical(
            graph, label=name, configs=CORE_MATRIX, sparse_cut=False
        )

    def test_matrix_covers_every_axis(self):
        """The matrix must keep exercising every backend axis the kernels
        expose — losing a cell here silently weakens every test above."""
        assert {c.backend for c in MATRIX} >= {"dict", "csr", "auto"}
        assert {c.index_dtype for c in MATRIX} >= {"auto", "int32", "int64"}
        assert {c.fast_path for c in MATRIX} == {True, False}
        assert any(c.mmap for c in MATRIX)
        # component scheduling: the permuted-sibling column must stay in
        # both matrices, or scheduling-invariance loses its standing check
        assert {c.scheduler for c in MATRIX} == {"inline", "permuted"}
        assert any(c.scheduler == "permuted" for c in CORE_MATRIX)
        # round-accounting oracle: a dict engine in each fast-path group
        for fast_path in (True, False):
            assert any(
                c.backend == "dict" and c.fast_path is fast_path for c in MATRIX
            )


class TestMigratedDecompositionParity:
    """Cases carried over from tests/test_fast_path.py::TestDecompositionParity."""

    def test_fast_path_identical_on_larger_ring(self):
        g = ring_of_cliques(20, 16)
        kwargs = dict(
            seed=11,
            sparse_cut_kwargs={"num_instances": 6, "params_overrides": {"max_t0": 150}},
        )
        on = expander_decomposition(g, 0.1, 0.1, fast_path=True, **kwargs)
        off = expander_decomposition(g, 0.1, 0.1, fast_path=False, **kwargs)
        assert decomposition_signature(on) == decomposition_signature(off)
        assert on.certified_fraction == 1.0

    def test_fast_path_default_is_on(self):
        g = ring_of_cliques(4, 8)
        default = expander_decomposition(g, 0.1, 0.1, seed=3)
        explicit = expander_decomposition(g, 0.1, 0.1, seed=3, fast_path=True)
        assert decomposition_signature(default) == decomposition_signature(explicit)


class TestMigratedSparseCutParity:
    """Cases carried over from tests/test_csr.py::TestPipelineParity and
    tests/test_fast_path.py::TestSparseCutParity.

    The dict-vs-csr cut/batches parity and the fast-path on/off sparse-cut
    parity those classes pinned are strictly subsumed by the matrix test
    above (``assert_pipeline_identical`` harvests a sparse cut under every
    configuration, including both fast-path groups, on every family).
    What stays here is the clique-specific behaviour the matrix cannot
    see: pre-check observability and the skipped-batch stream burn."""

    def test_precheck_skips_batches_on_expander(self):
        """On a clique every batch is a guaranteed failure: the pre-check
        must fire immediately and skip all of them."""
        g = Graph()
        for i in range(12):
            for j in range(i + 1, 12):
                g.add_edge(i, j)
        result = nearly_most_balanced_sparse_cut(g, 0.1, seed=5, fast_path=True)
        assert result.certified_no_cut
        assert result.precheck_skips == result.batches > 0
        assert result.spectral is not None and result.spectral.exact
        off = nearly_most_balanced_sparse_cut(g, 0.1, seed=5, fast_path=False)
        assert off.precheck_skips == 0
        assert off.batches == result.batches

    def test_skipped_batches_leave_rng_stream_identical(self):
        """The burn replays exactly the draws the skipped batches would
        have made, so a draw taken *after* the call matches on/off."""
        g = Graph()
        for i in range(10):
            for j in range(i + 1, 10):
                g.add_edge(i, j)
        states = {}
        for fast_path in (True, False):
            rng = ensure_rng(123)
            result = nearly_most_balanced_sparse_cut(
                g, 0.1, seed=rng, fast_path=fast_path
            )
            assert result.certified_no_cut
            states[fast_path] = rng.bit_generator.state
        assert states[True] == states[False]

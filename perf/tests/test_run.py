"""Run-level behaviour that needs no full benchmark run."""

import shutil
import subprocess
import sys
from pathlib import Path

from repro.decomposition import expander_decomposition
from repro.graphs.generators import barbell_expanders

from workloads import WORKLOADS, _decomposition_digest, build_input, job_seeds

PERF = Path(__file__).resolve().parents[1]


def test_without_the_library_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copytree(PERF, tmp_path / "perf", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(PERF.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "ring-default",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_inputs_follow_the_seed_and_barbells_share_them():
    wide, two = WORKLOADS["barbell-wide"], WORKLOADS["barbell-2w"]
    assert wide.family == two.family
    assert job_seeds(3, (0, 1)) == job_seeds(3, (0, 1))
    assert job_seeds(3, (0, 1)) != job_seeds(4, (0, 1))
    assert job_seeds(3, (0, 1)) != job_seeds(3, (1, 1))
    a = build_input(wide, 3, (0, 1))
    b = build_input(two, 3, (0, 1))
    assert a.decomposition_seed == b.decomposition_seed
    assert sorted(map(sorted, a.edges)) == sorted(map(sorted, b.edges))


def test_two_workers_agree_with_sequential_on_a_barbell():
    """The check the ledger makes between barbell-2w and barbell-wide, small."""
    graph = barbell_expanders(300, seed=2)
    plain = expander_decomposition(graph, 0.1, 0.1, seed=9)
    pooled = expander_decomposition(graph, 0.1, 0.1, seed=9, workers=2)
    assert pooled.report.total_rounds == plain.report.total_rounds
    assert _decomposition_digest(pooled) == _decomposition_digest(plain)

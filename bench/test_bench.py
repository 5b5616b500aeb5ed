"""The benchmark's own tests; they are not part of the tier-1 suite.

    python3 -m pytest -q bench/test_bench.py

They check that the work counts of a traced pass repeat exactly for a seed,
that the class and labelled-graph counts the workloads use as references
agree by orbit counting (labelled = sum of n!/|Aut| over the classes), that
the partition-fit references agree with the program's brute-force oracle
and find an improving move where one exists, that
BENCHMARK.json names exactly the metrics the benchmark prints, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from shadowlab import Cancellative, Expansion, Hypergraph  # noqa: E402
from shadowlab.extremal import _iter_free_edge_sets, enumerate_free_classes  # noqa: E402
from shadowlab.stability import brute_force_partition_fit  # noqa: E402


def traced_pass(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--traced"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_work_counts_repeat_for_a_seed(workload):
    first, second = traced_pass(workload, 11), traced_pass(workload, 11)
    assert first["counts"] == second["counts"]
    assert first["failures"] == second["failures"]
    counts = [n for n in first["layers"] if run.layer_unit(n) in ("count", "bytes")]
    assert {n: first["layers"][n] for n in counts} == {n: second["layers"][n] for n in counts}
    assert first["failures"] == workloads.KNOWN_DEFECTS[workload]


def orbit_total(n: int, reps) -> int:
    return sum(math.factorial(n) // ref.automorphism_count(n, h.edges) for h in reps)


@pytest.mark.parametrize("label, family", [
    ("cancellative", Cancellative()), ("expansion(3)", Expansion(3)), ("expansion(4)", Expansion(4)),
])
def test_labelled_counts_on_six_vertices(label, family):
    reps = enumerate_free_classes(6, 3, family)
    assert orbit_total(6, reps) == workloads.LABELLED_N6[label]
    if label in workloads.CLASSES_N6:
        assert len(reps) == workloads.CLASSES_N6[label]


def test_all_classes_on_five_vertices():
    reps = enumerate_free_classes(5, 3, None)
    assert len(reps) == workloads.CLASSES_N5_ALL
    assert orbit_total(5, reps) == 2 ** 10


@pytest.mark.parametrize("family", [Cancellative(), Expansion(3)])
def test_class_counts_on_seven_vertices(family):
    # The labelled DFS of the naive engine, run past the engine's size cap.
    labelled = sum(1 for _ in _iter_free_edge_sets(7, 3, family))
    reps = enumerate_free_classes(7, 3, family)
    assert len(reps) == workloads.CLASSES_N7[str(family)]
    assert orbit_total(7, reps) == labelled


def test_fit_optimum_agrees_with_the_brute_force_oracle():
    rng = random.Random(5)
    for n in (5, 6, 7):
        triples = list(itertools.combinations(range(n), 3))
        for _ in range(3):
            edges = sorted(rng.sample(triples, len(triples) // 2))
            h = Hypergraph.build(3, n, edges)
            assert ref.fit_optimum_all_in(edges, n, 3) == brute_force_partition_fit(h, 3, n)


def test_improving_move_finds_a_better_part():
    edges = ref.transversal_edges(6, 3, 3)
    assert ref.improving_move(edges, ((0, 3), (1, 4), (2, 5)), 6, 6) is None
    assert ref.improving_move(edges, ((0,), (1, 3, 4), (2, 5)), 6, 6) is not None
    # With the cap reached, a left-out vertex may not come back in.
    assert ref.improving_move(edges, ((0,), (1, 4), (2, 5)), 6, 5) is None
    assert ref.improving_move(edges, ((0,), (1, 4), (2, 5)), 6, 6) is not None


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
    layer_names = list(tracing.Tracer().layer_metrics()) + ["trace_overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == layer_names
    for m in spec["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

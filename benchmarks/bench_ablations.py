"""Experiments A1-A3 — ablations of the design choices DESIGN.md calls out.

* **A1 segmentation**: Algorithm 1's divide-and-conquer vs running
  Algorithm 2 over the whole un-segmented TPIIN.
* **A2 engines**: the faithful pattern-base materialization vs the
  parallel engine's compact kernels (in-process).
* **A3 parallelism**: the future-work multiprocessing detector.
"""

from __future__ import annotations

import time

from benchmarks.conftest import write_report
from repro.analysis.reporting import render_table
from repro.mining.detector import detect
from repro.mining.matching import match_component_patterns
from repro.mining.parallel import parallel_detect
from repro.mining.patterns import build_patterns_tree


def _detect_unsegmented(tpiin):
    """Algorithm 2 + matching over the whole TPIIN (no divide & conquer)."""
    trails = build_patterns_tree(tpiin.graph, build_tree=False).trails
    return match_component_patterns(trails)


def test_a1_with_segmentation(benchmark, medium_tpiin):
    result = benchmark(lambda: detect(medium_tpiin))
    assert result.group_count > 0


def test_a1_without_segmentation(benchmark, medium_tpiin):
    groups = benchmark(lambda: _detect_unsegmented(medium_tpiin))
    assert groups


def test_a2_faithful_engine(benchmark, medium_tpiin):
    result = benchmark(lambda: detect(medium_tpiin, engine="faithful"))
    assert result.group_count > 0


def test_a2_parallel_engine(benchmark, medium_tpiin):
    result = benchmark(lambda: detect(medium_tpiin, engine="parallel"))
    assert result.group_count > 0


def test_a3_parallel_engine(benchmark, medium_tpiin):
    result = benchmark.pedantic(
        parallel_detect,
        args=(medium_tpiin,),
        kwargs={"processes": 4},
        rounds=1,
        iterations=1,
    )
    assert result.group_count > 0


def test_ablation_report(benchmark, medium_tpiin):
    def build_report() -> str:
        variants = (
            ("faithful (segmented)", lambda: detect(medium_tpiin)),
            ("faithful (unsegmented)", lambda: _detect_unsegmented(medium_tpiin)),
            ("parallel", lambda: detect(medium_tpiin, engine="parallel")),
            ("parallel x4", lambda: parallel_detect(medium_tpiin, processes=4)),
        )
        rows = []
        for name, runner in variants:
            started = time.perf_counter()
            runner()
            rows.append([name, f"{1000 * (time.perf_counter() - started):.1f}"])
        return render_table(["variant", "ms"], rows, align_right=False)

    report = benchmark.pedantic(build_report, rounds=1, iterations=1)
    write_report("ablations.txt", report)
    assert "parallel" in report

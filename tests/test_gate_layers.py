"""The per-stage CI gate over a perfbench summary line."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

GATE = Path(__file__).resolve().parent.parent / "benchmarks" / "gate_layers.py"


def gate(stdin: str, *args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, str(GATE), *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=30,
    )


def run_output(correct: bool = True, gc_share: float = 8.0) -> str:
    summary = {
        "correct": correct,
        "attempted": 6,
        "failed": 0 if correct else 1,
        "metrics": {"gc.share_pct": {"value": gc_share, "unit": "%"}},
    }
    return '{"host": "facts line"}\n' + json.dumps(summary) + "\n"


def test_passes_under_the_bound():
    done = gate(run_output(), "--max", "gc.share_pct=25")
    assert done.returncode == 0, done.stderr
    assert "gc.share_pct" in done.stdout


@pytest.mark.parametrize(
    ("output", "bound", "message"),
    [
        (run_output(gc_share=52.6), "gc.share_pct=25", "gc.share_pct = 52.6 > 25"),
        (run_output(correct=False), "gc.share_pct=25", "run not correct"),
        (run_output(), "nope.share_pct=1", "not in the run's metrics"),
    ],
)
def test_fails_the_gate(output, bound, message):
    done = gate(output, "--max", bound)
    assert done.returncode == 1
    assert message in done.stderr


def test_unusable_input_exits_2():
    assert gate("", "--max", "gc.share_pct=25").returncode == 2
    assert gate("not json\n", "--max", "gc.share_pct=25").returncode == 2
    assert gate(run_output(), "--max", "gc.share_pct").returncode == 2

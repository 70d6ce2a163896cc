"""Self-tests for the benchmark's own helpers, and the scale-10k check.

``python3 perfbench/run.py --self-test`` checks the percentile rule,
open-loop accounting, the ladder's backlog rule, the metric-name
charset, and then runs every workload briefly with ``--trace 0`` and
``--trace 1`` to check that every name in BENCHMARK.json is measured by
some workload and nothing unlisted is emitted (a few minutes).

``python3 perfbench/run.py --check-scale-10k`` rebuilds the scale-10k
tier (generator seed 31, ~978k arcs, ~2.5 GiB peak) and checks the
parallel engine reproduces the group and arc counts the engine benchmark
committed for that tier.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path
from typing import Callable

import stats
from stats import Send

ROOT = Path(__file__).resolve().parent.parent
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
CHECKS: list[Callable[[], None]] = []


def check(fn: Callable[[], None]) -> Callable[[], None]:
    CHECKS.append(fn)
    return fn


@check
def percentile_rule() -> None:
    samples = [float(i) for i in range(1, 1001)]
    q, value, n = stats.tail(samples)
    assert (q, value, n) == (0.99, 990.0, 1000), (q, value, n)
    assert stats.beyond(n, q) >= stats.TAIL_BEYOND
    # 1000 samples leave only one beyond p99.9, so p99 is the tail.
    assert stats.beyond(1000, 0.999) < stats.TAIL_BEYOND
    q, _, n = stats.tail(samples[:50])
    assert q == 0.75 and stats.beyond(50, 0.75) >= 10 and n == 50
    q, value, n = stats.tail(samples[:15])
    assert (q, value, n) == (0.5, 8.0, 15), "too few samples fall back to the median"
    assert stats.percentile([5.0, 1.0, 3.0], 0.5) == 3.0


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


@check
def open_loop_accounting() -> None:
    clock = FakeClock()

    def slow_send(index: int) -> int:
        clock.now += 0.010  # every reply takes 10 ms, twice the 5 ms spacing
        return 200

    due = stats.schedule(0.0, 200.0, 4)
    sends = stats.open_loop(due, slow_send, clock=clock, sleep=clock.sleep)
    latencies = [round(s.latency_ms, 6) for s in sends]
    lags = [round(s.lag_ms, 6) for s in sends]
    # Latency runs from the scheduled send, so the stall accumulates.
    assert latencies == [10.0, 15.0, 20.0, 25.0], latencies
    assert lags == [0.0, 5.0, 10.0, 15.0], lags

    def refused(index: int) -> int:
        if index == 1:
            raise OSError("connection reset")
        return 429 if index == 2 else 200

    sends = stats.open_loop(stats.schedule(1.0, 100.0, 3), refused,
                            clock=clock, sleep=clock.sleep)
    assert [s.ok for s in sends] == [True, False, False]
    assert [s.status for s in sends] == [200, 0, 429]
    assert sends[0].sent == 1.0, "an early generator waits for the due time"


def _step(latencies_ms: list[float], ok: bool = True) -> list[Send]:
    return [Send(due=i, sent=i, done=i + ms / 1e3, ok=ok) for i, ms in enumerate(latencies_ms)]


@check
def ladder_backlog_rule() -> None:
    flat = _step([1.0] * 30)
    growing = _step([1.0 + 0.5 * i for i in range(30)])
    assert not stats.backlog_growing(flat)
    assert stats.backlog_growing(growing)
    slow_tail = _step([1.0] * 29 + [50.0])  # p99 over the limit
    shed = flat[:-1] + [Send(29, 29, 29.001, ok=False, status=429)]
    steps = [(400.0, flat), (600.0, flat), (800.0, growing), (1000.0, slow_tail)]
    assert stats.ladder_max_rate(steps) == 600.0
    assert stats.ladder_max_rate([(400.0, shed)]) == 0.0
    assert stats.ladder_max_rate([(400.0, flat), (900.0, flat)]) == 900.0


@check
def metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names)), "names must be unique"
    for name in names:
        assert stats.METRIC_NAME.match(name), name
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
    for bad in ("latency ms", "_x", "a" * 65, "p99(ms)", ""):
        assert not stats.METRIC_NAME.match(bad), bad


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "31", "--seconds", "2", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0 and len(lines) >= 2, proc.stderr[-2000:]
    return json.loads(lines[-2]), json.loads(lines[-1])


@check
def listed_names_are_emitted() -> None:
    from run import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    measured: set[str] = set()
    # Every runnable workload, listed or not: serve-ingest's per-layer
    # names stay listed while the workload itself is not (see README).
    for workload in WORKLOADS:
        for trace, listed in ((0, e2e), (1, layers)):
            details, result = _run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert set(result["metrics"]) == listed, (workload, trace)
            assert result["correct"], details["errors"]
            if trace == 0:
                assert set(details["measured"]) == e2e, workload
            else:
                measured |= set(details["measured"])
    assert measured == layers, f"never measured: {sorted(layers - measured)}"


def main() -> int:
    failures = 0
    for fn in CHECKS:
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {fn.__name__}: {exc}")
        else:
            print(f"ok   {fn.__name__}")
    return 1 if failures else 0


def check_scale_10k() -> int:
    from child import build_from_edges
    from inputs import GENERATOR_SEED, SCALE_10K, dense_edges
    from repro.mining.detector import detect

    edges = dense_edges(SCALE_10K["companies"], SCALE_10K["probability"],
                        GENERATOR_SEED, GENERATOR_SEED)
    tpiin = build_from_edges(edges)
    del edges
    result = detect(tpiin, engine="parallel")
    seen = {"groups": len(result.groups),
            "suspicious_arcs": len(result.suspicious_trading_arcs)}
    expected = {k: SCALE_10K[k] for k in seen}
    print(f"scale-10k seed {GENERATOR_SEED}: arcs {tpiin.graph.number_of_arcs()} "
          f"{seen} (committed: {expected})")
    return 0 if seen == expected else 1

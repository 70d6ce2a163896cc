"""Daemon workloads: ``serve`` as a subprocess, driven over HTTP.

The daemon runs with the ``serve`` subcommand's default flags (fsync on,
default shard count, snapshot every 500 updates); only the port (an
ephemeral one) and the state directory (inside the run directory) are
given.  Load comes from this process with at most two threads, each on
its own keep-alive connection.  Server-side numbers come from outside:
``/v1/metrics?format=prometheus`` scraped around each phase,
``/proc/<pid>/{status,stat,io}`` and the size of the state directory.
"""

from __future__ import annotations

import json
import os
import random
import re
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path
from typing import Any

from repro.errors import ServiceClientError
from repro.io.edge_list_io import read_tpiin_csv
from repro.service.client import ServiceClient
from repro.service.config import ServiceConfig
from repro.service.sharding import ShardedDetectionService

from inputs import ROOT, final_arc_reference, serve_inputs
from stats import (
    HostSpeed,
    Outcome,
    Send,
    ladder_max_rate,
    median,
    open_loop,
    schedule,
    tail,
)

#: Phase plan for a 10-second run; other ``--seconds`` scale it linearly.
OPEN_RATE = 400.0  # ~30% of one connection's closed-loop ack capacity
OPEN_SECONDS = 4.0
LADDER_RATES = (600.0, 800.0, 1000.0)
LADDER_STEP_SECONDS = 0.8
BATCH_LINES = 256
BATCH_ARCS = 8192
BATCH_BURST = 8  # requests per timed burst
#: Acknowledged ops re-read one by one after the SIGKILL restart.
SPOT_CHECKS = 300
#: Cold boots after the workload; ``setup_s`` is their median, each boot
#: scaled by the calibration point taken right after it.
SETUP_BOOTS = 5

#: serve-query op mix (weights sum to 100).  ``op_p50_ms`` is the median
#: over 100-request blocks of the block's mean latency: a single
#: request's latency depends on whether the other analyst's whole-result
#: build overlaps it, so per-request medians sit on that knee.
QUERY_MIX = (
    ("arc_read", 70),
    ("investigate", 15),
    ("result", 3),
    ("findings", 2),
    ("add", 10),
)
QUERY_CLIENTS = 2
SEGMENT_SECONDS = 5.0
FINDINGS_DETECTOR = "circular-trading"

_BOOT_LINE = re.compile(r"http://[^:]+:(\d+) .*recovered (\d+) WAL records")


class Daemon:
    """One ``python -m repro serve`` child, healthy on return."""

    def __init__(self, inputs: Path, state_dir: Path, log_path: Path) -> None:
        env = {
            **os.environ,
            "PYTHONPATH": str(ROOT / "src"),
            "PYTHONUNBUFFERED": "1",
        }
        self.started = time.monotonic()
        with log_path.open("ab") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    str(inputs / "net.arcs.csv"), str(inputs / "net.nodes.csv"),
                    "--port", "0", "--state-dir", str(state_dir),
                ],
                stdout=subprocess.PIPE,
                stderr=log,
                env=env,
                text=True,
            )
        try:
            line = self._boot_line(timeout=120.0)
            match = _BOOT_LINE.search(line)
            if match is None:
                raise RuntimeError(f"unexpected boot line: {line!r}")
            self.url = f"http://127.0.0.1:{match.group(1)}"
            self.recovered = int(match.group(2))
            self.client = ServiceClient(self.url)
            self._wait_healthy()
        except BaseException:
            self.kill()
            raise
        self.ready_s = time.monotonic() - self.started

    def _boot_line(self, timeout: float) -> str:
        assert self.proc.stdout is not None
        readable, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not readable:
            raise RuntimeError("daemon printed nothing before the boot timeout")
        return self.proc.stdout.readline()

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + 60.0
        while True:
            try:
                if self.client.healthz().get("status") == "ok":
                    return
            except ServiceClientError:
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise
            time.sleep(0.002)

    # -- outside-in observation ------------------------------------------
    def _proc(self, name: str) -> str:
        return Path(f"/proc/{self.proc.pid}/{name}").read_text()

    def vmhwm_mib(self) -> float:
        for line in self._proc("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def cpu_seconds(self) -> float:
        fields = self._proc("stat").rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def io(self) -> dict[str, int]:
        pairs = (line.split(":") for line in self._proc("io").splitlines())
        return {key: int(value) for key, value in pairs}

    def get_raw(self, path: str) -> bytes:
        with urllib.request.urlopen(self.url + path, timeout=60) as response:
            return response.read()

    def prometheus(self) -> dict[str, float]:
        series: dict[str, float] = {}
        for line in self.get_raw("/v1/metrics?format=prometheus").decode().splitlines():
            if line and not line.startswith("#"):
                key, _, value = line.rpartition(" ")
                series[key] = float(value)
        return series

    # -- lifecycle ----------------------------------------------------------
    def stop(self) -> None:
        """SIGTERM (graceful drain) and wait; SIGKILL if it hangs."""
        self.client.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.kill()
        self._close_pipe()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=60)
        self._close_pipe()

    def _close_pipe(self) -> None:
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def metric_sum(series: dict[str, float], name: str, **labels: str) -> float:
    """Sum every series of ``name`` whose labels include ``labels``."""
    wanted = [f'{key}="{value}"' for key, value in labels.items()]
    total = 0.0
    for key, value in series.items():
        base = key.split("{", 1)[0]
        if base == name and all(label in key for label in wanted):
            total += value
    return total


def delta(after: dict[str, float], before: dict[str, float], name: str, **labels: str) -> float:
    return metric_sum(after, name, **labels) - metric_sum(before, name, **labels)


def server_mean_ms(after: dict[str, float], before: dict[str, float], endpoint: str) -> float:
    hist = "repro_http_request_duration_by_status_ms"
    count = delta(after, before, f"{hist}_count", endpoint=endpoint, status_class="2xx")
    total = delta(after, before, f"{hist}_sum", endpoint=endpoint, status_class="2xx")
    return total / count if count else 0.0


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def boot_replica(inputs: Path, state_dir: Path) -> dict[str, float]:
    """Time the daemon's boot steps in-process: CSV read, validate, open."""
    started = time.perf_counter()
    tpiin = read_tpiin_csv(inputs / "net.arcs.csv", inputs / "net.nodes.csv")
    read_s = time.perf_counter() - started
    started = time.perf_counter()
    tpiin.validate()
    validate_s = time.perf_counter() - started
    started = time.perf_counter()
    service = ShardedDetectionService.open(tpiin, ServiceConfig(state_dir=state_dir))
    open_s = time.perf_counter() - started
    service.close()
    return {"read_csv_s": read_s, "validate_s": validate_s, "open_s": open_s}


def setup_boots(inputs: Path, run_dir: Path, speed: HostSpeed) -> list[tuple[float, float]]:
    """Cold boots on fresh state directories, each stopped right away:
    ``(raw seconds, seconds at reference speed)`` per boot."""
    times = []
    for index in range(SETUP_BOOTS):
        daemon = Daemon(inputs, run_dir / f"boot-{index}", run_dir / "daemon.log")
        daemon.stop()
        speed.sample()
        times.append((daemon.ready_s, daemon.ready_s * speed.latest_scale()))
    return times


def _mutate(client: ServiceClient, op: str, seller: str, buyer: str) -> int:
    try:
        if op == "add":
            client.add_arc(seller, buyer)
        else:
            client.remove_arc(seller, buyer)
    except ServiceClientError as exc:
        return exc.status or 0
    return 200


def _service_layers(
    before: dict[str, float],
    after: dict[str, float],
    io_before: dict[str, int],
    io_after: dict[str, int],
    cpu_s: float,
    wall_s: float,
) -> dict[str, float]:
    """Per-layer figures both serve workloads derive the same way."""
    applied = delta(after, before, "repro_arcs_applied_total")
    hits = delta(after, before, "repro_path_cache_hits_total")
    misses = delta(after, before, "repro_path_cache_misses_total")
    return {
        "service.wal_appends_per_arc": _ratio(
            delta(after, before, "repro_wal_appends_total"), applied),
        "service.write_bytes_per_arc": _ratio(
            io_after["write_bytes"] - io_before["write_bytes"], applied),
        "service.write_syscalls_per_arc": _ratio(
            io_after["syscw"] - io_before["syscw"], applied),
        "service.snapshots": delta(after, before, "repro_snapshots_written_total"),
        "service.shed": delta(after, before, "repro_ingest_shed_total"),
        "service.queue_depth_max": max(
            metric_sum(before, "repro_ingest_queue_depth"),
            metric_sum(after, "repro_ingest_queue_depth"),
        ),
        "service.cpu_util_pct": 100.0 * _ratio(cpu_s, wall_s),
        "mining.incremental.path_cache_hit_ratio": _ratio(hits, hits + misses),
    }


def _boot_shares(inputs: Path, run_dir: Path, setup_s: float) -> dict[str, float]:
    boot = boot_replica(inputs, run_dir / "replica")
    return {
        f"service.boot.{step.removesuffix('_s')}.share_pct": 100.0 * seconds / setup_s
        for step, seconds in boot.items()
    }


# ----------------------------------------------------------------------
# serve-ingest
# ----------------------------------------------------------------------
def serve_ingest(seed: int, seconds: float, traced: bool, run_dir: Path,
                 speed: HostSpeed) -> Outcome:
    inputs = serve_inputs(seed)
    streams = json.loads((inputs / "streams.json").read_text())
    stretch = seconds / 10.0
    ops: list[list[str]] = streams["ingest"]
    cursor = 0

    def take(count: int) -> list[list[str]]:
        nonlocal cursor
        chunk = ops[cursor : cursor + count]
        cursor += len(chunk)
        return chunk

    errors: list[str] = []
    acked: list[list[str]] = []
    state = run_dir / "state"
    daemon = Daemon(inputs, state, run_dir / "daemon.log")
    client = ServiceClient(daemon.url)
    try:
        prom0, io0, cpu0 = daemon.prometheus(), daemon.io(), daemon.cpu_seconds()
        # Calibration points sit between the timed phases (see stats.HostSpeed).
        speed.sample()
        wall0 = time.perf_counter()

        def run_open(rate: float, duration: float) -> list[Send]:
            chunk = take(int(rate * duration * stretch))
            sends = open_loop(
                schedule(time.perf_counter() + 0.005, rate, len(chunk)),
                lambda i: _mutate(client, *chunk[i]),
            )
            acked.extend(op for op, send in zip(chunk, sends) if send.ok)
            return sends

        # (1) open-loop single-arc adds/removes at a fixed rate.
        base = run_open(OPEN_RATE, OPEN_SECONDS)
        prom1 = daemon.prometheus()
        speed.sample()
        # (2) a short rate ladder above it.
        steps = [(OPEN_RATE, base)] + [
            (rate, run_open(rate, LADDER_STEP_SECONDS)) for rate in LADDER_RATES
        ]
        speed.sample()
        # (3) closed-loop NDJSON batches, timed in bursts; the median
        # burst rate shrugs off a stall that one burst hits.
        batch_arcs = 0
        batches = max(BATCH_BURST, int(BATCH_ARCS * stretch) // BATCH_LINES)
        burst_rates = []
        for first in range(0, batches, BATCH_BURST):
            burst_started, burst_arcs = time.perf_counter(), 0
            for _ in range(min(BATCH_BURST, batches - first)):
                chunk = take(BATCH_LINES)
                report = client.batch_arcs([tuple(op) for op in chunk])
                if report["rejected"]:
                    errors.append(f"batch rejected {report['rejected']} lines")
                burst_arcs += report["accepted"]
                acked.extend(chunk)
            burst_rates.append(burst_arcs / (time.perf_counter() - burst_started))
            batch_arcs += burst_arcs
        wall_s = time.perf_counter() - wall0
        speed.sample()
        phase_scale = speed.scale  # before the boots add their own points
        prom2, io2, cpu2 = daemon.prometheus(), daemon.io(), daemon.cpu_seconds()
        peak_rss = daemon.vmhwm_mib()
        state_bytes = dir_bytes(state)
        live_arcs = int(daemon.client.healthz()["arcs"])
    finally:
        client.close()
        # (4) crash: SIGKILL, then a restart over the same state directory.
        daemon.kill()

    restarted = Daemon(inputs, state, run_dir / "daemon.log")
    try:
        errors += _check_after_restart(restarted, inputs, streams, acked, cursor, seed)
    finally:
        restarted.stop()
    boots = setup_boots(inputs, run_dir, speed)

    singles = [s for _, sends in steps for s in sends]
    failed = sum(not s.ok for s in singles) + len(errors)
    ack_ms = [s.latency_ms for s in base if s.ok]
    setup_s = median([raw for raw, _ in boots])
    q, ack_tail, n = tail(ack_ms)
    layers = {
        "service.ack_tail_ratio": ack_tail / median(ack_ms),
        "service.ack_samples": n,
        "service.ingest_max_rate": ladder_max_rate(steps),
        "service.recover_ratio": restarted.ready_s / setup_s,
        "service.replayed_records": restarted.recovered,
        "service.state_bytes_per_arc": _ratio(state_bytes, live_arcs),
        "service.transport.share_pct": _transport_share(
            [(s.done - s.sent) * 1e3 for s in base if s.ok],
            server_mean_ms(prom1, prom0, "post_arcs"),
        ),
        "bench.gen_late_pct": 100.0 * _ratio(sum(s.lag_ms > 1.0 for s in singles), len(singles)),
        **_service_layers(prom0, prom2, io0, io2, cpu2 - cpu0, wall_s),
    }
    if traced:
        layers.update(_boot_shares(inputs, run_dir, setup_s))
    raw = {
        "setup_s": setup_s,
        "peak_rss_mib": peak_rss,
        "op_p50_ms": median(ack_ms),
        "work_per_s": median(burst_rates),
    }
    return Outcome(
        e2e={
            "setup_s": median([scaled for _, scaled in boots]),
            "peak_rss_mib": peak_rss,
            "op_p50_ms": raw["op_p50_ms"] * phase_scale,
            "work_per_s": raw["work_per_s"] / phase_scale,
        },
        layers=layers,
        attempted=len(singles) + batches,
        failed=failed,
        errors=errors,
        details={
            "raw": raw,
            "ack_tail": {"q": q, "ms": ack_tail, "n": n},
            "recover_s": restarted.ready_s,
            "first_boot_s": daemon.ready_s,
            "boots_s": boots,
            "batch_arcs": batch_arcs,
            "ladder": {str(rate): len(sends) for rate, sends in steps},
        },
    )


def _transport_share(client_ms: list[float], server_ms: float) -> float:
    if not client_ms:
        return 0.0
    mean = sum(client_ms) / len(client_ms)
    return 100.0 * max(0.0, mean - server_ms) / mean


def _check_after_restart(
    daemon: Daemon,
    inputs: Path,
    streams: dict[str, Any],
    acked: list[list[str]],
    consumed: int,
    seed: int,
) -> list[str]:
    """Every acknowledged op survived the SIGKILL, and the daemon's counts
    equal a faithful detect over the final arc set."""
    errors = []
    expected = {tuple(arc) for arc in streams["baseline"]}
    for op, seller, buyer in acked:
        if op == "add":
            expected.add((seller, buyer))
        else:
            expected.discard((seller, buyer))
    cache = inputs / f"final-{consumed}-{len(acked)}.json"
    if cache.exists():
        reference = json.loads(cache.read_text())
    else:
        view = read_tpiin_csv(inputs / "net.arcs.csv", inputs / "net.nodes.csv")
        reference = final_arc_reference(view, expected)
        cache.write_text(json.dumps(reference))
    result = daemon.client.result()
    seen = {
        "simple": result.get("simple_group_count"),
        "complex": result.get("complex_group_count"),
        "trading_arcs": result.get("total_trading_arcs"),
    }
    if seen != reference:
        errors.append(f"after restart: daemon counts {seen} != faithful {reference}")
    rng = random.Random(seed)
    for op, seller, buyer in rng.sample(acked, min(SPOT_CHECKS, len(acked))):
        present = daemon.client.arc(seller, buyer)["present"]
        if present != (op == "add"):
            errors.append(f"acknowledged {op} {seller}->{buyer} lost in the crash")
    return errors


# ----------------------------------------------------------------------
# serve-query
# ----------------------------------------------------------------------
def serve_query(seed: int, seconds: float, traced: bool, run_dir: Path,
                speed: HostSpeed) -> Outcome:
    inputs = serve_inputs(seed)
    streams = json.loads((inputs / "streams.json").read_text())
    kinds = [kind for kind, _ in QUERY_MIX]
    errors: list[str] = []
    daemon = Daemon(inputs, run_dir / "state", run_dir / "daemon.log")
    try:
        prom0, io0, cpu0 = daemon.prometheus(), daemon.io(), daemon.cpu_seconds()
        analysts = [_Analyst(daemon.url, seed, i, streams) for i in range(QUERY_CLIENTS)]
        segments = max(1, round(seconds / SEGMENT_SECONDS))
        wall_s = 0.0
        try:
            # Short pauses between segments sample the host speed.
            for _ in range(segments):
                speed.sample()
                stop_at = time.perf_counter() + seconds / segments
                threads = [threading.Thread(target=a.run, args=(stop_at,)) for a in analysts]
                started = time.perf_counter()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                wall_s += time.perf_counter() - started
            speed.sample()
            mix_scale = speed.scale  # before the boots add their own points
        finally:
            for analyst in analysts:
                analyst.client.close()
        prom1, io1, cpu1 = daemon.prometheus(), daemon.io(), daemon.cpu_seconds()
        for seller, buyer, flag in streams["probes"]:
            status = daemon.client.arc(seller, buyer)
            if not status["present"] or status["suspicious"] != flag:
                errors.append(f"probe {seller}->{buyer}: {status['present']=} "
                              f"{status['suspicious']=} vs batch verdict {flag}")
        company = streams["suspicious"][0][0]
        resp_bytes = {
            "investigate": len(daemon.get_raw(f"/v1/investigate/{company}")),
            "result": len(daemon.get_raw("/v1/result")),
            "findings": len(daemon.get_raw(f"/v1/result?detector={FINDINGS_DETECTOR}")),
        }
        peak_rss = daemon.vmhwm_mib()
    finally:
        daemon.stop()
    boots = setup_boots(inputs, run_dir, speed)

    done = [s for analyst in analysts for s in analyst.samples]
    by_kind = {kind: [ms * 1e3 for k, ms, ok in done if k == kind and ok] for kind in kinds}
    arc_p50 = median(by_kind["arc_read"])
    _, arc_tail, _ = tail(by_kind["arc_read"])
    setup_s = median([raw for raw, _ in boots])
    layers = {
        "service.arc_read.tail_ratio": arc_tail / arc_p50,
        "service.transport.share_pct": _transport_share(
            by_kind["arc_read"], server_mean_ms(prom1, prom0, "get_arc")),
        **{
            f"service.{kind}.p50_ratio": median(by_kind[kind]) / arc_p50
            for kind in ("investigate", "result", "findings")
        },
        **{f"service.{kind}.resp_bytes": size for kind, size in resp_bytes.items()},
        **_service_layers(prom0, prom1, io0, io1, cpu1 - cpu0, wall_s),
    }
    if traced:
        layers.update(_boot_shares(inputs, run_dir, setup_s))
    raw = {
        "setup_s": setup_s,
        "peak_rss_mib": peak_rss,
        "op_p50_ms": median([ms for analyst in analysts for ms in analyst.block_means_ms()]),
        "work_per_s": sum(ok for _, _, ok in done) / wall_s,
    }
    return Outcome(
        e2e={
            "setup_s": median([scaled for _, scaled in boots]),
            "peak_rss_mib": peak_rss,
            "op_p50_ms": raw["op_p50_ms"] * mix_scale,
            "work_per_s": raw["work_per_s"] / mix_scale,
        },
        layers=layers,
        attempted=len(done),
        failed=sum(not ok for _, _, ok in done) + len(errors),
        errors=errors,
        details={
            "raw": raw,
            "ops": {kind: len(v) for kind, v in by_kind.items()},
            "p50_ms": {kind: median(v) for kind, v in by_kind.items() if v},
            "first_boot_s": daemon.ready_s,
            "boots_s": boots,
        },
    )


class _Analyst:
    """One closed-loop client: its own connection, RNG and write stream."""

    def __init__(self, url: str, seed: int, index: int, streams: dict[str, Any]) -> None:
        self.client = ServiceClient(url, timeout=60.0)
        self.rng = random.Random(seed * 1000 + index)
        self.adds = iter(streams["query_adds"][index::QUERY_CLIENTS])
        self.streams = streams
        self.pending: list[str] = []
        self.samples: list[tuple[str, float, bool]] = []

    def run(self, stop_at: float) -> None:
        while time.perf_counter() < stop_at:
            if not self.pending:
                # Exact mix proportions in every block of 100 ops.
                self.pending = [kind for kind, weight in QUERY_MIX for _ in range(weight)]
                self.rng.shuffle(self.pending)
            kind = self.pending.pop()
            started = time.perf_counter()
            ok = _query(self.client, kind, self.rng, self.streams, self.adds)
            self.samples.append((kind, time.perf_counter() - started, ok))

    def block_means_ms(self) -> list[float]:
        """Mean request latency of each complete block of the mix (of the
        partial one when a short run completes none)."""
        size = sum(weight for _, weight in QUERY_MIX)
        blocks = [self.samples[i : i + size] for i in range(0, len(self.samples), size)]
        complete = [block for block in blocks if len(block) == size] or blocks
        return [1e3 * statistics.fmean(s for _, s, _ in block) for block in complete]


def _query(
    client: ServiceClient,
    kind: str,
    rng: random.Random,
    streams: dict[str, Any],
    adds: Any,
) -> bool:
    """One analyst request; False when it failed or answered wrongly."""
    try:
        if kind == "arc_read":
            pool = streams["suspicious"] if rng.random() < 0.5 else streams["clean"]
            seller, buyer = rng.choice(pool)
            return bool(client.arc(seller, buyer)["present"])
        if kind == "investigate":
            client.investigate(rng.choice(streams["companies"]))
            return True
        if kind == "result":
            summary = client.result()
            return isinstance(summary.get("simple_group_count"), int)
        if kind == "findings":
            return "findings" in client.result(detector=FINDINGS_DETECTOR)
        seller, buyer = next(adds)
        return client.add_arc(seller, buyer).get("present", True) is not False
    except ServiceClientError:
        return False

"""Service ingest load benchmark: single-arc vs batch vs seed transport.

Measures requests (or arc-lines) per second and exact client-side
p50/p99 latency against a live in-process daemon, for three configs.
Every config runs the one daemon implementation,
:class:`~repro.service.sharding.ShardedDetectionService`; the config
names are kept so committed result files still compare.

``seed_single_shard``
    The daemon over the transport an earlier revision shipped:
    *without* ``TCP_NODELAY``, Nagle plus the peer's delayed ACK stalls
    every keep-alive response ~40 ms.
``single_arc``
    The daemon over the fixed transport; concurrent keep-alive clients,
    one mutation per request, queued group-commit pipeline.
``batch``
    NDJSON bulk ingest (``POST /v1/arcs:batch``); one fsync per commit
    group.

Protocol: interleaved best-of-``--repeats`` — config order rotates
inside each repeat so drift hits all configs evenly, and ``gc.collect()``
runs before every timed window.  Every config replays the *same* seeded
op sequence, and the run ends with an agreement check: every service's
incremental result must equal a batch ``detect(engine="parallel")`` over
the final arc set.

``--compare`` gates three things: batch at least 5x single-arc
throughput, single-arc at least 2x the seed transport (the same daemon,
so this guards the transport fix), and single-arc above a floor
fraction of the committed file's figure.

Usage::

    python benchmarks/bench_service_load.py [--smoke] [-o OUT.json]
        [--compare BENCH_PR9.json] [--repeats N]
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.datagen.config import ProvinceConfig
from repro.datagen.province import generate_province
from repro.fusion.tpiin import TPIIN
from repro.mining.detector import detect
from repro.model.colors import EColor
from repro.service.client import ServiceClient
from repro.service.config import ServiceConfig
from repro.service.server import DetectionHTTPServer
from repro.service.sharding import ShardedDetectionService


@dataclass
class LoadResult:
    """One timed window against one daemon config."""

    ops: int
    elapsed_seconds: float
    latencies_ms: list[float] = field(default_factory=list)

    @property
    def ops_per_second(self) -> float:
        return self.ops / self.elapsed_seconds if self.elapsed_seconds else 0.0

    def percentile(self, q: float) -> float:
        if not self.latencies_ms:
            return 0.0
        ordered = sorted(self.latencies_ms)
        index = min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))
        return ordered[index]


def build_dataset(seed: int, companies: int, probability: float) -> TPIIN:
    dataset = generate_province(ProvinceConfig.small(seed=seed, companies=companies))
    trading = dataset.trading_graph(probability)
    return dataset.fuse_with(trading).tpiin


def build_ops(
    tpiin: TPIIN, count: int, seed: int
) -> list[tuple[str, str, str]]:
    """A seeded add-heavy mutation stream over the dataset's companies.

    Every op touches a *distinct* arc pair — adds of fresh pairs,
    removes of distinct baseline arcs — so the stream commutes: the
    concurrent-client configs interleave ops in nondeterministic order,
    and the final graph must not depend on it.
    """
    companies = [str(c) for c in tpiin.companies()]
    baseline = sorted(
        {(str(s), str(b)) for s, b in tpiin.trading_arcs()}
        | {(str(s), str(b)) for s, b in tpiin.intra_scs_trades}
    )
    rng = random.Random(seed)
    rng.shuffle(baseline)
    used = set(baseline)
    ops: list[tuple[str, str, str]] = []
    for _ in range(count):
        if baseline and rng.random() < 0.1:
            seller, buyer = baseline.pop()
            ops.append(("remove", seller, buyer))
            continue
        while True:
            seller, buyer = rng.sample(companies, 2)
            if (seller, buyer) not in used:
                break
        used.add((seller, buyer))
        ops.append(("add", seller, buyer))
    rng.shuffle(ops)
    return ops


def final_arcs(tpiin: TPIIN, ops: list[tuple[str, str, str]]) -> set[tuple[str, str]]:
    arcs = {(str(s), str(b)) for s, b in tpiin.trading_arcs()}
    arcs |= {(str(s), str(b)) for s, b in tpiin.intra_scs_trades}
    for op, seller, buyer in ops:
        if op == "add":
            arcs.add((seller, buyer))
        else:
            arcs.discard((seller, buyer))
    return arcs


class _Daemon:
    """A live in-process daemon over a fresh state dir."""

    def __init__(
        self,
        tpiin: TPIIN,
        *,
        state_dir: Path,
        seed_transport: bool = False,
    ) -> None:
        config = ServiceConfig(state_dir=state_dir, port=0, fsync=True)
        self.service = ShardedDetectionService.open(tpiin, config)
        self.server = DetectionHTTPServer((config.host, config.port), self.service)
        if seed_transport:
            # Reproduce the earlier revision's transport: Nagle left
            # on, so headers+body in separate sends stall on the
            # peer's delayed ACK.
            handler = self.server.RequestHandlerClass
            self.server.RequestHandlerClass = type(
                "SeedTransportHandler", (handler,), {"disable_nagle_algorithm": False}
            )
        self.thread = threading.Thread(
            target=self.server.serve_forever, name="bench-daemon"
        )
        self.thread.start()
        self.base_url = f"http://127.0.0.1:{self.server.server_address[1]}"

    def stop(self) -> None:
        self.server.shutdown()
        self.thread.join()
        self.server.server_close()
        self.service.close()


def drive_single_arc(
    daemon: _Daemon, ops: list[tuple[str, str, str]], clients: int
) -> LoadResult:
    """Concurrent keep-alive clients, one mutation per request."""
    chunks = [ops[i::clients] for i in range(clients)]
    latencies: list[list[float]] = [[] for _ in range(clients)]
    errors: list[BaseException] = []

    def worker(index: int) -> None:
        client = ServiceClient(daemon.base_url)
        try:
            for op, seller, buyer in chunks[index]:
                started = time.perf_counter()
                if op == "add":
                    client.add_arc(seller, buyer)
                else:
                    client.remove_arc(seller, buyer)
                latencies[index].append((time.perf_counter() - started) * 1000.0)
        except BaseException as exc:  # pragma: no cover - surfaced below
            errors.append(exc)
        finally:
            client.close()

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(clients)
    ]
    gc.collect()
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    if errors:
        raise errors[0]
    return LoadResult(
        ops=len(ops),
        elapsed_seconds=elapsed,
        latencies_ms=[ms for per_client in latencies for ms in per_client],
    )


def drive_batch(
    daemon: _Daemon, ops: list[tuple[str, str, str]], batch_size: int
) -> LoadResult:
    """One keep-alive client streaming NDJSON batches."""
    client = ServiceClient(daemon.base_url)
    latencies: list[float] = []
    try:
        gc.collect()
        started = time.perf_counter()
        for offset in range(0, len(ops), batch_size):
            chunk = ops[offset : offset + batch_size]
            request_started = time.perf_counter()
            report = client.batch_arcs(chunk)
            latencies.append((time.perf_counter() - request_started) * 1000.0)
            if report["rejected"]:
                raise RuntimeError(f"batch rejected lines: {report}")
        elapsed = time.perf_counter() - started
    finally:
        client.close()
    return LoadResult(ops=len(ops), elapsed_seconds=elapsed, latencies_ms=latencies)


def result_signature(service: ShardedDetectionService) -> tuple[frozenset, int]:
    result = service.result()
    return frozenset(g.key() for g in result.groups), service.arc_count()


CONFIG_NAMES = ["seed_single_shard", "single_arc", "batch"]


def run_config(
    name: str,
    tpiin: TPIIN,
    ops: list[tuple[str, str, str]],
    seed_ops: list[tuple[str, str, str]],
    *,
    clients: int,
    batch_size: int,
) -> tuple[LoadResult, tuple[frozenset, int] | None]:
    """One timed window; returns the load result and (for non-seed
    configs) the service's post-ingest result signature."""
    with tempfile.TemporaryDirectory() as tmp:
        if name == "seed_single_shard":
            daemon = _Daemon(tpiin, state_dir=Path(tmp), seed_transport=True)
            try:
                # The seed transport is ~40 ms/request; a truncated op
                # stream keeps the window short.  Throughput is rate,
                # so the shorter stream is still comparable.
                return drive_single_arc(daemon, seed_ops, clients), None
            finally:
                daemon.stop()
        daemon = _Daemon(tpiin, state_dir=Path(tmp))
        try:
            if name == "batch":
                load = drive_batch(daemon, ops, batch_size)
            else:
                load = drive_single_arc(daemon, ops, clients)
            return load, result_signature(daemon.service)
        finally:
            daemon.stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny CI tier")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--batch-size", type=int, default=256)
    parser.add_argument("-o", "--out", type=Path, default=None)
    parser.add_argument(
        "--compare",
        type=Path,
        default=None,
        help="committed BENCH_PR9.json to gate against",
    )
    parser.add_argument(
        "--floor-fraction",
        type=float,
        default=0.2,
        help="min fraction of the committed single_arc throughput",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        companies, probability, op_count, seed_op_count = 120, 0.05, 200, 20
        repeats = min(args.repeats, 2)
    else:
        companies, probability, op_count, seed_op_count = 200, 0.05, 600, 60
        repeats = args.repeats

    tpiin = build_dataset(23, companies, probability)
    ops = build_ops(tpiin, op_count, seed=7)
    seed_ops = ops[:seed_op_count]

    best: dict[str, LoadResult] = {}
    signatures: dict[str, tuple[frozenset, int]] = {}
    for repeat in range(repeats):
        # Rotate the config order so ambient drift (thermal, page
        # cache) is spread across configs instead of biasing one.
        order = CONFIG_NAMES[repeat % len(CONFIG_NAMES) :] + CONFIG_NAMES[
            : repeat % len(CONFIG_NAMES)
        ]
        for name in order:
            load, signature = run_config(
                name,
                tpiin,
                ops,
                seed_ops,
                clients=args.clients,
                batch_size=args.batch_size,
            )
            if (
                name not in best
                or load.ops_per_second > best[name].ops_per_second
            ):
                best[name] = load
            if signature is not None:
                signatures[name] = signature
            print(
                f"[{repeat + 1}/{repeats}] {name}: "
                f"{load.ops_per_second:,.0f} ops/s "
                f"p50={load.percentile(0.5):.2f}ms "
                f"p99={load.percentile(0.99):.2f}ms",
                file=sys.stderr,
            )

    # ------------------------------------------------------------------
    # agreement: every config replayed the same stream; all services
    # must agree with each other AND with a batch parallel-engine detect.
    expected_arcs = final_arcs(tpiin, ops)
    graph = tpiin.antecedent_graph()
    for seller, buyer in sorted(expected_arcs):
        graph.add_arc(seller, buyer, EColor.TRADING)
    batch_result = detect(TPIIN(graph=graph), engine="parallel")
    batch_signature = (
        frozenset(g.key() for g in batch_result.groups),
        len(expected_arcs),
    )
    for name, signature in signatures.items():
        if signature != batch_signature:
            print(f"AGREEMENT FAILURE: {name} diverged from batch detect")
            return 1

    single = best["single_arc"].ops_per_second
    seed = best["seed_single_shard"].ops_per_second
    batch = best["batch"].ops_per_second
    ratios = {
        "batch_vs_single_arc": round(batch / single, 2) if single else 0.0,
        "single_arc_vs_seed_single_shard": round(single / seed, 2) if seed else 0.0,
    }
    payload = {
        "benchmark": "pr9-service-load",
        "mode": "smoke" if args.smoke else "full",
        "protocol": (
            f"interleaved best-of-{repeats}, gc.collect() before each "
            "window, identical seeded op stream per config, post-ingest "
            "agreement vs batch parallel-engine detect"
        ),
        "dataset": {
            "generator_seed": 23,
            "companies": companies,
            "trading_probability": probability,
            "ops": op_count,
            "seed_config_ops": seed_op_count,
        },
        "clients": args.clients,
        "batch_size": args.batch_size,
        "configs": {
            name: {
                "ops_per_second": round(load.ops_per_second, 1),
                "p50_ms": round(load.percentile(0.5), 3),
                "p99_ms": round(load.percentile(0.99), 3),
                "ops": load.ops,
            }
            for name, load in best.items()
        },
        "ratios": ratios,
        "agreement": "all configs matched batch parallel-engine detect",
        "notes": (
            "seed_single_shard is the daemon over an earlier revision's "
            "transport (no TCP_NODELAY; Nagle + delayed ACK stalls every "
            "response ~40 ms).  single_arc and batch run the same daemon "
            "over the fixed transport."
        ),
    }

    text = json.dumps(payload, indent=2)
    print(text)
    if args.out is not None:
        args.out.write_text(text + "\n")

    if args.compare is not None:
        committed = json.loads(args.compare.read_text())
        failures = []
        if ratios["batch_vs_single_arc"] < 5.0:
            failures.append(
                f"batch_vs_single_arc {ratios['batch_vs_single_arc']} < 5.0"
            )
        if ratios["single_arc_vs_seed_single_shard"] < 2.0:
            failures.append(
                "single_arc_vs_seed_single_shard "
                f"{ratios['single_arc_vs_seed_single_shard']} < 2.0"
            )
        committed_single = committed["configs"]["single_arc"]["ops_per_second"]
        floor = args.floor_fraction * committed_single
        if single < floor:
            failures.append(
                f"single_arc {single:.0f} ops/s under floor {floor:.0f} "
                f"({args.floor_fraction} x committed {committed_single})"
            )
        if failures:
            for failure in failures:
                print(f"COMPARE FAILURE: {failure}")
            return 1
        print(
            f"compare vs {args.compare}: ratios and throughput floor hold",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

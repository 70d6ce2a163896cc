#!/usr/bin/env python3
"""The detection daemon end to end: boot, stream, kill, recover.

Drives the `repro-tpiin serve` daemon the way an operator would — as a
real child process over its JSON HTTP API — and asserts the durability
contract at every step:

1. generate a small provincial TPIIN and boot the daemon on it;
2. stream adds/removes through the Python client, reading verdicts and
   `/metrics` (path-cache hits prove the antecedent indexes stay warm);
3. SIGTERM the daemon and check it drains with exit code 0;
4. restart on the same state dir and check the groups, walked page by
   page through `/v1/groups`, are unchanged;
5. SIGKILL it mid-stream — no drain, no goodbye — restart, and check
   the write-ahead log replays to exactly the acknowledged state.

CI runs this script; it exits non-zero on any violated expectation.

Run:  python examples/serve_demo.py [--companies 120] [--seed 7]
"""

import argparse
import json
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.datagen import ProvinceConfig, generate_province
from repro.io.edge_list_io import write_tpiin_csv
from repro.mining.detector import detect
from repro.service import ServiceClient


def boot_daemon(arcs: Path, nodes: Path, state_dir: Path) -> tuple[subprocess.Popen, ServiceClient]:
    """Start `repro-tpiin serve` on an OS-assigned port; return proc + client."""
    process = subprocess.Popen(
        [
            sys.executable,
            "-u",
            "-m",
            "repro",
            "serve",
            str(arcs),
            str(nodes),
            "--port",
            "0",
            "--state-dir",
            str(state_dir),
            "--snapshot-every",
            "8",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    banner = process.stdout.readline()  # "serving on http://host:port (...)"
    if "serving on " not in banner:
        process.kill()
        raise SystemExit(f"daemon failed to boot: {banner!r}")
    url = banner.split("serving on ", 1)[1].split()[0]
    client = ServiceClient(url)
    client.wait_until_healthy()
    return process, client


def group_lines(client: ServiceClient) -> list[str]:
    """Every live group, walked page by page, as sorted comparable lines."""
    return sorted(json.dumps(group, sort_keys=True) for group in client.groups())


def suspicious_arcs(client: ServiceClient) -> list[tuple[str, str]]:
    """The trading arcs behind the live groups, in page order."""
    arcs = (tuple(group["trading_trail"][-2:]) for group in client.groups())
    return list(dict.fromkeys(arcs))


def check(condition: bool, label: str) -> None:
    status = "ok" if condition else "FAILED"
    print(f"  [{status}] {label}")
    if not condition:
        raise SystemExit(f"expectation violated: {label}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--companies", type=int, default=120)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--probability", type=float, default=0.01)
    args = parser.parse_args(argv)

    dataset = generate_province(
        ProvinceConfig.small(companies=args.companies, seed=args.seed)
    )
    base = dataset.antecedent_tpiin()
    tpiin = dataset.overlay_trading(base, args.probability)
    batch = detect(tpiin, engine="parallel")
    print(
        f"dataset: {batch.total_trading_arcs} trading arcs, "
        f"{batch.group_count} suspicious groups in batch"
    )

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        arcs, nodes = workdir / "net.arcs.csv", workdir / "net.nodes.csv"
        write_tpiin_csv(tpiin, arcs, nodes)
        state_dir = workdir / "state"

        print("boot #1: fresh state")
        process, client = boot_daemon(arcs, nodes, state_dir)
        summary = client.result()
        check(summary["group_count"] == batch.group_count, "daemon result == batch result")
        check(
            len(list(client.groups(limit=100))) == batch.group_count,
            "GET /v1/groups pages through every group",
        )

        sus_seller, sus_buyer = suspicious_arcs(client)[0]
        # Boot mined the arcs in one batch, so the path cache starts cold:
        # the first rework fills it and the second one hits it.
        for _ in range(2):
            verdict = client.remove_arc(sus_seller, sus_buyer)
            check(verdict["applied"], f"removed suspicious arc {sus_seller}->{sus_buyer}")
            verdict = client.add_arc(sus_seller, sus_buyer)
            check(verdict["suspicious"], "re-added arc is flagged again, with proof chains")
        metrics = client.metrics()
        check(metrics["path_cache"]["hits"] >= 1, "path cache reports hits on rework")
        check(client.arc(sus_seller, sus_buyer)["present"], "GET /arcs sees the arc")
        pre_restart = group_lines(client)

        print("drain: SIGTERM")
        process.send_signal(signal.SIGTERM)
        check(process.wait(timeout=30) == 0, "daemon drained with exit code 0")

        print("boot #2: recover from state dir")
        process, client = boot_daemon(arcs, nodes, state_dir)
        health = client.healthz()
        print(f"  recovery: {health}")
        check(
            group_lines(client) == pre_restart,
            "recovered groups identical to the pre-restart groups",
        )

        print("stream more, then crash: SIGKILL")
        for seller, buyer in suspicious_arcs(client)[:3]:
            client.remove_arc(seller, buyer)
        acknowledged = client.result()
        acknowledged_groups = group_lines(client)
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=30)
        check(process.returncode != 0, "SIGKILL was not a clean exit (by design)")

        print("boot #3: replay the WAL")
        process, client = boot_daemon(arcs, nodes, state_dir)
        check(
            group_lines(client) == acknowledged_groups,
            "post-crash groups equal the last acknowledged state",
        )
        check(client.result() == acknowledged, "post-crash /result summary unchanged")

        process.send_signal(signal.SIGTERM)
        check(process.wait(timeout=30) == 0, "final drain exits 0")

    print("all expectations held")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: ``repro-tpiin`` (or ``python -m repro``).

Subcommands
-----------

``generate``
    Generate the provincial dataset and write the fused TPIIN (with a
    trading network at the given probability) as CSV.
``mine``
    Mine suspicious groups from a TPIIN stored as CSV; writes the
    paper's ``susGroup``/``susTrade`` files and a JSON result.
``table1``
    Run the Table-1 sweep and print the table (optionally side by side
    with the paper's numbers).
``investigate``
    Print the affiliated-transaction briefing for one company of the
    provincial dataset.
``serve``
    Boot the long-lived detection daemon over a TPIIN CSV: JSON API on
    HTTP, WAL-backed durability under ``--state-dir``.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from repro.analysis.audit_report import write_audit_report
from repro.analysis.explain import explain_arc
from repro.analysis.investigate import investigate_company
from repro.analysis.table1 import run_table1
from repro.datagen.config import PAPER_TRADING_PROBABILITIES, ProvinceConfig
from repro.datagen.province import generate_province
from repro.detectors.registry import resolve_detectors
from repro.detectors.runner import run_detectors
from repro.errors import ReproError
from repro.fusion.tpiin import TPIIN
from repro.io.edge_list_io import read_tpiin_csv, write_tpiin_csv
from repro.io.registry_io import load_registry_csvs
from repro.io.results_io import write_detection_json
from repro.ite.pipeline import run_two_phase
from repro.ite.transactions import SimulationConfig, simulate_transactions
from repro.mining.detector import IAT_DETECTOR_NAME, detect
from repro.mining.options import Engine
from repro.obs.profile import render_profile
from repro.service.config import ServiceConfig
from repro.service.server import DetectionHTTPServer, serve
from repro.service.sharding import ShardedDetectionService

__all__ = ["main", "build_parser"]

_ENGINE_CHOICES = [engine.value for engine in Engine]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-tpiin",
        description=(
            "TPIIN construction and suspicious tax-evasion-group mining "
            "(reproduction of Tian et al., 2017)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate the provincial dataset as CSV")
    gen.add_argument("--out", type=Path, default=Path("tpiin"), help="output prefix")
    gen.add_argument("--probability", type=float, default=0.002)
    gen.add_argument("--seed", type=int, default=20170417)
    gen.add_argument("--companies", type=int, default=2452)

    mine = sub.add_parser("mine", help="mine suspicious groups from a TPIIN CSV")
    mine.add_argument("arcs", type=Path, help="arc CSV (start,end,color)")
    mine.add_argument("nodes", type=Path, help="node CSV (node,color)")
    mine.add_argument("--engine", default="parallel", choices=_ENGINE_CHOICES)
    mine.add_argument("--out-dir", type=Path, default=Path("mining-out"))
    mine.add_argument(
        "--profile",
        action="store_true",
        help="trace the run and print the stage tree plus slowest subTPIINs",
    )
    mine.add_argument(
        "--detector",
        action="append",
        default=None,
        metavar="NAME",
        help=(
            "portfolio detector to run over the TPIIN (repeatable; "
            '"all" runs every detector); '
            "default: the paper's IAT mining only"
        ),
    )

    table = sub.add_parser("table1", help="run the Table-1 sweep")
    table.add_argument("--seed", type=int, default=20170417)
    table.add_argument(
        "--probabilities",
        type=float,
        nargs="*",
        default=list(PAPER_TRADING_PROBABILITIES),
    )
    table.add_argument("--companies", type=int, default=2452)
    table.add_argument("--compare-paper", action="store_true")

    inv = sub.add_parser("investigate", help="drill into one company")
    inv.add_argument("company", help="company id, e.g. C00000")
    inv.add_argument("--seed", type=int, default=20170417)
    inv.add_argument("--probability", type=float, default=0.002)
    inv.add_argument("--companies", type=int, default=2452)
    inv.add_argument("--explain", action="store_true", help="narrate proof chains")

    two = sub.add_parser(
        "twophase", help="run MSG + ITE on a synthetic province, write a report"
    )
    two.add_argument("--seed", type=int, default=20170417)
    two.add_argument("--companies", type=int, default=300)
    two.add_argument("--probability", type=float, default=0.01)
    two.add_argument("--report", type=Path, default=Path("audit_report.md"))

    ingest = sub.add_parser(
        "ingest", help="mine a registry-CSV directory (persons/companies/relations)"
    )
    ingest.add_argument("directory", type=Path)
    ingest.add_argument("--engine", default="parallel", choices=_ENGINE_CHOICES)
    ingest.add_argument("--out-dir", type=Path, default=Path("mining-out"))

    srv = sub.add_parser(
        "serve", help="run the detection daemon over a TPIIN CSV (JSON API)"
    )
    srv.add_argument("arcs", type=Path, help="arc CSV (start,end,color)")
    srv.add_argument("nodes", type=Path, help="node CSV (node,color)")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8420)
    srv.add_argument(
        "--state-dir",
        type=Path,
        default=Path("service-state"),
        help="directory for the WAL and snapshots",
    )
    srv.add_argument(
        "--snapshot-every",
        type=int,
        default=500,
        help="compact (snapshot + WAL truncate) every N applied updates",
    )
    srv.add_argument(
        "--no-fsync",
        action="store_true",
        help="skip fsync on WAL appends (faster, loses the last acks on power loss)",
    )
    srv.add_argument(
        "--max-cached-roots",
        type=int,
        default=4096,
        help="LRU capacity of the per-root influence-path cache (0 = unbounded)",
    )
    srv.add_argument(
        "--shards",
        type=int,
        default=1,
        choices=(1,),
        help=(
            "accepted for compatibility, and only as 1: the daemon runs one "
            "writer (threads sharing one interpreter lock made more shards "
            "no faster); a state directory written with --shards N>1 is "
            "folded into one shard at startup"
        ),
    )
    srv.add_argument(
        "--queue-limit",
        type=int,
        default=1024,
        help="ingest queue bound before requests are shed with 429",
    )
    srv.add_argument(
        "--group-commit-max",
        type=int,
        default=128,
        help="max queued mutations fused into one WAL fsync",
    )
    return parser


def _province_config(args: argparse.Namespace) -> ProvinceConfig:
    companies = getattr(args, "companies", 2452)
    if companies == 2452:
        return ProvinceConfig(seed=args.seed)
    return ProvinceConfig.small(seed=args.seed, companies=companies)


def _cmd_generate(args: argparse.Namespace) -> int:
    dataset = generate_province(_province_config(args))
    trading = dataset.trading_graph(args.probability)
    tpiin = dataset.fuse_with(trading).tpiin
    arc_path = args.out.with_suffix(".arcs.csv")
    node_path = args.out.with_suffix(".nodes.csv")
    write_tpiin_csv(tpiin, arc_path, node_path)
    stats = tpiin.stats()
    print(f"wrote {arc_path} and {node_path}")
    print(
        f"persons={stats.persons} companies={stats.companies} "
        f"influence={stats.influence_arcs} trading={stats.trading_arcs}"
    )
    return 0


def _cmd_mine(args: argparse.Namespace) -> int:
    tpiin = read_tpiin_csv(args.arcs, args.nodes)
    tpiin.validate()
    if args.detector:
        return _mine_portfolio(tpiin, args)
    result = detect(tpiin, engine=args.engine, trace=args.profile)
    print(result.summary())
    if args.profile and result.trace is not None:
        print()
        print(render_profile(result.trace))
    paths = result.write_files(args.out_dir)
    json_path = write_detection_json(result, args.out_dir / "detection.json")
    print(f"wrote {len(paths)} sus files and {json_path}")
    return 0


def _mine_portfolio(tpiin: TPIIN, args: argparse.Namespace) -> int:
    """``mine --detector``: run the selected portfolio over one freeze."""
    selection = resolve_detectors(args.detector)
    # The runner rejects a config for an unselected detector.
    configs = (
        {IAT_DETECTOR_NAME: {"engine": args.engine}}
        if IAT_DETECTOR_NAME in selection
        else None
    )
    report = run_detectors(tpiin, selection, configs=configs, trace=args.profile)
    print(report.summary())
    if args.profile and report.trace is not None:
        print()
        print(render_profile(report.trace))
    args.out_dir.mkdir(parents=True, exist_ok=True)
    findings_path = args.out_dir / "findings.json"
    findings_path.write_text(json.dumps(report.to_dict(), indent=2))
    written = [findings_path]
    iat_run = report.runs.get(IAT_DETECTOR_NAME)
    if iat_run is not None and iat_run.detection is not None:
        # The reference detector keeps the legacy artifacts intact.
        written.extend(iat_run.detection.write_files(args.out_dir))
        written.append(
            write_detection_json(iat_run.detection, args.out_dir / "detection.json")
        )
    print(f"wrote {len(written)} files under {args.out_dir}")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    dataset = generate_province(_province_config(args))
    result = run_table1(dataset, args.probabilities)
    print(result.render())
    if args.compare_paper:
        print()
        print(result.render_with_paper())
    return 0


def _cmd_investigate(args: argparse.Namespace) -> int:
    dataset = generate_province(_province_config(args))
    base = dataset.antecedent_tpiin()
    tpiin = dataset.overlay_trading(base, args.probability)
    result = detect(tpiin, engine=Engine.PARALLEL)
    investigation = investigate_company(tpiin, result, args.company)
    print(investigation.render())
    print()
    print("Investment tree:")
    print(investigation.investment_tree(tpiin))
    if args.explain and investigation.groups:
        arcs = sorted({g.trading_arc for g in investigation.groups})
        print()
        for arc in arcs[:5]:
            print(explain_arc(arc, result, tpiin))
            print()
    return 0


def _cmd_twophase(args: argparse.Namespace) -> int:
    dataset = generate_province(_province_config(args))
    base = dataset.antecedent_tpiin()
    tpiin = dataset.overlay_trading(base, args.probability)
    result = detect(tpiin, engine=Engine.PARALLEL)
    print(result.summary())
    industry_of = {
        c.company_id: c.industry for c in dataset.registry.companies.values()
    }
    book = simulate_transactions(
        list(tpiin.trading_arcs()),
        result.suspicious_trading_arcs,
        industry_of,
        config=SimulationConfig(seed=args.seed),
    )
    outcome = run_two_phase(tpiin, book, msg_result=result)
    print(outcome.summary())
    path = write_audit_report(args.report, tpiin, result, two_phase=outcome)
    print(f"wrote {path}")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    bundle = load_registry_csvs(args.directory)
    tpiin = bundle.fuse().tpiin
    result = detect(tpiin, engine=args.engine)
    print(result.summary())
    paths = result.write_files(args.out_dir)
    json_path = write_detection_json(result, args.out_dir / "detection.json")
    print(f"wrote {len(paths)} sus files and {json_path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(name)s %(levelname)s %(message)s"
    )
    tpiin = read_tpiin_csv(args.arcs, args.nodes)
    tpiin.validate()
    config = ServiceConfig(
        state_dir=args.state_dir,
        host=args.host,
        port=args.port,
        snapshot_every=args.snapshot_every,
        fsync=not args.no_fsync,
        max_cached_roots=args.max_cached_roots or None,
        ingest_queue_limit=args.queue_limit,
        group_commit_max=args.group_commit_max,
    )
    service = ShardedDetectionService.open(tpiin, config)
    server = DetectionHTTPServer((config.host, config.port), service)
    host, port = server.server_address[:2]
    print(
        f"serving on http://{host}:{port} "
        f"(state dir {config.state_dir}, arcs {service.arc_count()}, "
        f"recovered {service.recovered_records} WAL records)"
    )
    serve(server)
    print("daemon drained; state flushed")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "mine": _cmd_mine,
    "table1": _cmd_table1,
    "investigate": _cmd_investigate,
    "twophase": _cmd_twophase,
    "ingest": _cmd_ingest,
    "serve": _cmd_serve,
}


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; a library or OS error exits 2 with one line."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ReproError, OSError) as exc:
        # KeyError-derived errors would print their message repr-quoted.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"repro-tpiin {args.command}: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

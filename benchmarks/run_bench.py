"""Cross-engine mining benchmark on Table-1-style synthetic settings.

Standalone runner (NOT collected by pytest — ``pythonpath`` config only
picks up ``test_*.py`` / ``bench_*.py``).  Generates provincial TPIINs
at a sweep of sizes and trading probabilities, runs every mining engine
on each, checks that they all report the *same* suspicious-group set,
and writes a machine-readable JSON report with wall time, peak RSS and
trails/second per (setting, engine) cell.

Usage::

    python benchmarks/run_bench.py                    # full sweep -> BENCH_PR7.json
    python benchmarks/run_bench.py --smoke            # tiny CI sweep, < 60 s
    python benchmarks/run_bench.py -o out.json --engines faithful parallel

Exit status is non-zero when any engine disagrees with the faithful
group set, so CI can gate on it.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.datagen.config import ProvinceConfig  # noqa: E402
from repro.datagen.province import generate_province  # noqa: E402
from repro.detectors import ALL_DETECTORS, run_detectors  # noqa: E402
from repro.fusion.tpiin import TPIIN  # noqa: E402
from repro.mining.detector import DetectionResult, detect  # noqa: E402
from repro.model.colors import EColor, VColor  # noqa: E402
from repro.obs.tracing import Tracer  # noqa: E402

#: (label, companies, trading probability) — ordered sparsest to densest.
#: The densest settings add investment cross-arcs (path multiplicity),
#: mirroring the conglomerate structure behind Table 1's group blow-up;
#: scale-10k is the ~1M-arc provincial tier (Section VI scale).
FULL_SETTINGS: tuple[tuple[str, int, float], ...] = (
    ("sparse-120", 120, 0.010),
    ("medium-240", 240, 0.020),
    ("dense-360", 360, 0.050),
    ("denser-480", 480, 0.100),
    ("densest-720", 720, 0.100),
    ("scale-10k", 10000, 0.0095),
)

SMOKE_SETTINGS: tuple[tuple[str, int, float], ...] = (
    ("smoke-60", 60, 0.020),
    ("smoke-90", 90, 0.050),
)

ENGINES: tuple[str, ...] = ("faithful", "parallel")

GENERATOR_SEED = 31

#: Settings at or above this company count get the conglomerate-heavy
#: antecedent structure (extra investment arcs, dual holdings).
HEAVY_COMPANIES = 700

#: Timing repetitions per (setting, engine) cell; best-of is reported.
REPEATS = 3

#: Settings at or above this company count repeat only twice — the
#: slowest engine spends half a minute per run at the 10k tier.
SCALE_COMPANIES = 5000


def repeats_for(companies: int, smoke: bool) -> int:
    if smoke:
        return 1
    return 2 if companies >= SCALE_COMPANIES else REPEATS


def relabel_realistic(tpiin: TPIIN) -> TPIIN:
    """Re-key every node to an 18-char registration-code-style id.

    The paper's taxpayers carry 18-character unified social credit
    codes; the generator's compact ids ("C00017") understate the string
    hashing the faithful engine performs per prefix.  Deterministic:
    codes are assigned in node iteration order.
    """
    mapping: dict[object, str] = {}
    for i, node in enumerate(tpiin.graph.nodes()):
        color = tpiin.graph.node_color(node)
        prefix = "911001" if color is VColor.COMPANY else "330701"
        mapping[node] = f"{prefix}{i:012d}"
    return TPIIN.build(
        persons=[mapping[n] for n in tpiin.graph.nodes(VColor.PERSON)],
        companies=[mapping[n] for n in tpiin.graph.nodes(VColor.COMPANY)],
        influence=[
            (mapping[a], mapping[b]) for a, b, _ in tpiin.graph.arcs(EColor.INFLUENCE)
        ],
        trading=[
            (mapping[a], mapping[b]) for a, b, _ in tpiin.graph.arcs(EColor.TRADING)
        ],
    )


def build_tpiin(companies: int, probability: float) -> TPIIN:
    if companies >= HEAVY_COMPANIES:
        config = ProvinceConfig(
            companies=companies,
            legal_persons=max(2, int(companies * 0.55)),
            directors=max(1, int(companies * 0.316)),
            investment_extra_arc_share=0.20,
            dual_holding_attach_both=0.9,
            seed=GENERATOR_SEED,
        )
    else:
        config = ProvinceConfig.small(companies=companies, seed=GENERATOR_SEED)
    dataset = generate_province(config)
    tpiin = dataset.overlay_trading(dataset.antecedent_tpiin(), probability)
    return relabel_realistic(tpiin)


#: The (label, companies, probability) tier the detector-portfolio cell
#: runs on: densest-720 in full mode, the larger smoke tier in --smoke.
DETECTOR_TIER: tuple[str, int, float] = ("densest-720", 720, 0.100)
DETECTOR_SMOKE_TIER: tuple[str, int, float] = ("smoke-90", 90, 0.050)


def build_registry_tpiin(companies: int, probability: float) -> TPIIN:
    """Like :func:`build_tpiin` but keeping the entity registry attached.

    The detector portfolio needs registry provenance (declared capital
    for ``missing-trader``, syndicate contraction kinds for
    ``shared-household``); the registration-code relabeling used by the
    engine sweep drops it, so the detectors cell keeps generator ids.
    """
    if companies >= HEAVY_COMPANIES:
        config = ProvinceConfig(
            companies=companies,
            legal_persons=max(2, int(companies * 0.55)),
            directors=max(1, int(companies * 0.316)),
            investment_extra_arc_share=0.20,
            dual_holding_attach_both=0.9,
            seed=GENERATOR_SEED,
        )
    else:
        config = ProvinceConfig.small(companies=companies, seed=GENERATOR_SEED)
    dataset = generate_province(config)
    return dataset.overlay_trading(dataset.antecedent_tpiin(), probability)


def detectors_cell(smoke: bool) -> dict[str, Any]:
    """Time the full detector portfolio against an IAT-only run.

    Both runs share one tier and one engine (parallel); the difference is
    what the three structural detectors plus the shared trading freeze
    cost on top of the paper's miner.  Best-of-repeats, interleaved,
    same GC discipline as :func:`time_engines`.
    """
    label, companies, probability = DETECTOR_SMOKE_TIER if smoke else DETECTOR_TIER
    repeats = repeats_for(companies, smoke)
    tpiin = build_registry_tpiin(companies, probability)
    configs = {"iat-groups": {"engine": "parallel"}}
    walls = {"iat_only": float("inf"), "portfolio": float("inf")}
    for _ in range(repeats):
        for key, selection in (
            ("iat_only", ["iat-groups"]),
            ("portfolio", ALL_DETECTORS),
        ):
            gc.collect()
            started = time.perf_counter()
            run_detectors(tpiin, selection, configs=configs)
            walls[key] = min(walls[key], time.perf_counter() - started)
    report = run_detectors(tpiin, ALL_DETECTORS, configs=configs)
    overhead = walls["portfolio"] - walls["iat_only"]
    return {
        "setting": label,
        "companies": companies,
        "trading_probability": probability,
        "engine": "parallel",
        "iat_only_wall_seconds": round(walls["iat_only"], 4),
        "portfolio_wall_seconds": round(walls["portfolio"], 4),
        "portfolio_overhead_seconds": round(overhead, 4),
        "portfolio_overhead_ratio": (
            round(walls["portfolio"] / walls["iat_only"], 3)
            if walls["iat_only"] > 0
            else None
        ),
        "detectors": {
            name: {
                "version": run.version,
                "findings": len(run.findings),
                "elapsed_seconds": round(run.elapsed_seconds, 4),
            }
            for name, run in report.runs.items()
        },
    }


def peak_rss_bytes() -> int:
    """Peak RSS of this process; kilobytes on Linux, bytes on macOS."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024


def probe_engine_rss(companies: int, probability: float, engine: str) -> int | None:
    """Peak RSS of one engine run, measured in a fresh subprocess.

    A process-wide ``ru_maxrss`` high-water mark never resets, so
    measuring engines in one process charges every engine with the
    hungriest predecessor's peak.  The child regenerates the dataset,
    runs ``detect`` once and prints its own peak; generation cost is
    identical across engines and therefore cancels in comparisons.
    """
    run = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--rss-probe",
            str(companies),
            str(probability),
            engine,
        ],
        capture_output=True,
        text=True,
    )
    if run.returncode != 0:  # pragma: no cover - probe crashed
        print(f"  rss probe failed for {engine}: {run.stderr.strip()}", flush=True)
        return None
    return int(run.stdout.strip().splitlines()[-1])


def rss_probe_main(companies: int, probability: float, engine: str) -> int:
    """Child-process entry: one generate + detect, peak RSS on stdout."""
    tpiin = build_tpiin(companies, probability)
    detect(tpiin, engine=engine)
    print(peak_rss_bytes())
    return 0


def time_engines(
    tpiin: TPIIN, engines: tuple[str, ...], repeats: int
) -> dict[str, float]:
    """Best-of-``repeats`` wall time per engine, interleaved round-robin.

    Nothing is retained across timed runs and the heap is collected
    before each, so no engine pays generational-GC traversals over
    another engine's leftovers (a run-order artifact).  GC stays
    *enabled* during the runs themselves: allocation-driven GC pressure
    is genuine engine cost — shedding it is part of what the CSR kernel
    is for — and production processes run with GC on.
    """
    walls: dict[str, float] = {engine: float("inf") for engine in engines}
    for _ in range(repeats):
        for engine in engines:
            gc.collect()
            started = time.perf_counter()
            detect(tpiin, engine=engine)
            walls[engine] = min(walls[engine], time.perf_counter() - started)
    return walls


def bench_setting(
    label: str,
    companies: int,
    probability: float,
    engines: tuple[str, ...],
    repeats: int = REPEATS,
    probe_rss: bool = True,
) -> dict[str, Any]:
    tpiin = build_tpiin(companies, probability)
    walls = time_engines(tpiin, engines, repeats)
    cells: dict[str, Any] = {}
    group_keys: dict[str, frozenset[Any]] = {}
    for engine in engines:
        # Untimed verification run: collect outputs and agreement keys.
        result: DetectionResult = detect(tpiin, engine=engine)
        wall = walls[engine]
        # For the parallel engine groups are lazy — the first full pass
        # below is exactly the deferred materialization cost.
        started = time.perf_counter()
        group_keys[engine] = frozenset(g.key() for g in result.groups)
        materialize = time.perf_counter() - started
        trails = result.pattern_trail_count
        cells[engine] = {
            "wall_seconds": round(wall, 4),
            "peak_rss_bytes": (
                probe_engine_rss(companies, probability, engine)
                if probe_rss
                else None
            ),
            "pattern_trails": trails,
            "trails_per_second": (
                round(trails / wall, 1) if trails is not None and wall > 0 else None
            ),
            "groups": len(result.groups),
            "groups_materialize_seconds": round(materialize, 4),
            "suspicious_arcs": len(result.suspicious_trading_arcs),
        }
    reference = group_keys.get("faithful") or next(iter(group_keys.values()))
    agree = all(keys == reference for keys in group_keys.values())
    setting: dict[str, Any] = {
        "label": label,
        "companies": companies,
        "trading_probability": probability,
        "nodes": tpiin.graph.number_of_nodes(),
        "arcs": tpiin.graph.number_of_arcs(),
        "engines": cells,
        "engines_agree": agree,
    }
    if "faithful" in cells and "parallel" in cells:
        faithful_wall = cells["faithful"]["wall_seconds"]
        wall = cells["parallel"]["wall_seconds"]
        setting["parallel_speedup_vs_faithful"] = (
            round(faithful_wall / wall, 2) if wall > 0 else None
        )
    return setting


def write_trace_jsonl(
    settings: tuple[tuple[str, int, float], ...],
    engine: str,
    path: Path,
) -> None:
    """Run one traced detect on the first setting and write span JSONL."""
    label, companies, probability = settings[0]
    tpiin = build_tpiin(companies, probability)
    tracer = Tracer()
    detect(tpiin, engine=engine, trace=tracer)
    path.write_text(tracer.to_jsonl() + "\n")
    print(f"wrote {tracer.span_count()} spans for {label}/{engine} to {path}")


def compare_reports(
    new_report: dict[str, Any], old_report: dict[str, Any], tolerance: float
) -> list[str]:
    """Wall-time regressions beyond ``tolerance`` vs an older report.

    Compares only (setting, engine) cells present in both reports, so a
    baseline from a different sweep shape degrades to a partial check
    rather than an error.
    """
    old_settings = {s["label"]: s for s in old_report.get("settings", [])}
    regressions: list[str] = []
    for setting in new_report["settings"]:
        old_setting = old_settings.get(setting["label"])
        if old_setting is None:
            continue
        for engine, cell in setting["engines"].items():
            old_cell = old_setting.get("engines", {}).get(engine)
            if old_cell is None:
                continue
            old_wall = old_cell["wall_seconds"]
            new_wall = cell["wall_seconds"]
            if old_wall > 0 and new_wall > old_wall * (1.0 + tolerance):
                regressions.append(
                    f"{setting['label']}/{engine}: {new_wall:.3f}s vs "
                    f"baseline {old_wall:.3f}s "
                    f"(+{(new_wall / old_wall - 1.0) * 100.0:.1f}%, "
                    f"tolerance {tolerance * 100.0:.0f}%)"
                )
    return regressions


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["--rss-probe"]:
        companies, probability, engine = argv[1], argv[2], argv[3]
        return rss_probe_main(int(companies), float(probability), engine)

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-o",
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_PR7.json",
        help="where to write the JSON report (default: repo-root BENCH_PR7.json)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny settings for CI: fast, still checks cross-engine agreement",
    )
    parser.add_argument(
        "--detectors",
        action="store_true",
        help="run only the detector-portfolio cell (full portfolio vs "
        "IAT-only on the densest-720 tier; smoke tier with --smoke) and "
        "write it as a pr8 report (default output: BENCH_PR8.json)",
    )
    parser.add_argument(
        "--no-rss-probe",
        action="store_true",
        help="skip the fresh-subprocess per-engine peak-RSS probes",
    )
    parser.add_argument(
        "--engines",
        nargs="+",
        choices=ENGINES,
        default=list(ENGINES),
        help="subset of engines to run (default: all)",
    )
    parser.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        help="also run one traced detect on the first setting and write "
        "its span JSONL here (CI artifact)",
    )
    parser.add_argument(
        "--compare",
        type=Path,
        default=None,
        metavar="OLD.json",
        help="compare wall times against an older report; exit non-zero "
        "on regressions beyond --tolerance",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.03,
        help="allowed fractional wall-time regression for --compare "
        "(default: 0.03)",
    )
    args = parser.parse_args(argv)

    if args.detectors:
        default_output = parser.get_default("output")
        output = (
            args.output
            if args.output != default_output
            else default_output.parent / "BENCH_PR8.json"
        )
        cell = detectors_cell(args.smoke)
        report = {
            "benchmark": "pr8-detector-portfolio",
            "mode": "smoke" if args.smoke else "full",
            "generator_seed": GENERATOR_SEED,
            "notes": (
                "wall_seconds is best-of-repeats with the two selections "
                "interleaved and gc.collect() before each timed run. "
                "portfolio runs all registered detectors over ONE shared "
                "frozen trading view; iat_only runs just the paper's miner "
                "through the same plugin path, so the overhead column is "
                "what the three structural detectors cost on top of it. "
                "The tier keeps generator node ids and the entity registry "
                "(declared capital, syndicate provenance) attached."
            ),
            "detectors_cell": cell,
        }
        print(
            f"[{cell['setting']}] iat-only {cell['iat_only_wall_seconds']:.3f}s, "
            f"portfolio {cell['portfolio_wall_seconds']:.3f}s "
            f"(+{cell['portfolio_overhead_seconds']:.3f}s, "
            f"x{cell['portfolio_overhead_ratio']})",
            flush=True,
        )
        for name, per in cell["detectors"].items():
            print(
                f"  {name:>16}: {per['elapsed_seconds']:8.3f}s  "
                f"{per['findings']:>6} findings",
                flush=True,
            )
        output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {output}")
        return 0

    settings = SMOKE_SETTINGS if args.smoke else FULL_SETTINGS
    engines = tuple(args.engines)
    results = []
    for label, companies, probability in settings:
        print(f"[{label}] companies={companies} p={probability} ...", flush=True)
        setting = bench_setting(
            label,
            companies,
            probability,
            engines,
            repeats=repeats_for(companies, args.smoke),
            probe_rss=not args.no_rss_probe,
        )
        for engine in engines:
            cell = setting["engines"][engine]
            trails = cell["pattern_trails"]
            print(
                f"  {engine:>9}: {cell['wall_seconds']:8.3f}s  "
                f"{trails if trails is not None else '-':>8} trails  "
                f"{cell['groups']:>6} groups",
                flush=True,
            )
        if not setting["engines_agree"]:
            print(f"  !! engines disagree on {label}", flush=True)
        if "parallel_speedup_vs_faithful" in setting:
            speedup = setting["parallel_speedup_vs_faithful"]
            print(f"  parallel speedup vs faithful: {speedup}x", flush=True)
        results.append(setting)

    report = {
        "benchmark": "pr7-shm-parallel-engine",
        "mode": "smoke" if args.smoke else "full",
        "generator_seed": GENERATOR_SEED,
        "notes": (
            "peak_rss_bytes is measured per engine in a fresh subprocess "
            "(generate + one detect; ru_maxrss of the child), so engines do "
            "not inherit each other's high-water marks. wall_seconds is "
            "best-of-repeats with engines interleaved round-robin, "
            "gc.collect() before each timed run, GC enabled during it, and "
            "nothing retained across timed runs; dataset generation and the "
            "verification pass are excluded. The parallel engine defers "
            "group materialization — groups_materialize_seconds is the first "
            "full pass over result.groups during verification. Node ids are "
            "18-char registration-code style (see relabel_realistic)."
        ),
        "settings": results,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    if args.trace_out is not None:
        write_trace_jsonl(settings, engines[0], args.trace_out)

    if not all(s["engines_agree"] for s in results):
        print("FAIL: engine group sets disagree", file=sys.stderr)
        return 1

    if args.compare is not None:
        baseline = json.loads(args.compare.read_text())
        regressions = compare_reports(report, baseline, args.tolerance)
        for line in regressions:
            print(f"REGRESSION: {line}", file=sys.stderr)
        if regressions:
            return 1
        print(f"no wall-time regressions vs {args.compare}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

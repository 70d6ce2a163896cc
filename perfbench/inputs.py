"""Seeded input generator with a per-seed cache and reference outputs.

Every workload's inputs are files under ``.perfbench-cache/<workload>-<seed>``
in the checkout; the program under test only ever sees those files and
API arguments.  The graph *structure* of each workload comes from the
province generator at :data:`GENERATOR_SEED` (the repository's benchmark
seed), so run-to-run timing spread stays small; ``--seed`` varies what a
real extract varies between runs: the 18-character registration codes,
row order, the transaction book and the daemon's op and query streams.

Reference outputs are computed once per seed with the faithful engine
(the repository's oracle) and stored next to the inputs.
"""

from __future__ import annotations

import csv
import json
import pickle
import random
import shutil
from pathlib import Path
from typing import Any

from repro.datagen.config import ProvinceConfig
from repro.datagen.province import ProvincialDataset, generate_province
from repro.detectors.runner import run_detectors
from repro.fusion.tpiin import TPIIN
from repro.io.edge_list_io import read_tpiin_csv, write_tpiin_csv
from repro.io.registry_io import load_registry_csvs, write_registry_csvs
from repro.ite.pipeline import run_two_phase
from repro.ite.transactions import SimulationConfig, simulate_transactions
from repro.mining.detector import DetectionResult, detect
from repro.mining.oracle import suspicious_arc_oracle
from repro.model.colors import EColor, VColor

from child import STRUCTURAL_DETECTORS, build_from_edges
from stats import arc_digest, kind_counts

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".perfbench-cache"

GENERATOR_SEED = 31

#: audit-batch: the conglomerate-heavy province of ``run_bench.py``'s
#: large tiers at the scale-10k trading probability.
AUDIT_COMPANIES, AUDIT_PROBABILITY = 1500, 0.0095
#: mine-dense: a denser heavy province where group decoding dominates.
MINE_COMPANIES, MINE_PROBABILITY = 2500, 0.02
#: serve-*: the paper-size province at the paper's sparsest probability.
SERVE_PROBABILITY = 0.002
#: Ops in the ingest stream and fresh pairs for the query mix's adds:
#: enough for a 60-second run at the rates the workloads use.
INGEST_STREAM = 80000
QUERY_ADDS = 20000

#: Scale-10k counts committed by the engine benchmark (generator seed 31).
SCALE_10K = {"companies": 10000, "probability": 0.0095,
             "groups": 2788143, "suspicious_arcs": 48016}


def heavy_config(companies: int, seed: int = GENERATOR_SEED) -> ProvinceConfig:
    """The conglomerate-heavy settings ``run_bench.py`` uses at >= 700 companies."""
    return ProvinceConfig(
        companies=companies,
        legal_persons=max(2, int(companies * 0.55)),
        directors=max(1, int(companies * 0.316)),
        investment_extra_arc_share=0.20,
        dual_holding_attach_both=0.9,
        seed=seed,
    )


def mining_reference(result: DetectionResult) -> dict[str, Any]:
    return {
        "groups": len(result.groups),
        "kinds": kind_counts(result.groups),
        "suspicious_arcs": len(result.suspicious_trading_arcs),
        "suspicious_digest": arc_digest(result.suspicious_trading_arcs),
    }


class _Codes:
    """Seeded 18-character registration codes, unique per run."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self._used: set[str] = set()

    def new(self, prefix: str) -> str:
        while True:
            code = f"{prefix}{self._rng.randrange(10**12):012d}"
            if code not in self._used:
                self._used.add(code)
                return code


def _cached(name: str, seed: int, build: Any) -> Path:
    """Build ``<name>-<seed>`` once; a half-built directory never counts."""
    final = CACHE / f"{name}-{seed}"
    if (final / "reference.json").exists():
        return final
    partial = CACHE / f"{name}-{seed}.partial"
    shutil.rmtree(partial, ignore_errors=True)
    partial.mkdir(parents=True)
    build(partial)
    shutil.rmtree(final, ignore_errors=True)
    partial.rename(final)
    return final


def _write_json(path: Path, payload: Any) -> None:
    path.write_text(json.dumps(payload, sort_keys=True))


def _read_csv(path: Path) -> list[list[str]]:
    with path.open(newline="") as handle:
        return list(csv.reader(handle))


def _write_csv(path: Path, rows: list[list[str]]) -> None:
    with path.open("w", newline="") as handle:
        csv.writer(handle).writerows(rows)


# ----------------------------------------------------------------------
# audit-batch: registry CSVs + transaction book
# ----------------------------------------------------------------------
def audit_inputs(seed: int) -> Path:
    return _cached("audit-batch", seed, lambda d: _build_audit(d, seed))


def _build_audit(directory: Path, seed: int) -> None:
    base = directory / "base"
    write_registry_csvs(
        generate_province(heavy_config(AUDIT_COMPANIES)),
        base,
        trading_probability=AUDIT_PROBABILITY,
    )
    codes = _Codes(seed)
    mapping: dict[str, str] = {}
    registry = directory / "registry"
    registry.mkdir()
    for name, prefix in (("persons.csv", "330701"), ("companies.csv", "911001")):
        header, *rows = _read_csv(base / name)
        for row in rows:
            row[0] = mapping.setdefault(row[0], codes.new(prefix))
        _write_csv(registry / name, [header, *rows])
    header, *rows = _read_csv(base / "relations.csv")
    for row in rows:
        row[1], row[2] = mapping[row[1]], mapping[row[2]]
    random.Random(seed).shuffle(rows)
    _write_csv(registry / "relations.csv", [header, *rows])
    shutil.rmtree(base)

    bundle = load_registry_csvs(registry)
    tpiin = bundle.fuse().tpiin
    faithful = detect(tpiin)
    oracle = suspicious_arc_oracle(tpiin)
    if oracle != faithful.suspicious_trading_arcs:
        raise RuntimeError("faithful engine disagrees with the suspicious-arc oracle")
    industry_of = {c.company_id: c.industry for c in bundle.registry.companies.values()}
    book = simulate_transactions(
        list(tpiin.trading_arcs()),
        faithful.suspicious_trading_arcs,
        industry_of,
        config=SimulationConfig(seed=seed),
    )
    with (directory / "book.pickle").open("wb") as handle:
        pickle.dump(book, handle)
    findings = run_detectors(tpiin, list(STRUCTURAL_DETECTORS))
    outcome = run_two_phase(tpiin, book, msg_result=faithful)
    _write_json(directory / "reference.json", {
        **mining_reference(faithful),
        "oracle_digest": arc_digest(oracle),
        "arcs": tpiin.graph.number_of_arcs(),
        "findings": {name: len(run.findings) for name, run in findings.runs.items()},
        "ite": {
            "examined": outcome.transactions_examined,
            "flagged": len(outcome.flagged),
            "tp": outcome.true_positives,
            "fp": outcome.false_positives,
            "fn": outcome.false_negatives,
        },
    })


# ----------------------------------------------------------------------
# mine-dense: plain edge lists for TPIIN.build
# ----------------------------------------------------------------------
def dense_edges(
    companies: int, probability: float, generator_seed: int, label_seed: int
) -> dict[str, list[Any]]:
    """A heavy province's fused TPIIN as plain lists, relabelled to seeded
    registration codes (persons ``330701…``, companies ``911001…``)."""
    dataset = generate_province(heavy_config(companies, generator_seed))
    tpiin = dataset.overlay_trading(dataset.antecedent_tpiin(), probability)
    codes = _Codes(label_seed)
    graph = tpiin.graph
    mapping = {
        node: codes.new("911001" if graph.node_color(node) is VColor.COMPANY else "330701")
        for node in graph.nodes()
    }
    rng = random.Random(label_seed)
    edges: dict[str, list[Any]] = {
        "persons": [mapping[n] for n in graph.nodes(VColor.PERSON)],
        "companies": [mapping[n] for n in graph.nodes(VColor.COMPANY)],
        "influence": [[mapping[a], mapping[b]] for a, b, _ in graph.arcs(EColor.INFLUENCE)],
        "trading": [[mapping[a], mapping[b]] for a, b, _ in graph.arcs(EColor.TRADING)],
    }
    for rows in edges.values():
        rng.shuffle(rows)
    return edges


def mine_inputs(seed: int) -> Path:
    return _cached("mine-dense", seed, lambda d: _build_mine(d, seed))


def _build_mine(directory: Path, seed: int) -> None:
    edges = dense_edges(MINE_COMPANIES, MINE_PROBABILITY, GENERATOR_SEED, seed)
    (directory / "edges.json").write_text(json.dumps(edges))
    tpiin = build_from_edges(edges)
    _write_json(directory / "reference.json", {
        **mining_reference(detect(tpiin)),
        "arcs": tpiin.graph.number_of_arcs(),
    })


# ----------------------------------------------------------------------
# serve-*: a TPIIN CSV, the ingest op stream and the query streams
# ----------------------------------------------------------------------
def serve_inputs(seed: int) -> Path:
    return _cached("serve", seed, lambda d: _build_serve(d, seed))


def _build_serve(directory: Path, seed: int) -> None:
    dataset: ProvincialDataset = generate_province(ProvinceConfig(seed=GENERATOR_SEED))
    fused = dataset.fuse_with(dataset.trading_graph(SERVE_PROBABILITY)).tpiin
    write_tpiin_csv(fused, directory / "net.arcs.csv", directory / "net.nodes.csv")
    # The daemon's own view of the input: exactly what `serve` will load.
    view = read_tpiin_csv(directory / "net.arcs.csv", directory / "net.nodes.csv")
    companies = sorted(str(c) for c in view.companies())
    baseline = sorted(
        {(str(s), str(b)) for s, b in view.trading_arcs()}
        | {(str(s), str(b)) for s, b in view.intra_scs_trades}
    )
    rng = random.Random(seed)
    used = set(baseline)

    def fresh_pairs(count: int) -> list[list[str]]:
        pairs = []
        while len(pairs) < count:
            seller, buyer = rng.sample(companies, 2)
            if (seller, buyer) not in used:
                used.add((seller, buyer))
                pairs.append([seller, buyer])
        return pairs

    # Ingest: a commutative add-heavy stream; ~10% remove distinct
    # baseline arcs, so the final arc set does not depend on the order.
    removable = list(baseline)
    rng.shuffle(removable)
    ingest: list[list[str]] = []
    for seller, buyer in fresh_pairs(INGEST_STREAM):
        if rng.random() < 0.1 and removable:
            ingest.append(["remove", *removable.pop()])
        ingest.append(["add", seller, buyer])
    faithful = detect(view)
    flagged = faithful.suspicious_trading_arcs  # a property that rebuilds the set
    verdicts = {(str(s), str(b)): (s, b) in flagged for s, b in view.trading_arcs()}
    suspicious = sorted([*arc] for arc, flag in verdicts.items() if flag)
    clean = sorted([*arc] for arc, flag in verdicts.items() if not flag)
    probes = [[*arc, True] for arc in rng.sample(suspicious, min(100, len(suspicious)))]
    probes += [[*arc, False] for arc in rng.sample(clean, min(100, len(clean)))]
    _write_json(directory / "streams.json", {
        "companies": companies,
        "baseline": [list(arc) for arc in baseline],
        "suspicious": suspicious,
        "clean": clean,
        "probes": probes,
        "ingest": ingest,
        "query_adds": fresh_pairs(QUERY_ADDS),
    })
    _write_json(directory / "reference.json", {
        **mining_reference(faithful),
        "baseline_arcs": len(baseline),
    })


def final_arc_reference(view: TPIIN, arcs: set[tuple[str, str]]) -> dict[str, Any]:
    """Faithful detection over the daemon's antecedent plus ``arcs``."""
    graph = view.antecedent_graph()
    for seller, buyer in sorted(arcs):
        graph.add_arc(seller, buyer, EColor.TRADING)
    result = detect(TPIIN(graph=graph))
    return {
        "simple": result.simple_group_count,
        "complex": result.complex_group_count,
        "trading_arcs": len(arcs),
    }

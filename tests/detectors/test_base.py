"""Finding/context/report vocabulary of the detector framework."""

import random

import pytest

from repro.detectors import (
    CircularTradingConfig,
    DetectionContext,
    DetectorRun,
    Finding,
    FindingsReport,
    FrozenTradingView,
    SharedHouseholdConfig,
    config_schema,
)
from repro.errors import MiningError
from repro.fusion.tpiin import TPIIN
from repro.graph.tarjan import strongly_connected_components, tarjan_sccs
from repro.model.colors import EColor
from repro.model.entities import Company, EntityRegistry
from repro.obs.tracing import Tracer


def _ring_tpiin() -> TPIIN:
    return TPIIN.build(
        persons=["P1"],
        companies=["C1", "C2", "C3", "C4"],
        influence=[("P1", "C1")],
        trading=[("C1", "C2"), ("C2", "C3"), ("C3", "C1")],
    )


class TestFinding:
    def test_members_sorted_and_set(self):
        finding = Finding(detector="toy", kind="k", members=("C3", "C1", "C2"))
        assert finding.members == ("C1", "C2", "C3")
        assert finding.member_set == frozenset({"C1", "C2", "C3"})

    def test_score_out_of_range_rejected(self):
        for bad in (-0.1, 1.5):
            with pytest.raises(MiningError, match="score"):
                Finding(detector="toy", kind="k", members=("C1",), score=bad)

    def test_to_dict(self):
        finding = Finding(
            detector="toy",
            kind="k",
            members=("C2", "C1"),
            arcs=(("C2", "C1"), ("C1", "C2")),
            score=0.25,
            summary="two companies",
            details=(("count", 2),),
        )
        payload = finding.to_dict()
        assert payload["detector"] == "toy"
        assert payload["members"] == ["C1", "C2"]
        assert payload["arcs"] == [["C1", "C2"], ["C2", "C1"]]
        assert payload["score"] == 0.25
        assert payload["details"] == {"count": 2}

    def test_to_dict_sorts_arcs_by_their_text(self):
        finding = Finding(
            detector="toy", kind="k", members=(2, 9, 10), arcs=((10, 2), (9, 10), (2, 9))
        )
        assert finding.to_dict()["arcs"] == [["10", "2"], ["2", "9"], ["9", "10"]]


class TestFrozenTradingView:
    def test_adjacency(self):
        view = DetectionContext(tpiin=_ring_tpiin()).trading
        assert len(view) == 3
        assert set(view.companies) == {"C1", "C2", "C3", "C4"}
        assert view.buyers_of("C1") == ("C2",)
        assert view.sellers_to("C1") == ("C3",)
        assert view.out_degree("C4") == 0
        assert view.in_degree("C4") == 0

    def test_built_once_and_shared(self):
        context = DetectionContext(tpiin=_ring_tpiin())
        assert context.trading is context.trading

    def test_freeze_is_traced(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            context = DetectionContext(tpiin=_ring_tpiin(), tracer=tracer)
            assert len(context.trading) == 3
        names = [child.name for child in root.record.children]
        assert names == ["freeze_trading"]

    def test_live_arcs_freeze_as_with_trading_arcs_files_them(self):
        # C1 and C2 fused into S: their twin sales to C3 become one arc,
        # and the trade between them no graph arc at all.
        antecedent = TPIIN.build(companies=["S", "C3"], influence=[("S", "C3")])
        antecedent.node_map = {"C1": "S", "C2": "S"}
        live = [("C1", "C3"), ("C2", "C3"), ("C1", "C2"), ("C3", "C2")]
        view = DetectionContext(tpiin=antecedent, live_arcs=live).trading
        rebuilt = antecedent.with_trading_arcs(live)
        assert set(view.arcs) == set(rebuilt.trading_arcs()) == {("S", "C3"), ("C3", "S")}
        assert len(view) == 2
        assert view.companies == ("S", "C3")

    def test_view_sccs_equal_the_digraph_sccs_in_order(self):
        # Influence arcs inserted first put some heads ahead of others in
        # the DiGraph's rows; the view, built from the graph's trading
        # arcs, must walk them in the same order.
        rng = random.Random(5)
        for _ in range(20):
            companies = [f"C{i}" for i in range(12)]
            pairs = [tuple(rng.sample(companies, 2)) for _ in range(30)]
            tpiin = TPIIN.build(
                companies=companies, influence=pairs[:6], trading=pairs[3:]
            )
            view = FrozenTradingView(tpiin.trading_arcs(), tpiin.companies())
            assert tarjan_sccs(view.companies, view.buyers_of) == (
                strongly_connected_components(tpiin.graph, EColor.TRADING)
            )


class TestContextRegistryLookups:
    def test_defaults_without_registry(self):
        context = DetectionContext(tpiin=_ring_tpiin())
        assert context.registered_capital("C1", 42.0) == 42.0
        assert context.industry_of("C1") == "general"

    def test_registry_backed_lookups(self):
        registry = EntityRegistry()
        registry.add_company(
            Company(company_id="C1", industry="wholesale", registered_capital=900.0)
        )
        registry.add_company(Company(company_id="C2"))  # capital undeclared
        tpiin = _ring_tpiin()
        tpiin.registry = registry
        context = DetectionContext(tpiin=tpiin)
        assert context.registered_capital("C1", 42.0) == 900.0
        assert context.industry_of("C1") == "wholesale"
        assert context.registered_capital("C2", 42.0) == 42.0
        assert context.registered_capital("C9", 42.0) == 42.0
        assert context.industry_of("C9") == "general"


class TestConfigSchema:
    def test_scalar_defaults(self):
        schema = config_schema(CircularTradingConfig())
        assert schema["min_cycle_size"]["default"] == 3
        assert schema["min_balance"]["default"] == 0.6

    def test_tuple_default_rendered_as_list(self):
        schema = config_schema(SharedHouseholdConfig())
        assert schema["link_kinds"]["default"] == ["kinship"]

    def test_non_dataclass_rejected(self):
        with pytest.raises(MiningError, match="dataclass"):
            config_schema({"not": "a dataclass"})


def _run(name: str, *findings: Finding) -> DetectorRun:
    return DetectorRun(
        name=name, version="1.0.0", findings=findings, elapsed_seconds=0.002
    )


class TestFindingsReport:
    def test_merge_and_lookup(self):
        one = Finding(detector="a", kind="k", members=("C1",))
        two = Finding(detector="b", kind="k", members=("C2",))
        report = FindingsReport(runs={"a": _run("a", one), "b": _run("b", two)})
        assert len(report) == 2
        assert report.names() == ("a", "b")
        assert "a" in report and "c" not in report
        assert report.findings == (one, two)
        assert report["a"].findings == (one,)
        assert report.to_dict()["total_findings"] == 2

    def test_missing_run_raises(self):
        report = FindingsReport(runs={"a": _run("a")})
        with pytest.raises(MiningError, match="no run for detector"):
            report["missing"]

    def test_summary_one_line_per_run(self):
        report = FindingsReport(runs={"a": _run("a"), "b": _run("b")})
        lines = report.summary().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("detector=a v1.0.0 findings=0")
        assert FindingsReport().summary() == "no detectors ran"

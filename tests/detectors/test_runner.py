"""The portfolio driver: shared context, config overrides, tracing."""

import pytest

from repro.detectors import run_detectors
from repro.errors import MiningError
from repro.fusion.tpiin import TPIIN
from repro.obs.tracing import Tracer


def _portfolio_tpiin() -> TPIIN:
    """An IAT triangle next to an IAT-invisible trading ring."""
    return TPIIN.build(
        persons=["P1", "L1", "L2", "L3"],
        companies=["X", "Y", "R1", "R2", "R3"],
        influence=[
            ("P1", "X"),
            ("P1", "Y"),
            ("L1", "R1"),
            ("L2", "R2"),
            ("L3", "R3"),
        ],
        trading=[("X", "Y"), ("R1", "R2"), ("R2", "R3"), ("R3", "R1")],
    )


class TestRunDetectors:
    def test_all_runs_every_registered_detector(self):
        report = run_detectors(_portfolio_tpiin(), "all")
        assert report.names() == (
            "circular-trading",
            "iat-groups",
            "missing-trader",
            "shared-household",
        )
        assert len(report.summary().splitlines()) == 4
        # The triangle is IAT-suspicious; the ring is circular-only.
        assert [f.kind for f in report["iat-groups"].findings] == [
            "iat-suspicious-arc"
        ]
        assert report["iat-groups"].findings[0].members == ("X", "Y")
        assert [f.members for f in report["circular-trading"].findings] == [
            ("R1", "R2", "R3")
        ]
        assert report["iat-groups"].detection is not None
        assert report["circular-trading"].detection is None

    def test_selection_order_and_single_name(self):
        report = run_detectors(_portfolio_tpiin(), "circular-trading")
        assert report.names() == ("circular-trading",)
        report = run_detectors(
            _portfolio_tpiin(), ["missing-trader", "circular-trading"]
        )
        assert report.names() == ("missing-trader", "circular-trading")

    def test_one_shared_freeze_across_the_portfolio(self):
        report = run_detectors(_portfolio_tpiin(), "all", trace=True)
        assert report.trace is not None
        assert report.trace.name == "run_detectors"
        assert len(report.trace.find("freeze_trading")) == 1
        assert len(report.trace.find("detector:circular-trading")) == 1
        assert report.trace.attributes["detectors"] == 4

    def test_untraced_by_default(self):
        assert run_detectors(_portfolio_tpiin(), "circular-trading").trace is None

    def test_caller_owned_tracer_nests(self):
        tracer = Tracer()
        with tracer.span("caller"):
            run_detectors(_portfolio_tpiin(), "circular-trading", trace=tracer)
        root = tracer.root
        assert root is not None and root.name == "caller"
        assert len(root.find("run_detectors")) == 1

    def test_config_overrides(self):
        tpiin = TPIIN.build(
            companies=["C1", "C2"], trading=[("C1", "C2"), ("C2", "C1")]
        )
        strict = run_detectors(tpiin, "circular-trading")
        assert strict["circular-trading"].findings == ()
        relaxed = run_detectors(
            tpiin,
            "circular-trading",
            configs={"circular-trading": {"min_cycle_size": 2}},
        )
        assert len(relaxed["circular-trading"].findings) == 1

    def test_config_for_unselected_detector_rejected(self):
        with pytest.raises(MiningError, match="unselected"):
            run_detectors(
                _portfolio_tpiin(),
                "circular-trading",
                configs={"missing-trader": {"min_fan_in": 1}},
            )

    def test_options_configure_the_iat_detector(self):
        default = run_detectors(_portfolio_tpiin(), "iat-groups")
        assert default["iat-groups"].attributes["engine"] == "faithful"
        for engine in ("faithful", "parallel"):
            report = run_detectors(
                _portfolio_tpiin(),
                "iat-groups",
                configs={"iat-groups": {"engine": engine}},
            )
            run = report["iat-groups"]
            assert run.attributes["engine"] == engine
            assert run.detection is not None and run.detection.engine == engine
        with pytest.raises(MiningError, match=r"choices: faithful, parallel\)"):
            run_detectors(
                _portfolio_tpiin(),
                "iat-groups",
                configs={"iat-groups": {"engine": "incremental"}},
            )

    def test_unknown_config_field_is_a_mining_error(self):
        with pytest.raises(
            MiningError,
            match=r"detector 'circular-trading' has no config field 'bogus' "
            r"\(valid: min_cycle_size, min_balance\)",
        ):
            run_detectors(
                _portfolio_tpiin(),
                ["circular-trading"],
                configs={"circular-trading": {"bogus": 1}},
            )

    def test_removed_keywords_are_rejected(self):
        for removed in ("options", "registry"):
            with pytest.raises(TypeError):
                run_detectors(_portfolio_tpiin(), "iat-groups", **{removed: None})

    def test_run_payload_shape(self):
        payload = run_detectors(_portfolio_tpiin(), "all").to_dict()
        assert payload["detectors"] == [
            "circular-trading",
            "iat-groups",
            "missing-trader",
            "shared-household",
        ]
        assert payload["total_findings"] == 2
        ring = payload["runs"]["circular-trading"]["findings"][0]
        assert ring["members"] == ["R1", "R2", "R3"]

"""Experiment metrics, audit reports and investigation drill-downs."""

from repro.analysis.audit_report import build_audit_report, write_audit_report
from repro.analysis.explain import critical_evidence, explain_arc, explain_group
from repro.analysis.distributions import (
    DetectionDistributions,
    compute_distributions,
)
from repro.analysis.investigate import (
    CompanyInvestigation,
    extract_neighborhood,
    investigate_company,
)
from repro.analysis.metrics import Table1Row, compute_table1_row
from repro.analysis.reporting import format_number, render_table
from repro.analysis.table1 import PAPER_TABLE1, Table1Result, run_table1
from repro.analysis.trends import TrendPoint, render_trend, sparkline, suspicion_trend

__all__ = [
    "CompanyInvestigation",
    "DetectionDistributions",
    "PAPER_TABLE1",
    "build_audit_report",
    "compute_distributions",
    "write_audit_report",
    "Table1Result",
    "Table1Row",
    "compute_table1_row",
    "critical_evidence",
    "explain_arc",
    "explain_group",
    "format_number",
    "investigate_company",
    "render_table",
    "run_table1",
    "TrendPoint",
    "extract_neighborhood",
    "render_trend",
    "sparkline",
    "suspicion_trend",
]

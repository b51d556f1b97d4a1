"""HERMES integration layer: end-to-end project flow, ECSS qualification
and datapack generation (the paper's primary contribution is this
integrated ecosystem)."""

from ..exec.metrics import LatencyStats, percentile
from .datapack import MANDATORY_DOCUMENTS, Datapack, generate_datapack
from .metrics import Table, ratio
from .report import (
    SCHEMA_VERSION,
    GenericReport,
    Report,
    ReportSchemaError,
    parse_report,
    register_report,
    report_json_text,
    report_kind,
    registered_kinds,
)
from .project import (
    AcceleratorResult,
    HermesProject,
    HermesReport,
    ProjectError,
)
from .qualification import (
    Level,
    QualificationCampaign,
    QualificationReport,
    Requirement,
    TestCase,
    TestResult,
    TrlAssessment,
    Verdict,
    assess_trl,
)

__all__ = [
    "MANDATORY_DOCUMENTS", "Datapack", "generate_datapack",
    "LatencyStats", "Table", "percentile", "ratio",
    "SCHEMA_VERSION", "GenericReport", "Report", "ReportSchemaError",
    "parse_report", "register_report", "report_json_text", "report_kind",
    "registered_kinds",
    "AcceleratorResult", "HermesProject", "HermesReport", "ProjectError",
    "Level", "QualificationCampaign", "QualificationReport", "Requirement",
    "TestCase", "TestResult", "TrlAssessment", "Verdict", "assess_trl",
]

"""``repro.harness`` — corpus collection, sessions, and experiments."""

from .experiments import (
    CASE_STUDY_ORDER,
    CaseStudyResult,
    Figure8Result,
    example3_report,
    figure6_report,
    figure7,
    figure7_report,
    figure7_row,
    figure8,
    figure8_report,
)
from .multi import MultiSignatureReport, debug_all
from .runner import CollectionError, LabeledCorpus, collect, sweep
from .session import (
    AIDSession,
    CorpusSession,
    SessionConfig,
    SessionReport,
    debug,
)
from .tables import render_table

__all__ = [
    "AIDSession",
    "CASE_STUDY_ORDER",
    "CaseStudyResult",
    "Figure8Result",
    "example3_report",
    "figure6_report",
    "figure7",
    "figure7_report",
    "figure7_row",
    "figure8",
    "figure8_report",
    "render_table",
    "CollectionError",
    "CorpusSession",
    "LabeledCorpus",
    "MultiSignatureReport",
    "SessionConfig",
    "SessionReport",
    "collect",
    "debug",
    "debug_all",
    "sweep",
]

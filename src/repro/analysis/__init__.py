"""``repro.analysis`` — static AST enforcement of the repo's invariants.

Run as a CLI (``python -m repro.analysis src``, ``make analyze``) or from
the tier-1 gate (``tests/test_static_analysis.py``).  See
:mod:`repro.analysis.core` for the framework and
:mod:`repro.analysis.rules` for the invariants checked; audited exceptions
are suppressed line-by-line with ``# repro: allow-<rule>``.
"""

from repro.analysis.core import (
    AnalysisReport,
    Finding,
    Rule,
    SourceFile,
    analyze_paths,
    attr_chain,
    iter_python_files,
)
from repro.analysis.rules import (
    BareAssertRule,
    BareUniqueRule,
    BulkOnlyRule,
    CaptureBalanceRule,
    DeadImportRule,
    FastPathPairingRule,
    ObsPassivityRule,
    OneTraversalRule,
    PairKeyRule,
    PhaseRegistryRule,
    SeededRngRule,
    default_rules,
)

__all__ = [
    "AnalysisReport",
    "Finding",
    "Rule",
    "SourceFile",
    "analyze_paths",
    "attr_chain",
    "iter_python_files",
    "BareAssertRule",
    "BareUniqueRule",
    "BulkOnlyRule",
    "CaptureBalanceRule",
    "DeadImportRule",
    "FastPathPairingRule",
    "ObsPassivityRule",
    "OneTraversalRule",
    "PairKeyRule",
    "PhaseRegistryRule",
    "SeededRngRule",
    "default_rules",
]

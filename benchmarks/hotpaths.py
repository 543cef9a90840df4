"""The one writer of ``BENCH_HOTPATHS.json``, the shared perf-trajectory record.

Each ``benchmarks/bench_*.py`` script owns some top-level sections of that
file.  :func:`write_sections` merges a script's fresh sections into what
the other scripts last wrote and rewrites the file in its committed format
(two-space indent, trailing newline), so a script never drops a section it
does not own.
"""

from __future__ import annotations

import json
from pathlib import Path

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_HOTPATHS.json"


def write_sections(sections: dict) -> None:
    """Replace (or add) ``sections`` in ``BENCH_HOTPATHS.json``, keeping every other section."""
    results = json.loads(RESULT_PATH.read_text()) if RESULT_PATH.exists() else {}
    results.update(sections)
    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")

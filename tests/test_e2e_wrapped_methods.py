"""The end-to-end benchmark's per-layer split must keep finding its methods.

``benchmarks/e2e/layers.py`` times each method it lists in ``WRAPPED`` by
replacing ``cls.__dict__[name]``, so a listed method that is deleted,
renamed or moved to a base class breaks the benchmark's ``--trace`` pass.
This reads that list (and edits nothing under ``benchmarks/e2e``) so the
rule is checked in tier-1, not only by ``make test-e2e``.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e" / "layers.py"


def _wrapped() -> tuple:
    spec = importlib.util.spec_from_file_location("e2e_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


def test_every_wrapped_method_is_defined_on_its_own_class():
    wrapped = _wrapped()
    assert wrapped
    missing = [
        f"{cls.__module__}.{cls.__name__}.{name}"
        for cls, name, _spans in wrapped
        if not callable(cls.__dict__.get(name))
    ]
    assert missing == []

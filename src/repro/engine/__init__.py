"""The session façade: one object that owns graph, network, RNG, and pool.

``WalkEngine`` is the single entry point for every algorithm and
application in the library::

    from repro.engine import WalkEngine

    engine = WalkEngine(graph, seed=7)
    engine.prepare(length_hint=4096)        # optional explicit warm-up
    r1 = engine.walk(0, 4096)               # served from the shared pool
    r2 = engine.walk(9, 4096)               # ...no second Phase 1
    engine.stats()                          # occupancy, refills, ledger

The package is split so the dependency arrows stay acyclic:

* :mod:`repro.engine.model` — the unified request/result model
  (:class:`WalkRequest`, :class:`ResultBase`, :class:`EngineStats`);
  import-light, inherited by the ``repro.walks`` result classes.
* :mod:`repro.engine.core` — :class:`WalkEngine` itself; imports the walk
  algorithms and applications, so it is loaded lazily here (PEP 562) to
  let ``repro.walks`` import the model without a cycle.
"""

from repro.engine.model import ALGORITHMS, EngineStats, ResultBase, WalkRequest
from repro.engine.pool import MaintenanceReport, PoolManager, PoolShard

__all__ = [
    "ALGORITHMS",
    "EngineStats",
    "FaultController",
    "FaultReport",
    "MaintenanceReport",
    "PoolManager",
    "PoolShard",
    "RECOVERY_PHASE",
    "ResultBase",
    "WalkRequest",
    "WalkEngine",
]

_LAZY = {"WalkEngine"}
_LAZY_FAULTS = {"FaultController", "FaultReport", "RECOVERY_PHASE"}


def __getattr__(name: str):
    if name in _LAZY:
        from repro.engine import core

        return getattr(core, name)
    if name in _LAZY_FAULTS:
        from repro.engine import faults

        return getattr(faults, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _LAZY | _LAZY_FAULTS)

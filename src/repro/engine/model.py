"""The unified request/result model shared by every algorithm entry point.

Before the :class:`~repro.engine.core.WalkEngine` existed, each public
function returned its own ad-hoc dataclass, and the bookkeeping fields every
caller actually reads — ``mode``, ``rounds``, ``lam``, ``phase_rounds``,
``get_more_walks_calls`` — were duplicated across
:class:`~repro.walks.single_walk.WalkResult`,
:class:`~repro.walks.many_walks.ManyWalksResult`, and the application
results.  :class:`ResultBase` is the single home for those fields now; the
concrete result classes inherit it (keyword-only, so subclass field order
and every existing keyword construction stay valid).

:class:`WalkRequest` is the matching input shape: one small frozen record
that names *what* is being asked (sources, length, algorithm, pooling
policy) independently of *how* the engine executes it.  The engine's
``walk()`` / ``walks()`` conveniences build one and hand it to
``WalkEngine.run`` — the single dispatch point.

This module is deliberately import-light (dataclasses + numpy only): the
``repro.walks`` modules inherit :class:`ResultBase` from here, while
:mod:`repro.engine.core` imports ``repro.walks`` — keeping the heavy
dependency arrow pointing one way only.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.errors import WalkError

__all__ = ["ALGORITHMS", "EngineStats", "ResultBase", "WalkRequest"]

#: Algorithm names accepted by :class:`WalkRequest` / ``WalkEngine.walk``.
ALGORITHMS = ("paper", "naive", "podc09", "metropolis")


def _jsonify(value):
    """Recursively convert a dataclass-``asdict`` tree to JSON-ready types."""
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    return value


@dataclass(kw_only=True)
class ResultBase:
    """Cost/outcome fields common to every algorithm and application result.

    ``mode`` names the execution path actually taken (``"stitched"``,
    ``"naive"``, ``"podc09"``, ``"rst"``, ...); ``rounds`` is the simulated
    CONGEST cost of *this* request (on a shared network it is a delta, not
    the ledger total); ``lam`` is the short-walk parameter λ where
    applicable; ``phase_rounds`` breaks the rounds down by ledger phase; and
    ``get_more_walks_calls`` counts pool refills the request triggered.

    Fields are keyword-only so subclasses keep their own positional layout.
    """

    mode: str = ""
    rounds: int = 0
    lam: int = 0
    phase_rounds: dict[str, int] = field(default_factory=dict)
    get_more_walks_calls: int = 0

    def to_dict(self) -> dict:
        """The full result as a JSON-serializable dict (ndarrays → lists)."""
        return _jsonify(dataclasses.asdict(self))


@dataclass(frozen=True)
class WalkRequest:
    """One walk query, independent of how the engine will serve it.

    Attributes
    ----------
    sources:
        Walk start nodes.  A single-walk request carries a 1-tuple; ``many``
        distinguishes "one walk" from "a batch that happens to have k=1"
        (they return :class:`~repro.walks.single_walk.WalkResult` vs.
        :class:`~repro.walks.many_walks.ManyWalksResult`).
    length:
        Steps ℓ of each requested walk.
    algorithm:
        ``"paper"`` (SINGLE-RANDOM-WALK / MANY-RANDOM-WALKS), ``"naive"``
        (ℓ-round token forwarding), ``"podc09"`` (the fixed-length
        baseline), or ``"metropolis"`` (Metropolis–Hastings token walk).
    pooled:
        Serve from the engine's persistent Phase-1 pool (``"paper"`` only;
        the baselines always run one-shot).  ``False`` reproduces the
        legacy free-function execution bit-for-bit.
    record_paths:
        ``None`` picks the path default (pool setting when pooled, the
        legacy per-function default otherwise).
    report_to_source:
        Route the destination ID back to the source (the SoD contract).
    lam / eta:
        Parameter overrides; ``None`` defers to the engine/algorithm
        defaults (for ``"podc09"``, ``eta=None`` means Θ((ℓ/D)^{1/3})).
    """

    sources: tuple[int, ...]
    length: int
    algorithm: str = "paper"
    many: bool = False
    pooled: bool = True
    record_paths: bool | None = None
    report_to_source: bool = True
    lam: int | None = None
    eta: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "sources", tuple(int(s) for s in self.sources))
        if self.algorithm not in ALGORITHMS:
            raise WalkError(
                f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}"
            )
        if not self.sources:
            raise WalkError("need at least one source")

    @property
    def source(self) -> int:
        """The single source of a non-batch request."""
        return self.sources[0]

    @property
    def k(self) -> int:
        return len(self.sources)

    def to_dict(self) -> dict:
        return _jsonify(dataclasses.asdict(self))


@dataclass(frozen=True)
class EngineStats:
    """Telemetry snapshot from ``WalkEngine.stats()``.

    ``full_preparations`` counts Θ(η·m)-token Phase-1 runs — the quantity
    pooled serving amortizes (a healthy query stream holds it at 1);
    ``refills`` counts *reactive* GET-MORE-WALKS invocations (a query hit a
    dry connector mid-stitch); ``pool_unused`` is the current pool
    occupancy.  ``rounds`` / ``messages`` / ``phase_rounds`` are the shared
    ledger's cumulative totals across every request the engine has served.

    The shard/watermark block describes the
    :class:`~repro.engine.pool.PoolManager` (PR 3): ``num_shards`` shards
    with per-shard quotas; ``shard_unused_min`` / ``shard_unused_max`` the
    occupancy spread; ``shards_below_watermark`` how many shards currently
    await a background sweep (0 right after auto-maintenance);
    ``maintenance_sweeps`` / ``background_refill_tokens`` what the
    background loop has done so far this session (like ``refills``, they
    survive re-preparations) — its rounds appear in ``phase_rounds``
    under ``"pool-refill/maintain"``, separate from reactive
    ``"pool-refill"`` charges.  All shard fields are ``None``/0 before the
    first pool is installed.

    ``shard_refill_counts`` / ``shard_refill_tokens`` break the background
    loop down per shard (how many sweeps topped shard *i* up, how many
    tokens they launched), and ``outstanding_deficit`` is the token deficit
    a full watermark sweep would erase right now — 0 after an unbudgeted
    ``maintain()``, positive while a round budget is deferring shards.

    ``serve`` carries the attached :class:`~repro.serve.WalkScheduler`'s
    telemetry (queue depth, admit/reject/deadline-miss counts, p50/p99
    rounds-per-request) as a plain dict, or ``None`` when no scheduler has
    been attached to the session.

    The churn block (:mod:`repro.dynamic`) counts topology events served
    by :meth:`~repro.engine.core.WalkEngine.apply_churn`:
    ``churn_tokens_evicted`` pooled tokens invalidated by the vectorized
    path scan, ``churn_tokens_regenerated`` their charged replacements —
    whose rounds appear in ``phase_rounds`` under ``"pool-refill/churn"``,
    the third member of the ``pool-refill`` family.

    The fault block (:mod:`repro.engine.faults`) mirrors it for crash
    events: ``fault_events`` applied steps, ``crashed_nodes`` currently
    down, ``fault_crashes`` / ``fault_recoveries`` node crashes and
    recoveries so far, ``fault_tokens_evicted`` pooled tokens lost to
    invalidation or crashed-resident memory loss, ``fault_tokens_regenerated``
    their charged replacements, ``fault_walks_recovered`` /
    ``fault_walks_restarted`` in-flight walks resumed from a surviving
    prefix vs. restarted from source, and ``fault_recovery_rounds`` the
    cumulative ``"serve/recovery"`` bill.  ``messages_dropped`` /
    ``retransmissions`` surface the lossy-link substrate
    (:class:`~repro.congest.faults.LossyNetwork` drops and
    :class:`~repro.congest.faults.ReliableTokenWalkProtocol` resends seen
    by the session's network) — 0 on a loss-free network.
    """

    queries: int
    full_preparations: int
    refills: int
    tokens_prepared: int
    tokens_consumed: int
    pool_unused: int
    pool_lam: int | None
    pool_eta: float | None
    rounds: int
    messages: int
    phase_rounds: dict[str, int]
    num_shards: int | None = None
    shard_unused_min: int | None = None
    shard_unused_max: int | None = None
    shards_below_watermark: int = 0
    maintenance_sweeps: int = 0
    background_refill_tokens: int = 0
    shard_refill_counts: list[int] | None = None
    shard_refill_tokens: list[int] | None = None
    outstanding_deficit: int = 0
    serve: dict | None = None
    churn_events: int = 0
    churn_tokens_evicted: int = 0
    churn_tokens_regenerated: int = 0
    messages_dropped: int = 0
    retransmissions: int = 0
    fault_events: int = 0
    crashed_nodes: int = 0
    fault_crashes: int = 0
    fault_recoveries: int = 0
    fault_tokens_evicted: int = 0
    fault_tokens_regenerated: int = 0
    fault_walks_recovered: int = 0
    fault_walks_restarted: int = 0
    fault_recovery_rounds: int = 0

    def to_dict(self) -> dict:
        return _jsonify(dataclasses.asdict(self))

"""``WalkEngine`` — the session object every query on one graph shares.

The paper's own follow-up (*Near-Optimal Random Walk Sampling in
Distributed Networks*, arXiv:1201.1363) observes that the short-walk pool
of Phase 1 is not a per-query scratch structure: prepared once, it can
answer a *stream* of walk requests, refilled incrementally when a
connector runs dry.  The free functions predating this module rebuilt the
``Network``, the RNG, the BFS-tree cache, and — most wastefully — a fresh
Θ(η·m)-token :class:`~repro.walks.store.WalkStore` on every call.  The
engine makes the amortized shape the default:

* **One session owns the state**: graph, :class:`~repro.congest.network.Network`
  (one ledger for every request), RNG, BFS-tree cache, parameter policy.
* **Persistent Phase-1 pool**: :meth:`prepare` (or the first pooled query)
  runs Phase 1 once; successive :meth:`walk`/:meth:`walks` queries stitch
  against the surviving tokens, invoking GET-MORE-WALKS (charged to the
  ``"pool-refill"`` phase) only when the connector they land on is dry.
  Each consumed token is an unused, independently generated short walk, so
  pooled endpoints keep the exact ``P^ℓ`` law of the one-shot algorithm.
* **Per-request accounting on the shared ledger**: every result, pooled
  or one-shot, carries the rounds/phase deltas of *its* request, measured
  once by :meth:`WalkEngine.run`
  (:meth:`~repro.congest.ledger.RoundLedger.delta_since`), while
  :meth:`stats` exposes the cumulative session ledger, pool occupancy, and
  preparation/refill counters.
* **One request/result model**: :class:`~repro.engine.model.WalkRequest`
  in, :class:`~repro.engine.model.ResultBase` subclasses out, with
  baseline selection (``algorithm="paper"|"naive"|"podc09"|"metropolis"``)
  behind the same façade.

The legacy free functions (``single_random_walk`` & co.) are thin wrappers
over a one-shot engine; their non-pooled execution path is byte-for-byte
the pre-engine code, so the golden-ledger suite pins it to the seed
implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.congest.network import Network
from repro.congest.phases import (
    BATCH_SAMPLE,
    NAIVE,
    NAIVE_PARALLEL,
    NAIVE_TAIL,
    POOL_REFILL,
    REPORT,
    SERVE_RECOVERY,
    SETUP,
    STITCH_ROUTE,
)
from repro.congest.primitives import (
    BfsTree,
    build_bfs_tree,
    charge_closures,
    charge_tree_funnel,
    charge_tree_routes,
    charged_broadcast,
    deliver_tree_path,
)
from repro.engine.model import EngineStats, WalkRequest
from repro.engine.pool import EMPTY_REPORT, MaintenanceReport, PoolManager
from repro.errors import WalkError
from repro.graphs.graph import Graph
from repro.obs.probe import Probe
from repro.util.rng import make_rng
from repro.util.contracts import charged_fast_path
from repro.walks.get_more_walks import get_more_walks_batch
from repro.walks.many_walks import ManyWalksResult, _parallel_tails, _run_many_walks
from repro.walks.metropolis import _run_metropolis_walk
from repro.walks.naive import _run_naive_walk
from repro.walks.params import WalkParams, many_walks_params, single_walk_params
from repro.walks.regenerate import RegenerationResult, regenerate_walk, replay_segments
from repro.walks.short_walks import perform_short_walks
from repro.walks.single_walk import WalkResult, _run_single_walk, stitch_walk

__all__ = ["PoolManager", "WalkEngine"]


@dataclass
class _WalkSlot:
    """One in-flight walk inside an interleaved stitching sweep.

    The unit of work :meth:`WalkEngine._stitch_interleaved` advances for
    ``engine.walks()`` and scheduler cohorts: ``current``/``completed`` track the
    walk frontier, ``chunks`` accumulates trajectory fragments when
    ``record`` is set, and ``draws`` counts the pool tokens this walk
    consumed (how the caller knows whether the walk ever touched the pool).
    """

    source: int
    length: int
    record: bool
    current: int
    completed: int = 0
    chunks: list[np.ndarray] | None = None
    draws: int = 0

    @property
    def remaining(self) -> int:
        return self.length - self.completed


@dataclass
class _SingleServed:
    """Internal carrier for one pooled single-walk execution."""

    destination: int
    mode: str
    positions: np.ndarray | None = None
    segments: list = field(default_factory=list)
    connectors: list[int] = field(default_factory=list)
    gmw_calls: int = 0


class WalkEngine:
    """Session façade: one graph, one network, one RNG, one token pool.

    Parameters
    ----------
    graph:
        Topology every request runs on.
    seed:
        Root seed (or an existing generator) for all randomness in the
        session; a fixed seed replays the full query stream identically.
    capacity / max_words:
        CONGEST model knobs, forwarded to the owned :class:`Network`.
    eta:
        Default Phase-1 walks per unit degree.
    record_paths:
        Default for pool preparation and one-shot single walks.
    network:
        Use an existing network (sharing its ledger) instead of creating
        one — the legacy wrappers pass their ``network=`` argument through
        here.
    num_shards / watermark_fraction:
        :class:`~repro.engine.pool.PoolManager` policy — how many
        per-source-bucket shards the pool is partitioned into (default
        ``min(64, ⌈√n⌉)``) and where each shard's refill watermark sits
        relative to its quota.
    auto_maintain:
        Run a background watermark sweep (:meth:`maintain`) after every
        pooled request.  Its rounds are charged to the session ledger under
        ``"pool-refill/maintain"`` but excluded from request deltas — it is
        between-request work.  Disable to drive :meth:`maintain` manually.
    """

    def __init__(
        self,
        graph: Graph,
        *,
        seed=None,
        capacity: int = 1,
        max_words: int = 8,
        eta: float = 1.0,
        record_paths: bool = True,
        network: Network | None = None,
        num_shards: int | None = None,
        watermark_fraction: float = 0.5,
        auto_maintain: bool = True,
    ) -> None:
        self.graph = graph
        self.rng = make_rng(seed)
        self.network = (
            network
            if network is not None
            else Network(graph, capacity=capacity, max_words=max_words, seed=self.rng)
        )
        self._default_eta = eta
        self._default_record_paths = record_paths
        self._num_shards = num_shards
        self._watermark_fraction = watermark_fraction
        self.auto_maintain = auto_maintain
        self._tree_cache: dict[int, BfsTree] = {}
        self._pool: PoolManager | None = None
        # Session totals live here, not on the pool: a re-preparation
        # replaces the pool, and a counter must never go backwards.
        self._queries = 0
        self._full_preparations = 0
        self._refills = 0  # reactive GET-MORE-WALKS invocations
        self._maintenance_sweeps = 0
        self._background_refill_tokens = 0
        self.obs = Probe()  # inert until attach_observability()
        self._scheduler = None  # attached repro.serve.WalkScheduler, if any
        self._churn = None  # lazily attached repro.dynamic.ChurnController
        self._faults = None  # attached repro.engine.faults.FaultController

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    @property
    def pool(self) -> PoolManager | None:
        """The current persistent pool (``None`` before any pooled work)."""
        return self._pool

    def maintain(
        self,
        *,
        round_budget: int | None = None,
        exclude_shards=None,
    ) -> MaintenanceReport:
        """One background refill sweep: top up shards below watermark.

        Batches GET-MORE-WALKS for all depleted shards' sources into a
        single interleaved sweep charged to ``"pool-refill/maintain"`` —
        between-request work on the session ledger, never part of a request
        delta.  With ``auto_maintain`` (the default) the engine calls this
        after every pooled request; it is also the explicit idle-time hook.
        A cold engine (no pool) returns an empty report.

        ``round_budget`` switches to the deadline-driven policy the serving
        scheduler ticks with: depleted shards refill emptiest/most-demanded
        first, and shards whose estimated sweep cost exceeds the budget are
        deferred to a later call (see
        :meth:`~repro.engine.pool.PoolManager.maintain`).

        ``exclude_shards`` skips named shards this sweep without refilling
        them, reporting them deferred instead — how the serving scheduler
        backs off from shards whose refills stall on crashed nodes while
        the rest of the pool keeps its watermarks.
        """
        pool = self._pool
        if pool is None:
            return EMPTY_REPORT
        report = pool.maintain(
            self.network, self.rng, round_budget=round_budget, exclude_shards=exclude_shards
        )
        self._maintenance_sweeps += int(report.swept)
        self._background_refill_tokens += report.tokens_added
        return report

    def apply_churn(self, delta, *, round_budget: int | None = None):
        """Apply one batched topology event and cascade the invalidation.

        The dynamic-graph entry point (see :mod:`repro.dynamic`): ``delta``
        is a :class:`~repro.dynamic.delta.GraphDelta` of edge inserts and
        deletes.  The graph's CSR arrays rebuild in place, the network
        re-stamps its topology, the BFS-tree cache drops, pooled
        tokens whose recorded law the churn broke are evicted by one
        vectorized path scan, shard quotas re-derive from the new degree
        profile, and the affected shards are topped back up by a charged
        regeneration sweep billed to ``"pool-refill/churn"`` — session
        work, excluded from request deltas, same contract as
        ``"pool-refill/maintain"``.  ``round_budget`` bounds that sweep
        (least-urgent shards defer; their deficit stays visible to
        admission pricing).  Returns a
        :class:`~repro.dynamic.controller.ChurnReport`.
        """
        from repro.dynamic.controller import ChurnController

        if self._churn is None:
            self._churn = ChurnController(self)
        return self._churn.apply(delta, round_budget=round_budget)

    def _apply_delta(self, delta):
        """The topology half of the invalidation cascade churn and crash/recover share.

        The graph's CSR arrays rebuild in place, the network re-stamps its
        topology, an attached heatmap re-keys its per-edge
        accumulators through the slot remap (deleted slots retire into
        per-phase buckets), and the BFS-tree cache drops — tree shape,
        heights and charged flood costs are all topology functions.
        Returns the :class:`~repro.dynamic.delta.DeltaRemap` the pool half,
        :meth:`~repro.engine.pool.PoolManager.invalidate`, consumes.
        """
        graph = self.graph
        remap = graph.apply_delta(delta)
        self.network.refresh_topology()
        heatmap = self.obs.heatmap
        if heatmap is not None:
            heatmap.apply_remap(remap, n=graph.n, edge_src=graph.slot_sources(), edge_dst=graph.csr_target)
        self._tree_cache.clear()
        return remap

    @property
    def faults(self):
        """The attached :class:`~repro.engine.faults.FaultController`, if any."""
        return self._faults

    def attach_faults(self, schedule=None):
        """Attach a crash-fault schedule to this session (see :mod:`repro.engine.faults`).

        ``schedule`` is a :class:`~repro.congest.faults.FaultSchedule` (or
        ``None`` for an empty one driven purely through
        :meth:`apply_faults`).  Scheduled steps fire lazily: the engine's
        interleaved sweeps and the serving scheduler's ticks poll the
        controller as the session's round counter passes each step's
        ``at_round``.  Attaching replaces any previous controller.
        """
        from repro.engine.faults import FaultController

        self._faults = FaultController(self, schedule)
        return self._faults

    def apply_faults(self, schedule_step, *, round_budget: int | None = None):
        """Apply one :class:`~repro.congest.faults.FaultStep` immediately.

        The ad-hoc injection path (mirror of :meth:`apply_churn`): crashes
        delete the victims' incident edges, evict pooled tokens whose
        recorded law died *or* that were resident at a crashed node, and
        regenerate the affected shards; recoveries re-insert the saved
        edges with their saved weights and re-admit the nodes to quota.
        All recovery work bills to ``"serve/recovery"``.  Returns a
        :class:`~repro.engine.faults.FaultReport`.
        """
        from repro.engine.faults import FaultController

        if self._faults is None:
            self._faults = FaultController(self)
        return self._faults.apply_step(schedule_step, round_budget=round_budget)

    def attach_observability(self, *, tracer=None, metrics=None, heatmap=None, slo=None) -> Probe:
        """Install a passive observer (tracing/metrics/heatmap/SLO) on this session.

        Creates a fresh :class:`~repro.obs.probe.Probe` wired to the given
        sinks (a :class:`~repro.obs.trace.Tracer`, a
        :class:`~repro.obs.metrics.MetricsRegistry`, a
        :class:`~repro.obs.heatmap.HeatmapSink`, and/or a
        :class:`~repro.obs.slo.SloMonitor`), installs it as the session
        ledger's observer, and exposes it as ``engine.obs`` — the
        scheduler, fault, and churn layers all report context and events
        through it.  A heatmap sink is additionally bound to the network's
        charge path so deliver/charge call sites stage per-edge
        attribution for it (congestion cartography); churn and crash
        remaps are forwarded to it so accumulators survive slot renames.
        A metrics registry reads its ``repro_*`` families from this
        engine's :meth:`stats` at export time; nothing counts into it.
        Passing no sinks installs an *inert* probe: every hook fires and
        early-returns, which is exactly the "disabled" configuration the
        ``obs_overhead`` bench prices.  Engines that never call this keep
        ``ledger.observer = None``, so the hot charge path pays one
        ``is not None`` test and nothing else.

        The observer is strictly passive — simulated rounds, sampled
        walks, and RNG streams are bit-identical with and without it
        (proved by ``tests/test_obs.py`` and ``tests/test_obs_heatmap.py``).
        Returns the installed probe.
        """
        probe = Probe(tracer=tracer, metrics=metrics, heatmap=heatmap, slo=slo)
        probe.engine = self
        self.obs = probe
        self.network.ledger.observer = probe
        self.network.heatmap = heatmap
        if heatmap is not None:
            graph = self.graph
            heatmap.bind_topology(graph.n, graph.slot_sources(), graph.csr_target)
        probe.attached(self.network.ledger)
        return probe

    def scheduler(self, *, tenants=None, **policy):
        """Attach a :class:`~repro.serve.WalkScheduler` to this session.

        The scheduler is the round-driven serving layer (PR 4): submitted
        requests pass per-shard admission control, wait in a
        priority/deadline queue, and are serviced in merged interleaved
        sweeps — many concurrent requests sharing each BFS flood and
        SAMPLE-DESTINATION pipeline.  Keyword arguments are
        :class:`~repro.serve.ServePolicy` fields (``max_batch_requests``,
        ``max_batch_walks``, ``maintain_round_budget``, ...); ``tenants``
        takes a :class:`~repro.serve.TenantRegistry` for multi-tenant
        serving (weighted fair admission + per-tenant round quotas — PR 7;
        ``None`` serves one anonymous default tenant).  The engine keeps a
        reference so :meth:`stats` can surface the scheduler's telemetry;
        attaching a new scheduler replaces it.
        """
        from repro.serve import WalkScheduler

        return WalkScheduler(self, tenants=tenants, **policy)

    def prepare(
        self,
        lam: int | None = None,
        eta: float | None = None,
        *,
        length_hint: int | None = None,
        source_hint: int | None = None,
        record_paths: bool | None = None,
    ) -> PoolManager:
        """Explicit warm-up: run Phase 1 once and install the pool.

        ``lam`` may be given directly, or derived from ``length_hint`` via
        the paper's ``λ = Θ(√(ℓD))`` policy using a fresh distributed
        diameter estimate (one BFS from ``source_hint``, default node 0 —
        charged to ``"setup"`` like every legacy call's estimate).
        Calling :meth:`prepare` again replaces the pool (a new full
        preparation, visible in :meth:`stats`).
        """
        rp = self._default_record_paths if record_paths is None else record_paths
        eta_val = self._default_eta if eta is None else float(eta)
        root = 0 if source_hint is None else source_hint
        if not 0 <= root < self.graph.n:
            raise WalkError(f"source_hint {root} out of range")
        tree = self._tree(root, SETUP)
        if lam is None:
            if length_hint is None:
                raise WalkError("prepare() needs lam= or length_hint=")
            lam = self._lambda_policy(length_hint, tree, eta_val).lam
        return self._install_pool(int(lam), eta_val, rp)

    def _tree(self, root: int, phase: str) -> BfsTree:
        """The session's cached BFS tree at ``root``, its (re-)flood charged to ``phase``.

        Under a fault controller crashed nodes sit isolated, so the tree
        covers the root's live component only.
        """
        with self.network.phase(phase):
            return build_bfs_tree(
                self.network, root, cache=self._tree_cache, allow_unreached=self._faults is not None
            )

    def _lambda_policy(self, length: int, tree: BfsTree, eta: float, k: int = 1) -> WalkParams:
        """λ for ``k`` walks of ``length``: Theorem 2.5's ``Θ(√(ℓD))`` for one, 2.8's for more.

        ``D`` is estimated as twice ``tree``'s height, as in
        :func:`~repro.walks.single_walk.estimate_diameter`.  A batch
        sweeping k > 1 walks concurrently amortizes Phase 1 but pays one
        SAMPLE-DESTINATION generation per ``λ`` steps of each walk, so its
        λ grows with k: ``Θ(√(kℓD) + k)`` (the arXiv:1201.1363 regime).
        """
        d_est = max(1, 2 * tree.height)
        if k > 1:
            return many_walks_params(k, length, d_est, eta=eta, n=self.graph.n)
        return single_walk_params(length, d_est, eta=eta, n=self.graph.n)

    def _install_pool(self, lam: int, eta: float, record_paths: bool) -> PoolManager:
        """Run Phase 1 into a fresh pool and make it the session's live pool."""
        pool = PoolManager(
            self.graph,
            lam=lam,
            eta=eta,
            record_paths=record_paths,
            num_shards=self._num_shards,
            watermark_fraction=self._watermark_fraction,
        )
        perform_short_walks(
            self.network,
            pool.store,
            lam,
            self.rng,
            counts=pool.base_counts,
            randomized_lengths=True,
            record_paths=record_paths,
        )
        self._pool = pool
        self._full_preparations += 1
        return pool

    def _pool_for_request(
        self,
        length: int,
        lam: int | None,
        eta: float | None,
        record_paths: bool | None,
        tree: BfsTree,
        k: int = 1,
    ) -> tuple[PoolManager | None, int]:
        """Resolve the pool ``k`` walks of ``length`` serve from; returns ``(pool, λ)``.

        The one cold-pool rule of pooled serving: ``engine.walk()``,
        ``engine.walks()`` and a scheduler cohort on a cold engine all
        prepare through it.  Returns the live pool when it is compatible;
        re-prepares when the request pins ``lam``/``eta`` different from
        the live pool's (pools are parameter-homogeneous so token lengths
        stay uniform on one ``[λ, 2λ−1]`` window).  A cold pool takes λ
        from :meth:`_lambda_policy` on ``tree``.  A live compatible pool
        always wins over re-tuning: pooled serving amortizes Phase 1
        across the query stream, and mid-stream re-preparation would throw
        away every surviving token.

        Returns ``(None, λ)`` when ``λ ≥ ℓ`` — pinned, live or derived:
        the walk is shorter than one short-walk segment and runs naively,
        so the query neither prepares, replaces nor touches a pool (a cold
        engine must *not* pay Θ(η·m) Phase-1 preparation for it).

        An auto-prepared pool records paths when the engine default *or*
        the triggering request wants them: pool policy is a session
        property, so one endpoint-only query must not lock a path-capable
        session out of serving later trajectory queries.
        """
        if lam is not None and int(lam) >= length:
            return None, int(lam)
        pool = self._pool
        if (
            pool is not None
            and (lam is None or int(lam) == pool.lam)
            and (eta is None or float(eta) == pool.eta)
        ):
            return (pool if pool.lam < length else None), pool.lam
        eta_val = self._default_eta if eta is None else float(eta)
        if lam is None:
            candidate = self._lambda_policy(length, tree, eta_val, k)
            if candidate.use_naive or candidate.lam >= length:
                return None, candidate.lam
            lam = candidate.lam
        rp = self._default_record_paths or record_paths is True
        return self._install_pool(int(lam), eta_val, rp), int(lam)

    # ------------------------------------------------------------------
    # Public query surface
    # ------------------------------------------------------------------
    def walk(
        self,
        source: int,
        length: int,
        *,
        algorithm: str = "paper",
        pooled: bool = True,
        record_paths: bool | None = None,
        report_to_source: bool = True,
        lam: int | None = None,
        eta: float | None = None,
        params: WalkParams | None = None,
        target: np.ndarray | None = None,
    ) -> WalkResult:
        """Sample one ℓ-step walk from ``source``; see :meth:`run`."""
        request = WalkRequest(
            sources=(source,),
            length=length,
            algorithm=algorithm,
            many=False,
            pooled=pooled,
            record_paths=record_paths,
            report_to_source=report_to_source,
            lam=lam,
            eta=eta,
        )
        return self.run(request, params=params, target=target)

    def walks(
        self,
        sources,
        length: int,
        *,
        algorithm: str = "paper",
        pooled: bool = True,
        record_paths: bool | None = None,
        report_to_source: bool = True,
        lam: int | None = None,
        eta: float | None = None,
        params: WalkParams | None = None,
    ) -> ManyWalksResult:
        """Sample ``k = len(sources)`` independent ℓ-step walks; see :meth:`run`.

        Pooled requests advance all k walks together in interleaved sweeps
        (mode ``"batch-stitched"``, see :meth:`_stitch_interleaved`).  The
        paper's serial §2.3 loop — stitch for s₁, then s₂, … — is the
        one-shot body ``pooled=False`` runs.
        """
        request = WalkRequest(
            sources=tuple(sources) if sources else (),
            length=length,
            algorithm=algorithm,
            many=True,
            pooled=pooled,
            record_paths=record_paths,
            report_to_source=report_to_source,
            lam=lam,
            eta=eta,
        )
        return self.run(request, params=params)

    def run(
        self,
        request: WalkRequest,
        *,
        params: WalkParams | None = None,
        target: np.ndarray | None = None,
    ):
        """Serve one :class:`~repro.engine.model.WalkRequest` — the dispatch point.

        ``algorithm="paper"`` with ``pooled=True`` (the default) serves from
        the persistent pool, auto-preparing on first use.  ``pooled=False``
        reproduces the legacy one-shot execution bit-for-bit (the
        golden-ledger contract).  The baselines (``naive``, ``podc09``,
        ``metropolis``) always run one-shot on the shared network.
        ``params`` is the legacy full-override escape hatch and applies to
        one-shot execution of the parameterized algorithms ("paper",
        "podc09") only; ``target`` is the Metropolis–Hastings stationary
        distribution.  The MH baseline models no report step, so
        ``report_to_source`` is ignored for it (its round count is the
        number of accepted moves plus one setup round).

        Every request's sources and length are validated here, before any
        round is billed.  Every result's ``rounds`` and ``phase_rounds``
        are this request's ledger delta, measured here; a pooled request's
        auto-maintain sweep runs after that delta closes, so its rounds
        land on the session ledger only.
        """
        if params is not None:
            if request.pooled and request.algorithm == "paper":
                raise WalkError(
                    "params= overrides apply to one-shot execution; "
                    "pass pooled=False (or use lam=/eta= with the pooled engine)"
                )
            if request.algorithm in ("naive", "metropolis"):
                raise WalkError(
                    f"algorithm {request.algorithm!r} takes no params= override"
                )
        for source in request.sources:
            self._validate_query(source, request.length)
        self._queries += 1
        ledger = self.network.ledger
        with self.obs.annotate(
            scope="request", algorithm=request.algorithm, k=len(request.sources)
        ):
            snapshot = ledger.capture()
            result = self._dispatch(request, params=params, target=target)
            delta = ledger.delta_since(snapshot)
            result.rounds = delta.rounds
            result.phase_rounds = dict(delta.phase_rounds)
            if self.auto_maintain and request.pooled and request.algorithm == "paper":
                # Background watermark sweep *after* the request delta
                # closed: its rounds land on the session ledger, not on
                # this result.
                self.maintain()
        return result

    def _dispatch(
        self,
        request: WalkRequest,
        *,
        params: WalkParams | None = None,
        target: np.ndarray | None = None,
    ):
        algo = request.algorithm
        eta = request.eta
        if eta is None and algo == "paper":
            # PODC'09 reads eta=None as its own Θ((ℓ/D)^{1/3}) policy.
            eta = self._default_eta
        if algo == "paper" and request.many:
            if request.pooled:
                return self._serve_pooled_many(request)
            return _run_many_walks(
                self.graph,
                list(request.sources),
                request.length,
                self.rng,
                self.network,
                params=params,
                lam=request.lam,
                eta=eta,
                record_paths=False if request.record_paths is None else request.record_paths,
                report_to_source=request.report_to_source,
            )
        if request.many:
            raise WalkError(
                f"algorithm {algo!r} serves single-walk requests only; "
                "use algorithm='paper' for batches"
            )
        if algo == "paper" and request.pooled:
            return self._serve_pooled_single(request)
        if algo in ("paper", "podc09"):
            return _run_single_walk(
                self.graph,
                request.source,
                request.length,
                self.rng,
                self.network,
                algorithm=algo,
                params=params,
                lam=request.lam,
                eta=eta,
                record_paths=True if request.record_paths is None else request.record_paths,
                report_to_source=request.report_to_source,
            )
        if algo == "naive":
            return _run_naive_walk(
                self.graph,
                request.source,
                request.length,
                self.rng,
                self.network,
                record_paths=True if request.record_paths is None else request.record_paths,
                report_to_source=request.report_to_source,
            )
        # WalkRequest.__post_init__ guarantees this is "metropolis".
        result = _run_metropolis_walk(
            self.graph, request.source, request.length, self.rng, self.network, target=target
        )
        if request.record_paths is False:
            result.positions = None
        return result

    # ------------------------------------------------------------------
    # Pooled serving
    # ------------------------------------------------------------------
    def _validate_query(self, source: int, length: int) -> None:
        if not 0 <= source < self.graph.n:
            raise WalkError(f"source {source} out of range")
        if length < 1:
            raise WalkError(f"walk length must be >= 1, got {length}")

    def _resolve_record_paths(self, pool: PoolManager, requested: bool | None, default: bool) -> bool:
        rp = default if requested is None else requested
        if rp and not pool.record_paths:
            raise WalkError(
                "pool was prepared with record_paths=False; "
                "call prepare(record_paths=True) to serve trajectory queries"
            )
        return rp

    def _serve_pooled_single(self, request: WalkRequest) -> WalkResult:
        source, length = request.source, request.length
        net = self.network
        # One setup BFS per query: it doubles as the diameter estimate for
        # (auto-)preparation and as the report-routing tree.
        source_tree = self._tree(source, SETUP)
        old_pool = self._pool
        pool, lam_val = self._pool_for_request(
            length, request.lam, request.eta, request.record_paths, source_tree
        )
        tokens_before = (
            pool.store.tokens_created if (pool is not None and pool is old_pool) else 0
        )

        if pool is None:
            # The walk is shorter than one short-walk segment: serve it
            # naively (ℓ rounds), leaving the pool — if any — untouched.
            if request.record_paths is not None:
                rp = request.record_paths
            else:
                rp = old_pool.record_paths if old_pool is not None else self._default_record_paths
            positions_list = self.graph.walk(source, length, self.rng)
            with net.phase(NAIVE):
                net.deliver_sequential(length, path=positions_list)
            served = _SingleServed(
                destination=positions_list[-1],
                mode="naive",
                positions=np.asarray(positions_list, dtype=np.int64) if rp else None,
            )
        else:
            # Trajectory assembly follows the *request* (``rp``) while refill
            # tokens (charged to "pool-refill") follow the *pool's* policy,
            # keeping the pool homogeneous: an endpoint-only query on a
            # path-recording pool neither builds trajectories it will drop
            # nor injects pathless tokens a later trajectory query would
            # choke on.
            rp = self._resolve_record_paths(pool, request.record_paths, pool.record_paths)
            destination, positions, segments, connectors, gmw_calls, _remaining = stitch_walk(
                net,
                pool.store,
                source,
                length,
                pool.lam,
                self.rng,
                loop_margin=2 * pool.lam,
                gmw_count=max(1, length // pool.lam),
                randomized_lengths=True,
                record_paths=rp,
                tree_cache=self._tree_cache,
                gmw_phase=POOL_REFILL,
                refill_record_paths=pool.record_paths,
                allow_unreached=self._faults is not None,
            )
            self._refills += gmw_calls
            for record in segments:
                pool.record_served(record.source)
            served = _SingleServed(
                destination=destination,
                mode="stitched",
                positions=positions,
                segments=segments,
                connectors=connectors,
                gmw_calls=gmw_calls,
            )

        if request.report_to_source:
            with net.phase(REPORT):
                deliver_tree_path(net, source_tree, served.destination)

        if pool is not None:
            pool.queries += 1
        return WalkResult(
            source=source,
            length=length,
            destination=served.destination,
            positions=served.positions,
            segments=served.segments,
            connectors=served.connectors,
            tokens_prepared=(pool.store.tokens_created - tokens_before) if pool is not None else 0,
            mode=served.mode,
            lam=lam_val,
            get_more_walks_calls=served.gmw_calls,
        )

    @charged_fast_path(
        equivalence_test="tests/test_pipelines.py::test_report_funnel_matches_pipelined_upcast"
    )
    def _report_convergecast(self, tree, ks, *, phase: str = REPORT) -> None:
        """Charge the destinations→sources report convergecast on ``tree``.

        Destinations route their IDs to sources over the BFS tree; up to k
        messages may funnel through one tree edge, pipelined.  For a single
        request (``len(ks) == 1``) this is the PR-3 formula — ``height + k``
        rounds, identical on every engine branch and pinned by the golden
        serve ledgers; that is one round more than the event-driven
        :func:`~repro.congest.pipelines.pipelined_upcast` takes for k
        reports at the deepest node (ROADMAP item 4).  For a multi-request
        cohort (``ServePolicy.pipelined_report``) all Σk reports
        share ONE convergecast wave: the pipeline drains in
        ``height + Σk − 1`` rounds, exactly the protocol's — each of the
        per-request ``height`` start-up latencies
        after the first is hidden behind the stream of earlier items, which
        is exactly the cross-request saving arXiv:1201.1363's serving
        regime pipelines for.  Messages (2 per walk: request + report) and
        per-edge congestion (Σk through the root edge) are unchanged by
        pipelining — only rounds collapse.
        """
        k_total = int(sum(ks))
        if k_total == 0:
            return
        with self.network.phase(phase):
            charge_tree_funnel(self.network, tree, k_total, merged=len(ks) > 1)

    def _serve_pooled_many(self, request: WalkRequest) -> ManyWalksResult:
        sources, length = list(request.sources), request.length
        k = len(sources)
        base_tree = self._tree(sources[0], SETUP)
        pool, lam_val = self._pool_for_request(
            length, request.lam, request.eta, request.record_paths, base_tree, k=k
        )
        # Batch queries default to endpoint-only (the legacy many-walks
        # contract); trajectories must be requested explicitly.
        rp = False if request.record_paths is None else request.record_paths
        if pool is not None:
            self._resolve_record_paths(pool, request.record_paths, default=False)
        # With no pool (Theorem 2.8's naive branch) every walk is one
        # full-length tail, all k stepping together.
        _slots, destinations, trajectories, total_gmw = self._stitch_interleaved(
            pool,
            [(sources, length, rp)],
            base_tree,
            tail_phase=NAIVE_TAIL if pool is not None else NAIVE_PARALLEL,
        )

        if request.report_to_source:
            self._report_convergecast(base_tree, [k])

        if pool is not None:
            pool.queries += 1
        return ManyWalksResult(
            sources=sources,
            length=length,
            destinations=destinations,
            positions=trajectories if rp else None,
            mode="batch-stitched" if pool is not None else "naive-parallel",
            lam=lam_val,
            get_more_walks_calls=total_gmw,
        )

    def _stitch_interleaved(
        self,
        pool: PoolManager | None,
        batch: list[tuple[list[int], int, bool]],
        tree: BfsTree,
        *,
        sample_phase: str = BATCH_SAMPLE,
        route_phase: str = STITCH_ROUTE,
        refill_phase: str = POOL_REFILL,
        tail_phase: str = NAIVE_TAIL,
    ) -> tuple[list[_WalkSlot], list[int], list[np.ndarray | None], int]:
        """Serve ``batch`` — ``(sources, length, record)`` groups — as one interleaved batch.

        The one stitching core of pooled k-walk serving: ``engine.walks()``
        passes its single request with the default phase names, the
        :mod:`repro.serve` scheduler passes every request of a cohort
        (billed to ``"serve/..."`` phases).  One slot per walk, in batch
        order, advanced by :meth:`_advance_interleaved` on ``tree``; then
        every tail completes in one merged parallel phase.  With no pool
        (Theorem 2.8's naive regime) the whole walk is tail.

        The serial loop (§2.3: "stitch ... for s₁ then s₂, s₃, and so on")
        pays a full SAMPLE-DESTINATION round trip *per segment per walk*.
        The batch regime of arXiv:1201.1363 interleaves instead — per
        sweep, every active walk advances one segment, and all sampling
        traffic shares **one** BFS tree with classic CONGEST pipelining:

        * one tree (re-)flood per sweep (not per walk);
        * the ``S`` sample draws of a sweep are ``S`` convergecast streams
          pipelined on the shared tree — ``height + S − 1`` rounds, ditto
          their delete broadcasts (one SAMPLE-DESTINATION round trip serves
          every walk parked at a connector, the congestion argument);
        * the ``S`` stitched tokens route connector → root → destination
          concurrently, ``max hops + S − 1`` rounds.

        Each draw is uniform over the connector's unused tokens, taken
        *without replacement* within a sweep
        (:meth:`~repro.walks.store.WalkStore.sample_uniform_token` — the
        convergecast-merge law of Lemma A.2 computed centrally), so every
        walk still consumes fresh independent short walks and the
        concatenated law stays exactly ``P^ℓ``.  Connectors short of
        tokens are refilled *batched* — one multi-source GET-MORE-WALKS
        sweep per stitching sweep, charged to ``refill_phase``.

        Returns ``(slots, destinations, trajectories, gmw_calls)``:
        ``trajectories[i]`` is slot ``i``'s full path when its group set
        ``record`` (else ``None``), and ``gmw_calls`` counts per-connector
        refill invocations (batched into sweeps on the wire).
        """
        # Under a fault controller, a path-recording pool tracks every
        # slot's trajectory even for endpoint-only requests: crash recovery
        # truncates in-flight walks to their longest still-valid prefix,
        # which needs the prefix.  ``record`` still governs output assembly.
        track_all = self._faults is not None and pool is not None and pool.record_paths
        slots = [
            _WalkSlot(
                source=int(s),
                length=length,
                record=record,
                current=int(s),
                chunks=[np.array([s], dtype=np.int64)] if record or track_all else None,
            )
            for sources, length, record in batch
            for s in sources
        ]
        gmw_calls = 0
        if pool is not None:
            gmw_calls = self._advance_interleaved(
                pool,
                slots,
                base_tree=tree,
                sample_phase=sample_phase,
                route_phase=route_phase,
                refill_phase=refill_phase,
            )

        pre_tails = [(slot.current, slot.remaining) for slot in slots]
        destinations, tail_paths = _parallel_tails(
            self.network,
            pre_tails,
            self.rng,
            record_paths=any(slot.record for slot in slots),
            phase=tail_phase,
        )
        trajectories: list[np.ndarray | None] = []
        for slot, tail in zip(slots, tail_paths):
            path = np.concatenate(slot.chunks + [tail]) if slot.record else None
            if path is not None and len(path) != slot.length + 1:
                raise WalkError("stitched trajectory has wrong length")
            trajectories.append(path)
        return slots, destinations, trajectories, gmw_calls

    def _advance_interleaved(
        self,
        pool: PoolManager,
        slots: list[_WalkSlot],
        *,
        base_tree: BfsTree,
        sample_phase: str,
        route_phase: str,
        refill_phase: str,
    ) -> int:
        """Advance every slot to its pre-tail frontier in interleaved sweeps.

        The sweep loop of :meth:`_stitch_interleaved`, which serves both
        one k-walk ``engine.walks()`` request (default phase names) and
        every :mod:`repro.serve` scheduler cohort (many concurrent requests
        merged into one slot list, billed to ``"serve/..."`` phases).  Per
        sweep every active slot advances one token; slots
        parked at the same connector share one SAMPLE-DESTINATION round trip
        on ``base_tree`` with classic CONGEST pipelining, dry connectors are
        refilled in one batched GET-MORE-WALKS charged to ``refill_phase``,
        and every draw is uniform over the connector's unused tokens without
        replacement (Lemma A.2), so each walk still consumes fresh
        independent short walks.  Slots may carry *different* lengths — a
        slot leaves the active set once it is within the loop margin of its
        own target.  Mutates ``slots`` in place; returns the number of
        per-connector refill invocations.

        With a fault controller attached, every sweep starts by polling the
        schedule: fired steps run the crash/recovery cascade, the shared
        tree rebuilds (re-rooted to a live node when the root crashed), and
        in-flight slots truncate to their longest still-valid prefix —
        surviving prefixes are *replayed*, never resampled.  Slots parked
        on a crashed connector, or on a live one the shared tree does not
        reach (a crash that cut the live graph), stall rather than drop:
        they wait out the scheduled recovery (idle rounds billed to
        ``"serve/recovery"``, exponentially backed off), whose tree rebuild
        lets them resume.  A stalled walk whose source is crashed-for-good,
        or that is cut off with no fault step pending, raises
        :class:`~repro.errors.WalkError` instead of spinning.  Without a
        controller the loop below is charge-identical to the PR-3 code (the
        golden-ledger contract).
        """
        net = self.network
        store = pool.store
        lam = pool.lam
        loop_margin = 2 * lam
        k = len(slots)
        total_gmw = 0
        root = base_tree.root

        while True:
            faults = self._faults
            if faults is not None:
                fired, mutated = faults.poll()
                if fired:
                    with net.phase(SERVE_RECOVERY):
                        # Topology changed: the shared tree is stale, and a
                        # crashed root cannot anchor sampling — re-root.
                        if not faults.live[root]:
                            root = int(np.flatnonzero(faults.live)[0])
                        base_tree = build_bfs_tree(
                            net, root, cache=self._tree_cache, allow_unreached=True
                        )
                        self._recover_slots(slots, mutated, faults, base_tree)

            active = [
                i for i in range(k) if slots[i].completed <= slots[i].length - loop_margin
            ]
            if faults is not None:
                live, depth = faults.live, base_tree.depth
                # A slot on a crashed node, or on a node the shared tree does
                # not reach, cannot advance — and cannot run its tail
                # either, so even within-margin slots block exit.
                servable = [live[slot.current] and depth[slot.current] >= 0 for slot in slots]
                blocked = [i for i in range(k) if not servable[i]]
                active = [i for i in active if servable[i]]
                if blocked and not active:
                    # Nothing serviceable: every remaining walk sits on a
                    # crashed or cut-off node.  Wait out the scheduled
                    # recovery, or fail loudly when none can come.
                    faults.require_recovery([slots[i].source for i in blocked])
                    if faults.next_pending_round() is None:
                        stuck = slots[blocked[0]]
                        raise WalkError(
                            f"walk from source {stuck.source} is cut off at node "
                            f"{stuck.current} from the sampling root {root} with no "
                            "fault step pending; cannot serve"
                        )
                    faults.wait_for_next_step()
                    continue
            if not active:
                break

            # Walks parked at the same connector form one group; group and
            # in-group order follow walk index, so fixed seeds replay.
            groups: dict[int, list[int]] = {}
            for i in active:
                groups.setdefault(slots[i].current, []).append(i)

            # Refill every connector short of tokens in ONE batched
            # GET-MORE-WALKS sweep (reactive: part of this request's bill).
            deficits = [
                (
                    c,
                    max(
                        max(max(1, slots[i].length // lam) for i in walks),
                        len(walks) - store.count_for_source(c),
                    ),
                )
                for c, walks in groups.items()
                if store.count_for_source(c) < len(walks)
            ]
            if deficits:
                refill_sources = np.array([c for c, _ in deficits], dtype=np.int64)
                refill_counts = np.array([cnt for _, cnt in deficits], dtype=np.int64)
                get_more_walks_batch(
                    net,
                    store,
                    refill_sources,
                    refill_counts,
                    lam,
                    self.rng,
                    randomized_lengths=True,
                    record_paths=pool.record_paths,
                    phase=refill_phase,
                )
                total_gmw += len(deficits)
                self._refills += len(deficits)

            # One shared-tree flood per sweep (the protocol's Sweep 1,
            # amortized over every group instead of run per draw).
            with net.phase(sample_phase):
                build_bfs_tree(
                    net,
                    root,
                    cache=self._tree_cache,
                    allow_unreached=self._faults is not None,
                )
                # Convergecasts: per draw, one over the ancestor closure of
                # the connector's holder set (what charged_convergecast
                # bills), streamed as pipelined stages on the shared tree.
                charge_closures(
                    net,
                    base_tree,
                    [
                        (base_tree.closure(store.holders_for_source(c)), len(walks))
                        for c, walks in groups.items()
                    ],
                )
                # Delete directives: one broadcast per draw, pipelined.
                charged_broadcast(net, base_tree, count=len(active))

            # Draw without replacement and advance every active walk.
            routes: list[tuple[int, int]] = []
            for c, walks in groups.items():
                for i in walks:
                    record = store.sample_uniform_token(c, self.rng)
                    if record is None:
                        raise WalkError("batched GET-MORE-WALKS produced no walks (engine bug)")
                    pool.record_served(record.source)
                    slot = slots[i]
                    slot.draws += 1
                    if slot.chunks is not None:
                        if record.path is None:
                            raise WalkError("record_paths=True requires Phase 1 to record paths")
                        slot.chunks.append(record.path[1:])
                    slot.completed += record.length
                    slot.current = record.destination
                    routes.append((c, record.destination))

            # Route all stitched tokens concurrently: connector → root →
            # destination along shared-tree edges, pipelined.
            with net.phase(route_phase):
                charge_tree_routes(net, base_tree, routes)
        return total_gmw

    def _recover_slots(
        self,
        slots: list[_WalkSlot],
        mutated: np.ndarray | None,
        faults,
        tree: BfsTree,
    ) -> None:
        """Truncate in-flight slots broken by just-fired fault steps.

        A recorded slot keeps its longest prefix whose every step was
        sampled from a never-mutated node, then falls back to the last
        *live* node of that prefix (belt-and-braces for empty-delta
        crashes).  Whether the prefix is worth keeping is a *cost* call:
        re-announcing a ``p``-step prefix with
        :func:`~repro.walks.regenerate.replay_segments` costs ``p`` rounds
        of edge-local forwarding (already-sampled steps are replayed,
        never resampled — the sampling-once discipline), while restarting
        from source re-stitches those steps through the pool inside the
        cohort's merged sweeps at a marginal cost of roughly two rounds
        per segment.  Short prefixes (up to ``2 × tree_height``, the
        coordination overhead a restart pays anyway) are replayed;
        longer ones restart from source — an independent fresh sample of
        ``P^ℓ``, so exactness is indifferent to the choice.  A slot with
        no surviving live prefix node parks at its source with zero
        progress (its source crashed; it waits for the scheduled recovery
        or fails in the sweep loop).  Pathless slots cannot truncate
        selectively, so any progressed slot restarts from source.  All
        charges bill to the caller's open ``"serve/recovery"`` phase: one
        ``height + r`` pipelined notification charge for the ``r``
        touched slots, plus the prefix replays.
        """
        net = self.network
        live = faults.live
        replay_cap = max(2, 2 * tree.height)
        if mutated is None:
            mutated = np.zeros(self.graph.n, dtype=bool)
        touched = 0
        prefixes: list[np.ndarray] = []
        for slot in slots:
            if slot.chunks is not None:
                t = np.concatenate(slot.chunks) if len(slot.chunks) > 1 else slot.chunks[0]
                bad = mutated[t[:-1]] if len(t) > 1 else np.zeros(0, dtype=bool)
                first_bad = int(np.argmax(bad)) if bad.any() else len(t) - 1
                if first_bad == slot.completed and live[slot.current]:
                    continue  # untouched: full prefix survives on a live node
                live_pos = np.flatnonzero(live[t[: first_bad + 1]])
                touched += 1
                if live_pos.size == 0:
                    # Even the source is down: park there with no progress.
                    slot.completed = 0
                    slot.current = slot.source
                    slot.chunks = [np.array([slot.source], dtype=np.int64)]
                    faults.walks_restarted += 1
                else:
                    p = int(live_pos[-1])
                    if p > replay_cap and live[slot.source]:
                        p = 0  # replay dearer than re-stitching: restart
                    slot.completed = p
                    slot.current = int(t[p])
                    slot.chunks = [t[: p + 1]]
                    if p > 0:
                        prefixes.append(slot.chunks[0])
                        faults.walks_recovered += 1
                    else:
                        faults.walks_restarted += 1
            else:
                # Pathless slot: no prefix to validate — restart from source
                # unless it never left it.
                if slot.completed == 0 and live[slot.current]:
                    continue
                touched += 1
                slot.completed = 0
                slot.current = slot.source
                faults.walks_restarted += 1
        if touched:
            charge_tree_funnel(net, tree, touched)
            replay_segments(net, prefixes, words=2)

    # ------------------------------------------------------------------
    # Applications (shared network/ledger/RNG)
    # ------------------------------------------------------------------
    def mixing_time(self, source: int, **kwargs):
        """Section 4.2's decentralized mixing-time estimation on this session."""
        from repro.apps.mixing_time import estimate_mixing_time

        result = estimate_mixing_time(self.graph, source, seed=self.rng, network=self.network, **kwargs)
        self._queries += 1
        return result

    def spanning_tree(self, root: int = 0, **kwargs):
        """Section 4.1's distributed random spanning tree on this session."""
        from repro.apps.spanning_tree import random_spanning_tree

        result = random_spanning_tree(self.graph, root=root, seed=self.rng, network=self.network, **kwargs)
        self._queries += 1
        return result

    def regenerate(self, result: WalkResult, **kwargs) -> RegenerationResult:
        """Re-announce a recorded walk so every node learns its positions (§2.2)."""
        # Session accounting is uniform across every serving entry point:
        # regeneration is a query like mixing_time/spanning_tree are, and
        # like them it counts once served, so a rejected call counts nothing.
        regenerated = regenerate_walk(self.network, result, tree_cache=self._tree_cache, **kwargs)
        self._queries += 1
        return regenerated

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def stats(self) -> EngineStats:
        """Session telemetry: pool occupancy, amortization counters, ledger.

        ``refills``, ``maintenance_sweeps`` and ``background_refill_tokens``
        are session totals that survive pool re-preparations; the token
        counters and the shard block (``num_shards`` / ``shard_unused_*`` /
        ``shards_below_watermark`` / ``shard_refill_*``) describe the
        *current* pool.  Background sweep rounds appear in
        ``phase_rounds["pool-refill/maintain"]``.
        """
        pool = self._pool
        shard_unused = pool.shard_unused() if pool is not None else None
        return EngineStats(
            queries=self._queries,
            full_preparations=self._full_preparations,
            refills=self._refills,
            tokens_prepared=pool.store.tokens_created if pool is not None else 0,
            tokens_consumed=pool.store.tokens_consumed if pool is not None else 0,
            pool_unused=pool.unused if pool is not None else 0,
            pool_lam=pool.lam if pool is not None else None,
            pool_eta=pool.eta if pool is not None else None,
            rounds=self.network.rounds,
            messages=self.network.messages_sent,
            phase_rounds={k: v.rounds for k, v in self.network.ledger.phases.items()},
            num_shards=pool.num_shards if pool is not None else None,
            shard_unused_min=int(shard_unused.min()) if shard_unused is not None else None,
            shard_unused_max=int(shard_unused.max()) if shard_unused is not None else None,
            shards_below_watermark=len(pool.depleted_shards()) if pool is not None else 0,
            maintenance_sweeps=self._maintenance_sweeps,
            background_refill_tokens=self._background_refill_tokens,
            shard_refill_counts=[s.refills for s in pool.shards] if pool is not None else None,
            shard_refill_tokens=(
                [s.tokens_added for s in pool.shards] if pool is not None else None
            ),
            outstanding_deficit=pool.outstanding_deficit() if pool is not None else 0,
            serve=self._scheduler.stats().to_dict() if self._scheduler is not None else None,
            churn_events=self._churn.events if self._churn is not None else 0,
            churn_tokens_evicted=self._churn.tokens_evicted if self._churn is not None else 0,
            churn_tokens_regenerated=(
                self._churn.tokens_regenerated if self._churn is not None else 0
            ),
            messages_dropped=int(getattr(self.network, "messages_dropped", 0)),
            retransmissions=int(getattr(self.network, "retransmissions_seen", 0)),
            fault_events=self._faults.events if self._faults is not None else 0,
            crashed_nodes=self._faults.crashed_count if self._faults is not None else 0,
            fault_crashes=self._faults.crashes_seen if self._faults is not None else 0,
            fault_recoveries=self._faults.recoveries_seen if self._faults is not None else 0,
            fault_tokens_evicted=(
                self._faults.tokens_evicted if self._faults is not None else 0
            ),
            fault_tokens_regenerated=(
                self._faults.tokens_regenerated if self._faults is not None else 0
            ),
            fault_walks_recovered=(
                self._faults.walks_recovered if self._faults is not None else 0
            ),
            fault_walks_restarted=(
                self._faults.walks_restarted if self._faults is not None else 0
            ),
            fault_recovery_rounds=self.network.ledger.phase_rounds(SERVE_RECOVERY),
        )

    def __repr__(self) -> str:
        pool = self._pool
        pool_desc = (
            f"pool(lam={pool.lam}, unused={pool.unused})" if pool is not None else "no pool"
        )
        return (
            f"WalkEngine(graph={self.graph.name!r}, n={self.graph.n}, "
            f"queries={self._queries}, {pool_desc}, rounds={self.network.rounds})"
        )

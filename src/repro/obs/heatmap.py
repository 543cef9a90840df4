"""Congestion cartography: per-edge/per-node message attribution.

The CONGEST model the paper charges against is fundamentally *per-edge* —
bandwidth is constrained on every link — yet the :class:`RoundLedger`
collapses a whole execution into one global ``max_congestion`` scalar.
A :class:`HeatmapSink` recovers the map: every charge in
``repro.congest`` (the ``deliver_*`` family and the charged tree
primitives the engine's pipelined sweeps call) *stages* the per-edge
message counts it is about to bill immediately before calling
``ledger.charge``, and the
:class:`~repro.obs.probe.Probe` settles the staged batch into columnar
per-phase accumulators when the ledger's ``charged`` notification fires.

The settlement protocol makes the conservation identity hold by
construction: for every phase,

    Σ per-edge attributed + retired + residual == ledger ``messages``

where *retired* is history that belonged to churn-deleted edge slots and
*residual* is whatever a charge site did not locate onto edges.  On the
covered workloads (every golden one-shot case and the serving tier) the
residual is exactly zero — pinned by ``tests/test_obs_heatmap.py`` —
and the per-edge congestion maxima reproduce ``max_congestion`` exactly.

Strictly passive: the sink never charges the ledger, never draws from an
RNG, and never reads wall-clock.  Attribution is *emitted* only by the
charges in ``repro.congest`` and *consumed* only by the probe — enforced
statically by the ``obs-passivity`` analyzer rule (``stage_edges``,
``stage_counts`` and the congest staging helpers may be called only under
``congest/``; ``settle_charge`` only from ``probe.py``).

Edge identity is the directed CSR slot (the ledger's congestion unit).
Across a churn event the accounting survives via :meth:`apply_remap`,
re-keying every column through the :class:`~repro.dynamic.delta.DeltaRemap`
slot map; deleted slots' history moves to per-phase retired buckets that
keep counting toward conservation.

``repro.congest`` is the one layer that decides which slot a charged
message crosses; the engine and the walks call its charges and never
stage.  Tree-shaped charges stage through the tree's cached slots
(:meth:`~repro.congest.primitives.BfsTree.slots`, read once per
topology): the BFS flood, ``charged_convergecast`` and
``charged_broadcast`` (one broadcast or a sweep's ``count`` pipelined
deletes), ``charge_closures`` (a serving sweep's per-group
convergecasts), ``charge_tree_routes`` (its route hops) and
``charge_tree_funnel`` (root-funnel reports, slot recoveries,
regenerations).  Only the pair-keyed ``deliver_pairs``,
``deliver_sequential`` (with a path; ``deliver_tree_path`` passes a tree
path to it) and event-driven rounds search the graph's pair index on
every charge, and only while a heatmap is attached.  Three known limits
of the map, each still conserved:

* **Strays.**  A charged pair with no live slot folds onto its charge's
  first located slot.  In the library's charge paths strays come only
  from unreached nodes of ``allow_unreached`` (crash-recovery) trees,
  whose ``parent`` defaults to the root: a serving sweep's delete
  broadcast bills ``n_draws · (tree.n − 1)`` messages, crashed nodes
  included — 232 of 884,840 messages on the churn + crash session of
  ``tests/test_obs_heatmap.py``.  The modelling answer is that those
  messages are an overcharge (no tree edge reaches a crashed node); the
  fix is to bill reached nodes only, which changes what faulted sessions
  are billed, so until then they stay in the map, folded.
* **Recovery floods with several nodes down.**  ``_flood_cost`` books
  each isolated non-root node ``distinct − 1 = −1`` sends, so every
  crashed node lowers a recovery flood's charge by one message; with two
  or more nodes down the drift fold would go negative and the flood
  stays unstaged, in the residual bucket (a strict xfail in
  ``tests/test_obs_heatmap.py``).
* **Stale cohort-report trees.**  A scheduler cohort charges its report
  on the tree it started with, even when a fault fired inside its
  sweeps.  That report stages on the old tree's slots re-read on the live
  topology; a funnel edge the fault deleted leaves the report's charge in
  the residual bucket.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

__all__ = ["HeatmapSink"]

#: Counter-track sampling: ring capacity and the decimation applied when
#: it fills (keep every other sample, double the stride) — deterministic,
#: bounded, and still round-accurate at both ends of long runs.
DEFAULT_SAMPLE_CAP = 4096


class HeatmapSink:
    """Columnar per-edge message attribution keyed by directed CSR slot.

    Lifecycle: :meth:`bind_topology` once at attach (done by
    ``WalkEngine.attach_observability``), then the charges in
    ``repro.congest`` call :meth:`stage_edges` immediately before
    ``ledger.charge`` and the probe
    calls :meth:`settle_charge` from the ledger's ``charged`` hook.  On a
    churn/fault topology event :meth:`apply_remap` re-keys the columns.
    """

    __slots__ = (
        "n",
        "n_slots",
        "edge_src",
        "edge_dst",
        "charges",
        "rounds_total",
        "messages_total",
        "remaps",
        "_staged",
        "_staged_counts",
        "_phase_messages",
        "_phase_rounds",
        "_slot_cmax",
        "_residual",
        "_retired",
        "_retired_cmax",
        "_tenant_messages",
        "_tenant_rounds",
        "_samples",
        "_sample_cap",
        "_sample_stride",
        "_settles",
    )

    def __init__(self, *, sample_cap: int = DEFAULT_SAMPLE_CAP) -> None:
        if sample_cap < 2:
            raise ValueError("sample_cap must be >= 2")
        self.n = 0
        self.n_slots = 0
        self.edge_src: np.ndarray | None = None
        self.edge_dst: np.ndarray | None = None
        self.charges = 0
        self.rounds_total = 0
        self.messages_total = 0
        self.remaps = 0
        self._staged: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._staged_counts: list[tuple[np.ndarray, int, int]] = []
        self._phase_messages: dict[str, np.ndarray] = {}
        self._phase_rounds: dict[str, int] = {}
        self._slot_cmax: np.ndarray | None = None
        self._residual: dict[str, int] = {}
        self._retired: dict[str, int] = {}
        self._retired_cmax = 0
        self._tenant_messages: dict[str, int] = {}
        self._tenant_rounds: dict[str, int] = {}
        self._samples: list[tuple[int, int, int]] = []
        self._sample_cap = sample_cap
        self._sample_stride = 1
        self._settles = 0

    # ------------------------------------------------------------------
    # Topology binding
    # ------------------------------------------------------------------
    @property
    def bound(self) -> bool:
        return self.edge_src is not None

    def bind_topology(self, n: int, edge_src: np.ndarray, edge_dst: np.ndarray) -> None:
        """(Re)bind the directed-slot identity arrays.

        The accumulator columns are sized to ``len(edge_src)``; rebinding
        to a different slot count without an intervening
        :meth:`apply_remap` would silently misattribute history, so it is
        an error.
        """
        edge_src = np.array(edge_src, dtype=np.int64)  # defensive copies:
        edge_dst = np.array(edge_dst, dtype=np.int64)  # CSR rebuilds in place
        if self._slot_cmax is not None and len(edge_src) != self.n_slots:
            raise ValueError(
                f"topology has {len(edge_src)} slots but accumulators hold "
                f"{self.n_slots}; churn must go through apply_remap()"
            )
        self.n = int(n)
        self.n_slots = len(edge_src)
        self.edge_src = edge_src
        self.edge_dst = edge_dst
        if self._slot_cmax is None:
            self._slot_cmax = np.zeros(self.n_slots, dtype=np.int64)

    # ------------------------------------------------------------------
    # The staging/settlement protocol (hot path)
    # ------------------------------------------------------------------
    def stage_edges(self, slots, messages=None, congestion=None) -> None:
        """Stage per-edge message counts for the imminent ``charge`` call.

        ``slots`` are directed CSR slot ids; ``messages`` parallels it
        (scalar broadcast allowed; default 1 per slot) and ``congestion``
        defaults to ``messages`` — the per-edge load of this charge.
        Called only from the charges in ``repro.congest``.
        """
        slots = np.asarray(slots, dtype=np.int64)
        if slots.size == 0:
            return
        if messages is None:
            messages = np.ones(slots.size, dtype=np.int64)
        elif np.isscalar(messages):
            messages = np.full(slots.size, messages, dtype=np.int64)
        else:
            messages = np.asarray(messages, dtype=np.int64)
        if congestion is None:
            congestion = messages
        elif np.isscalar(congestion):
            congestion = np.full(slots.size, congestion, dtype=np.int64)
        else:
            congestion = np.asarray(congestion, dtype=np.int64)
        self._staged.append((slots, messages, congestion))

    def stage_counts(
        self,
        counts: np.ndarray,
        total: int | None = None,
        congestion: int | None = None,
    ) -> None:
        """Stage a dense per-slot message vector (a prefix of the slot space).

        ``counts[s]`` is both the message count and the per-edge load
        crossing slot ``s`` in the imminent charge; ``total`` and
        ``congestion`` optionally carry ``counts.sum()`` / ``counts.max()``
        when the call site already computed them.  This is the zero-copy
        fast path for ``deliver_step``'s large batches, whose per-slot
        ``bincount`` *is* this vector (small batches stage only their
        touched slots, through :meth:`stage_edges`) — settlement adds it column-wise instead of scattering
        through ``ufunc.at``, and a congestion-1 batch skips the per-slot
        maximum entirely (a unit load only lifts touched slots to 1, which
        the message column already proves — see ``_cmax_floor``).  Same
        contract as :meth:`stage_edges`: called only from ``repro.congest``.
        """
        if counts.size:
            self._staged_counts.append(
                (
                    counts,
                    int(counts.sum()) if total is None else total,
                    int(counts.max()) if congestion is None else congestion,
                )
            )

    def settle_charge(
        self,
        phase: str,
        rounds: int,
        messages: int,
        congestion: int,
        tenant: str | None = None,
    ) -> None:
        """Consume staged batches under ``phase``; book the rest as residual.

        Called by the probe from the ledger's ``charged`` notification —
        the one place staged attribution meets the authoritative charge.
        """
        located = 0
        staged = self._staged
        dense = self._staged_counts
        if staged or dense:
            col = self._phase_messages.get(phase)
            if col is None:
                col = np.zeros(self.n_slots, dtype=np.int64)
                self._phase_messages[phase] = col
            cmax = self._slot_cmax
            for counts, total, load in dense:
                m = counts.size
                col[:m] += counts
                if load > 1:
                    np.maximum(cmax[:m], counts, out=cmax[:m])
                located += total
            dense.clear()
            for slots, msgs, cong in staged:
                np.add.at(col, slots, msgs)
                np.maximum.at(cmax, slots, cong)
                located += int(msgs.sum())
            staged.clear()
        self.charges += 1
        self.rounds_total += rounds
        self.messages_total += messages
        self._phase_rounds[phase] = self._phase_rounds.get(phase, 0) + rounds
        leftover = messages - located
        if leftover:
            self._residual[phase] = self._residual.get(phase, 0) + leftover
        if tenant is not None:
            self._tenant_messages[tenant] = self._tenant_messages.get(tenant, 0) + messages
            self._tenant_rounds[tenant] = self._tenant_rounds.get(tenant, 0) + rounds
        if self._settles % self._sample_stride == 0:
            samples = self._samples
            samples.append((self.rounds_total, self.messages_total, congestion))
            if len(samples) >= self._sample_cap:
                del samples[::2]
                self._sample_stride *= 2
        self._settles += 1

    # ------------------------------------------------------------------
    # Churn survival
    # ------------------------------------------------------------------
    def apply_remap(self, remap, *, n: int, edge_src: np.ndarray, edge_dst: np.ndarray) -> None:
        """Re-key every column through a churn slot remap.

        ``remap`` is the :class:`~repro.dynamic.delta.DeltaRemap` returned
        by ``Graph.apply_delta``; history on deleted slots (``-1`` in
        ``slot_remap``) moves into per-phase retired buckets that still
        count toward the conservation identity.
        """
        slot_remap = np.asarray(remap.slot_remap, dtype=np.int64)
        if len(slot_remap) != self.n_slots:
            raise ValueError(
                f"remap covers {len(slot_remap)} slots, accumulators hold {self.n_slots}"
            )
        self._cmax_floor()  # retire exact maxima, unit-load charges included
        new_n_slots = int(remap.new_n_slots)
        live = slot_remap >= 0
        targets = slot_remap[live]
        for phase, col in self._phase_messages.items():
            fresh = np.zeros(new_n_slots, dtype=np.int64)
            np.add.at(fresh, targets, col[live])
            dead = int(col.sum()) - int(col[live].sum())
            if dead:
                self._retired[phase] = self._retired.get(phase, 0) + dead
            self._phase_messages[phase] = fresh
        fresh_cmax = np.zeros(new_n_slots, dtype=np.int64)
        np.maximum.at(fresh_cmax, targets, self._slot_cmax[live])
        dead_cmax = self._slot_cmax[~live]
        if dead_cmax.size:
            self._retired_cmax = max(self._retired_cmax, int(dead_cmax.max()))
        self._slot_cmax = fresh_cmax
        self.n_slots = new_n_slots
        self.remaps += 1
        self.bind_topology(n, edge_src, edge_dst)

    # ------------------------------------------------------------------
    # Conservation accessors (the tested identity)
    # ------------------------------------------------------------------
    def located_messages(self, phase: str | None = None) -> int:
        """Σ per-edge attributed messages (live columns only)."""
        if phase is not None:
            col = self._phase_messages.get(phase)
            return int(col.sum()) if col is not None else 0
        return sum(int(col.sum()) for col in self._phase_messages.values())

    def residual_messages(self, phase: str | None = None) -> int:
        if phase is not None:
            return self._residual.get(phase, 0)
        return sum(self._residual.values())

    def retired_messages(self, phase: str | None = None) -> int:
        if phase is not None:
            return self._retired.get(phase, 0)
        return sum(self._retired.values())

    def attributed_messages(self, phase: str | None = None) -> int:
        """Located + retired + residual — equals ledger ``messages`` exactly."""
        return (
            self.located_messages(phase)
            + self.retired_messages(phase)
            + self.residual_messages(phase)
        )

    def max_edge_congestion(self) -> int:
        """Max per-edge congestion ever staged (retired slots included)."""
        live = 0
        if self._slot_cmax is not None and self.n_slots:
            live = int(self._slot_cmax.max())
            if live == 0 and self.located_messages() > 0:
                live = 1  # only congestion-1 charges ever landed (see _cmax_floor)
        return max(live, self._retired_cmax)

    def _cmax_floor(self) -> None:
        """Materialize the unit-load floor into the tracked per-slot maxima.

        Dense settlement skips the per-slot maximum for congestion-1
        charges — exact because a unit load can only lift a touched slot's
        maximum to 1, and ``slot_totals() > 0`` identifies exactly the
        touched slots.  Reports and remaps fold the floor back in here.
        """
        if self._slot_cmax is not None and self.n_slots:
            np.maximum(
                self._slot_cmax,
                self.slot_totals() > 0,
                out=self._slot_cmax,
            )

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def slot_totals(self) -> np.ndarray:
        """Per-slot message totals summed across phases."""
        total = np.zeros(self.n_slots, dtype=np.int64)
        for col in self._phase_messages.values():
            total += col
        return total

    def node_totals(self) -> np.ndarray:
        """Per-node totals: each message attributed to the sending endpoint."""
        out = np.zeros(self.n, dtype=np.int64)
        if self.edge_src is not None and self.n_slots:
            np.add.at(out, self.edge_src, self.slot_totals())
        return out

    def top_edges(self, k: int = 10) -> list[dict]:
        """The ``k`` hottest directed edges, ties broken by slot id."""
        self._cmax_floor()
        totals = self.slot_totals()
        order = np.lexsort((np.arange(self.n_slots), -totals))
        out = []
        for slot in order[:k]:
            if totals[slot] == 0:
                break
            out.append(
                {
                    "slot": int(slot),
                    "src": int(self.edge_src[slot]),
                    "dst": int(self.edge_dst[slot]),
                    "messages": int(totals[slot]),
                    "max_congestion": int(self._slot_cmax[slot]),
                    "messages_per_round": round(
                        int(totals[slot]) / max(1, self.rounds_total), 6
                    ),
                }
            )
        return out

    def top_nodes(self, k: int = 10) -> list[dict]:
        """The ``k`` hottest sender nodes, ties broken by node id."""
        totals = self.node_totals()
        order = np.lexsort((np.arange(self.n), -totals))
        out = []
        for node in order[:k]:
            if totals[node] == 0:
                break
            out.append(
                {
                    "node": int(node),
                    "messages": int(totals[node]),
                    "messages_per_round": round(
                        int(totals[node]) / max(1, self.rounds_total), 6
                    ),
                }
            )
        return out

    def utilization(self) -> dict[str, float]:
        """Attributed messages per simulated round, per phase and overall."""
        out = {
            phase: round(self.attributed_messages(phase) / max(1, rounds), 6)
            for phase, rounds in sorted(self._phase_rounds.items())
        }
        out["*total*"] = round(self.messages_total / max(1, self.rounds_total), 6)
        return out

    def phase_table(self) -> dict[str, dict]:
        """Per-phase breakdown: located/retired/residual/rounds/utilization."""
        phases = (
            set(self._phase_messages) | set(self._phase_rounds)
            | set(self._residual) | set(self._retired)
        )
        table = {}
        for phase in sorted(phases):
            rounds = self._phase_rounds.get(phase, 0)
            table[phase] = {
                "located": self.located_messages(phase),
                "retired": self.retired_messages(phase),
                "residual": self.residual_messages(phase),
                "rounds": rounds,
                "messages_per_round": round(
                    self.attributed_messages(phase) / max(1, rounds), 6
                ),
            }
        return table

    def tenant_table(self) -> dict[str, dict]:
        return {
            tenant: {
                "messages": msgs,
                "rounds": self._tenant_rounds.get(tenant, 0),
            }
            for tenant, msgs in sorted(self._tenant_messages.items())
        }

    def summary(self, *, top: int = 10) -> dict:
        """One JSON-able document: totals, conservation, hot spots."""
        return {
            "schema": "congestion_heatmap/v1",
            "n": self.n,
            "n_slots": self.n_slots,
            "charges": self.charges,
            "remaps": self.remaps,
            "rounds": self.rounds_total,
            "messages": self.messages_total,
            "located_messages": self.located_messages(),
            "retired_messages": self.retired_messages(),
            "residual_messages": self.residual_messages(),
            "max_edge_congestion": self.max_edge_congestion(),
            "phases": self.phase_table(),
            "tenants": self.tenant_table(),
            "utilization": self.utilization(),
            "top_edges": self.top_edges(top),
            "top_nodes": self.top_nodes(top),
        }

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def counter_events(self, *, pid: int = 1) -> list[dict]:
        """Perfetto counter-track events (``"ph": "C"``), one round = 1 µs.

        Merged into the Chrome trace via
        ``Tracer.to_chrome_trace(extra_events=sink.counter_events())``.
        """
        events = []
        for ts, messages, congestion in self._samples:
            events.append(
                {
                    "name": "attributed messages",
                    "ph": "C",
                    "ts": ts,
                    "pid": pid,
                    "tid": 0,
                    "args": {"messages": messages},
                }
            )
            events.append(
                {
                    "name": "charge congestion",
                    "ph": "C",
                    "ts": ts,
                    "pid": pid,
                    "tid": 0,
                    "args": {"congestion": congestion},
                }
            )
        return events

    def to_json(self, *, top: int = 10) -> str:
        return json.dumps(self.summary(top=top), indent=2, sort_keys=True) + "\n"

    def write(self, path, *, top: int = 10) -> Path:
        path = Path(path)
        path.write_text(self.to_json(top=top))
        return path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HeatmapSink(n={self.n}, n_slots={self.n_slots}, charges={self.charges}, "
            f"messages={self.messages_total}, residual={self.residual_messages()})"
        )

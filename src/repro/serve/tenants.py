"""Multi-tenant accounting for the serving tier: weights, quotas, telemetry.

The scheduler (PR 4) serves one anonymous request stream; production
traffic means many *clients* sharing one engine session, which is exactly
the regime arXiv:1201.1363's serving model frames (many concurrent walk
samples powering token management and load balancing across users).  This
module holds the per-client state the scheduler needs to share the session
fairly:

* :class:`Tenant` — one client's policy and telemetry: a **weight** (its
  fair share of service), an optional per-tick round **quota** (a token
  bucket refilled every scheduler tick and debited with the tenant's
  *attributed* rounds off the shared :class:`~repro.congest.ledger.
  RoundLedger` — a tenant that overdraws its bucket is throttled, its
  queued work deferred until refills cover the debt, never dropped), and
  the per-tenant counters the ``stats()`` surfaces report.
* :class:`TenantRegistry` — the ordered collection of tenants one
  scheduler serves.  Registration order is load-bearing: it is the
  deficit-round-robin visit order during cohort formation, which together
  with the per-tenant (priority, deadline, submit-order) heaps makes the
  whole multi-tenant schedule a documented total order — fixed seeds
  replay bit-identically (see
  :meth:`~repro.serve.scheduler.WalkScheduler._form_cohort`).

The fairness contract lives in the scheduler; the registry only prices and
records.  Under saturating load, deficit-round-robin serves walk counts
proportional to weights, and since cohort attribution apportions shared
rounds by walk count, **attributed rounds per tenant track weights** —
the acceptance shape ``tests/test_tenants.py`` pins at 1:2:4.  The ledger
identity extends per tenant: Σ over tenants of attributed rounds, plus
maintain + churn + recovery, equals the session ledger delta exactly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.engine.model import _jsonify
from repro.errors import WalkError

__all__ = ["DEFAULT_TENANT", "Tenant", "TenantRegistry"]

#: Tenant every untagged ``submit`` lands on — one anonymous stream, the
#: PR-4 behavior (a single tenant degenerates deficit-round-robin into the
#: plain (priority, deadline, FIFO) heap order).
DEFAULT_TENANT = "default"


@dataclass
class Tenant:
    """One client of the serving tier: fair-share policy plus telemetry.

    ``weight`` scales the tenant's deficit-round-robin quantum — under
    saturating load its long-run share of served walks (and therefore of
    attributed rounds) is ``weight / Σ weights``.  ``quota`` is the round
    allowance added to the tenant's token bucket every scheduler tick
    (``None`` = unmetered); ``burst`` caps how much unspent allowance may
    bank (default ``4·quota``).  The bucket is debited with the tenant's
    attributed rounds — its exact share of the session ledger — so a
    tenant that spends faster than its refill goes negative and is
    *throttled*: its queued tickets are skipped by cohort formation until
    refills pay off the debt.  Throttling defers, it never drops.
    """

    name: str
    weight: float = 1.0
    quota: int | None = None
    burst: int | None = None
    #: Current token-bucket balance (rounds).  May go negative: a cohort's
    #: debit is exact, not pre-checked, so an expensive cohort leaves debt
    #: the following refills amortize.
    balance: float = 0.0
    submitted: int = 0
    admitted: int = 0
    rejected: int = 0
    #: ``rejected`` split by admission reason (``"queue-full"``, ...).
    rejects_by_reason: dict[str, int] = field(default_factory=dict)
    completed: int = 0
    walks_served: int = 0
    #: This tenant's share of the session ledger: private report rounds
    #: plus apportioned cohort shares, summed over its tickets (including
    #: partially-served split tickets).
    rounds_attributed: int = 0
    deadline_misses: int = 0
    #: Ticks on which this tenant had queued work but a non-positive
    #: bucket balance kept it out of cohort formation.
    throttled_ticks: int = 0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise WalkError(f"tenant {self.name!r}: weight must be > 0, got {self.weight}")
        if self.quota is not None and self.quota < 1:
            raise WalkError(f"tenant {self.name!r}: quota must be >= 1 round per tick")
        if self.burst is not None and self.quota is None:
            raise WalkError(f"tenant {self.name!r}: burst without a quota is meaningless")
        if self.quota is not None:
            self.balance = float(self.quota)

    @property
    def burst_cap(self) -> float:
        """Bucket ceiling: explicit ``burst``, else ``4·quota``."""
        if self.quota is None:
            raise WalkError(f"tenant {self.name!r} has no quota, hence no bucket")
        return float(self.burst if self.burst is not None else 4 * self.quota)

    @property
    def throttled(self) -> bool:
        """True when the bucket is overdrawn (quota tenants only)."""
        return self.quota is not None and self.balance <= 0

    def refill(self) -> None:
        """One scheduler tick's allowance, capped at the burst ceiling."""
        if self.quota is not None:
            self.balance = min(self.balance + self.quota, self.burst_cap)

    def debit(self, rounds: int) -> None:
        """Charge attributed rounds against the bucket (may overdraw)."""
        if self.quota is not None:
            self.balance -= rounds

    def to_dict(self) -> dict:
        return _jsonify(dataclasses.asdict(self))


@dataclass
class TenantRegistry:
    """Ordered tenant collection of one scheduler.

    ``order`` (registration order) is the deficit-round-robin visit order
    — a documented, replayable total order, not an implementation detail.
    Untagged submissions auto-register :data:`DEFAULT_TENANT` with weight
    1 and no quota, so a registry-less scheduler is exactly the PR-4
    single-stream scheduler.
    """

    tenants: dict[str, Tenant] = field(default_factory=dict)

    @property
    def order(self) -> list[str]:
        """Tenant names in registration order (dicts preserve insertion)."""
        return list(self.tenants)

    def register(
        self,
        name: str,
        *,
        weight: float = 1.0,
        quota: int | None = None,
        burst: int | None = None,
    ) -> Tenant:
        if name in self.tenants:
            raise WalkError(f"tenant {name!r} is already registered")
        tenant = Tenant(name=name, weight=weight, quota=quota, burst=burst)
        self.tenants[name] = tenant
        return tenant

    def ensure(self, name: str) -> Tenant:
        """Fetch a tenant, auto-registering unknown names at weight 1."""
        tenant = self.tenants.get(name)
        if tenant is None:
            tenant = self.register(name)
        return tenant

    def get(self, name: str) -> Tenant:
        try:
            return self.tenants[name]
        except KeyError:
            raise WalkError(f"unknown tenant {name!r}") from None

    def refill(self) -> None:
        """Per-tick token-bucket refill for every quota tenant."""
        for tenant in self.tenants.values():
            tenant.refill()

    def stats(self) -> dict[str, dict]:
        """Per-tenant telemetry keyed by name, in registration order."""
        return {name: t.to_dict() for name, t in self.tenants.items()}

    @classmethod
    def parse(cls, spec: str) -> TenantRegistry:
        """Build a registry from a CLI spec: ``name:weight:quota[,...]``.

        ``quota`` of ``0`` (or ``-``) means unmetered.  Example::

            TenantRegistry.parse("alice:1:0,bob:2:0,carol:4:2000")
        """
        registry = cls()
        for triple in spec.split(","):
            parts = triple.strip().split(":")
            if len(parts) != 3 or not parts[0]:
                raise WalkError(
                    f"bad tenant triple {triple!r}: expected name:weight:quota "
                    "(quota 0 = unmetered)"
                )
            name, weight_s, quota_s = parts
            try:
                weight = float(weight_s)
                quota = None if quota_s in ("0", "-") else int(quota_s)
            except ValueError as exc:
                raise WalkError(f"bad tenant triple {triple!r}: {exc}") from None
            registry.register(name, weight=weight, quota=quota)
        return registry

    def __len__(self) -> int:
        return len(self.tenants)

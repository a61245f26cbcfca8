"""Per-tenant quotas and fair-share tiers for the serving front door.

A *tenant* is the unit of isolation the multi-tenant service bills and
protects: every session belongs to exactly one tenant, and admission
consults the tenant's :class:`TenantQuota` before the fleet-level
``max_live`` / ``queue_limit`` valves are even considered.  Quotas bound
three resources:

* **sessions** — concurrent (live + waiting) sessions per tenant;
* **steps** — cumulative search steps across all of the tenant's
  sessions, enforced by clamping each admitted session's own
  ``step_budget`` to the tenant's remaining allowance (so an in-flight
  session can never overdraw — it interrupts through the existing
  budget path with reason ``"step_budget"``);
* **blocks** — cumulative disk blocks read, clamped the same way.

Denials are deterministic and machine-checkable: a submission over quota
comes back ``THROTTLED`` with a reason from :data:`THROTTLE_REASONS`,
never an exception.  ``REJECTED`` remains the *fleet-capacity* outcome;
``THROTTLED`` is always a *per-tenant* one.

Fair share between admitted tenants is a scheduling concern: tiers map
to weights (:data:`TIER_WEIGHTS`), and
:class:`~repro.serve.scheduler.WeightedFairPolicy` asks the ledger for
each tenant's weight (:meth:`QuotaLedger.weight`) and charges each slice
against the owning tenant's virtual time at rate ``1/weight``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from ..errors import ConfigError

__all__ = [
    "TIER_WEIGHTS",
    "THROTTLE_REASONS",
    "TenantQuota",
    "QuotaLedger",
    "parse_quota_specs",
]

#: Fair-share tiers: a premium tenant's sessions receive 16x the slice
#: rate of a free tenant's when both are runnable.
TIER_WEIGHTS: Mapping[str, float] = {"free": 1.0, "standard": 4.0, "premium": 16.0}

#: The closed set of machine-checkable THROTTLED reasons.
THROTTLE_REASONS = ("tenant_sessions", "tenant_steps", "tenant_blocks")


@dataclass(frozen=True, slots=True)
class TenantQuota:
    """Resource bounds and fair-share tier for one tenant.

    ``None`` means unlimited for that resource.  ``weight`` overrides the
    tier-derived fair-share weight when set.
    """

    max_sessions: int | None = None
    step_budget: int | None = None
    block_budget: int | None = None
    tier: str = "standard"
    weight: float | None = None

    def __post_init__(self) -> None:
        for name in ("max_sessions", "step_budget", "block_budget"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"quota {name} must be >= 1 or None, got {value}")
        if self.tier not in TIER_WEIGHTS:
            raise ConfigError(
                f"unknown tier {self.tier!r}; choose from {sorted(TIER_WEIGHTS)}"
            )
        if self.weight is not None and self.weight <= 0:
            raise ConfigError(f"weight must be positive, got {self.weight}")

    @property
    def share_weight(self) -> float:
        """The fair-share weight: explicit ``weight`` or the tier's."""
        return self.weight if self.weight is not None else TIER_WEIGHTS[self.tier]

    def to_json(self) -> dict:
        """JSON-serializable form (for journal headers and reports)."""
        return {
            "max_sessions": self.max_sessions,
            "step_budget": self.step_budget,
            "block_budget": self.block_budget,
            "tier": self.tier,
            "weight": self.weight,
        }

    @classmethod
    def from_json(cls, payload: Mapping) -> TenantQuota:
        """Inverse of :meth:`to_json` (unknown keys rejected)."""
        allowed = {"max_sessions", "step_budget", "block_budget", "tier", "weight"}
        extra = set(payload) - allowed
        if extra:
            raise ConfigError(f"unknown quota fields {sorted(extra)}")
        return cls(**dict(payload))


class QuotaLedger:
    """Tracks per-tenant usage and answers admission-time quota checks.

    The ledger is the single authority on what a tenant has consumed:
    the :class:`~repro.serve.manager.SessionManager` charges steps and
    blocks as slices complete and asks :meth:`check_submit` before
    admitting.  All decisions are pure functions of the recorded usage,
    so a replayed run makes byte-identical throttling decisions.
    """

    def __init__(
        self,
        quotas: Mapping[str, TenantQuota] | None = None,
        default: TenantQuota | None = None,
    ) -> None:
        self.quotas: dict[str, TenantQuota] = dict(quotas or {})
        self.default = default if default is not None else TenantQuota()
        self._steps: dict[str, int] = {}
        self._blocks: dict[str, int] = {}
        self._active: dict[str, int] = {}

    # -- configuration -----------------------------------------------------------

    def quota(self, tenant: str) -> TenantQuota:
        """The tenant's quota (falling back to the ledger default)."""
        return self.quotas.get(tenant, self.default)

    def weight(self, tenant: str) -> float:
        """The tenant's fair-share weight."""
        return self.quota(tenant).share_weight

    def tenants(self) -> list[str]:
        """Every tenant with explicit quota or recorded usage, sorted."""
        names: set[str] = set(self.quotas)
        names.update(self._steps, self._blocks, self._active)
        return sorted(names)

    # -- admission ---------------------------------------------------------------

    def check_submit(self, tenant: str) -> str | None:
        """A THROTTLE reason if the tenant may not submit now, else ``None``."""
        quota = self.quota(tenant)
        if (
            quota.max_sessions is not None
            and self._active.get(tenant, 0) >= quota.max_sessions
        ):
            return "tenant_sessions"
        if (
            quota.step_budget is not None
            and self._steps.get(tenant, 0) >= quota.step_budget
        ):
            return "tenant_steps"
        if (
            quota.block_budget is not None
            and self._blocks.get(tenant, 0) >= quota.block_budget
        ):
            return "tenant_blocks"
        return None

    def clamp_budgets(
        self,
        tenant: str,
        step_budget: int | None,
        block_budget: int | None,
    ) -> tuple[int | None, int | None]:
        """Cap a session's own budgets at the tenant's remaining allowance.

        The clamp is what makes cumulative quotas enforceable in flight:
        the admitted session carries a per-session budget no larger than
        what its tenant has left, and the existing budget-interrupt path
        does the rest.
        """
        quota = self.quota(tenant)
        if quota.step_budget is not None:
            remaining = max(1, quota.step_budget - self._steps.get(tenant, 0))
            step_budget = remaining if step_budget is None else min(step_budget, remaining)
        if quota.block_budget is not None:
            remaining = max(1, quota.block_budget - self._blocks.get(tenant, 0))
            block_budget = (
                remaining if block_budget is None else min(block_budget, remaining)
            )
        return step_budget, block_budget

    # -- usage accounting --------------------------------------------------------

    def note_admitted(self, tenant: str) -> None:
        """One more of the tenant's sessions is live or waiting."""
        self._active[tenant] = self._active.get(tenant, 0) + 1

    def note_finished(self, tenant: str) -> None:
        """One of the tenant's sessions left the live/waiting set."""
        self._active[tenant] = max(0, self._active.get(tenant, 0) - 1)

    def charge(self, tenant: str, steps: int = 0, blocks: int = 0) -> None:
        """Record consumed steps/blocks against the tenant."""
        if steps:
            self._steps[tenant] = self._steps.get(tenant, 0) + int(steps)
        if blocks:
            self._blocks[tenant] = self._blocks.get(tenant, 0) + int(blocks)

    def usage(self, tenant: str) -> dict[str, int]:
        """The tenant's recorded consumption (for reports and tests)."""
        return {
            "active_sessions": self._active.get(tenant, 0),
            "steps": self._steps.get(tenant, 0),
            "blocks": self._blocks.get(tenant, 0),
        }

    def report(self) -> dict[str, dict[str, int]]:
        """Usage for every known tenant, sorted by name."""
        return {tenant: self.usage(tenant) for tenant in self.tenants()}


def parse_quota_specs(specs: Iterable[str]) -> dict[str, TenantQuota]:
    """CLI helper: ``name=tier[:max_sessions[:step_budget]]`` specs.

    Examples: ``alice=premium``, ``bob=free:2``, ``carol=standard:4:5000``.
    """
    quotas: dict[str, TenantQuota] = {}
    for spec in specs:
        name, sep, rest = spec.partition("=")
        if not sep or not name:
            raise ConfigError(f"bad tenant spec {spec!r}; expected name=tier[:caps]")
        parts = rest.split(":")
        tier = parts[0] or "standard"
        try:
            max_sessions = int(parts[1]) if len(parts) > 1 and parts[1] else None
            step_budget = int(parts[2]) if len(parts) > 2 and parts[2] else None
        except ValueError as exc:
            raise ConfigError(f"bad tenant spec {spec!r}: {exc}") from None
        quotas[name] = TenantQuota(
            max_sessions=max_sessions, step_budget=step_budget, tier=tier
        )
    return quotas

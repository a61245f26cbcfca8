"""Tenant quotas, weighted fair share, and tenant isolation.

The multi-tenant contract under test (DESIGN.md §17):

* over-quota submissions bounce deterministically as ``THROTTLED`` with
  a machine-checkable reason, and the ``serve.quota.*`` counters satisfy
  the auditor's identities;
* cumulative step/block quotas are enforced *in flight* by clamping each
  session's own budget to the tenant's remaining allowance;
* a noisy tenant cannot change another tenant's results — the victim's
  observables are byte-identical to a solo run;
* :class:`WeightedFairPolicy` delivers slices in proportion to tier
  weights and never starves a runnable tenant.
"""

from __future__ import annotations

import json

import pytest

from repro.core import SearchConfig
from repro.core.trace import EventKind, SearchTrace
from repro.errors import ConfigError
from repro.obs import InvariantAuditor, MetricsRegistry
from repro.serve import (
    THROTTLE_REASONS,
    TIER_WEIGHTS,
    QuotaLedger,
    ServeConfig,
    ServeCore,
    SessionManager,
    TenantQuota,
    WeightedFairPolicy,
    parse_quota_specs,
    serve_workload,
)
from repro.workloads import synthetic_dataset, synthetic_query

pytestmark = pytest.mark.serve


@pytest.fixture(scope="module")
def workload():
    dataset = synthetic_dataset("low", scale=0.12, seed=5)
    return dataset, synthetic_query(dataset)


class TestTenantQuota:
    def test_defaults_are_unlimited_standard(self):
        quota = TenantQuota()
        assert quota.max_sessions is None and quota.tier == "standard"
        assert quota.share_weight == TIER_WEIGHTS["standard"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_sessions": 0},
            {"step_budget": 0},
            {"block_budget": -1},
            {"tier": "platinum"},
            {"weight": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            TenantQuota(**kwargs)

    def test_explicit_weight_beats_tier(self):
        assert TenantQuota(tier="free", weight=9.0).share_weight == 9.0

    def test_json_round_trip(self):
        quota = TenantQuota(max_sessions=2, step_budget=100, tier="premium")
        assert TenantQuota.from_json(quota.to_json()) == quota
        with pytest.raises(ConfigError, match="unknown quota fields"):
            TenantQuota.from_json({"surprise": 1})

    def test_parse_quota_specs(self):
        quotas = parse_quota_specs(["a=premium", "b=free:2", "c=standard:4:500"])
        assert quotas["a"].tier == "premium"
        assert quotas["b"].max_sessions == 2
        assert quotas["c"].step_budget == 500
        with pytest.raises(ConfigError):
            parse_quota_specs(["missing-equals"])
        with pytest.raises(ConfigError):
            parse_quota_specs(["a=free:two"])


class TestQuotaLedger:
    def test_check_submit_reasons(self):
        ledger = QuotaLedger(
            {"t": TenantQuota(max_sessions=1, step_budget=10, block_budget=5)}
        )
        assert ledger.check_submit("t") is None
        ledger.note_admitted("t")
        assert ledger.check_submit("t") == "tenant_sessions"
        ledger.note_finished("t")
        ledger.charge("t", steps=10)
        assert ledger.check_submit("t") == "tenant_steps"
        ledger = QuotaLedger({"t": TenantQuota(block_budget=5)})
        ledger.charge("t", blocks=5)
        assert ledger.check_submit("t") == "tenant_blocks"
        assert set(THROTTLE_REASONS) == {
            "tenant_sessions", "tenant_steps", "tenant_blocks",
        }

    def test_clamp_budgets_to_remaining_allowance(self):
        ledger = QuotaLedger({"t": TenantQuota(step_budget=100, block_budget=50)})
        ledger.charge("t", steps=90, blocks=45)
        assert ledger.clamp_budgets("t", None, None) == (10, 5)
        assert ledger.clamp_budgets("t", 3, 99) == (3, 5)
        # Unquota'd tenants keep whatever the session asked for.
        assert ledger.clamp_budgets("other", None, 7) == (None, 7)

    def test_report_covers_known_tenants(self):
        ledger = QuotaLedger({"a": TenantQuota()})
        ledger.charge("b", steps=3)
        report = ledger.report()
        assert set(report) == {"a", "b"}
        assert report["b"]["steps"] == 3


class TestManagerThrottling:
    def test_throttled_stub_and_observability(self, workload):
        dataset, query = workload
        registry = MetricsRegistry()
        trace = SearchTrace()
        manager = SessionManager(
            max_live=2,
            queue_limit=2,
            metrics=registry,
            trace=trace,
            quotas={"bob": TenantQuota(max_sessions=1)},
        )
        first = manager.submit("b1", dataset, query, tenant="bob")
        assert first.state.value == "live"
        second = manager.submit("b2", dataset, query, tenant="bob")
        assert second.state.value == "throttled"
        assert second.throttle_reason == "tenant_sessions"
        assert second.finished and second.results == []

        counters = registry.snapshot()["counters"]
        assert counters["serve.quota.checks"] == 2
        assert counters["serve.quota.granted"] == 1
        assert counters["serve.quota.denied"] == 1
        assert counters["serve.sessions_throttled"] == 1
        quota_events = trace.events(EventKind.QUOTA)
        assert len(quota_events) == 1
        assert quota_events[0].detail["tenant"] == "bob"
        assert quota_events[0].detail["reason"] == "tenant_sessions"
        serve_workload(manager)
        InvariantAuditor(registry).verify()

    def test_sessions_quota_frees_on_completion(self, workload):
        dataset, query = workload
        manager = SessionManager(quotas={"bob": TenantQuota(max_sessions=1)})
        manager.submit(
            "b1", dataset, query, SearchConfig(alpha=1.0), step_budget=10,
            tenant="bob",
        )
        serve_workload(manager)
        again = manager.submit("b2", dataset, query, tenant="bob")
        assert again.state.value in ("live", "waiting")

    def test_cumulative_step_quota_enforced_in_flight(self, workload):
        dataset, query = workload
        manager = SessionManager(quotas={"bob": TenantQuota(step_budget=25)})
        session = manager.submit("b1", dataset, query, tenant="bob")
        # The session's own budget was clamped to the tenant allowance.
        assert session.step_budget == 25
        serve_workload(manager)
        assert session.run.interrupted
        assert session.run.interrupt_reason == "step_budget"
        assert manager.ledger.usage("bob")["steps"] == 25
        follow_up = manager.submit("b2", dataset, query, tenant="bob")
        assert follow_up.state.value == "throttled"
        assert follow_up.throttle_reason == "tenant_steps"

    def test_throttling_is_deterministic(self, workload):
        dataset, query = workload

        def run() -> list[tuple[str, str | None]]:
            manager = SessionManager(
                max_live=2,
                quotas={"bob": TenantQuota(max_sessions=1, step_budget=30)},
            )
            outcomes = []
            for i in range(4):
                handle = manager.submit(
                    f"s{i}", dataset, query, step_budget=20, tenant="bob"
                )
                outcomes.append((handle.state.value, handle.throttle_reason))
                serve_workload(manager)
            return outcomes

        first, second = run(), run()
        assert first == second
        assert ("throttled", "tenant_sessions") not in first  # serialized, so
        assert any(reason == "tenant_steps" for _state, reason in first)


class _FakeSession:
    def __init__(self, name: str, tenant: str) -> None:
        self.name = name
        self.tenant = tenant
        self.slices_taken = 0


def _weighted(**weights: float) -> WeightedFairPolicy:
    """A policy over a ledger giving each named tenant an explicit weight."""
    return WeightedFairPolicy(
        QuotaLedger({t: TenantQuota(weight=w) for t, w in weights.items()})
    )


class TestWeightedFairPolicy:
    def test_slice_ratio_tracks_weights(self):
        policy = _weighted(free=1.0, prem=16.0)
        live = [_FakeSession("f1", "free"), _FakeSession("p1", "prem")]
        for session in live:
            policy.on_admit(session)
        counts = {"free": 0, "prem": 0}
        for _ in range(170):
            chosen = policy.pick(live)
            chosen.slices_taken += 1
            counts[chosen.tenant] += 1
        assert counts["prem"] / counts["free"] == pytest.approx(16.0, rel=0.15)

    def test_no_runnable_tenant_is_starved(self):
        policy = _weighted(a=1.0, b=100.0)
        live = [_FakeSession("a1", "a"), _FakeSession("b1", "b")]
        counts = {"a": 0, "b": 0}
        for _ in range(505):
            chosen = policy.pick(live)
            chosen.slices_taken += 1
            counts[chosen.tenant] += 1
        assert counts["a"] >= 5  # ~1 in 101 slices, never zero

    def test_late_joiner_gets_no_back_credit(self):
        policy = _weighted(a=1.0, b=1.0)
        first = [_FakeSession("a1", "a")]
        policy.on_admit(first[0])
        for _ in range(50):
            policy.pick(first).slices_taken += 1
        joiner = _FakeSession("b1", "b")
        policy.on_admit(joiner)
        live = first + [joiner]
        counts = {"a": 0, "b": 0}
        for _ in range(40):
            chosen = policy.pick(live)
            chosen.slices_taken += 1
            counts[chosen.tenant] += 1
        # Equal weights from the join point: the newcomer gets ~half,
        # not a 50-slice catch-up burst.
        assert 15 <= counts["b"] <= 25

    def test_within_tenant_round_robin(self):
        policy = WeightedFairPolicy()
        live = [_FakeSession("s1", "t"), _FakeSession("s2", "t")]
        picks = []
        for _ in range(4):
            chosen = policy.pick(live)
            chosen.slices_taken += 1
            picks.append(chosen.name)
        assert picks == ["s1", "s2", "s1", "s2"]

    def test_rejects_non_positive_weight(self):
        with pytest.raises(ValueError, match="weight"):
            _weighted(t=0.0)

    def test_weights_come_from_the_ledger_default_quota(self, workload):
        """A tenant with no listed quota is weighted by the default quota."""
        dataset, query = workload
        standard = TenantQuota(tier="standard")
        core = ServeCore(
            ServeConfig(
                max_live=2,
                use_cache=False,
                policy="wfq",
                quotas={"std": standard},
                default_quota=TenantQuota(tier="premium"),
            )
        )
        assert core.manager.ledger.weight("guest") == TIER_WEIGHTS["premium"]
        assert core.policy.weight_of("guest") == TIER_WEIGHTS["premium"]
        assert core.policy.weight_of("std") == TIER_WEIGHTS["standard"]
        for tenant in ("guest", "std"):
            core.manager.submit(
                f"{tenant}-1", dataset, query, SearchConfig(alpha=1.0), tenant=tenant
            )
        for session in core.manager.live_sessions():
            core.policy.on_admit(session)
        live = core.manager.live_sessions()
        picks = {"guest": 0, "std": 0}
        for _ in range(40):
            chosen = core.policy.pick(live)
            chosen.slices_taken += 1
            picks[chosen.tenant] += 1
        # premium 16 : standard 4
        assert picks == {"guest": 32, "std": 8}


def _session_bytes(core: ServeCore, name: str) -> bytes:
    entry = core.fingerprint_payload()["sessions"][name]
    return json.dumps(entry, sort_keys=True).encode()


class TestTenantIsolation:
    def test_noisy_tenant_cannot_change_victims_results(self):
        """The acceptance gate: victim observables byte-identical to solo.

        Cache off so the *only* possible cross-session channel is the
        scheduler itself — which may reorder but never alter a session's
        computation (private database, private clock).
        """
        victim_spec = {
            "session": "victim", "workload": "synth-low", "tenant": "quiet",
            "scale": 0.12, "step_budget": 35,
        }

        def solo() -> bytes:
            core = ServeCore(ServeConfig(max_live=4, use_cache=False, policy="wfq"))
            core.submit(dict(victim_spec))
            while core.pending():
                core.tick()
            return _session_bytes(core, "victim")

        def under_noise() -> bytes:
            core = ServeCore(
                ServeConfig(
                    max_live=4,
                    queue_limit=8,
                    use_cache=False,
                    policy="wfq",
                    quotas={
                        "noisy": TenantQuota(tier="premium"),
                        "quiet": TenantQuota(tier="free"),
                    },
                )
            )
            core.submit(dict(victim_spec))
            for i in range(3):
                core.submit({
                    "session": f"noise-{i}", "workload": "synth-medium",
                    "tenant": "noisy", "scale": 0.12, "seed": 11 + i,
                    "step_budget": 60,
                })
            while core.pending():
                core.tick()
            return _session_bytes(core, "victim")

        assert solo() == under_noise()

    def test_over_quota_tenant_outcomes_are_deterministic(self):
        def run() -> bytes:
            core = ServeCore(
                ServeConfig(
                    max_live=2,
                    use_cache=False,
                    quotas={"bob": TenantQuota(max_sessions=1)},
                )
            )
            for i in range(3):
                core.submit({
                    "session": f"b{i}", "workload": "synth-low",
                    "tenant": "bob", "scale": 0.12, "step_budget": 15,
                })
            while core.pending():
                core.tick()
            return json.dumps(core.fingerprint_payload(), sort_keys=True).encode()

        first, second = run(), run()
        assert first == second
        payload = json.loads(first)
        states = {n: s["state"] for n, s in payload["sessions"].items()}
        assert states == {"b0": "done", "b1": "throttled", "b2": "throttled"}

"""Wire protocol, serve config and deterministic core semantics.

Covers the front door's pure layers — message encoding/validation, the
:class:`ServeConfig` fail-fast validation contract, the
:class:`WallClock` interface, and the :class:`ServeCore` request
surface (submit outcomes, error codes, incremental results, stats) —
without touching a socket.
"""

from __future__ import annotations

import json

import pytest

from repro.clock import SimClock, WallClock
from repro.errors import ConfigError, ProtocolError
from repro.serve import ServeConfig, ServeCore, TenantQuota
from repro.serve.protocol import (
    ERROR_CODES,
    MAX_LINE_BYTES,
    OPS,
    decode,
    encode,
    error_response,
    ok_response,
    request,
    validate_request,
)

pytestmark = pytest.mark.serve


class TestWire:
    def test_encode_is_canonical_and_newline_terminated(self):
        line = encode({"b": 1, "a": [2, 3]})
        assert line == b'{"a":[2,3],"b":1}\n'
        assert decode(line) == {"a": [2, 3], "b": 1}

    def test_decode_rejects_non_json(self):
        with pytest.raises(ProtocolError, match="not a JSON line"):
            decode(b"nope{\n")

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError, match="expected a JSON object"):
            decode(b"[1, 2]\n")

    def test_decode_rejects_oversized_line(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            decode(b"x" * (MAX_LINE_BYTES + 1))

    def test_request_drops_none_values(self):
        message = request("submit", 1, session="s", step_budget=None)
        assert "step_budget" not in message
        assert message["op"] == "submit" and message["id"] == 1

    def test_response_builders(self):
        assert ok_response(7, x=1) == {"ok": True, "id": 7, "x": 1}
        err = error_response(7, "bad_request", "why")
        assert err["error"]["code"] == "bad_request"
        with pytest.raises(ValueError, match="unknown error code"):
            error_response(7, "not-a-code", "why")

    def test_error_codes_and_ops_are_closed_sets(self):
        assert "server_error" in ERROR_CODES
        assert set(OPS) >= {"hello", "submit", "status", "results", "cancel"}


class TestValidateRequest:
    def test_accepts_minimal_ops(self):
        assert validate_request({"op": "hello", "id": 1}) == ("hello", 1)
        assert validate_request({"op": "stats"}) == ("stats", None)

    @pytest.mark.parametrize(
        "message, code",
        [
            ({"id": 1}, "bad_request"),
            ({"op": 42}, "bad_request"),
            ({"op": "frobnicate"}, "unknown_op"),
            ({"op": "hello", "id": [1]}, "bad_request"),
            ({"op": "status"}, "bad_request"),
            ({"op": "cancel", "session": 9}, "bad_request"),
            ({"op": "results", "session": "s", "since": -1}, "bad_request"),
            ({"op": "submit", "session": "s"}, "bad_request"),
            ({"op": "submit", "session": "s", "workload": "w", "zzz": 1}, "bad_request"),
        ],
    )
    def test_rejects_with_machine_checkable_code(self, message, code):
        with pytest.raises(ProtocolError) as excinfo:
            validate_request(message)
        assert excinfo.value.args[0] == code


class TestServeConfig:
    def test_defaults_validate(self):
        config = ServeConfig().validate()
        assert config.policy == "rr"

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"max_live": 0}, "max_live"),
            ({"queue_limit": -1}, "queue_limit"),
            ({"slice_steps": 0}, "slice_steps"),
            ({"cache_budget": 0}, "cache_budget"),
            ({"policy": "fifo"}, "policy"),
            ({"park": "nowhere"}, "park"),
            ({"port": 70000}, "port"),
            ({"host": ""}, "host"),
        ],
    )
    def test_rejects_bad_knobs_with_config_error(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            ServeConfig(**kwargs).validate()

    def test_json_round_trip_with_quotas(self):
        config = ServeConfig(
            max_live=3,
            policy="wfq",
            quotas={"a": TenantQuota(tier="premium", max_sessions=2)},
            default_quota=TenantQuota(tier="free"),
        )
        clone = ServeConfig.from_json(json.loads(json.dumps(config.to_json())))
        assert clone == config

    def test_from_json_rejects_unknown_fields(self):
        payload = ServeConfig().to_json()
        payload["surprise"] = 1
        with pytest.raises(ConfigError, match="surprise"):
            ServeConfig.from_json(payload)


class TestWallClock:
    def test_implements_simclock_interface(self):
        wall = WallClock()
        for method in ("advance", "advance_to", "reset"):
            assert hasattr(wall, method) and hasattr(SimClock(), method)

    def test_now_is_monotone(self):
        wall = WallClock()
        a = wall.now
        b = wall.now
        assert b >= a >= 0.0

    def test_advance_raises_the_floor(self):
        wall = WallClock()
        wall.advance(100.0)
        assert wall.now >= 100.0

    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            WallClock().advance(-1.0)

    def test_advance_to_and_reset(self):
        wall = WallClock()
        wall.advance_to(50.0)
        assert wall.now >= 50.0
        wall.reset()
        assert wall.now < 50.0


def _core(**overrides) -> ServeCore:
    defaults = dict(max_live=2, queue_limit=2, slice_steps=8)
    defaults.update(overrides)
    return ServeCore(ServeConfig(**defaults))


def _spec(name: str, **extra) -> dict:
    spec = {"session": name, "workload": "synth-low", "scale": 0.12,
            "step_budget": 20}
    spec.update(extra)
    return spec


class TestServeCore:
    def test_submit_tick_results_lifecycle(self):
        core = _core()
        response = core.submit(_spec("s1"))
        assert response["outcome"] == "live"
        # A session's outcome is unknown until it ends.
        assert (core.status("s1")["outcome"], core.results("s1")["outcome"]) == (None, None)
        while core.pending():
            assert core.tick() is not None
        assert core.tick() is None
        status = core.status("s1")
        assert status["state"] == "done"
        # Its step budget stopped it: aborted, with nothing degraded.
        assert status["interrupt_reason"] == "step_budget"
        assert (status["outcome"], status["degradations"]) == ("aborted", [])
        page = core.results("s1")
        assert page["total"] == page["next"] == len(page["results"])
        assert (page["outcome"], page["degradations"]) == ("aborted", [])
        assert all({"key", "lo", "hi", "bounds", "objectives", "time"} <= set(r)
                   for r in page["results"])

    def test_results_since_pages_incrementally(self):
        core = _core()
        core.submit(_spec("s1"))
        while core.pending():
            core.tick()
        total = core.results("s1")["total"]
        assert total > 1
        first = core.results("s1", since=0)
        rest = core.results("s1", since=1)
        assert len(rest["results"]) == total - 1
        assert rest["results"] == first["results"][1:]
        assert core.results("s1", since=total)["results"] == []

    @pytest.mark.parametrize(
        "spec, code",
        [
            ({"session": "x", "workload": "nope"}, "bad_workload"),
            ({"session": "x", "workload": "synth-low", "scale": 0.0}, "bad_config"),
            ({"session": "x", "workload": "synth-low", "scale": 2.0}, "bad_config"),
            ({"session": "x", "workload": "synth-low", "seed": "7"}, "bad_config"),
            ({"session": "x", "workload": "synth-low", "tenant": ""}, "bad_request"),
            ({"session": "x", "workload": "synth-low", "step_budget": 0}, "bad_config"),
            ({"session": "x", "workload": "synth-low", "deadline_s": -1}, "bad_config"),
            ({"session": "x", "workload": "synth-low", "placement": "pile"}, "bad_config"),
            ({"session": "x", "workload": "synth-low", "alpha": -1}, "bad_config"),
            ({"session": "x", "workload": "synth-low", "sample_fraction": 0}, "bad_config"),
        ],
    )
    def test_submit_validation_codes(self, spec, code):
        core = _core()
        with pytest.raises(ProtocolError) as excinfo:
            core.submit(spec)
        assert excinfo.value.args[0] == code
        # Nothing mutated: rejected specs never reach the counters.
        assert core.stats()["counters"] == {}

    def test_duplicate_submit_is_an_error_not_a_mutation(self):
        core = _core()
        core.submit(_spec("s1"))
        before = core.stats()["counters"]
        with pytest.raises(ProtocolError) as excinfo:
            core.submit(_spec("s1"))
        assert excinfo.value.args[0] == "duplicate_session"
        assert core.stats()["counters"] == before

    def test_unknown_session_code(self):
        core = _core()
        with pytest.raises(ProtocolError) as excinfo:
            core.status("ghost")
        assert excinfo.value.args[0] == "unknown_session"

    def test_cancel_interrupts_next_slice(self):
        core = _core()
        core.submit(_spec("s1", step_budget=None))
        core.tick()
        response = core.cancel("s1")
        assert response["cancelled"] is True
        while core.pending():
            core.tick()
        status = core.status("s1")
        assert status["state"] == "done"
        assert status["interrupted"] is True
        # Cancelling a finished session is a visible no-op.
        assert core.cancel("s1")["cancelled"] is False

    def test_fleet_capacity_rejection(self):
        core = _core(max_live=1, queue_limit=0)
        assert core.submit(_spec("s1"))["outcome"] == "live"
        response = core.submit(_spec("s2"))
        assert response["outcome"] == "rejected"
        assert core.status("s2")["state"] == "rejected"
        for payload in (core.status("s2"), core.results("s2")):
            assert (payload["outcome"], payload["degradations"]) == (None, [])

    def test_fingerprints_of_identical_runs_are_byte_identical(self):
        from repro.serve import fingerprint_bytes

        def run():
            core = _core()
            core.submit(_spec("s1"))
            core.submit(_spec("s2", workload="synth-low", seed=9))
            while core.pending():
                core.tick()
            return fingerprint_bytes(core.fingerprint_payload())

        assert run() == run()

    def test_stats_shape(self):
        core = _core()
        core.submit(_spec("s1"))
        stats = core.stats()
        assert {"summary", "counters", "gauges", "trace"} <= set(stats)
        assert stats["summary"]["sessions"]["s1"]["tenant"] == "default"

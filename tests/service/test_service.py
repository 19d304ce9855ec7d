"""The concurrent session service: budgets, admission, cancellation."""

import io
import json
import time

import pytest

from repro import LimaConfig, LimaSession
from repro.errors import (DeadlineExceeded, ResilienceWarning,
                          ServiceClosedError, ServiceOverloadedError,
                          SessionAborted, SessionCancelled)
from repro.service.budget import RequestBudget, activate_budget, active_budget
from repro.service.service import Service

#: a loop that never terminates on its own — only a budget can stop it
UNBOUNDED = "i = 1.0;\nwhile (i > 0.0) { i = i + 1.0; }\n"

SHARED_SCRIPT = "S = t(X) %*% X; v = sum(S); print(v);"


@pytest.fixture
def service():
    svc = Service(LimaConfig.hybrid(), workers=4, seed=7)
    yield svc
    svc.shutdown(drain=False, timeout=10)


@pytest.fixture
def X(rng):
    return rng.standard_normal((40, 12))


class TestRequestBudget:
    def test_rejects_negative_limits(self):
        with pytest.raises(ValueError):
            RequestBudget(deadline=-1.0)
        with pytest.raises(ValueError):
            RequestBudget(max_instructions=-5)

    def test_unarmed_budget_never_trips(self):
        budget = RequestBudget()
        budget.start()
        for _ in range(100):
            budget.tick()

    def test_deadline_trips(self):
        budget = RequestBudget(deadline=0.01, session_id="t")
        budget.start()
        time.sleep(0.02)
        with pytest.raises(DeadlineExceeded) as exc:
            budget.check()
        assert exc.value.session_id == "t"
        assert exc.value.elapsed >= 0.01

    def test_instruction_watchdog_trips(self):
        budget = RequestBudget(max_instructions=10)
        budget.start()
        with pytest.raises(DeadlineExceeded):
            for _ in range(11):
                budget.tick()
        assert budget.instructions == 11

    def test_cancel_wins_over_deadline(self):
        budget = RequestBudget(deadline=0.0001)
        budget.start()
        time.sleep(0.001)
        budget.cancel("test reason")
        with pytest.raises(SessionCancelled, match="test reason"):
            budget.check()

    def test_memory_share_admission(self):
        budget = RequestBudget(memory_share=100)
        assert budget.allow_admission(60)
        assert budget.allow_admission(40)
        assert not budget.allow_admission(1)
        assert budget.admitted_bytes == 100

    def test_active_budget_is_thread_local(self):
        budget = RequestBudget()
        previous = activate_budget(budget)
        try:
            assert active_budget() is budget
        finally:
            activate_budget(previous)
        assert active_budget() is previous


class TestService:
    def test_basic_result(self, service):
        result = service.run("y = x + 1.0; print(y);", {"x": 41.0})
        assert result.stdout == ["42"]
        assert result.stats.outcome == "ok"
        assert result.get("y") == 42.0

    def test_sessions_are_isolated(self, service):
        a = service.submit("y = x * 2.0; print(y);", {"x": 1.0})
        b = service.submit("y = x * 2.0; print(y);", {"x": 3.0})
        assert a.result(30).get("y") == 2.0
        assert b.result(30).get("y") == 6.0
        # each session has its own print buffer
        assert a.result(30).stdout == ["2"]
        assert b.result(30).stdout == ["6"]

    def test_cross_session_reuse(self, service, X):
        handles = [service.submit(SHARED_SCRIPT, {"X": X})
                   for _ in range(5)]
        values = [h.result(30).get("v") for h in handles]
        assert len(set(values)) == 1  # bit-identical across sessions
        stats = service.service_stats()
        assert stats.completed == 5
        assert stats.cross_session_hits > 0
        assert stats.cross_session_hit_rate() > 0.0

    def test_deadline_terminates_unbounded_loop(self, service, X):
        """The headline acceptance criterion: a 0.1s deadline kills an
        unbounded loop well inside a second, and a session running
        concurrently is completely unaffected."""
        victim = service.submit(UNBOUNDED, deadline=0.1)
        bystander = service.submit(SHARED_SCRIPT, {"X": X})
        start = time.perf_counter()
        with pytest.raises(DeadlineExceeded) as exc:
            victim.result(timeout=30)
        assert time.perf_counter() - start < 1.0
        assert exc.value.session_id == victim.session_id
        assert exc.value.instructions > 0
        assert victim.stats.outcome == "deadline"
        assert bystander.result(30).stats.outcome == "ok"
        assert service.service_stats().deadline_hits == 1

    def test_aborted_session_carries_partial_lineage(self, service):
        script = "a = 5.0;\nb = a * 2.0;\n" + UNBOUNDED
        handle = service.submit(script, deadline=0.2)
        with pytest.raises(DeadlineExceeded) as exc:
            handle.result(timeout=30)
        # everything defined before the trip is replayable from the trace
        assert "a" in exc.value.partial_lineage
        assert "b" in exc.value.partial_lineage

    def test_cancellation(self, service):
        handle = service.submit(UNBOUNDED)
        for _ in range(200):  # wait until it is actually running
            if handle.budget.instructions > 0:
                break
            time.sleep(0.005)
        assert service.cancel(handle.session_id, "operator abort")
        with pytest.raises(SessionCancelled, match="operator abort"):
            handle.result(timeout=30)
        assert handle.stats.outcome == "cancelled"
        assert not service.cancel("no-such-session")
        assert not service.cancel(handle.session_id)  # already done

    def test_instruction_watchdog(self, service):
        handle = service.submit(UNBOUNDED, max_instructions=500)
        with pytest.raises(DeadlineExceeded, match="instruction"):
            handle.result(timeout=30)
        assert handle.budget.instructions <= 510

    def test_memory_share_zero_disables_admission(self, X):
        svc = Service(LimaConfig.hybrid(), workers=2, seed=7)
        try:
            handle = svc.submit(SHARED_SCRIPT, {"X": X}, memory_share=0)
            assert handle.result(30).stats.outcome == "ok"
            assert handle.stats.admitted_bytes == 0
            assert svc.cache.stats.puts == 0
            assert not svc.cache.open_placeholders()
        finally:
            svc.shutdown()

    def test_queue_full_rejects_nonblocking(self, X):
        svc = Service(LimaConfig.hybrid(), workers=1, queue_size=1, seed=7)
        try:
            blocker = svc.submit(UNBOUNDED)
            handles, rejected = [], 0
            for _ in range(20):
                try:
                    handles.append(svc.submit(SHARED_SCRIPT, {"X": X},
                                              block=False))
                except ServiceOverloadedError:
                    rejected += 1
            assert rejected > 0
            assert svc.service_stats().rejected_queue_full == rejected
            svc.cancel(blocker.session_id)
        finally:
            svc.shutdown(drain=False)

    def test_sustained_pressure_degrades_to_passthrough(self, X):
        # high_water=0.0 makes every sample count as pressured, so the
        # third submission crosses the sustained threshold
        svc = Service(LimaConfig.hybrid(), workers=2, seed=7,
                      pressure_high_water=0.0, pressure_sustained=3)
        try:
            a = svc.submit(SHARED_SCRIPT, {"X": X})
            b = svc.submit(SHARED_SCRIPT, {"X": X})
            with pytest.warns(ResilienceWarning, match="pass-through"):
                c = svc.submit(SHARED_SCRIPT, {"X": X})
            values = [h.result(30).get("v") for h in (a, b, c)]
            assert len(set(values)) == 1  # degraded result still correct
            assert c.passthrough
            assert c.stats.passthrough
            assert svc.service_stats().passthrough_sessions == 1
            # pass-through sheds memory: no private cache or budget
            interpreter = c.result(30)._ctx.interpreter
            assert interpreter.cache is None
            assert interpreter.memory is None
        finally:
            svc.shutdown()

    def test_admit_fault_rejects(self, X):
        config = LimaConfig.hybrid().with_(
            fault_specs=("service.admit:io:times=1",))
        svc = Service(config, workers=2, seed=7)
        try:
            with pytest.raises(ServiceOverloadedError):
                svc.submit(SHARED_SCRIPT, {"X": X})
            # the fault was one-shot: the service recovers
            handle = svc.submit(SHARED_SCRIPT, {"X": X})
            assert handle.result(30).stats.outcome == "ok"
            stats = svc.service_stats()
            assert stats.rejected_fault == 1
            assert stats.completed == 1
        finally:
            svc.shutdown()

    def test_cancel_fault_does_not_block_cancellation(self):
        config = LimaConfig.hybrid().with_(
            fault_specs=("service.cancel:io:rate=1.0",))
        svc = Service(config, workers=1, seed=7)
        try:
            handle = svc.submit(UNBOUNDED)
            for _ in range(200):
                if handle.budget.instructions > 0:
                    break
                time.sleep(0.005)
            assert svc.cancel(handle.session_id)  # fault fired, yet...
            with pytest.raises(SessionCancelled):
                handle.result(timeout=30)
        finally:
            svc.shutdown(drain=False)

    def test_shutdown_rejects_new_sessions(self, X):
        svc = Service(LimaConfig.hybrid(), workers=1, seed=7)
        svc.shutdown()
        with pytest.raises(ServiceClosedError):
            svc.submit(SHARED_SCRIPT, {"X": X})
        svc.shutdown()  # idempotent

    def test_nondraining_shutdown_cancels_queued_sessions(self):
        svc = Service(LimaConfig.hybrid(), workers=1, queue_size=8, seed=7)
        running = svc.submit(UNBOUNDED)
        queued = [svc.submit(UNBOUNDED) for _ in range(3)]
        svc.shutdown(drain=False, timeout=10)
        for handle in [running] + queued:
            with pytest.raises(SessionAborted):
                handle.result(timeout=10)

    def test_one_verifier_spans_sessions(self, X):
        svc = Service(LimaConfig.hybrid().with_(verify_reuse=1.0),
                      workers=2, seed=7)
        try:
            for _ in range(2):
                result = svc.run(SHARED_SCRIPT, {"X": X}, result_timeout=30)
                assert result._ctx.interpreter.verifier is svc.verifier
            assert svc.verifier.stats.checks > 0
            assert svc.verifier.stats.mismatches == 0
        finally:
            svc.shutdown()

    def test_cache_persists_across_restarts(self, tmp_path, X):
        path = str(tmp_path / "service.cache")
        with Service(LimaConfig.hybrid(), workers=2, seed=7,
                     persist_path=path) as svc:
            first = svc.run(SHARED_SCRIPT, {"X": X}).get("v")
        with Service(LimaConfig.hybrid(), workers=2, seed=7,
                     persist_path=path) as svc:
            result = svc.run(SHARED_SCRIPT, {"X": X})
            assert result.get("v") == first
            assert svc.cache.stats.hits > 0  # warm start

    def test_profiler_aggregates_across_sessions(self, service, X):
        from repro.runtime.profiler import OpProfiler
        profiler = OpProfiler()
        service.attach_profiler(profiler)
        handles = [service.submit(SHARED_SCRIPT, {"X": X})
                   for _ in range(4)]
        for handle in handles:
            handle.result(30)
        assert profiler.total_count() > 0
        assert sum(profiler.cache_hits.values()) > 0


class TestSharedHandlers:
    """Sessions share one program's compiled handlers, but per-run state
    (budget, cache) must stay with the running session."""

    LOOP = "s = 0.0;\nfor (k in 1:100) { s = s + k; }\nprint(s);"

    @pytest.mark.parametrize("capped_first", [False, True])
    def test_budget_ticks_the_running_session(self, capped_first):
        # either order fails when a handler kept the compiling
        # session's budget
        svc = Service(LimaConfig.hybrid(), workers=1, seed=7)
        try:
            def capped():
                with pytest.raises(DeadlineExceeded, match="instruction"):
                    svc.run(self.LOOP, max_instructions=50,
                            result_timeout=30)

            def uncapped():
                result = svc.run(self.LOOP, result_timeout=30)
                assert result.stats.outcome == "ok"
                assert result.get("s") == 5050.0
                assert result.stdout == ["5050"]

            for step in ((capped, uncapped) if capped_first
                         else (uncapped, capped)):
                step()
        finally:
            svc.shutdown(drain=False, timeout=10)

    def test_passthrough_after_cached_run(self, X):
        sess = LimaSession(LimaConfig.hybrid())
        cached = sess.execute(SHARED_SCRIPT, {"X": X}, seed=1, output=[])
        probes = sess.cache.stats.probes
        assert probes > 0
        output = []
        ctx = sess.execute(SHARED_SCRIPT, {"X": X}, seed=1, output=output,
                           passthrough=True)
        assert sess.cache.stats.probes == probes
        assert ctx.symbols.get("v").value == cached.symbols.get("v").value
        assert output == cached.output


class TestSessionApiBudget:
    """The budget also arms plain ``LimaSession.run`` (no service)."""

    def test_deadline_through_session_api(self, lima_session):
        budget = RequestBudget(deadline=0.1, session_id="api")
        start = time.perf_counter()
        with pytest.raises(DeadlineExceeded):
            lima_session.run(UNBOUNDED, budget=budget)
        assert time.perf_counter() - start < 1.0

    def test_aborted_run_carries_partial_lineage(self, lima_session):
        script = "a = 5.0;\nb = a * 2.0;\n" + UNBOUNDED
        with pytest.raises(DeadlineExceeded) as exc:
            lima_session.run(script,
                             budget=RequestBudget(max_instructions=500))
        assert "a" in exc.value.partial_lineage
        assert "b" in exc.value.partial_lineage

    def test_unbudgeted_run_unaffected(self, lima_session):
        result = lima_session.run("y = 1.0 + 2.0; print(y);")
        assert result.stdout == ["3"]


class TestJsonlServer:
    def _serve(self, lines, **service_kwargs):
        from repro.service.server import serve_jsonl
        kwargs = {"workers": 2, "seed": 7}
        kwargs.update(service_kwargs)
        svc = Service(LimaConfig.hybrid(), **kwargs)
        out = io.StringIO()
        serve_jsonl(svc, io.StringIO("\n".join(lines) + "\n"), out)
        return [json.loads(line) for line in
                out.getvalue().splitlines()]

    def test_run_round_trip(self):
        responses = self._serve([
            json.dumps({"script": "y = x * 2.0; print(y);", "id": "a",
                        "inputs": {"x": 21.0}, "outputs": ["y"]}),
            json.dumps({"op": "shutdown"}),
        ])
        done = {r["id"]: r for r in responses if "id" in r}
        assert done["a"]["ok"]
        assert done["a"]["outputs"] == {"y": 42.0}
        assert done["a"]["stdout"] == ["42"]

    def test_matrix_outputs_serialize(self):
        responses = self._serve([
            json.dumps({"script": "Y = X + 1.0;", "id": "m",
                        "inputs": {"X": [[1.0, 2.0], [3.0, 4.0]]},
                        "outputs": ["Y"]}),
            json.dumps({"op": "shutdown"}),
        ])
        done = {r["id"]: r for r in responses if "id" in r}
        assert done["m"]["outputs"]["Y"] == [[2.0, 3.0], [4.0, 5.0]]

    def test_deadline_reported(self):
        responses = self._serve([
            json.dumps({"script": UNBOUNDED, "id": "loop",
                        "deadline": 0.1}),
            json.dumps({"op": "shutdown"}),
        ])
        done = {r["id"]: r for r in responses if "id" in r}
        assert not done["loop"]["ok"]
        assert done["loop"]["kind"] == "deadline"
        assert done["loop"]["stats"]["outcome"] == "deadline"

    def test_stats_and_bad_requests(self):
        responses = self._serve([
            "this is not json",
            json.dumps({"op": "frobnicate"}),
            json.dumps({"op": "stats"}),
            json.dumps({"op": "shutdown"}),
        ])
        kinds = [r.get("kind") for r in responses]
        assert kinds.count("bad-request") == 2
        stats = [r for r in responses if r.get("op") == "stats"]
        assert stats and "submitted" in stats[0]["stats"]

    def test_cancel_request(self):
        responses = self._serve([
            json.dumps({"script": UNBOUNDED, "id": "victim"}),
            json.dumps({"op": "cancel", "id": "victim"}),
            json.dumps({"op": "shutdown"}),
        ])
        done = {r["id"]: r for r in responses if r.get("id") == "victim"
                and "kind" in r}
        cancel_acks = [r for r in responses if r.get("op") == "cancel"]
        assert cancel_acks[0]["found"]
        assert done["victim"]["kind"] == "cancelled"


def test_cli_serve_smoke(capsys, monkeypatch):
    from repro import cli
    requests = "\n".join([
        json.dumps({"script": "y = 2.0 + 3.0; print(y);", "id": "s",
                    "outputs": ["y"]}),
        json.dumps({"op": "shutdown"}),
    ]) + "\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(requests))
    assert cli.main(["serve", "--workers", "2", "--stats"]) == 0
    captured = capsys.readouterr()
    lines = [json.loads(line) for line in captured.out.splitlines()]
    assert lines[0]["outputs"] == {"y": 5.0}
    assert "ServiceStats" in captured.err

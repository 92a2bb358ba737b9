"""Tests for :mod:`repro.serve.admission` and priority-aware worker dispatch.

The contract under test:

* :class:`AdmissionController` decisions follow the documented rule order
  (overload state, depth caps, inflight-cost caps, unmeetable deadline) and
  carry their evidence (queue depths, predicted latency, predicted slack);
* the overload state machine escalates with predicted backlog and
  de-escalates with hysteresis;
* a shed request never touches an engine, and its typed decision raises
  :class:`RequestShedError` when a result is demanded;
* admission outcomes and the DAC/ADC/crossbar/digital energy split flow into
  the telemetry exports;
* workers dispatch the globally most urgent formed batch (priority, then
  EDF, then formation order, with aged batches promoted) instead of
  FIFO-draining one model.
"""

import threading
import time

import numpy as np
import pytest

from repro.hw import RAELLA_ARCH
from repro.serve import (
    AdmissionController,
    AdmissionCounters,
    AdmissionPolicy,
    BatchingPolicy,
    InferenceServer,
    ModelRegistry,
    OverloadState,
    RequestShedError,
    ServerStoppedError,
)
from repro.serve.scheduler import InferenceFuture, InferenceRequest
from repro.serve.server import _DispatchedBatch
from repro.telemetry import TelemetryCollector


def per_sample_predictor(seconds_per_sample):
    """A deterministic latency predictor: n_samples * seconds_per_sample."""

    def predictor(model_name, n_samples):
        return n_samples * seconds_per_sample

    return predictor


def decide(
    controller,
    model_name="m",
    tenant=None,
    n_samples=1,
    priority=0,
    deadline_s=None,
    backlog=None,
    tenants=None,
    predictor=None,
):
    return controller.decide(
        request_id=0,
        model_name=model_name,
        tenant=tenant if tenant is not None else model_name,
        n_samples=n_samples,
        priority=priority,
        deadline_s=deadline_s,
        backlog_samples=backlog or {},
        tenants=tenants or {},
        predictor=predictor,
    )


class TestAdmissionPolicyValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="max_queue_samples_per_model"):
            AdmissionPolicy(max_queue_samples_per_model=0)
        with pytest.raises(ValueError, match="deadline_policy"):
            AdmissionPolicy(deadline_policy="drop")
        with pytest.raises(ValueError, match="slack_margin_s"):
            AdmissionPolicy(slack_margin_s=-0.1)
        with pytest.raises(ValueError, match="overload_exit_fraction"):
            AdmissionPolicy(overload_exit_fraction=0.0)
        with pytest.raises(ValueError, match="critical_enter_backlog_s"):
            AdmissionPolicy(overload_enter_backlog_s=2.0, critical_enter_backlog_s=1.0)


class TestControllerRules:
    def test_unloaded_request_accepted_with_evidence(self):
        controller = AdmissionController(AdmissionPolicy(max_queue_samples_per_model=8))
        decision = decide(
            controller,
            n_samples=2,
            deadline_s=1.0,
            predictor=per_sample_predictor(0.01),
        )
        assert decision.status == "accepted"
        assert decision.accepted
        assert decision.queue_depth_samples == 0
        assert decision.predicted_latency_s == pytest.approx(0.02)
        assert decision.predicted_slack_s == pytest.approx(0.98)
        assert decision.overload_state is OverloadState.ACCEPTING

    def test_model_depth_cap_sheds(self):
        controller = AdmissionController(AdmissionPolicy(max_queue_samples_per_model=8))
        decision = decide(controller, n_samples=4, backlog={"m": 6})
        assert decision.status == "shed"
        assert not decision.accepted
        assert decision.queue_depth_samples == 6
        assert "queue depth cap" in decision.reason

    def test_tenant_depth_cap_sums_models(self):
        controller = AdmissionController(
            AdmissionPolicy(max_queue_samples_per_tenant=10)
        )
        tenants = {"a": "acme", "b": "acme", "c": "other"}
        decision = decide(
            controller,
            model_name="a",
            tenant="acme",
            n_samples=4,
            backlog={"a": 3, "b": 5, "c": 50},
            tenants=tenants,
        )
        assert decision.status == "shed"
        assert decision.tenant_depth_samples == 8  # c's backlog not counted
        assert "tenant queue depth cap" in decision.reason
        # The same submit against a lighter tenant is admitted.
        decision = decide(
            controller,
            model_name="c",
            tenant="other",
            n_samples=4,
            backlog={"a": 3, "b": 5, "c": 5},
            tenants=tenants,
        )
        assert decision.status == "accepted"

    def test_inflight_cost_caps(self):
        policy = AdmissionPolicy(max_inflight_cost_s=0.5)
        controller = AdmissionController(policy)
        decision = decide(
            controller,
            n_samples=10,
            backlog={"m": 50},
            predictor=per_sample_predictor(0.01),
        )
        assert decision.status == "shed"
        assert "model inflight cost cap" in decision.reason
        # Without a predictor the cost cap is inert (nothing provable).
        assert decide(controller, n_samples=10, backlog={"m": 50}).accepted

    def test_tenant_inflight_cost_cap(self):
        controller = AdmissionController(
            AdmissionPolicy(max_tenant_inflight_cost_s=0.5)
        )
        tenants = {"a": "acme", "b": "acme"}
        decision = decide(
            controller,
            model_name="a",
            tenant="acme",
            n_samples=10,
            backlog={"a": 10, "b": 40},
            tenants=tenants,
            predictor=per_sample_predictor(0.01),
        )
        assert decision.status == "shed"
        assert "tenant inflight cost cap" in decision.reason

    def test_unmeetable_deadline_sheds_with_slack_evidence(self):
        controller = AdmissionController()
        decision = decide(
            controller,
            n_samples=2,
            deadline_s=0.05,
            backlog={"m": 8},
            predictor=per_sample_predictor(0.01),
        )
        assert decision.status == "shed"
        assert decision.predicted_latency_s == pytest.approx(0.10)
        assert decision.predicted_slack_s == pytest.approx(-0.05)
        assert "deadline unmeetable" in decision.reason

    def test_slack_margin_tightens_the_test(self):
        loose = AdmissionController(AdmissionPolicy())
        tight = AdmissionController(AdmissionPolicy(slack_margin_s=0.5))
        kwargs = dict(n_samples=1, deadline_s=0.3, predictor=per_sample_predictor(0.01))
        assert decide(loose, **kwargs).accepted
        assert decide(tight, **kwargs).status == "shed"

    def test_downgrade_policy_strips_slo(self):
        controller = AdmissionController(AdmissionPolicy(deadline_policy="downgrade"))
        decision = decide(
            controller,
            n_samples=2,
            deadline_s=0.01,
            backlog={"m": 50},
            predictor=per_sample_predictor(0.01),
        )
        assert decision.status == "downgraded"
        assert decision.accepted

    def test_no_deadline_no_predictor_accepts(self):
        controller = AdmissionController()
        assert decide(controller, n_samples=4, backlog={"m": 10**6}).accepted

    def test_failing_predictor_degrades_to_accept(self):
        def broken(name, n):
            raise RuntimeError("estimator died")

        controller = AdmissionController()
        decision = decide(
            controller,
            n_samples=1,
            deadline_s=0.001,
            backlog={"m": 10**6},
            predictor=broken,
        )
        assert decision.accepted
        assert decision.predicted_latency_s is None

    def test_counters_accumulate(self):
        # The controller only decides; the collector is the one store of
        # decision counts (the server records each decision once).
        controller = AdmissionController(AdmissionPolicy(max_queue_samples_per_model=2))
        collector = TelemetryCollector()
        for n_samples in (1, 1, 4):  # the last one is over the cap
            collector.record_admission(decide(controller, n_samples=n_samples))
        aggregate = collector.aggregate("m")
        assert aggregate.admitted_requests == 2
        assert aggregate.shed_requests == 1
        assert aggregate.downgraded_requests == 0
        assert controller.counters() == AdmissionCounters(state_transitions=0)


class TestOverloadStateMachine:
    def controller(self):
        return AdmissionController(
            AdmissionPolicy(
                overload_enter_backlog_s=1.0,
                critical_enter_backlog_s=2.0,
                overload_exit_fraction=0.5,
                critical_priority=2,
            )
        )

    def test_escalates_and_sheds_by_class(self):
        controller = self.controller()
        predictor = per_sample_predictor(0.01)
        # Backlog 1.5s: shed best-effort, keep SLO-tagged work.
        best_effort = decide(
            controller, n_samples=1, backlog={"m": 150}, predictor=predictor
        )
        assert controller.state is OverloadState.SHED_BEST_EFFORT
        assert best_effort.status == "shed"
        assert "best-effort" in best_effort.reason
        tagged = decide(
            controller,
            n_samples=1,
            priority=1,
            backlog={"m": 150},
            predictor=predictor,
        )
        assert tagged.accepted
        # Backlog 3s: critical, only priority >= 2 admitted.
        low = decide(
            controller,
            n_samples=1,
            priority=1,
            backlog={"m": 300},
            predictor=predictor,
        )
        assert controller.state is OverloadState.SHED_ALL_BUT_TOP
        assert low.status == "shed"
        assert "critical" in low.reason
        top = decide(
            controller,
            n_samples=1,
            priority=2,
            backlog={"m": 300},
            predictor=predictor,
        )
        assert top.accepted

    def test_hysteresis_on_the_way_down(self):
        controller = self.controller()
        predictor = per_sample_predictor(0.01)
        decide(controller, n_samples=1, backlog={"m": 300}, predictor=predictor)
        assert controller.state is OverloadState.SHED_ALL_BUT_TOP
        # 1.5s is below the 2s critical threshold but above its 1s exit
        # level (0.5 * 2s): the state must hold.
        decide(controller, n_samples=1, backlog={"m": 150}, predictor=predictor)
        assert controller.state is OverloadState.SHED_ALL_BUT_TOP
        # 0.9s: below the critical exit level, still above the overload
        # exit level (0.5 * 1s) -> de-escalate one step only.
        decide(controller, n_samples=1, backlog={"m": 90}, predictor=predictor)
        assert controller.state is OverloadState.SHED_BEST_EFFORT
        # 0.4s: fully recovered.
        decide(controller, n_samples=1, backlog={"m": 40}, predictor=predictor)
        assert controller.state is OverloadState.ACCEPTING
        assert controller.counters().state_transitions == 3

    def test_downgrade_is_shed_while_overloaded(self):
        controller = AdmissionController(
            AdmissionPolicy(deadline_policy="downgrade", overload_enter_backlog_s=1.0)
        )
        predictor = per_sample_predictor(0.01)
        decision = decide(
            controller,
            n_samples=1,
            priority=1,
            deadline_s=0.01,
            backlog={"m": 150},
            predictor=predictor,
        )
        # Slack is negative and the controller is shedding best-effort:
        # downgrading would admit work it is simultaneously rejecting.
        assert decision.status == "shed"


class TestCounterReconciliation:
    """Every view of the serving counters is derived from the one collector,
    so they agree exactly under a mixed load."""

    def test_mixed_load_reconciles_every_view(self, tiny_mlp_model, rng):
        registry = ModelRegistry()
        registry.register("mlp", tiny_mlp_model, arch=RAELLA_ARCH)
        registry.register("flaky", tiny_mlp_model)

        def explode(inputs, **kwargs):
            raise RuntimeError("tile power loss")

        registry.engine("flaky").run = explode
        telemetry = TelemetryCollector()
        # Every deadline is unmeetable at 10 s/sample: SLO-tagged requests
        # are downgraded, best-effort ones accepted, oversized ones shed.
        admission = AdmissionController(
            AdmissionPolicy(
                max_queue_samples_per_model=64, deadline_policy="downgrade"
            ),
            latency_predictor=per_sample_predictor(10.0),
        )
        server = InferenceServer(
            registry,
            BatchingPolicy(max_batch_size=8, max_delay_s=0.001),
            telemetry=telemetry,
            admission=admission,
        )
        inputs = np.abs(rng.normal(0, 1, size=(2, 16)))
        tally = {"accepted": 0, "downgraded": 0, "shed": 0, "rejected": 0}
        attempts = 0
        lock = threading.Lock()
        done = threading.Event()

        def count(status):
            with lock:
                tally[status] += 1

        def submitter():
            nonlocal attempts
            while not done.is_set():
                try:
                    count(server.submit("mlp", inputs).status)
                except ServerStoppedError:
                    count("rejected")
                with lock:
                    attempts += 1

        server.start()
        for _ in range(3):
            count(server.submit("mlp", inputs, deadline_s=0.5).status)
            count(server.submit("mlp", np.zeros((65, 16))).status)
            count(server.submit("flaky", inputs).status)
        # The stop/submit race: stop() closes the queue under submitters
        # that already passed the fail-fast check; a request that was never
        # enqueued must leave no count anywhere.
        threads = [threading.Thread(target=submitter) for _ in range(4)]
        for thread in threads:
            thread.start()
        for _ in range(8):
            time.sleep(0.002)
            server.stop()
            server.start()
        done.set()
        for thread in threads:
            thread.join()
        server.stop()
        assert tally["rejected"] > 0, "the race never fired; tighten the schedule"
        assert sum(tally.values()) == attempts + 9

        stats = server.statistics()
        aggregates = telemetry.aggregates()
        total = {
            field: sum(getattr(a, field) for a in aggregates.values())
            for field in (
                "admitted_requests",
                "downgraded_requests",
                "shed_requests",
                "failed_requests",
                "requests",
                "engine_runs",
                "engine_run_samples",
            )
        }
        assert total["admitted_requests"] == tally["accepted"]
        assert total["downgraded_requests"] == tally["downgraded"] == 3
        # The racing submitters may also run into the depth cap.
        assert total["shed_requests"] == tally["shed"] >= 3
        assert total["failed_requests"] == 3
        assert aggregates["flaky"].failed_requests == 3
        assert stats.requests_submitted == tally["accepted"] + tally["downgraded"]
        assert stats.requests_downgraded == tally["downgraded"]
        assert stats.requests_shed == tally["shed"]
        assert stats.requests_failed == 3
        # Drained: every enqueued request either completed or failed.
        assert stats.requests_completed == total["requests"]
        assert stats.requests_completed + stats.requests_failed == (
            stats.requests_submitted
        )
        assert stats.batches_executed == total["engine_runs"]
        assert stats.samples_executed == total["engine_run_samples"]
        assert stats.samples_executed == 2 * stats.requests_completed
        assert stats.batches_per_model == {"mlp": aggregates["mlp"].engine_runs}

        health = self._healthz(server)
        assert health["admission"] == {
            "accepted": tally["accepted"],
            "downgraded": tally["downgraded"],
            "shed": tally["shed"],
            "state_transitions": admission.counters().state_transitions,
        }
        exported = self._prometheus_counters(telemetry.to_prometheus())
        for family, field in (
            ("repro_admission_admitted_total", "admitted_requests"),
            ("repro_admission_downgraded_total", "downgraded_requests"),
            ("repro_admission_shed_total", "shed_requests"),
            ("repro_requests_failed_total", "failed_requests"),
            ("repro_requests_total", "requests"),
            ("repro_engine_runs_total", "engine_runs"),
        ):
            for name, aggregate in aggregates.items():
                assert exported[(family, name)] == getattr(aggregate, field)

    @staticmethod
    def _healthz(server) -> dict:
        import asyncio
        import http.client
        import json

        from repro.serve import AsyncGateway, AsyncInferenceServer

        def get(address):
            conn = http.client.HTTPConnection(*address, timeout=30)
            conn.request("GET", "/healthz")
            return json.loads(conn.getresponse().read())

        async def scenario():
            async with AsyncGateway(AsyncInferenceServer(server=server)) as gateway:
                return await asyncio.to_thread(get, gateway.address)

        return asyncio.run(scenario())

    @staticmethod
    def _prometheus_counters(text: str) -> dict[tuple[str, str], float]:
        counters = {}
        for line in text.splitlines():
            if line.startswith("#") or '{model="' not in line:
                continue
            sample, value = line.rsplit(" ", 1)
            family, _, label = sample.partition('{model="')
            if '"' in label[:-2]:  # a second label: not a per-model counter
                continue
            counters[(family, label[:-2])] = float(value)
        return counters


@pytest.fixture
def serving_registry(tiny_mlp_model):
    registry = ModelRegistry()
    registry.register("mlp", tiny_mlp_model, arch=RAELLA_ARCH)
    return registry


class TestServerIntegration:
    def test_submit_returns_accepted_decision_and_result(self, serving_registry, rng):
        server = InferenceServer(serving_registry)
        inputs = np.abs(rng.normal(0, 1, size=(3, 16)))
        decision = server.submit("mlp", inputs)
        assert decision.status == "accepted"
        assert decision.reason == "admission control disabled"
        with server:
            result = decision.result(timeout=30)
        direct = serving_registry.engine("mlp").run(inputs)
        assert np.array_equal(result, direct)

    def test_depth_cap_sheds_without_touching_an_engine(
        self, serving_registry, rng, tiny_mlp_model
    ):
        from repro.telemetry import TelemetryCollector

        telemetry = TelemetryCollector()
        controller = AdmissionController(AdmissionPolicy(max_queue_samples_per_model=4))
        server = InferenceServer(
            serving_registry, telemetry=telemetry, admission=controller
        )
        admitted = server.submit("mlp", np.abs(rng.normal(0, 1, size=(4, 16))))
        shed = server.submit("mlp", np.abs(rng.normal(0, 1, size=(4, 16))))
        assert admitted.status == "accepted"
        assert shed.status == "shed"
        assert shed.future is None
        assert shed.done()
        with pytest.raises(RequestShedError) as excinfo:
            shed.result()
        assert excinfo.value.decision is shed
        # Nothing executed: the shed decision was pure queue arithmetic.
        assert server.statistics().batches_executed == 0
        assert server.statistics().requests_shed == 1
        # Admission outcomes reached the collector.
        aggregate = telemetry.aggregate("mlp")
        assert aggregate.admitted_requests == 1
        assert aggregate.shed_requests == 1
        assert telemetry.overload_state == "accepting"
        assert "repro_admission_shed_total" in telemetry.to_prometheus()
        assert '"overload_state": "accepting"' in telemetry.export_json(
            include_traces=False
        )
        with server:
            admitted.result(timeout=30)

    def test_downgraded_request_completes_as_best_effort(self, serving_registry, rng):
        controller = AdmissionController(
            AdmissionPolicy(deadline_policy="downgrade"),
            latency_predictor=per_sample_predictor(10.0),
        )
        server = InferenceServer(serving_registry, admission=controller)
        decision = server.submit(
            "mlp", np.abs(rng.normal(0, 1, size=(2, 16))), deadline_s=0.01
        )
        assert decision.status == "downgraded"
        with server:
            result = decision.result(timeout=30)
        assert result.shape == (2, 4)
        stats = server.statistics()
        assert stats.requests_downgraded == 1
        assert stats.requests_submitted == 1

    def test_infer_raises_on_shed(self, serving_registry, rng):
        controller = AdmissionController(AdmissionPolicy(max_queue_samples_per_model=1))
        server = InferenceServer(serving_registry, admission=controller)
        with pytest.raises(RequestShedError, match="queue depth cap"):
            server.submit("mlp", np.abs(rng.normal(0, 1, size=(1, 16))))
            server.infer("mlp", np.abs(rng.normal(0, 1, size=(1, 16))))

    def test_registry_tenants(self, tiny_mlp_model, tiny_conv_model):
        registry = ModelRegistry()
        registry.register("a", tiny_mlp_model, tenant="acme")
        registry.register("b", tiny_conv_model)
        assert registry.tenant("a") == "acme"
        assert registry.tenant("b") == "b"
        assert registry.tenants() == {"a": "acme", "b": "b"}
        registry.unregister("a")
        with pytest.raises(KeyError):
            registry.tenant("a")

    def test_energy_split_sums_to_total(self, serving_registry, rng):
        from repro.telemetry import TelemetryCollector

        telemetry = TelemetryCollector()
        server = InferenceServer(serving_registry, telemetry=telemetry)
        with server:
            server.infer("mlp", np.abs(rng.normal(0, 1, size=(3, 16))))
        trace = telemetry.traces("mlp")[0]
        split = trace.modeled_energy_components_pj
        assert set(split) == {"adc", "dac", "crossbar", "digital"}
        assert sum(split.values()) == pytest.approx(trace.modeled_energy_pj, rel=1e-9)
        # The split also matches the cost model's full component breakdown.
        cost = serving_registry.cost_model("mlp")
        breakdown = cost.energy_breakdown().components_pj
        for key in ("adc", "dac", "crossbar"):
            assert split[key] == pytest.approx(breakdown[key] * 3, rel=1e-9)
        aggregate = telemetry.aggregate("mlp")
        assert aggregate.modeled_energy_components_pj["adc"] == pytest.approx(
            split["adc"]
        )
        assert "component=\"digital\"" in telemetry.to_prometheus()


def make_entry(seq, priority=0, deadline_s=None, age_s=0.0, samples=1):
    now = time.monotonic()
    request = InferenceRequest(
        model_name=f"m{seq}",
        inputs=np.zeros((samples, 2)),
        future=InferenceFuture(),
        enqueued_at=now - age_s,
        priority=priority,
        deadline_s=None if deadline_s is None else now + deadline_s,
    )
    return _DispatchedBatch.from_requests(seq, [request])


class TestDispatchUrgency:
    """White-box tests of the worker-side globally-most-urgent selection."""

    def select(self, server, entries, active=()):
        from collections import deque

        server._dispatch = {
            entry.requests[0].model_name: deque([entry]) for entry in entries
        }
        server._active_batches = {name: 1 for name in active}
        return server._select_model_locked(time.monotonic())

    @pytest.fixture
    def server(self, serving_registry):
        return InferenceServer(serving_registry, BatchingPolicy(starvation_limit_s=0.5))

    def test_priority_beats_formation_order(self, server):
        chosen = self.select(
            server, [make_entry(0, priority=0), make_entry(1, priority=3)]
        )
        assert chosen == "m1"

    def test_edf_within_a_priority_class(self, server):
        chosen = self.select(
            server,
            [
                make_entry(0),  # no deadline: ranks last
                make_entry(1, deadline_s=5.0),
                make_entry(2, deadline_s=0.5),
            ],
        )
        assert chosen == "m2"

    def test_formation_order_breaks_ties(self, server):
        chosen = self.select(server, [make_entry(0), make_entry(1)])
        assert chosen == "m0"

    def test_active_model_is_skipped(self, server):
        chosen = self.select(
            server,
            [make_entry(0, priority=3), make_entry(1)],
            active=("m0",),
        )
        assert chosen == "m1"

    def test_fifo_mode_dispatches_in_formation_order(self, serving_registry):
        # slo_scheduling=False is the benchmarks' FIFO baseline: dispatch
        # must ignore priorities/deadlines end to end.
        server = InferenceServer(serving_registry, slo_scheduling=False)
        chosen = self.select(server, [make_entry(0), make_entry(1, priority=3)])
        assert chosen == "m0"

    def test_starved_batch_promoted_over_priority(self, server):
        chosen = self.select(
            server, [make_entry(0, age_s=1.0), make_entry(1, priority=3)]
        )
        assert chosen == "m0"  # older than the 0.5s limit -> top class + EDF

    def test_workers_jump_to_urgent_model(self, tiny_mlp_model, rng):
        """End to end: a high-priority batch overtakes a busy model's queue.

        One worker serialises execution and model "slow" gets an artificial
        engine delay, so its formed batches pile up; a later high-priority
        "fast" batch must dispatch before the backlog drains (the pre-PR
        dispatcher FIFO-drained all of "slow" first).
        """
        from repro.telemetry import TelemetryCollector

        registry = ModelRegistry()
        registry.register("slow", tiny_mlp_model)
        fast_model = tiny_mlp_model  # same weights, separate hosted name
        registry.register("fast", fast_model)
        engine = registry.engine("slow")
        original_run = engine.run

        def delayed_run(inputs):
            time.sleep(0.03)
            return original_run(inputs)

        engine.run = delayed_run
        try:
            telemetry = TelemetryCollector()
            server = InferenceServer(
                registry,
                BatchingPolicy(max_batch_size=1, max_delay_s=0.0),
                max_workers=1,
                telemetry=telemetry,
            )
            slow_inputs = [np.abs(rng.normal(0, 1, size=(1, 16))) for _ in range(6)]
            slow = [server.submit("slow", x) for x in slow_inputs]
            with server:
                time.sleep(0.02)  # let the first slow batch start executing
                fast = server.submit(
                    "fast", np.abs(rng.normal(0, 1, size=(1, 16))), priority=5
                )
                fast.result(timeout=30)
                for decision in slow:
                    decision.result(timeout=30)
            fast_trace = telemetry.traces("fast")[0]
            slow_dispatches = sorted(t.dispatched_at for t in telemetry.traces("slow"))
            # The high-priority batch must not run last: at least one slow
            # batch was still waiting when it dispatched.
            assert fast_trace.dispatched_at < slow_dispatches[-1]
        finally:
            engine.run = original_run

"""The streaming observability layer: bus, frames, SSE, watch, fixes.

Pins the contracts this layer added on top of the engines:

* **Bus/trace equivalence** — on one seeded run, the event stream an
  engine publishes to a :class:`TraceBus` is *identical* to what a
  :class:`Trace` records, and attaching a bus never perturbs the run
  itself (same steps, same final configuration).
* **Census replay** — folding the event stream through a
  :class:`CensusTracker` reproduces the final configuration's census
  exactly, including across fault-frame resyncs.
* **Leap-regime sampling** — the count engine's tau-leap path streams
  sampled census frames whose counts always sum to the alive
  population, ending in a frame that matches the result.
* **Trace truncation** (bugfix) — events past ``max_events`` are
  counted, flagged, and surfaced by queries instead of dropped
  silently.
* **Client wait deadline** (bugfix) — ``ServiceClient.wait`` honors its
  timeout without overshooting by a poll interval.
* **Wedged shutdown** (bugfix) — ``ExperimentService.stop`` reports
  threads that failed to join instead of silently leaking them.
* **SSE round-trip** — a live service streams status + census + end
  frames over ``GET /jobs/<id>/events``, serves each job's dashboard
  page at ``/jobs/<id>/watch`` and its ``/jobs/<id>/census`` snapshot,
  and ``repro-net watch <spec>`` streams the trial ``run`` would run.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.core.counting import CountSimulator
from repro.core.simulator import (
    ENGINES,
    Trace,
    make_engine,
    run_to_convergence,
)
from repro.core.trace import (
    BusSubscriber,
    CensusTracker,
    FrameAdapter,
    FrameLog,
    TraceBus,
    TraceTruncationWarning,
    merge_sinks,
)
from repro.processes import OneToOneElimination, OneWayEpidemic
from repro.protocols import SimpleGlobalLine


class _EventProbe(BusSubscriber):
    """Collects everything published on a bus."""

    def __init__(self) -> None:
        self.meta = []
        self.events = []
        self.census = []
        self.faults = []
        self.summaries = []

    def on_run_started(self, meta):
        self.meta.append(meta)

    def on_event(self, event, config):
        self.events.append(event)

    def on_census(self, frame):
        self.census.append(frame)

    def on_fault(self, frame):
        self.faults.append(frame)

    def on_run_finished(self, summary):
        self.summaries.append(summary)


class TestBusEquivalence:
    @pytest.mark.parametrize(
        "engine", [e for e in sorted(ENGINES) if e != "count"]
    )
    def test_bus_stream_equals_trace_events(self, engine):
        # One run, both sinks attached: the published interaction
        # stream must be the recorded one, event for event.
        probe = _EventProbe()
        bus = TraceBus()
        bus.subscribe(probe)
        trace = Trace()
        sim = make_engine(engine, seed=7)
        sim.run(SimpleGlobalLine(), 16, 100_000, trace=trace, bus=bus)
        assert probe.events == trace.events
        assert len(probe.meta) == 1
        assert probe.meta[0].engine == engine
        assert probe.meta[0].n == 16

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_bus_does_not_perturb_the_run(self, engine):
        plain = make_engine(engine, seed=3).run(
            SimpleGlobalLine(), 14, 100_000
        )
        bus = TraceBus()
        bus.subscribe(_EventProbe())
        observed = make_engine(engine, seed=3).run(
            SimpleGlobalLine(), 14, 100_000, bus=bus
        )
        assert observed.steps == plain.steps
        assert observed.effective_steps == plain.effective_steps
        assert (
            observed.config.state_counts() == plain.config.state_counts()
        )

    def test_run_to_convergence_publishes_run_finished(self):
        probe = _EventProbe()
        bus = TraceBus()
        bus.subscribe(probe)
        result = run_to_convergence(SimpleGlobalLine(), 12, seed=5, bus=bus)
        assert len(probe.summaries) == 1
        summary = probe.summaries[0]
        assert summary["converged"] is result.converged
        assert summary["steps"] == result.steps

    def test_merge_sinks_shapes(self):
        trace, bus = Trace(), TraceBus()
        assert merge_sinks(None, None) is None
        assert merge_sinks(trace, None) is trace
        assert merge_sinks(None, bus) is bus
        fanout = merge_sinks(trace, bus)
        assert fanout is not trace and fanout is not bus


class TestCensusReplay:
    def test_tracker_replays_final_census_exactly(self):
        frames = []
        tracker = CensusTracker(frames.append, interval=0)
        bus = TraceBus()
        bus.subscribe(tracker)
        result = make_engine("indexed", seed=11).run(
            SimpleGlobalLine(), 20, 200_000, bus=bus
        )
        final = frames[-1]
        assert final.counts == result.config.state_counts()
        assert final.n_edges == result.config.n_active_edges
        assert final.effective == result.effective_steps

    def test_tracker_resyncs_from_fault_frames(self):
        from repro.core.scenario import Scenario

        scenario = Scenario(faults=("crash:count=2,at=50",))
        frames = []
        tracker = CensusTracker(frames.append, interval=0)
        probe = _EventProbe()
        bus = TraceBus()
        bus.subscribe(tracker)
        bus.subscribe(probe)
        sim = make_engine("indexed", 9, scenario)
        protocol = SimpleGlobalLine()
        config = scenario.build_initial(protocol, 16)
        result = sim.run(protocol, 16, 300_000, config=config, bus=bus)
        assert probe.faults, "the crash fault must publish a FaultFrame"
        assert "crash" in probe.faults[0].kinds
        assert frames[-1].counts == result.config.state_counts()
        assert frames[-1].n_edges == result.config.n_active_edges


class TestLeapCensusStreaming:
    def run_leap(self, protocol=None, n=256, budget=2_000_000, stop=None):
        probe = _EventProbe()
        bus = TraceBus()
        bus.subscribe(probe)
        sim = CountSimulator(seed=0, leap_threshold=0)
        result = sim.run(
            protocol or OneToOneElimination(), n, budget, stop=stop, bus=bus
        )
        return result, probe

    def test_leap_regime_streams_sampled_census(self):
        result, probe = self.run_leap()
        assert probe.events == [], "the leap regime has no per-event path"
        assert len(probe.meta) == 1
        assert probe.meta[0].engine == "count"
        assert probe.census, "the leap regime must stream census frames"
        steps = [f.step for f in probe.census]
        assert steps == sorted(steps)
        for frame in probe.census:
            assert sum(frame.counts.values()) == 256
        final = probe.census[-1]
        assert final.step == result.steps
        assert final.counts == result.config.state_counts()
        assert final.effective == result.effective_steps

    @pytest.mark.parametrize("reason", ["stabilized", "max_steps", "quiescent"])
    def test_every_leap_exit_ends_with_the_result_census(self, reason):
        if reason == "max_steps":
            result, probe = self.run_leap(budget=1_000)
        else:
            # Without its certificate the epidemic runs until nobody is
            # left to infect.
            stop = (lambda config: False) if reason == "quiescent" else None
            result, probe = self.run_leap(
                OneWayEpidemic(), budget=None, stop=stop
            )
        assert result.stop_reason == reason
        assert probe.events == [] and probe.census
        final = probe.census[-1]
        assert (final.step, final.counts, final.effective) == (
            result.steps, result.config.state_counts(), result.effective_steps,
        )

    def test_exact_fallback_still_publishes_events(self):
        # Below the threshold the count engine is the indexed engine;
        # the bus must ride along on that path too.
        probe = _EventProbe()
        bus = TraceBus()
        bus.subscribe(probe)
        sim = CountSimulator(seed=4, leap_threshold=1_000_000)
        sim.run(SimpleGlobalLine(), 12, 100_000, bus=bus)
        assert probe.events, "the exact regime publishes per-event frames"
        assert probe.meta[0].engine == "count"


class TestTraceTruncation:
    def run_capped(self, cap=2):
        trace = Trace(max_events=cap)
        make_engine("indexed", seed=0).run(
            SimpleGlobalLine(), 12, 100_000, trace=trace
        )
        return trace

    def test_dropped_counter_and_flag(self):
        trace = self.run_capped()
        assert len(trace.events) == 2
        assert trace.dropped > 0
        assert trace.truncated

    def test_uncapped_trace_is_not_truncated(self):
        trace = Trace()
        make_engine("indexed", seed=0).run(
            SimpleGlobalLine(), 10, 100_000, trace=trace
        )
        assert trace.dropped == 0 and not trace.truncated

    @pytest.mark.parametrize(
        "query",
        ["edge_events", "activations", "deactivations",
         "last_edge_change_step"],
    )
    def test_queries_warn_on_truncated_trace(self, query):
        trace = self.run_capped()
        with pytest.warns(TraceTruncationWarning):
            getattr(trace, query)()


class TestFrameLog:
    def test_replay_then_live_then_close(self):
        log = FrameLog()
        log.publish({"type": "a"})
        follower = log.follow()
        assert next(follower) == {"type": "a"}
        log.publish({"type": "b"})
        assert next(follower) == {"type": "b"}
        log.close()
        assert list(follower) == []
        assert log.closed

    def test_cap_drops_data_but_not_control_frames(self):
        log = FrameLog(max_frames=2)
        log.publish({"i": 0})
        log.publish({"i": 1})
        log.publish({"i": 2})  # over the cap: dropped, counted
        log.publish({"type": "end"}, control=True)
        assert log.dropped == 1
        assert log.frames() == [{"i": 0}, {"i": 1}, {"type": "end"}]

    def test_publish_after_close_is_a_noop(self):
        log = FrameLog()
        log.close()
        log.publish({"late": True})
        assert log.frames() == []

    def test_watched_tracks_live_followers(self):
        log = FrameLog()
        assert not log.watched
        log.publish({"i": 0})
        follower = log.follow()
        next(follower)
        assert log.watched
        log.close()
        follower.close()
        assert not log.watched

    def test_heartbeat_yields_none_on_idle(self):
        log = FrameLog()
        follower = log.follow(heartbeat=0.01)
        assert next(follower) is None


class TestSseWire:
    def test_parse_sse_round_trip(self):
        from repro.service.sse import parse_sse

        raw = [
            b": keep-alive\r\n",
            b"data: {\"a\": 1}\r\n",
            b"\r\n",
            b"data: {\"b\":\r\n",
            b"data:  2}\r\n",
            b"\r\n",
        ]
        assert list(parse_sse(raw)) == [{"a": 1}, {"b": 2}]

    def test_frame_adapter_wire_shape(self):
        frames = []
        bus = TraceBus()
        bus.subscribe(
            FrameAdapter(frames.append, interval=0, extra={"trial": 3})
        )
        make_engine("indexed", seed=2).run(
            SimpleGlobalLine(), 10, 100_000, bus=bus
        )
        kinds = {f["type"] for f in frames}
        assert {"meta", "census"} <= kinds
        for frame in frames:
            assert frame["trial"] == 3  # extra merged into every frame
            json.dumps(frame)  # everything must be JSON-able
        census = [f for f in frames if f["type"] == "census"]
        assert all(
            isinstance(k, str) for f in census for k in f["counts"]
        )


class TestClientWaitDeadline:
    class _StuckClient:
        """A client whose job never finishes: wait() must time out."""

        from repro.service.client import ServiceClient as _base

        wait = _base.wait

        def status(self, job_id):
            return {
                "state": "running", "completed": 0, "total": 4,
            }

    def test_wait_does_not_overshoot_its_timeout(self):
        from repro.service.client import ServiceError

        client = self._StuckClient()
        start = time.monotonic()
        with pytest.raises(ServiceError, match="timed out"):
            client.wait("job-1", poll=30.0, timeout=0.2)
        elapsed = time.monotonic() - start
        # The old code slept the full fixed poll (30s) before noticing
        # the deadline; the fix caps the final sleep to the remainder.
        assert elapsed < 2.0

    def test_wait_checks_deadline_before_sleeping(self):
        from repro.service.client import ServiceError

        client = self._StuckClient()
        start = time.monotonic()
        with pytest.raises(ServiceError, match="timed out"):
            client.wait("job-1", poll=0.05, timeout=0.0)
        assert time.monotonic() - start < 1.0


class TestWedgedShutdown:
    class _WedgedThread:
        name = "wedged-thread"

        def join(self, timeout=None):
            pass  # pretends to join but stays alive

        def is_alive(self):
            return True

    def test_stop_reports_wedged_threads(self):
        from repro.service.api import ExperimentService

        service = ExperimentService(port=0)
        service.start()
        service._http_thread = self._WedgedThread()
        with pytest.warns(RuntimeWarning, match="wedged-thread"):
            wedged = service.stop()
        assert wedged == ["wedged-thread"]

    def test_clean_stop_reports_nothing(self):
        from repro.service.api import ExperimentService

        service = ExperimentService(port=0)
        service.start()
        assert service.stop() == []


@pytest.fixture(scope="module")
def streaming_service():
    """A storeless workers=1 service for the SSE round-trip tests."""
    from repro.service.api import ExperimentService

    service = ExperimentService(port=0, workers=1)
    service.start()
    try:
        yield service
    finally:
        service.stop()


class _ClientTests:
    """``self.client(service)`` hands out clients closed at teardown."""

    @pytest.fixture(autouse=True)
    def _close_clients(self):
        self.clients = []
        yield
        for client in self.clients:
            client.close()

    def client(self, service):
        from repro.service.client import ServiceClient

        self.clients.append(ServiceClient(service.url))
        return self.clients[-1]


class TestServiceEventStream(_ClientTests):
    def submit_and_collect(self, service, stream):
        from repro.analysis.runner import ExperimentSpec

        client = self.client(service)
        spec = ExperimentSpec(
            protocol="simple-global-line", sizes=(10,), trials=2,
            max_steps=200_000,
        )
        job = client.submit(spec.to_dict(), stream=stream)
        return list(client.events(job["id"])), job

    def test_stream_true_yields_census_frames(self, streaming_service):
        frames, _ = self.submit_and_collect(streaming_service, True)
        kinds = [f["type"] for f in frames]
        assert kinds[-1] == "end"
        assert frames[-1]["state"] == "done"
        assert "status" in kinds and "census" in kinds
        census = [f for f in frames if f["type"] == "census"]
        # Per-trial coordinates ride on every streamed frame.
        assert all("trial" in f and f["n"] == 10 for f in census)
        assert all(sum(f["counts"].values()) == 10 for f in census)
        runs = [f for f in frames if f["type"] == "run-end"]
        assert len(runs) == 2

    def test_stream_false_suppresses_census_frames(self, streaming_service):
        frames, _ = self.submit_and_collect(streaming_service, False)
        kinds = [f["type"] for f in frames]
        assert "census" not in kinds
        assert kinds[-1] == "end"

    def test_events_for_unknown_job_is_404(self, streaming_service):
        from repro.service.client import ServiceError

        client = self.client(streaming_service)
        with pytest.raises(ServiceError) as err:
            list(client.events("job-999"))
        assert err.value.status == 404

    def test_wants_census_policy(self):
        from repro.analysis.runner import ExperimentSpec
        from repro.service.jobs import Job, JobService

        spec = ExperimentSpec(
            protocol="simple-global-line", sizes=(8,), trials=1
        )
        serial = JobService(workers=1)
        pooled = JobService(workers=2)
        forced = Job("job-1", "sweep", spec, stream=True)
        auto = Job("job-2", "sweep", spec)
        off = Job("job-3", "sweep", spec, stream=False)
        assert serial._wants_census(forced)
        assert not serial._wants_census(off)
        assert not serial._wants_census(auto)  # nobody watching
        auto.publish_status()  # a frame to consume, so next() won't block
        follower = auto.events.follow()
        next(follower, None)
        assert serial._wants_census(auto)
        # Process pools can't carry the bus across pickling.
        assert not pooled._wants_census(forced)
        follower.close()


class TestWatchDashboard(_ClientTests):
    """The dashboard's service routes and ``repro-net watch``."""

    def get(self, url):
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, resp.read()

    def test_census_snapshot_ends_only_at_the_job_end(self):
        from repro.service.dashboard import census_snapshot

        log = FrameLog()
        log.publish({"type": "meta", "protocol": "p", "n": 8,
                     "engine": "indexed"}, control=True)
        log.publish({"type": "census", "step": 5, "counts": {"q1": 8},
                     "edges": 0, "effective": 0})
        log.publish({"type": "fault", "step": 9, "kinds": ["crash"],
                     "counts": {"q1": 7}, "edges": 0})
        log.publish({"type": "run-end", "steps": 9, "effective": 3})
        snap = census_snapshot(log)
        assert snap["census"]["counts"] == {"q1": 8}
        assert snap["meta"]["protocol"] == "p"
        assert [f["step"] for f in snap["faults"]] == [9]
        # A run-end closes one trial; the job is still running.
        assert snap["end"] is None
        end = {"type": "end", "state": "done", "error": ""}
        log.publish(end, control=True)
        assert census_snapshot(log)["end"] == end

    def test_watch_and_census_routes(self, streaming_service):
        from repro.analysis.runner import ExperimentSpec
        from repro.service.dashboard import census_snapshot

        client = self.client(streaming_service)
        base = f"{streaming_service.url}/jobs"
        spec = ExperimentSpec(
            protocol="simple-global-line", sizes=(10,), trials=1,
            max_steps=200_000,
        )
        job_id = client.submit(spec.to_dict(), stream=True)["id"]
        list(client.events(job_id))  # until the job ends
        status, page = self.get(f"{base}/{job_id}/watch?x=1")
        assert status == 200
        assert b'new EventSource("events")' in page
        status, body = self.get(f"{base}/{job_id}/census?x=1")
        snap = json.loads(body)
        job = streaming_service.jobs.get(job_id)
        assert snap == census_snapshot(job.events)
        assert sum(snap["census"]["counts"].values()) == 10
        assert snap["end"]["state"] == "done"
        # The spec comes from a POST body and canonicalizes unchanged.
        spec = ExperimentSpec(
            protocol="line-tm:program=<b>x</b>", sizes=(8,), trials=1,
        )
        job_id = client.submit(spec.to_dict())["id"]
        _, page = self.get(f"{base}/{job_id}/watch")
        title = (
            f"repro-net watch {job_id} "
            "(line-tm:program=&lt;b&gt;x&lt;/b&gt;)"
        )
        assert f"<title>{title}</title>".encode() in page
        assert b"<b>x</b>" not in page
        for route in ("watch", "census"):
            with pytest.raises(urllib.error.HTTPError) as err:
                self.get(f"{base}/job-999/{route}")
            err.value.close()
            assert err.value.code == 404

    def test_failed_run_ends_with_a_failed_frame(self, streaming_service):
        from repro.analysis.runner import ExperimentSpec

        client = self.client(streaming_service)
        spec = ExperimentSpec(
            protocol="simple-global-line", sizes=(16,), trials=1,
            engine="sequential",
            max_steps=1,  # hopeless budget -> ConvergenceError
        )
        job = client.submit(spec.to_dict(), stream=True)
        end = list(client.events(job["id"]))[-1]
        assert end["type"] == "end" and end["state"] == "failed"
        assert "ConvergenceError" in end["error"]

    def test_watch_spec_streams_the_trial_run_would_run(self, capsys):
        import re
        import threading

        from repro.cli import main
        from repro.service.client import ServiceClient

        codes = []
        argv = ["watch", "simple-global-line", "-n", "16", "--seed", "1",
                "--duration", "3"]
        worker = threading.Thread(
            target=lambda: codes.append(main(argv)), daemon=True
        )
        worker.start()
        out = ""
        deadline = time.monotonic() + 30
        while "/watch" not in out and time.monotonic() < deadline:
            time.sleep(0.05)
            out += capsys.readouterr().out
        url = re.search(r"(http://\S+)/jobs/job-1/watch", out).group(1)
        client = ServiceClient(url)
        self.clients.append(client)
        frames = list(client.events("job-1"))
        worker.join(timeout=30)
        assert not worker.is_alive() and codes == [0]
        kinds = [f["type"] for f in frames]
        assert "meta" in kinds and "census" in kinds
        assert frames[-1]["type"] == "end"
        assert frames[-1]["state"] == "done"
        (run_end,) = [f for f in frames if f["type"] == "run-end"]
        expected = run_to_convergence(SimpleGlobalLine(), 16, seed=1)
        assert (run_end["steps"], run_end["effective"]) == (
            expected.steps, expected.effective_steps
        )

    def test_watch_job_prints_the_dashboard_url(
        self, streaming_service, capsys
    ):
        from repro.analysis.runner import ExperimentSpec
        from repro.cli import main

        spec = ExperimentSpec(
            protocol="simple-global-line", sizes=(8,), trials=1,
        )
        job = self.client(streaming_service).submit(spec.to_dict())
        url = streaming_service.url
        assert main(["watch", job["id"], "--url", url]) == 0
        assert capsys.readouterr().out == f"{url}/jobs/{job['id']}/watch\n"

    def test_watch_unknown_job_exits_1(self, streaming_service, capsys):
        from repro.cli import main

        url = streaming_service.url
        assert main(["watch", "job-999", "--url", url]) == 1
        assert "unknown job" in capsys.readouterr().err

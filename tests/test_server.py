"""Protocol-level tests for the JSONL serving front end.

Every test here drives a *real* asyncio server -- over a loopback socket
(:func:`repro.serving.server.start_server_thread`) or over stdin/stdout
(:meth:`repro.serving.server.EvaluationServer.serve_stdio`) -- because the
properties under test live at the protocol boundary: wire **byte-identity**
with the in-process service (and therefore with
``evaluate_system(workers=1)``) on both transports, out-of-order completion
under mixed priorities, deadline expiry mid-flight, admission shedding under
a full pending batch, flow control on stdin, malformed frames erroring
per-connection without killing the server, keyed connection/frame fault
injection, hot policy-weight reload mid-drain, and a server process that
ends cleanly on SIGINT or SIGTERM.

Determinism without sleeps: the server takes an injectable ``clock`` (fake
time for deadlines) and two seams -- ``batch_started`` on the event loop,
``before_drain`` inside the drain executor.  Blocking ``before_drain`` on a
``threading.Event`` holds a batch "mid-drain" for exactly as long as a test
needs to race an admission or a reload against it.
"""

import asyncio
import io
import json
import os
import queue
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.evaluation import JOB_LENGTH, TrainedPolicies, evaluate_system
from repro.analysis.parallel import (
    archive_policies,
    restore_policies,
    save_archive,
    shutdown_pools,
)
from repro.reliability import FaultPlan
from repro.serving.__main__ import main as serve_main
from repro.serving.cache import ResultCache, policy_digest
from repro.serving.client import ServingClient
from repro.serving.jsonl import request_from_json, response_to_json
from repro.serving.server import EvaluationServer, start_server_thread
from repro.serving.service import EvaluationService
from repro.sim.tasks import TASKS, sample_job
from repro.sim.world import SEEN_LAYOUT

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def trained(tiny_policies):
    baseline, corki, _ = tiny_policies
    return TrainedPolicies(baseline, corki, demos_per_task=3, epochs=1)


@pytest.fixture(scope="module", autouse=True)
def _teardown_pools():
    yield
    shutdown_pools()


class TickingClock:
    """A fake monotonic clock: every reading advances one millisecond, so
    deadline expiry is a function of *clock readings*, not wall time."""

    def __init__(self, step: float = 0.001):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def job_frames(system: str, seed: int, count: int, prefix: str = "r") -> list[dict]:
    """Wire frames mirroring lanes 0..count-1 of ``evaluate_system(seed=seed)``."""
    job_rng = np.random.default_rng(seed)
    jobs = [sample_job(job_rng, JOB_LENGTH) for _ in range(count)]
    return [
        {
            "id": f"{prefix}{lane}",
            "system": system,
            "instructions": [task.instruction for task in job],
            "seed": seed,
            "lane": lane,
        }
        for lane, job in enumerate(jobs)
    ]


def quick_frame(request_id: str, lane: int, seed: int = 7, **extra) -> dict:
    """A cheap single-instruction frame for protocol-shape tests."""
    return {
        "id": request_id,
        "system": "corki-5",
        "instruction": TASKS[lane % len(TASKS)].instruction,
        "seed": seed,
        "lane": lane,
        "max_frames": 40,
        **extra,
    }


def expected_line(service_result, request_id) -> bytes:
    """The exact bytes the server must put on the wire for ``service_result``."""
    return (json.dumps(response_to_json(service_result, request_id)) + "\n").encode()


# -- byte identity -------------------------------------------------------------


def served_wire(trained, transport: str, frames: list[dict]) -> list[bytes]:
    """The response lines for one flushed batch of ``frames``, as sent."""
    if transport == "tcp":
        with start_server_thread(trained, slots=2) as handle:
            with ServingClient(handle.host, handle.port) as client:
                for frame in frames:
                    client.send(frame)
                client.flush()
                return [client.recv_raw() for _ in frames]
    stdin = io.StringIO("".join(json.dumps(frame) + "\n" for frame in frames) + "\n")
    stdout = io.StringIO()
    assert serve_main(["--slots", "2"], policies=trained, stdin=stdin, stdout=stdout) == 0
    return [line.encode() for line in stdout.getvalue().splitlines(keepends=True)]


class TestWireByteIdentity:
    @pytest.mark.parametrize("transport", ["tcp", "stdio"])
    def test_wire_bytes_match_in_process_service_and_batch_eval(
        self, trained, transport
    ):
        """The acceptance property: a response served over either transport
        is byte-identical to the in-process service's serialization of the
        same request -- and its traces match ``evaluate_system(workers=1)``."""
        frames = job_frames("corki-5", 11, 2)
        wire = served_wire(trained, transport, frames)

        requests = [request_from_json(frame) for frame in frames]
        with EvaluationService(trained, workers=1, slots=2) as service:
            results = service.serve(requests)
        assert wire == [
            expected_line(result, frame["id"])
            for frame, result in zip(frames, results)
        ]

        evaluation = evaluate_system(
            trained, "corki-5", SEEN_LAYOUT, jobs=2, seed=11, workers=1
        )
        cursor = 0  # jobs may stop early, so lanes contribute variable counts
        for line in wire:
            payload = json.loads(line)
            traces = evaluation.traces[cursor : cursor + len(payload["successes"])]
            cursor += len(traces)
            assert payload["status"] == "ok" and payload["cached"] is False
            assert payload["successes"] == [trace.success for trace in traces]
            assert payload["frames"] == [trace.frames for trace in traces]
            assert payload["executed_steps"] == [
                list(trace.executed_steps) for trace in traces
            ]
        assert cursor == len(evaluation.traces)

    def test_cached_rerun_identical_modulo_cached_flag(self, trained):
        """A warm rerun serves from cache: same bytes except ``cached``."""
        frame = quick_frame("w0", 0)
        with start_server_thread(trained, slots=2) as handle:
            with ServingClient(handle.host, handle.port) as client:
                (cold,) = client.request(frame)
                (warm,) = client.request(frame)
        assert cold["cached"] is False and warm["cached"] is True
        cold.pop("cached")
        warm.pop("cached")
        assert warm == cold


# -- priorities ----------------------------------------------------------------


class TestPriorities:
    def test_mixed_priorities_complete_out_of_order(self, trained):
        """Within one batch, responses arrive in ``(-priority, arrival)``
        order -- wire-observable out-of-order completion; match by id."""
        frames = [
            quick_frame("p0", 0, priority=0),
            quick_frame("p1", 1, priority=5),
            quick_frame("p2", 2, priority=0),
            quick_frame("p3", 3, priority=9),
        ]
        with start_server_thread(trained, slots=4) as handle:
            with ServingClient(handle.host, handle.port) as client:
                responses = client.request(*frames)
        assert [r["id"] for r in responses] == ["p3", "p1", "p0", "p2"]
        assert all(r["status"] == "ok" for r in responses)

    def test_priority_dispatch_preserves_identity(self, trained):
        """Priority reorders *dispatch*, never results: each response is
        byte-identical to the same request served alone at priority 0."""
        frame = quick_frame("solo", 1, seed=19)
        with start_server_thread(trained, slots=4) as handle:
            with ServingClient(handle.host, handle.port) as client:
                alone = client.request(dict(frame))
        # A second server (fresh cache) races the same request at priority 9
        # against a batch-mate; the response must not change.
        with start_server_thread(trained, slots=4) as handle:
            with ServingClient(handle.host, handle.port) as client:
                raced = client.request(
                    quick_frame("other", 0, seed=19), dict(frame, priority=9)
                )
        by_id = {r["id"]: r for r in raced}
        assert by_id["solo"] == alone[0]


# -- deadlines -----------------------------------------------------------------


class TestDeadlines:
    def test_deadline_expires_mid_flight(self, trained):
        """A deadline that survives admission but expires mid-roll answers
        ``timeout`` while its batch-mates -- and the server -- carry on."""
        clock = TickingClock(step=0.001)
        with start_server_thread(trained, slots=2, clock=clock) as handle:
            with ServingClient(handle.host, handle.port) as client:
                doomed = quick_frame("d0", 0, deadline_ms=25.0)
                doomed.pop("max_frames")  # long enough to outlive 25 readings
                healthy = quick_frame("d1", 1)
                responses = client.request(doomed, healthy)
                by_id = {r["id"]: r for r in responses}
                assert by_id["d0"]["status"] == "timeout"
                assert "deadline" in by_id["d0"]["error"]
                assert by_id["d1"]["status"] == "ok"
                # The server survives an expiry: a follow-up still serves.
                (after,) = client.request(quick_frame("d2", 2))
                assert after["status"] == "ok"


# -- admission control ---------------------------------------------------------


class TestAdmission:
    def test_shedding_under_full_pending_batch(self, trained):
        """With the drain held mid-flight and ``max_pending=2``, the third
        admission sheds immediately with the service's rejection envelope."""
        started, release = threading.Event(), threading.Event()
        calls: list[int] = []

        def hold(requests):
            calls.append(len(requests))
            if len(calls) == 1:
                started.set()
                release.wait(timeout=60)

        with start_server_thread(
            trained, slots=4, max_pending=2, before_drain=hold
        ) as handle:
            try:
                with ServingClient(handle.host, handle.port) as client:
                    client.send(quick_frame("hold", 0))
                    client.flush()
                    assert started.wait(timeout=60)
                    # Dispatcher is blocked mid-drain; pending is empty again.
                    for index in range(3):
                        client.send(quick_frame(f"s{index}", index + 1))
                    client.flush()
                    shed = client.recv()  # answered before any drain finishes
                    assert shed == {
                        "id": "s2",
                        "status": "rejected",
                        "error": "admission queue full",
                    }
                    release.set()
                    rest = [client.recv() for _ in range(3)]
                    assert {r["id"] for r in rest} == {"hold", "s0", "s1"}
                    assert all(r["status"] == "ok" for r in rest)
                    assert client.stats()["shed"] == 1
            finally:
                release.set()

    def test_stdin_is_not_read_past_max_inflight(self, trained):
        """``max_inflight=1`` on the stdio transport: while the first
        admission's drain is held, stdin is not read past the blank line
        that admitted it; reading resumes once the response is written."""
        overran = threading.Event()

        class RecordingStdin(io.StringIO):
            lines_read = 0

            def readline(self, size=-1):
                self.lines_read += 1
                if self.lines_read > 2:
                    overran.set()
                return super().readline(size)

        frames = [quick_frame("i0", 0), quick_frame("i1", 1)]
        stdin = RecordingStdin("".join(json.dumps(frame) + "\n\n" for frame in frames))
        stdout = io.StringIO()
        held: list[bool] = []

        def hold(requests):
            if not held:  # an unthrottled reader would take line 3 now
                held.append(overran.wait(timeout=0.5))

        async def serve() -> None:
            server = EvaluationServer(
                trained, slots=2, max_inflight=1, before_drain=hold
            )
            await server.serve_stdio(stdin, stdout)
            await server.close()

        asyncio.run(serve())
        assert held == [False]
        responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert [r["id"] for r in responses] == ["i0", "i1"]
        assert all(r["status"] == "ok" for r in responses)


# -- malformed frames ----------------------------------------------------------


class TestMalformedFrames:
    def test_garbage_frames_error_without_killing_the_connection(self, trained):
        """Binary garbage, truncated JSON, non-object frames and non-integer
        or non-finite numeric fields each answer an error envelope (naming
        the field where one is at fault); the same connection then serves a
        real request."""
        bad_fields = [
            ("seed", 3.7), ("lane", True), ("priority", 1.9), ("max_frames", 2.5),
            ("seed", "3"), ("deadline_ms", float("nan")),
            ("deadline_ms", float("inf")), ("deadline_ms", -1.0),
        ]
        cases = [
            (b"\xff\xfe\x00 binary garbage\n", ""),
            (b'{"id": "t0", "system": "corki-5", "instr\n', ""),
            (b"[1, 2, 3]\n", ""),
        ] + [
            ((json.dumps({**quick_frame("v", 0), key: value}) + "\n").encode(), key)
            for key, value in bad_fields
        ]
        with start_server_thread(trained, slots=2) as handle:
            # A frame that wrongly parses is buffered, not answered: time out.
            with socket.create_connection((handle.host, handle.port), timeout=60) as sock:
                stream = sock.makefile("rwb")
                for bad, field in cases:
                    stream.write(bad)
                    stream.flush()
                    response = json.loads(stream.readline())
                    assert response["status"] == "error"
                    assert field in response["error"]
                stream.write((json.dumps(quick_frame("ok0", 0)) + "\n\n").encode())
                stream.flush()
                served = json.loads(stream.readline())
                assert served["id"] == "ok0" and served["status"] == "ok"

    def test_unknown_instruction_errors_with_id(self, trained):
        """A parseable frame with a bad instruction keeps its id in the
        error, so a pipelined client can still match it."""
        with start_server_thread(trained, slots=2) as handle:
            with ServingClient(handle.host, handle.port) as client:
                client.send({"id": "bad", "system": "corki-5",
                             "instruction": "summon a fourth dimension", "seed": 1})
                client.flush()
                response = client.recv()
        assert response["id"] == "bad" and response["status"] == "error"

    def test_oversized_line_closes_only_its_connection(self, trained):
        """A frame exceeding ``max_line_bytes`` errors and hangs up -- that
        connection only; the server keeps accepting and serving."""
        with start_server_thread(trained, slots=2, max_line_bytes=4096) as handle:
            with socket.create_connection((handle.host, handle.port)) as sock:
                stream = sock.makefile("rwb")
                stream.write(b"x" * 8192 + b"\n")
                stream.flush()
                response = json.loads(stream.readline())
                assert response["status"] == "error"
                assert "exceeds 4096 bytes" in response["error"]
                assert stream.readline() == b""  # server hung up on us
            with ServingClient(handle.host, handle.port) as client:
                (served,) = client.request(quick_frame("alive", 0))
                assert served["status"] == "ok"
                assert client.stats()["connections"] == 2


class TestFrameBudgetCeiling:
    @pytest.mark.parametrize("transport", ["stdio", "tcp"])
    def test_overlong_budget_fails_alone(self, trained, transport):
        """A batch of [valid, ``max_frames`` 10**9] answers [ok, an error
        naming ``max_frames``]: the long request cannot size (and so fail)
        the drain it would have joined."""
        frames = [quick_frame("fine", 0), quick_frame("huge", 1, max_frames=10**9)]
        lines = served_wire(trained, transport, frames)
        responses = {response["id"]: response for response in map(json.loads, lines)}
        assert responses["huge"]["status"] == "error"
        assert "max_frames" in responses["huge"]["error"]
        with EvaluationService(trained, workers=1, use_cache=False) as service:
            (result,) = service.serve([request_from_json(
                {k: v for k, v in frames[0].items() if k != "id"}
            )])
        assert expected_line(result, "fine") in lines


# -- fault injection -----------------------------------------------------------


class TestFaultDomains:
    def test_connection_drops_are_keyed_and_isolated(self, trained):
        """Domain 13: the plan decides per accepted connection; a doomed
        connection closes at accept, its neighbours serve normally."""
        plan = FaultPlan(seed=3, connection_drop_rate=0.5)
        doomed = [plan.drops_connection(index) for index in range(3)]
        assert doomed == [True, False, False]  # keyed, so this is stable
        with start_server_thread(trained, slots=2, fault_plan=plan) as handle:
            for index, drops in enumerate(doomed):
                with socket.create_connection((handle.host, handle.port)) as sock:
                    stream = sock.makefile("rwb")
                    if drops:
                        assert stream.readline() == b""
                        continue
                    stream.write(
                        (json.dumps(quick_frame(f"c{index}", index)) + "\n\n").encode()
                    )
                    stream.flush()
                    assert json.loads(stream.readline())["status"] == "ok"
            assert handle.server.connections_dropped == 1

    def test_frame_corruption_is_keyed_and_survivable(self, trained):
        """Domain 14: mangled frames error per-frame; clean batch-mates
        serve.  The corruption pattern is a pure function of the plan."""
        plan = FaultPlan(seed=1, frame_corrupt_rate=0.5)
        corrupted = [plan.corrupts_frame(0, index) for index in range(6)]
        assert corrupted == [False, True, False, True, False, True]
        with start_server_thread(trained, slots=4, fault_plan=plan) as handle:
            with ServingClient(handle.host, handle.port) as client:
                for index in range(6):
                    client.send(quick_frame(f"f{index}", index))
                client.flush()
                responses = [client.recv() for _ in range(6)]
        # Mangled frames error as they arrive (before the batch dispatches),
        # so the three errors precede the three served responses.
        assert [r["status"] for r in responses] == ["error"] * 3 + ["ok"] * 3
        assert [r["id"] for r in responses[3:]] == ["f0", "f2", "f4"]
        assert handle.server.frames_corrupted == 3


# -- stats op ------------------------------------------------------------------


class TestStatsOp:
    def test_stats_waits_for_this_connections_admissions(self, trained):
        """``stats`` flushes, then answers only after every admission on the
        connection has been served -- so its counters include them."""
        with start_server_thread(trained, slots=2) as handle:
            with ServingClient(handle.host, handle.port) as client:
                client.send(quick_frame("q0", 0))
                client.send({"op": "stats"})
                client.flush()
                first, second = client.recv(), client.recv()
        assert first["id"] == "q0" and first["status"] == "ok"
        stats = second["stats"]
        assert stats["requests_served"] == 1
        assert stats["batches"] == 1
        assert stats["policy"] == policy_digest(trained)


    def test_polling_stats_between_frames_leaves_answers_unchanged(self, trained):
        """The same requests give the same wire bytes whether or not the
        client polls stats between them; the work counters only grow."""
        frames = [quick_frame(f"p{lane}", lane) for lane in range(4)]

        def serve(poll: bool):
            answers, polls = [], []
            with start_server_thread(trained) as handle:
                with ServingClient(handle.host, handle.port) as client:
                    for frame in frames:
                        client.send(frame)
                        client.flush()
                        answers.append(client.recv_raw())
                        if poll:
                            client.send({"op": "stats"})
                            client.flush()
                            polls.append(json.loads(client.recv_raw())["stats"])
            return answers, polls

        quiet, _ = serve(poll=False)
        polled, polls = serve(poll=True)
        assert polled == quiet
        ticks = [stats["fleet_ticks"] for stats in polls]
        assert ticks == sorted(ticks) and ticks[0] > 0
        assert [stats["fleet_admissions"] for stats in polls] == [1, 2, 3, 4]


# -- hot reload ----------------------------------------------------------------


def perturb(policies) -> TrainedPolicies:
    """A weight-distinct clone: same shapes, different ``policy_digest``."""
    clone = restore_policies(archive_policies(policies))
    parameter = clone.baseline.parameters()[0]
    parameter.data[...] = parameter.data + 1e-3
    return clone


class TestHotReload:
    def test_reload_mid_drain_keeps_both_digests(self, trained):
        """The satellite: swap weights while a batch is mid-drain.  The
        in-flight batch finishes byte-identical to the old weights, the
        post-swap batch matches a fresh roll under the new weights, and the
        shared cache holds both result sets."""
        fresh = perturb(trained)
        old_digest, new_digest = policy_digest(trained), policy_digest(fresh)
        assert old_digest != new_digest

        cache = ResultCache()
        started, release = threading.Event(), threading.Event()
        calls: list[int] = []

        def hold(requests):
            calls.append(len(requests))
            if len(calls) == 1:
                started.set()
                release.wait(timeout=60)

        frames_a = [quick_frame("a0", 0, seed=13), quick_frame("a1", 1, seed=13)]
        frames_b = [quick_frame("b0", 0, seed=13), quick_frame("b1", 1, seed=13)]
        with start_server_thread(
            trained, slots=2, cache=cache, before_drain=hold
        ) as handle:
            try:
                with ServingClient(handle.host, handle.port) as client:
                    for frame in frames_a:
                        client.send(frame)
                    client.flush()
                    assert started.wait(timeout=60)  # batch A is mid-drain
                    assert handle.server.reload(fresh) == new_digest
                    for frame in frames_b:
                        client.send(frame)
                    client.flush()
                    release.set()
                    wire = [client.recv_raw() for _ in range(4)]
                    assert client.stats()["policy"] == new_digest
            finally:
                release.set()

        with EvaluationService(trained, workers=1, slots=2) as old_service:
            old_results = old_service.serve(
                [request_from_json(frame) for frame in frames_a]
            )
        with EvaluationService(fresh, workers=1, slots=2) as new_service:
            new_results = new_service.serve(
                [request_from_json(frame) for frame in frames_b]
            )
        assert wire == [
            expected_line(result, frame["id"])
            for frame, result in zip(
                frames_a + frames_b, list(old_results) + list(new_results)
            )
        ]
        # Same request identity under two digests: four distinct entries.
        assert cache.stats()["entries"] == 4

    def test_reload_over_the_wire_from_archive(self, trained, tmp_path):
        """The ``reload`` op round-trips weights through ``save_archive`` /
        ``load_archive`` and serves under the restored digest."""
        fresh = perturb(trained)
        path = tmp_path / "weights.npz"
        save_archive(path, archive_policies(fresh))
        with start_server_thread(trained, slots=2) as handle:
            with ServingClient(handle.host, handle.port) as client:
                assert client.reload(str(path)) == policy_digest(fresh)
                (served,) = client.request(quick_frame("post", 0))
                assert served["status"] == "ok"
                assert client.stats()["policy"] == policy_digest(fresh)
                assert client.stats()["reloads"] == 1

    def test_reload_with_missing_archive_errors(self, trained, tmp_path):
        with start_server_thread(trained, slots=2) as handle:
            with ServingClient(handle.host, handle.port) as client:
                with pytest.raises(RuntimeError, match="reload failed"):
                    client.reload(str(tmp_path / "missing.npz"))
                (served,) = client.request(quick_frame("still", 0))
                assert served["status"] == "ok"


# -- process shutdown ----------------------------------------------------------

# Serves like ``python -m repro.serving ARGS`` with the committed quick-profile
# policies, but refuses to train if they are not cached.  ``IGNORE_SIGINT=1``
# starts it with SIGINT ignored, as a background job of a non-interactive
# shell inherits it.
_SERVE_PROCESS = """
import os, signal, sys
if os.environ.get("IGNORE_SIGINT") == "1":
    signal.signal(signal.SIGINT, signal.SIG_IGN)
import repro.analysis.evaluation as evaluation
def refuse(*args, **kwargs):
    raise SystemExit("the quick-profile policies are not cached in artifacts/")
evaluation.collect_demonstrations = refuse
from repro.serving.__main__ import main
raise SystemExit(main(sys.argv[1:]))
"""


def serve_until_signalled(signum, args, tmp_path, ignore_sigint=False):
    """Start the server process on an ephemeral TCP port, send ``signum`` once
    it serves, and return its exit code, its stderr and the worker-pool
    archive directories that existed while it served."""
    env = {
        **os.environ,
        "PYTHONPATH": str(REPO_ROOT / "src"),
        "TMPDIR": str(tmp_path),
        "IGNORE_SIGINT": "1" if ignore_sigint else "0",
    }
    process = subprocess.Popen(
        [sys.executable, "-c", _SERVE_PROCESS, "--tcp", "127.0.0.1:0", *args],
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, env=env, cwd=REPO_ROOT,
    )
    lines: queue.Queue = queue.Queue()

    def pump() -> None:
        for line in process.stderr:
            lines.put(line)
        lines.put("")  # end of stream

    threading.Thread(target=pump, daemon=True).start()
    log: list[str] = []
    try:
        while not log or not log[-1].startswith("[serving on"):
            log.append(lines.get(timeout=120))
            assert log[-1], f"server exited before serving: {''.join(log)}"
        pool_dirs = list(tmp_path.glob("repro-pool-*"))
        process.send_signal(signum)
        code = process.wait(timeout=60)
        while log[-1]:
            log.append(lines.get(timeout=10))
    finally:
        process.kill()
        process.wait()
    return code, "".join(log), pool_dirs


class TestShutdownSignals:
    """The server process ends cleanly on SIGINT and on SIGTERM: exit code
    0, a last ``[served N requests]`` line, and its worker pool's archive
    directory removed."""

    def test_sigint_stops_a_server_started_with_sigint_ignored(self, tmp_path):
        code, log, _ = serve_until_signalled(signal.SIGINT, [], tmp_path, ignore_sigint=True)
        assert code == 0, log
        assert log.splitlines()[-1] == "[served 0 requests]"

    def test_sigterm_stops_a_pooled_server_and_removes_its_archive(self, tmp_path):
        code, log, pool_dirs = serve_until_signalled(
            signal.SIGTERM, ["--workers", "2"], tmp_path
        )
        assert code == 0, log
        assert log.splitlines()[-1] == "[served 0 requests]"
        assert len(pool_dirs) == 1, "the pooled server wrote no archive directory"
        assert not list(tmp_path.glob("repro-pool-*"))

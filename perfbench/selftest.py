"""The benchmark's own checks, at smoke size (``run.py --self-test``).

Measurement code must be correct too.  These checks cover the open-loop
generator and the overload throughput against a stand-in server (so they
run in seconds), the output comparison, the max_rps ladder, the traced
runs' rule that self times never exceed the wall time, and that
``BENCHMARK.json`` names exactly the metrics the code reports.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
import traceback

import serve_open
from common import ROOT, Checks, lane_output_bytes

INSTRUCTIONS = [f"task {k}" for k in range(34)]


class StandInServer:
    """A JSONL server on a background thread that answers requests one at
    a time after ``service_s`` each (capacity ``1 / service_s``)."""

    def __init__(self, service_s: float):
        self.service_s = service_s
        self._ready = threading.Event()
        self._thread = threading.Thread(target=lambda: asyncio.run(self._main()), daemon=True)

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._lock = asyncio.Lock()
        server = await asyncio.start_server(self._handle, "127.0.0.1", 0)
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        async with server:
            await self._stop.wait()

    async def _handle(self, reader, writer) -> None:
        while line := await reader.readline():
            if not line.strip():
                continue
            request = json.loads(line)
            if request.get("op") == "stats":
                writer.write(b'{"stats": {}}\n')
            else:
                async with self._lock:
                    await asyncio.sleep(self.service_s)
                writer.write(json.dumps({"id": request["id"], "status": "ok"}).encode() + b"\n")
            await writer.drain()
        writer.close()

    def __enter__(self) -> "StandInServer":
        self._thread.start()
        self._ready.wait(10)
        return self

    def __exit__(self, *exc_info) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(10)


def test_schedule_is_a_pure_function_of_the_seed() -> None:
    first = serve_open.build_schedule(5, 1, 20.0, 300, INSTRUCTIONS)
    again = serve_open.build_schedule(5, 1, 20.0, 300, INSTRUCTIONS)
    other = serve_open.build_schedule(6, 1, 20.0, 300, INSTRUCTIONS)
    assert first == again, "same seed, different schedule"
    assert [r.due for r in first] != [r.due for r in other], "seed does not move the arrivals"
    assert [r.payload for r in first] != [r.payload for r in other], "seed does not move the mix"
    fresh, seen = [], set()
    for request in first:
        if request.index % serve_open.REPEAT_EVERY == serve_open.REPEAT_EVERY - 1:
            assert request.identity in seen, "a repeat must copy an earlier identity"
        else:
            assert request.identity not in seen, "a fresh request reused an identity"
            fresh.append(request)
        seen.add(request.identity)
    block = fresh[: 2 * len(INSTRUCTIONS)]
    assert {(r.payload["system"], r.payload["instruction"]) for r in block} == {
        (system, text) for system in serve_open.SYSTEMS for text in INSTRUCTIONS
    }, "a block of fresh requests must cover every task x system once"
    later = serve_open.build_schedule(5, 2, 20.0, 300, INSTRUCTIONS)
    assert not {r.identity for r in first} & {r.identity for r in later}, "phases share identities"
    mean_gap = first[-1].due / (len(first) - 1)
    assert abs(mean_gap - 1 / 20.0) < 0.2 / 20.0, f"Poisson rate off: mean gap {mean_gap}"


def test_latency_is_timed_from_the_due_time() -> None:
    requests = serve_open.build_schedule(1, 1, 50.0, 40, INSTRUCTIONS)
    with StandInServer(0.002) as server:
        on_time = serve_open.run_phase("127.0.0.1", server.port, requests, 50.0)
        # A generator that starts 300 ms behind its schedule: every request
        # is sent late, and its latency must include the delay.
        late = asyncio.run(serve_open._run_phase("127.0.0.1", server.port, requests, 50.0, lead_s=-0.3))
    assert on_time.valid() and max(on_time.latency_ms.values()) < 250.0, on_time.late_p99()
    assert late.late_ms[0] >= 299.0, "generator lateness was not recorded"
    for request, late_ms in zip(requests, late.late_ms):
        assert late.latency_ms[request.id] >= late_ms, "latency was not timed from the due time"
    assert not late.valid(), "a run this late must be invalid"


def test_backlog_growth_is_detected() -> None:
    steady = [(t / 10, 20 + (t % 7) + t // 10) for t in range(100)]  # +50% drift
    ramp = [(t / 10, t) for t in range(100)]
    assert not serve_open.backlog_growing(steady)
    assert serve_open.backlog_growing(ramp)
    overload = serve_open.build_schedule(1, 1, 100.0, 120, INSTRUCTIONS)
    underload = serve_open.build_schedule(1, 2, 10.0, 30, INSTRUCTIONS)
    with StandInServer(0.025) as server:  # capacity 40/s
        over = serve_open.run_phase("127.0.0.1", server.port, overload, 100.0)
        under = serve_open.run_phase("127.0.0.1", server.port, underload, 10.0)
    assert serve_open.backlog_growing(over.backlog), "overload at 2.5x capacity not detected"
    assert not serve_open.backlog_growing(under.backlog), "a quarter of capacity flagged"
    assert not serve_open.meets_limit(serve_open.summarize(overload, over))


def test_overload_throughput_reads_the_capacity() -> None:
    requests = serve_open.build_schedule(1, 1, 300.0, 60, INSTRUCTIONS)
    with StandInServer(0.01) as server:  # capacity 100/s
        result = serve_open.run_phase("127.0.0.1", server.port, requests, 300.0)
    count, span = serve_open.busy_span(requests, result)
    assert count == len(requests), result.failures(requests)
    assert 85.0 < count / span <= 100.0, f"{count / span:.1f}/s against a capacity of 100/s"


def test_a_corrupted_output_lowers_correct_frac() -> None:
    import numpy as np

    from repro.core.runner import EpisodeTrace

    def traces(shift: float) -> list:
        path = np.linspace(0.0, 1.0, 18).reshape(3, 6)
        return [EpisodeTrace(True, 3, [1, 2], path + shift, path, np.array([True, False, True]))]

    checks = Checks()
    for lane in range(3):
        reference = lane_output_bytes(traces(float(lane)), None)
        output = traces(float(lane))
        if lane == 1:  # one element one ulp off
            output[0].ee_path[1, 2] = np.nextafter(output[0].ee_path[1, 2], 2.0)
        checks.compare(f"lane {lane}", lane_output_bytes(output, None), reference)
    assert checks.fraction < 1.0 and checks.mismatches == ["lane 1"], checks.mismatches


def test_ladder_brackets_and_interpolates() -> None:
    def summary(p95: float) -> dict:
        return {"p95_ms": p95, "failed": 0, "growing": False}

    ladder = serve_open.Ladder()
    start, step = serve_open.LADDER_START_RPS, serve_open.LADDER_STEP
    p95_at = {round(start, 6): 800.0, round(start * step, 6): 1200.0}
    rates = []
    while (rate := ladder.next_rate()) is not None:
        rates.append(round(rate, 6))
        ladder.record(rate, summary(p95_at[round(rate, 6)]))
    assert rates == list(p95_at), rates
    assert abs(ladder.max_rps() - (start + 0.5 * (start * step - start))) < 1e-9, ladder.max_rps()
    descending = serve_open.Ladder()
    p95s = iter([1500.0, 900.0])
    while (rate := descending.next_rate()) is not None:
        descending.record(rate, summary(next(p95s)))
    low, high = descending.bracket()
    assert abs(low - start / step) < 1e-9 and high == start, (low, high)


def test_self_times_beyond_the_wall_time_invalidate_a_trace() -> None:
    import traced
    from common import SetupError
    from tracer import Tracer

    tracer = Tracer()
    # A request parsed at 0-1 ms and serialized at 9-10 ms is in hand for
    # 10 ms; the queue wait between is unattributed.
    tracer.spans += [["jsonl.parse", 0.000, 0.001, None, "r1"], ["jsonl.serialize", 0.009, 0.010, None, "r1"]]
    assert abs(tracer.covered_seconds() - 0.010) < 1e-12, tracer.covered_seconds()
    metrics = traced._whole(traced._layer_metrics(**tracer.summary()), tracer.covered_seconds(), 0.0)
    assert abs(metrics["trace.unattributed.s"] - 0.008) < 1e-12, metrics["trace.unattributed.s"]
    # Two threads busy over the same 10 ms: 20 ms of self time in 10 ms.
    tracer.spans.append(["service.serve", 0.000, 0.010, None, None])
    try:
        traced._whole(traced._layer_metrics(**tracer.summary()), tracer.covered_seconds(), 0.0)
    except SetupError:
        return
    raise AssertionError("a negative trace.unattributed.s was accepted")


def test_benchmark_json_names_the_reported_metrics() -> None:
    from run import END_TO_END_UNITS, WORKLOADS
    from tracer import LAYER_METRICS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


TESTS = [
    test_schedule_is_a_pure_function_of_the_seed,
    test_latency_is_timed_from_the_due_time,
    test_backlog_growth_is_detected,
    test_overload_throughput_reads_the_capacity,
    test_a_corrupted_output_lowers_correct_frac,
    test_ladder_brackets_and_interpolates,
    test_self_times_beyond_the_wall_time_invalidate_a_trace,
    test_benchmark_json_names_the_reported_metrics,
]


def main() -> int:
    failures = 0
    for test in TESTS:
        started = time.perf_counter()
        try:
            test()
        except Exception:
            failures += 1
            print(f"FAIL {test.__name__}\n{traceback.format_exc()}", flush=True)
        else:
            print(f"ok   {test.__name__} ({time.perf_counter() - started:.2f} s)", flush=True)
    print(f"{len(TESTS) - failures}/{len(TESTS)} self-tests passed", flush=True)
    return 1 if failures else 0

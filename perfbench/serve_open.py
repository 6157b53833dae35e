"""serve-open: an open-loop request generator against ``repro.serving --tcp``.

Requests arrive on a Poisson schedule drawn from the workload seed and are
sent at their due times whether or not earlier ones were answered, so a
slow server sees its queue grow instead of its load shrink.  Each request
is one JSONL frame followed by a blank line (its own flush), sent over one
of at most two connections, and its latency is timed from when it was due
-- not from when the generator got round to sending it -- so a stall in
the generator or the server is charged to every request it delays.  How
late the generator sent each request is recorded; a phase whose lateness
p99 exceeds :data:`LATE_LIMIT_MS` is invalid.

The request mix: half roboflamingo and half corki-5 single-episode
requests, instructions uniform over the task registry (balanced in blocks
of every task x both systems), ``max_frames`` 150, and every fourth request
repeating the identity of an earlier one in the same phase (a cache read
beside the cache writes).
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import subprocess
import threading
import time
from dataclasses import dataclass, field

from common import (
    ROOT,
    Checks,
    SetupError,
    beyond,
    percentile,
    process_peak_rss_mb,
    python_command,
    say,
    stop_process,
)

LATE_LIMIT_MS = 50.0
"""A phase whose generator lateness p99 exceeds this is invalid."""

LATENCY_LIMIT_MS = 1000.0
"""The p95 limit ``max_rps`` must meet: a 150-frame episode is 5 s of robot
time, so answering within 1 s keeps evaluation 5x faster than real time."""

MAX_FRAMES = 150
REPEAT_EVERY = 4
SYSTEMS = ("roboflamingo", "corki-5")
CHECK_SAMPLE = 8
"""Answered requests per run compared with the in-process service."""
DRAIN_TIMEOUT_S = 30.0
"""How long after its last send a phase waits for answers before counting
the unanswered requests as missing."""

# Keyed RNG domain of the generator's schedule streams: [seed, 77, phase].
_SCHEDULE_DOMAIN = 77


@dataclass(frozen=True)
class Request:
    """One scheduled request: due offset (s), connection and wire payload."""

    index: int
    due: float
    connection: int
    payload: dict

    @property
    def id(self) -> str:
        return self.payload["id"]

    @property
    def identity(self) -> tuple:
        payload = self.payload
        return (payload["system"], payload["instruction"], payload["seed"], payload["lane"])


def build_schedule(seed: int, phase: int, rate: float, count: int, instructions: list[str]) -> list[Request]:
    """The requests of one phase: a pure function of its arguments.

    ``phase`` keys the phase's random stream and its lanes, so no two
    phases share a request identity; the same phase at another rate is the
    same requests on a time-scaled schedule.
    """
    import numpy as np

    if rate <= 0 or count < 1:
        raise ValueError("a phase needs a positive rate and at least one request")
    rng = np.random.default_rng([seed, _SCHEDULE_DOMAIN, phase])
    # Unit-rate gaps scaled by 1/rate: one phase's schedules at different
    # rates carry the same requests, only time-scaled.
    gaps = rng.exponential(1.0, size=count) / rate
    due = np.concatenate([[0.0], np.cumsum(gaps[1:])])
    block = [(system, text) for text in instructions for system in SYSTEMS]
    fresh: list[dict] = []
    pool: list[tuple[str, str]] = []
    requests = []
    for index in range(count):
        if index % REPEAT_EVERY == REPEAT_EVERY - 1 and fresh:
            identity = dict(fresh[int(rng.integers(len(fresh)))])
        else:
            if not pool:
                pool = [block[k] for k in rng.permutation(len(block))]
            system, text = pool.pop()
            identity = {
                "system": system,
                "instruction": text,
                "seed": seed,
                "lane": phase * 100_000 + len(fresh),
                "max_frames": MAX_FRAMES,
            }
            fresh.append(identity)
        payload = {"id": f"p{phase}-{index}", **identity}
        requests.append(Request(index, float(due[index]), index % 2, payload))
    return requests


@dataclass
class PhaseResult:
    """What the generator observed during one phase."""

    rate: float
    sent: int = 0
    latency_ms: dict[str, float] = field(default_factory=dict)
    late_ms: list[float] = field(default_factory=list)
    responses: dict[str, dict] = field(default_factory=dict)
    backlog: list[tuple[float, int]] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def latencies(self, requests: list[Request]) -> list[float]:
        """Per-request latency; failed, refused or missing requests are inf."""
        values = []
        for request in requests:
            response = self.responses.get(request.id)
            ok = response is not None and response.get("status") == "ok"
            values.append(self.latency_ms[request.id] if ok else math.inf)
        return values

    def failures(self, requests: list[Request]) -> int:
        return sum(
            self.responses.get(request.id, {}).get("status") != "ok" for request in requests
        )

    def late_p99(self) -> float:
        return percentile(self.late_ms, 99) if self.late_ms else 0.0

    def valid(self) -> bool:
        return self.late_p99() <= LATE_LIMIT_MS


def backlog_growing(samples: list[tuple[float, int]]) -> bool:
    """Whether requests sent minus answered kept rising through a phase.

    The send window is cut into four quarters; the backlog grows when its
    mean rises from each quarter to the next after the first and the last
    quarter's mean is at least twice the second's plus five requests.  A
    stable queue fluctuates around its Little's-law depth -- by up to half
    again within a few seconds, when batches drain unevenly -- and fails the
    test; an overloaded one keeps rising and passes it.  The p95 limit is
    the primary test; this one catches a queue that grows while p95 still
    looks acceptable.
    """
    if len(samples) < 8:
        return False
    quarter = len(samples) // 4
    means = [
        sum(depth for _, depth in samples[k * quarter:(k + 1) * quarter]) / quarter
        for k in range(4)
    ]
    rising = means[1] < means[2] < means[3]
    return rising and means[3] >= 2 * means[1] + 5


async def _run_phase(host: str, port: int, requests: list[Request], rate: float, lead_s: float = 0.05) -> PhaseResult:
    loop = asyncio.get_running_loop()
    result = PhaseResult(rate=rate)
    connections = [await asyncio.open_connection(host, port, limit=1 << 22) for _ in range(2)]
    by_id = {request.id: request for request in requests}
    per_connection = [sum(r.connection == c for r in requests) for c in range(2)]
    answered = 0
    start = loop.time() + lead_s

    async def read(index: int) -> None:
        nonlocal answered
        reader = connections[index][0]
        for _ in range(per_connection[index]):
            line = await reader.readline()
            arrived = loop.time()
            if not line:
                return
            response = json.loads(line)
            request = by_id.get(response.get("id"))
            if request is None:
                continue
            result.responses[request.id] = response
            result.latency_ms[request.id] = (arrived - (start + request.due)) * 1000.0
            answered += 1

    readers = [asyncio.ensure_future(read(index)) for index in range(2)]
    try:
        for request in requests:
            due = start + request.due
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            writer = connections[request.connection][1]
            writer.write(json.dumps(request.payload).encode() + b"\n\n")
            sent_at = loop.time()
            result.late_ms.append(max(0.0, (sent_at - due) * 1000.0))
            result.sent += 1
            result.backlog.append((sent_at - start, result.sent - answered))
            await writer.drain()
        _, pending = await asyncio.wait(readers, timeout=DRAIN_TIMEOUT_S)
        for task in pending:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        reader, writer = connections[0]
        writer.write(b'{"op": "stats"}\n')
        await writer.drain()
        line = await asyncio.wait_for(reader.readline(), timeout=DRAIN_TIMEOUT_S)
        result.stats = json.loads(line).get("stats", {}) if line else {}
    finally:
        for task in readers:
            task.cancel()
        for _, writer in connections:
            writer.close()
        for _, writer in connections:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
    return result


def run_phase(host: str, port: int, requests: list[Request], rate: float) -> PhaseResult:
    """Send one phase's schedule and collect every answer (or time out)."""
    return asyncio.run(_run_phase(host, port, requests, rate))


def warm_server(host: str, port: int, instructions: list[str]) -> None:
    """One untimed request per system, outside every phase's identities."""
    requests = [
        Request(k, 0.0, k % 2, {
            "id": f"warm-{k}", "system": system, "instruction": instructions[k],
            "seed": 0, "lane": 10_000_000 + k, "max_frames": MAX_FRAMES,
        })
        for k, system in enumerate(SYSTEMS)
    ]
    result = run_phase(host, port, requests, rate=1.0)
    if result.failures(requests):
        raise SetupError(f"server warm-up failed: {result.responses}")


# -- server process --------------------------------------------------------------


@dataclass
class ServerProcess:
    """A running ``repro.serving --tcp`` process and its start-up time."""

    process: subprocess.Popen
    host: str
    port: int
    setup_s: float

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.process.pid)

    def stop(self) -> int:
        """SIGINT (the server's clean shutdown), then reap; returns the exit code."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        stop_process(self.process)
        return self.process.returncode


def start_server(argv: list[str]) -> ServerProcess:
    """Spawn a server and time it until it announces ``[serving on HOST:PORT]``."""
    started = time.perf_counter()
    process = subprocess.Popen(
        argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, cwd=ROOT,
    )
    try:
        for line in process.stderr:
            if line.startswith("[serving on "):
                setup_s = time.perf_counter() - started
                host, _, port = line.strip()[len("[serving on "):-1].rpartition(":")
                break
        else:
            raise SetupError("server exited before announcing its address")
    except BaseException:
        process.kill()
        stop_process(process)
        raise
    # Keep draining stderr so the server never blocks on a full pipe.
    threading.Thread(target=_discard_lines, args=(process.stderr,), daemon=True).start()
    return ServerProcess(process, host, int(port), setup_s)


def _discard_lines(pipe) -> None:
    try:
        for _ in pipe:
            pass
    except (OSError, ValueError):  # the pipe was closed under us
        pass


def summarize(requests: list[Request], result: PhaseResult) -> dict:
    """p50/p95 latency from due time, sample counts, failures and backlog."""
    latencies = result.latencies(requests)
    p95 = percentile(latencies, 95)
    return {
        "rate": result.rate,
        "count": len(requests),
        "p50_ms": percentile(latencies, 50),
        "p95_ms": p95,
        "beyond_p95": beyond(latencies, p95) if math.isfinite(p95) else 0,
        "failed": result.failures(requests),
        "late_p99_ms": result.late_p99(),
        "growing": backlog_growing(result.backlog),
        "valid": result.valid(),
    }


def meets_limit(summary: dict) -> bool:
    """A rate point passes when p95 <= the limit, nothing failed and the
    backlog did not keep growing."""
    return (
        summary["p95_ms"] <= LATENCY_LIMIT_MS
        and summary["failed"] == 0
        and not summary["growing"]
    )


# -- max_rps ladder ----------------------------------------------------------------

RATE_POINT_REQUESTS = 220
"""Requests per rate point: p95 of 220 samples has at least ten beyond it."""

LADDER_START_RPS = 40.0
LADDER_STEP = 1.1
MAX_RUNGS = 6


def rate_point_requests(rate: float, seconds: float) -> int:
    """A rate point lasts about a third of ``--seconds``, never under
    :data:`RATE_POINT_REQUESTS` requests."""
    return max(RATE_POINT_REQUESTS, round(rate * seconds / 3.0))


class Ladder:
    """Rate points for ``max_rps``, rungs ``LADDER_START_RPS * LADDER_STEP**k``
    (at most :data:`MAX_RUNGS` of them).

    The ladder starts at rung 0, climbs while a rung meets the limit and
    descends while it does not, and stops once a passing rung sits directly
    below a failing one.  Every rung replays the same requests on a fresh
    server, time-scaled to its rate, so rungs differ only in load.  ``max_rps`` is the highest passing rate, refined
    by interpolating p95 linearly to the limit between that rung and the
    failing one above it -- so the figure moves smoothly with the server's
    speed instead of jumping a whole rung.
    """

    def __init__(self):
        self.points: dict[int, tuple[float, dict, bool]] = {}
        self._current = 0

    def _rate(self, rung: int) -> float:
        return LADDER_START_RPS * LADDER_STEP ** rung

    def next_rate(self) -> float | None:
        if not self.points:
            return self._rate(0)
        low, high = self.bracket_rungs()
        if (low is not None and high is not None and high == low + 1) or len(self.points) >= MAX_RUNGS:
            return None
        passed = self.points[self._current][2]
        self._current += 1 if passed else -1
        return self._rate(self._current)

    def record(self, rate: float, summary: dict) -> None:
        self.points[self._current] = (rate, summary, meets_limit(summary))

    def bracket_rungs(self) -> tuple[int | None, int | None]:
        passed = [rung for rung, (_, _, ok) in self.points.items() if ok]
        low = max(passed) if passed else None
        failed = [rung for rung, (_, _, ok) in self.points.items() if not ok and (low is None or rung > low)]
        return low, (min(failed) if failed else None)

    def bracket(self) -> tuple[float | None, float | None]:
        low, high = self.bracket_rungs()
        return (
            None if low is None else self.points[low][0],
            None if high is None else self.points[high][0],
        )

    def max_rps(self) -> float:
        low, high = self.bracket_rungs()
        if low is None:
            # Nothing passed: scale the slowest rung down to the limit.
            rate, summary, _ = self.points[min(self.points)]
            p95 = summary["p95_ms"]
            return rate * LATENCY_LIMIT_MS / p95 if math.isfinite(p95) and p95 > 0 else rate / LADDER_STEP
        rate, summary, _ = self.points[low]
        if high is None:
            return rate
        high_rate, high_summary, _ = self.points[high]
        p95_low, p95_high = summary["p95_ms"], high_summary["p95_ms"]
        if not (math.isfinite(p95_high) and p95_high > LATENCY_LIMIT_MS >= p95_low):
            return rate
        share = (LATENCY_LIMIT_MS - p95_low) / (p95_high - p95_low)
        return rate + share * (high_rate - rate)


LADDER_PHASE = 10
"""The schedule phase every ladder rung replays (time-scaled to its rate)."""


def climb_ladder(seed: int, seconds: float, instructions: list[str]) -> tuple[Ladder, list]:
    """The ``max_rps`` ladder, a fresh server per rung; returns the ladder
    and each rung's ``(requests, result)``."""
    rungs = Ladder()
    count = rate_point_requests(LADDER_START_RPS, seconds)
    phases = []
    while (rate := rungs.next_rate()) is not None:
        requests = build_schedule(seed, LADDER_PHASE, rate, count, instructions)
        result, _, _ = serve_phase(server_argv(), requests, rate, instructions)
        summary = require_valid(f"ladder {rate:.1f}/s", requests, result)
        rungs.record(rate, summary)
        phases.append((requests, result))
    say(f"  max_rps: {rungs.max_rps():.2f} (bracket {rungs.bracket()})")
    return rungs, phases


# -- throughput: capacity under sustained overload -----------------------------------

SATURATE_RPS = 120.0
"""The throughput phase's arrival rate, above the capacity of every host
state this benchmark was calibrated on (35-80 requests/s answered), so the
server has requests queued from the first one until the last answer."""

SATURATE_REQUESTS = 400
"""Requests per throughput phase: about 8 s of work at 50 requests/s."""

SATURATE_PHASE = 20
"""Schedule phase of a run's first throughput phase; later ones count up."""


def busy_span(requests: list[Request], result: PhaseResult) -> tuple[int, float]:
    """Answered requests and the seconds from the first due time to the last
    answer: while the server is overloaded it is busy all of that time."""
    answers = [
        request.due + result.latency_ms[request.id] / 1000.0
        for request in requests
        if result.responses.get(request.id, {}).get("status") == "ok"
    ]
    return len(answers), max(answers, default=0.0)


# -- running a rate point ------------------------------------------------------------


def server_argv(trace_path=None) -> list[str]:
    trace = [] if trace_path is None else ["--trace", str(trace_path)]
    return python_command("serve_launcher.py", *trace, "--", "--tcp", "127.0.0.1:0")


def serve_phase(argv, requests, rate, instructions):
    """Fresh server (empty cache), one warm-up request per system, one phase."""
    server = start_server(argv)
    try:
        warm_server(server.host, server.port, instructions)
        result = run_phase(server.host, server.port, requests, rate)
        peak = server.peak_rss_mb()
    finally:
        code = server.stop()
    if code != 0:
        raise SetupError(f"server exited with {code}")
    return result, server.setup_s, peak


def say_phase(label: str, summary: dict) -> None:
    say(f"  {label}: n={summary['count']} p50 {summary['p50_ms']:.1f} ms "
        f"p95 {summary['p95_ms']:.1f} ms ({summary['beyond_p95']} beyond) "
        f"failed {summary['failed']} late p99 {summary['late_p99_ms']:.1f} ms "
        f"growing={summary['growing']}")


def require_valid(label: str, requests: list[Request], result: PhaseResult) -> dict:
    """Print a phase's summary and server stats; an invalid phase (generator
    lateness p99 over :data:`LATE_LIMIT_MS`) ends the run."""
    summary = summarize(requests, result)
    say_phase(label, summary)
    say("    server stats: " + ", ".join(
        f"{key} {result.stats.get(key)}" for key in ("batches", "shed", "hits", "misses")
    ))
    if not summary["valid"]:
        raise SetupError(f"invalid run: generator lateness p99 {summary['late_p99_ms']:.1f} ms "
                         f"exceeds {LATE_LIMIT_MS} ms")
    return summary


def check_served(policies, phases, seed: int, checks: Checks) -> None:
    """:data:`CHECK_SAMPLE` seeded answered requests versus the same
    requests served in-process (compared without ``id`` and ``cached``)."""
    import numpy as np

    from repro.serving.jsonl import request_from_json, response_to_json
    from repro.serving.service import EvaluationService

    answered = [
        (request, result.responses[request.id])
        for requests, result in phases
        for request in requests
        if result.responses.get(request.id, {}).get("status") == "ok"
    ]
    if not answered:
        checks.check("no answered request to compare", False)
        return
    rng = np.random.default_rng([seed, 78])
    picks = rng.choice(len(answered), size=min(CHECK_SAMPLE, len(answered)), replace=False)
    chosen = [answered[int(k)] for k in picks]
    with EvaluationService(policies, workers=1, use_cache=False) as service:
        results = service.serve([
            request_from_json({k: v for k, v in request.payload.items() if k != "id"})
            for request, _ in chosen
        ])

    def canonical(payload: dict) -> bytes:
        return json.dumps({k: v for k, v in payload.items() if k not in ("id", "cached")}).encode()

    for (request, response), result in zip(chosen, results):
        checks.compare(request.id, canonical(response), canonical(response_to_json(result)))

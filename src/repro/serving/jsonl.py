"""The JSONL request/response schema of the evaluation service.

One request per line, over stdin/stdout or a TCP connection (both served by
:class:`~repro.serving.server.EvaluationServer`)::

    {"id": "r1", "system": "corki-5", "instructions": ["lift the red block"], "seed": 3}
    {"id": "r2", "system": "roboflamingo", "instruction": "move the blue block to the left zone", "seed": 3, "lane": 1}

A **blank line** (or end of input) hands the buffered lines to the pending
batch, so clients that stream several lines before a blank line get full
continuous-batching throughput.  Each request yields one response line::

    {"id": "r1", "status": "ok", "cached": false, "successes": [true], "frames": [41],
     "executed_steps": [[5, 5, ...]],
     "estimate": {"system": "corki-5", "frames": 41, "mean_latency_ms": ..., "mean_energy_j": ...}}

The ``estimate`` block prices the episode's measured frame structure through
the lane-batched pipeline latency/energy model; it is a pure function of the
request identity and the traces, so cached and fresh responses carry
identical estimates.

``seed``, ``lane``, ``max_frames`` and ``priority`` must be JSON integers
(``max_frames`` at most :data:`~repro.serving.service.MAX_REQUEST_FRAMES`)
and ``deadline_ms`` a finite number >= 0; a bad value, a malformed line or
an unknown instruction answers ``{"status": "error", "error": ...}`` (with
the request's ``id`` when one parsed) without disturbing the rest of the
batch.  A request the service could not serve in time, or that admission
control shed, answers with its ``status`` and an ``error`` instead of
traces::

    {"id": "r9", "status": "timeout", "error": "deadline of 5 ms exceeded"}
"""

from __future__ import annotations

import math

from repro.serving.service import EpisodeRequest

__all__ = ["request_from_json", "response_to_json"]


def request_from_json(obj: dict) -> EpisodeRequest:
    """Build a validated :class:`EpisodeRequest` from one decoded line.

    Instructions are resolved against the task registry *here*, and numeric
    fields are type-checked here, so a typo'd instruction or a ``3.7`` seed
    yields a per-request error response naming the problem instead of
    surfacing as an exception mid-drain (possibly from a worker process) or
    being silently truncated.
    """
    from repro.sim.tasks import task_by_instruction

    if "instructions" in obj:
        instructions = tuple(obj["instructions"])
    elif "instruction" in obj:
        instructions = (obj["instruction"],)
    else:
        raise ValueError("a request needs 'instructions' (list) or 'instruction'")
    for text in instructions:
        task_by_instruction(text)  # raises KeyError naming the instruction
    kwargs = {key: obj[key] for key in ("lane", "layout", "max_frames", "priority") if key in obj}
    kwargs["seed"] = obj["seed"]
    for key in ("seed", "lane", "max_frames", "priority"):
        value = kwargs.get(key, 0)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{key!r} must be an integer, got {value!r}")
    deadline = obj.get("deadline_ms")
    if deadline is not None:
        if (
            not isinstance(deadline, (int, float))
            or isinstance(deadline, bool)
            or not _finite(deadline)
            or deadline < 0
        ):
            raise ValueError(f"'deadline_ms' must be a finite number >= 0, got {deadline!r}")
        kwargs["deadline_ms"] = float(deadline)
    return EpisodeRequest(system=obj["system"], instructions=instructions, **kwargs)


def _finite(number: int | float) -> bool:
    """``math.isfinite``, false for an integer too large for a float (JSON
    integers are unbounded; ``math.isfinite(10**400)`` raises)."""
    try:
        return math.isfinite(number)
    except OverflowError:
        return False


def response_to_json(result, request_id=None) -> dict:
    """One response object for one :class:`ServedResult`.

    A non-``ok`` result (a timeout) answers with its status and error only
    -- there are no traces to report, and emitting empty success lists
    would read as "ran and failed" rather than "never ran".
    """
    if not result.ok:
        response = {"status": result.status, "error": result.error}
        if request_id is not None:
            response = {"id": request_id, **response}
        return response
    response = {
        "status": "ok",
        "cached": result.cached,
        "successes": result.successes,
        "frames": [trace.frames for trace in result.traces],
        "executed_steps": [list(trace.executed_steps) for trace in result.traces],
    }
    if result.estimate is not None:
        response["estimate"] = result.estimate.to_json()
    if request_id is not None:
        response = {"id": request_id, **response}
    return response

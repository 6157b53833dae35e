"""Evaluation-as-a-service: the programmatic client for `repro.serving`.

Walks the serving API end to end:

1. train small policies (the service serves whatever weights you hand it);
2. stand up an :class:`EvaluationService` with a content-addressed result
   cache and submit a burst of episode requests -- cold, so every request
   rolls through the continuously-batched fleet;
3. repeat the identical burst -- warm, so every request is a cache hit and
   nothing rolls;
4. verify the serving determinism contract: cold traces, warm traces and a
   plain ``evaluate_system`` batch run are byte-identical, lane for lane;
5. show the JSONL line a network front-end would send for the same request
   (``repro-experiments serve`` / ``python -m repro.serving``).

Run:  PYTHONPATH=src python examples/serving_client.py

``REPRO_EXAMPLE_SCALE=smoke`` shrinks training and the request burst for
the examples smoke test.  Pass ``workers=2`` to ``EvaluationService`` to
fan requests across the warm multi-process pool instead (wrap the call in
``if __name__ == "__main__":`` -- pool workers re-import this module).

``REPRO_SERVING_TCP=HOST:PORT`` switches the script into a *network*
walkthrough: instead of standing up an in-process service it drives a
running TCP server (``python -m repro.serving --tcp HOST:PORT``) over a
socket -- a cold request burst, a cached rerun checked byte-identical
modulo the ``cached`` flag, one injected garbage frame (the connection
survives, the bad frame gets its own error envelope), and the server's
merged stats.  The CI ``serving`` job runs exactly this mode.
"""

import json
import os
import time

import numpy as np

from repro.analysis.evaluation import JOB_LENGTH, TrainedPolicies, evaluate_system
from repro.core import (
    BaselinePolicy,
    CorkiPolicy,
    TrainingConfig,
    train_baseline,
    train_corki,
)
from repro.serving import EpisodeRequest, EvaluationService, ResultCache
from repro.serving.client import ServingClient
from repro.sim import OBSERVATION_DIM, SEEN_LAYOUT, TASKS, collect_demonstrations
from repro.sim.tasks import sample_job

SMOKE = os.environ.get("REPRO_EXAMPLE_SCALE") == "smoke"
SEED = 11
REQUESTS = 4 if SMOKE else 8


def train_small_policies() -> TrainedPolicies:
    rng = np.random.default_rng(0)
    demos = collect_demonstrations(SEEN_LAYOUT, rng, per_task=1 if SMOKE else 3)
    baseline = BaselinePolicy(OBSERVATION_DIM, len(TASKS), rng, token_dim=16, hidden_dim=32)
    corki = CorkiPolicy(OBSERVATION_DIM, len(TASKS), rng, token_dim=16, hidden_dim=32)
    config = TrainingConfig(epochs=1, batch_size=64)
    train_baseline(baseline, demos, config)
    train_corki(corki, demos, config)
    return TrainedPolicies(baseline, corki, demos_per_task=1, epochs=1)


def job_frames(count: int) -> list[dict]:
    """JSONL request frames mirroring lanes 0..count-1 of a batch run."""
    job_rng = np.random.default_rng(SEED)
    jobs = [sample_job(job_rng, JOB_LENGTH) for _ in range(count)]
    return [
        {
            "id": f"job-{lane}",
            "system": "corki-5",
            "instructions": [task.instruction for task in job],
            "seed": SEED,
            "lane": lane,
        }
        for lane, job in enumerate(jobs)
    ]


def run_tcp_walkthrough(address: str) -> None:
    """Drive a running ``python -m repro.serving --tcp`` server over a socket."""
    host, _, port_text = address.rpartition(":")
    frames = job_frames(REQUESTS)
    with ServingClient(host, int(port_text), attempts=40, retry_wait=0.25) as client:
        print(f"cold burst: {REQUESTS} five-task job requests over {address} ...")
        started = time.perf_counter()
        for frame in frames:
            client.send(frame)
        client.flush()
        cold: dict[str, bytes] = {}
        for _ in frames:
            line = client.recv_raw()
            cold[json.loads(line)["id"]] = line
        cold_s = time.perf_counter() - started
        statuses = [json.loads(cold[frame["id"]])["status"] for frame in frames]
        assert statuses == ["ok"] * REQUESTS, statuses
        print(f"  {cold_s:.2f}s, cached: "
              f"{[json.loads(cold[frame['id']])['cached'] for frame in frames]}")

        print("re-sending the identical burst (warm cache) ...")
        started = time.perf_counter()
        for frame in frames:
            client.send(frame)
        client.flush()
        warm: dict[str, bytes] = {}
        for _ in frames:
            line = client.recv_raw()
            warm[json.loads(line)["id"]] = line
        warm_s = time.perf_counter() - started
        for frame in frames:
            fresh = json.loads(cold[frame["id"]])
            rerun = json.loads(warm[frame["id"]])
            assert rerun.pop("cached") is True
            fresh.pop("cached")
            assert json.dumps(fresh) == json.dumps(rerun), frame["id"]
        print(f"  {warm_s:.3f}s ({cold_s / max(warm_s, 1e-9):.0f}x faster), "
              "byte-identical modulo the `cached` flag")

        print("injecting one garbage frame next to a valid request ...")
        client.send_raw(b"this is not json")
        client.send({
            "id": "after-garbage",
            "system": "roboflamingo",
            "instruction": TASKS[0].instruction,
            "seed": SEED,
            "lane": 0,
            "max_frames": 40,
        })
        client.flush()
        by_id = {response.get("id"): response for response in
                 (client.recv() for _ in range(2))}
        assert by_id[None]["status"] == "error", by_id
        assert by_id["after-garbage"]["status"] == "ok", by_id
        print(f"  error envelope: {json.dumps(by_id[None])}")
        print("  the valid frame on the same connection still served")

        print("\nserver stats:", json.dumps(client.stats()))


def main() -> None:
    tcp_address = os.environ.get("REPRO_SERVING_TCP")
    if tcp_address:
        run_tcp_walkthrough(tcp_address)
        return

    print("training small policies ...")
    policies = train_small_policies()

    # Requests address episodes exactly like batch-evaluation lanes do:
    # (seed, lane) fixes the random streams, the instructions fix the job.
    # These mirror lanes 0..N-1 of `evaluate_system(..., seed=SEED)`.
    job_rng = np.random.default_rng(SEED)
    jobs = [sample_job(job_rng, JOB_LENGTH) for _ in range(REQUESTS)]
    requests = [
        EpisodeRequest(
            system="corki-5",
            instructions=tuple(task.instruction for task in job),
            seed=SEED,
            lane=lane,
        )
        for lane, job in enumerate(jobs)
    ]

    service = EvaluationService(policies, workers=1, slots=4, cache=ResultCache())
    print(f"\nserving {REQUESTS} five-task job requests (cold cache) ...")
    started = time.perf_counter()
    cold = service.serve(requests)
    cold_s = time.perf_counter() - started
    completed = sum(sum(result.successes) for result in cold)
    print(f"  {cold_s:.2f}s, {completed} tasks completed, "
          f"cached: {[result.cached for result in cold]}")

    print("re-serving the identical requests (warm cache) ...")
    started = time.perf_counter()
    warm = service.serve(requests)
    warm_s = time.perf_counter() - started
    print(f"  {warm_s:.3f}s ({cold_s / max(warm_s, 1e-9):.0f}x faster), "
          f"cached: {[result.cached for result in warm]}")

    print("\nchecking the determinism contract against a batch run ...")
    batch = evaluate_system(policies, "corki-5", SEEN_LAYOUT, jobs=REQUESTS, seed=SEED)
    batch_traces = batch.traces
    served_traces = [trace for result in warm for trace in result.traces]
    assert len(batch_traces) == len(served_traces)
    for fresh, served in zip(batch_traces, served_traces):
        assert fresh.success == served.success
        assert fresh.frames == served.frames
        assert fresh.executed_steps == served.executed_steps
        assert np.array_equal(fresh.ee_path, served.ee_path)
        assert np.array_equal(fresh.gripper_path, served.gripper_path)
    print("  cached == fresh == batch, byte for byte")

    print("\nservice stats:", service.stats())
    print("\nthe same request as one repro-serve JSONL line:")
    print(" ", json.dumps({
        "id": "job-0",
        "system": requests[0].system,
        "instructions": list(requests[0].instructions),
        "seed": requests[0].seed,
        "lane": requests[0].lane,
    }))


if __name__ == "__main__":
    main()

"""``repro-serve``: the JSONL evaluation service on stdin/stdout or TCP.

Usage::

    PYTHONPATH=src python -m repro.serving [--workers N] [--slots N]
        [--tcp HOST:PORT] [--max-pending N] [--max-inflight N]
        [--cache-dir PATH] [--no-cache] [--max-entries N]
        [--demos N] [--epochs N] [--chunk-timeout S] [--retry-attempts N]
        [--fault-seed N] [--fault-crash-rate P] [--fault-hard-crash]
        [--fault-hang-rate P] [--fault-cache-rate P]
        [--fault-conn-rate P] [--fault-frame-rate P]

One :class:`~repro.serving.server.EvaluationServer` serves either
transport.  By default stdin/stdout is its only connection and the process
exits once stdin ends and every request is answered.  ``--tcp HOST:PORT``
listens instead; the bound address is announced on stderr
(``[serving on HOST:PORT]``) so a supervisor -- or the CI smoke job --
knows when to connect, and port ``0`` binds an ephemeral port.  On either
transport SIGINT or SIGTERM shuts down cleanly: pending requests are
answered, the worker pool is closed and ``[served N requests]`` goes to
stderr.  Admission control (``--max-pending``), flow control
(``--max-inflight``), priorities, deadlines and the ``reload`` op work the
same on both (see :mod:`repro.serving.server` and ``docs/serving.md``).

The ``--fault-*`` flags arm a deterministic :class:`repro.reliability.
FaultPlan` (requires ``--fault-seed``): injected worker crashes, hangs,
truncated cache reads, dropped connections and mangled request frames, all
keyed on the plan's seed so a chaos run reproduces exactly.  The service
must survive all of them -- they exist so CI can prove it does.

``repro-experiments serve ARGS`` passes ``ARGS`` here verbatim, so both
spellings serve identically.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
import threading

from repro.core.fleet import DEFAULT_FLEET_SIZE

__all__ = ["main"]


def main(argv: list[str] | None = None, policies=None, stdin=None, stdout=None) -> int:
    """Entry point; ``policies``/``stdin``/``stdout`` are injectable for tests."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve episode-evaluation requests as JSONL over "
                    "stdin/stdout or a TCP socket.",
    )
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="shard cache-miss requests across N warm worker processes "
             "(1 = in-process continuous batching)",
    )
    parser.add_argument(
        "--slots", type=int, default=DEFAULT_FLEET_SIZE, metavar="N",
        help="in-flight lanes for the in-process continuous-batching path "
             f"(default {DEFAULT_FLEET_SIZE})",
    )
    parser.add_argument(
        "--tcp", default=None, metavar="HOST:PORT",
        help="listen on a TCP socket instead of serving stdin/stdout "
             "(port 0 binds an ephemeral port, announced on stderr)",
    )
    parser.add_argument(
        "--max-pending", type=int, default=None, metavar="N",
        help="bound the server's pending batch; overflow frames answer "
             "{'status': 'rejected'} immediately",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=None, metavar="N",
        help="per-connection flow control: stop reading a connection with "
             "N unanswered admissions",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="persist the result cache on disk (default: in-memory only)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the result cache entirely"
    )
    parser.add_argument(
        "--max-entries", type=int, default=None, metavar="N",
        help="LRU-bound the result cache to N entries",
    )
    parser.add_argument(
        "--demos", type=int, default=24, metavar="N",
        help="demonstrations per task when training/loading the policies",
    )
    parser.add_argument(
        "--epochs", type=int, default=12, metavar="N",
        help="training epochs when training/loading the policies",
    )
    parser.add_argument(
        "--chunk-timeout", type=float, default=None, metavar="S",
        help="seconds before a dispatched worker chunk is declared lost "
             "(enables recovery from hard worker deaths)",
    )
    parser.add_argument(
        "--retry-attempts", type=int, default=None, metavar="N",
        help="total attempts per worker chunk before the pool is declared "
             "unhealthy and the drain degrades to in-process batching",
    )
    fault = parser.add_argument_group(
        "fault injection", "arm a deterministic FaultPlan (requires --fault-seed)"
    )
    fault.add_argument(
        "--fault-seed", type=int, default=None, metavar="N",
        help="seed the FaultPlan's keyed decision streams",
    )
    fault.add_argument(
        "--fault-crash-rate", type=float, default=0.0, metavar="P",
        help="probability a worker chunk's first attempt crashes",
    )
    fault.add_argument(
        "--fault-hard-crash", action="store_true",
        help="injected crashes kill the worker process (os._exit) instead "
             "of raising; pair with --chunk-timeout",
    )
    fault.add_argument(
        "--fault-hang-rate", type=float, default=0.0, metavar="P",
        help="probability a worker chunk's first attempt hangs",
    )
    fault.add_argument(
        "--fault-cache-rate", type=float, default=0.0, metavar="P",
        help="probability a cache entry's first read arrives truncated",
    )
    fault.add_argument(
        "--fault-conn-rate", type=float, default=0.0, metavar="P",
        help="probability an accepted connection is dropped (stdin/stdout "
             "is connection 0)",
    )
    fault.add_argument(
        "--fault-frame-rate", type=float, default=0.0, metavar="P",
        help="probability a request frame arrives mangled",
    )
    args = parser.parse_args(argv)
    # Validate everything before loading policies: on a cache miss that
    # load trains for minutes and writes into artifacts/.
    for flag, value in (
        ("--workers", args.workers),
        ("--slots", args.slots),
        ("--max-pending", args.max_pending),
        ("--max-inflight", args.max_inflight),
    ):
        if value is not None and value < 1:
            print(f"{flag} must be >= 1, got {value}", file=sys.stderr)
            return 2
    host, port = "127.0.0.1", 0
    if args.tcp is not None:
        host_text, _, port_text = args.tcp.rpartition(":")
        if not port_text.isdecimal() or int(port_text) > 65535:
            print(f"--tcp expects HOST:PORT with a port in 0-65535, got {args.tcp!r}",
                  file=sys.stderr)
            return 2
        host, port = host_text or host, int(port_text)

    from repro.reliability import FaultPlan, RetryPolicy
    from repro.serving.cache import ResultCache
    from repro.serving.server import EvaluationServer

    fault_plan = None
    if args.fault_seed is not None:
        fault_plan = FaultPlan(
            seed=args.fault_seed,
            crash_rate=args.fault_crash_rate,
            hard_crash=args.fault_hard_crash,
            hang_rate=args.fault_hang_rate,
            cache_corrupt_rate=args.fault_cache_rate,
            connection_drop_rate=args.fault_conn_rate,
            frame_corrupt_rate=args.fault_frame_rate,
        )
    retry = None
    if args.retry_attempts is not None:
        retry = RetryPolicy(max_attempts=args.retry_attempts)

    if policies is None:
        from repro.analysis.evaluation import get_trained_policies

        policies = get_trained_policies(demos_per_task=args.demos, epochs=args.epochs)
    cache = None
    if not args.no_cache:
        cache = ResultCache(
            directory=args.cache_dir,
            max_entries=args.max_entries,
            fault_plan=fault_plan,
        )

    async def _run() -> None:
        if threading.current_thread() is threading.main_thread():
            # SIGINT and SIGTERM cancel this task at its next await, so the
            # finally below closes the server and its worker pool, also when
            # SIGINT was inherited ignored (a non-interactive shell's
            # background job).
            for signum in (signal.SIGINT, signal.SIGTERM):
                asyncio.get_running_loop().add_signal_handler(
                    signum, asyncio.current_task().cancel
                )
        server = EvaluationServer(
            policies,
            host,
            port,
            workers=args.workers,
            slots=args.slots,
            cache=cache,
            use_cache=not args.no_cache,
            max_pending=args.max_pending,
            max_inflight=args.max_inflight,
            retry=retry,
            chunk_timeout=args.chunk_timeout,
            fault_plan=fault_plan,
        )
        try:
            if args.tcp is None:
                # Raw stdin: unlike its buffered wrapper it has no lock for a
                # read still blocked at exit (after SIGINT) to hold.
                await server.serve_stdio(
                    stdin or sys.stdin.buffer.raw, stdout or sys.stdout.buffer
                )
            else:
                await server.start()
                print(f"[serving on {server.host}:{server.port}]", file=sys.stderr, flush=True)
                await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            served = server.stats()["requests_served"]
            await server.close()
            print(f"[served {served} requests]", file=sys.stderr)

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

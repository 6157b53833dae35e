"""One cold start of a workload's program, up to "ready for work".

Usage: ``python3 perfbench/coldstart.py {eval,sharded,train} SEED``

Prints ``READY`` once set-up is done, then tears down what it started,
waits for every process it started to end, and exits.  The parent times
the span from spawning this interpreter to the ``READY`` line, so
``setup_s`` covers interpreter start, imports and policy load -- plus,
for ``sharded``, the policy archive, pool spawn and warm-up, and for
``train`` the demonstration collection.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import prepare_environment  # noqa: E402

prepare_environment()

from common import READY, load_policies, reap_children, require_checkout  # noqa: E402


def main(kind: str, seed: int) -> int:
    if kind == "train":
        require_checkout()
        from train import collect_demos, fresh_policies

        fresh_policies(seed, 0)
        collect_demos(seed)
        print(READY, flush=True)
        return 0
    policies = load_policies()
    if kind == "eval":
        print(READY, flush=True)
        return 0
    if kind == "sharded":
        from evaluate import WORKERS

        from repro.analysis.parallel import lease_pool, release_pool

        lease_pool(policies, WORKERS).warm_up()
        print(READY, flush=True)
        release_pool(policies, WORKERS)
        return 0
    raise SystemExit(f"unknown cold-start kind {kind!r}")


if __name__ == "__main__":
    try:
        code = main(sys.argv[1], int(sys.argv[2]))
    finally:
        reap_children()
    raise SystemExit(code)

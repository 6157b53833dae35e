"""Start ``repro.serving``'s entry point, optionally with tracing installed.

Usage: ``python3 perfbench/serve_launcher.py [--trace PATH] -- ARGS...``

``ARGS`` go to ``repro.serving.__main__.main`` unchanged (``--tcp
127.0.0.1:0`` for serve-open); a miss in the policy cache makes the server
exit instead of training.  With ``--trace PATH`` the launcher wraps the
public functions of the per-layer table before the server starts, and when
the server exits (SIGINT is its clean shutdown) it writes the spans to
``PATH.spans.jsonl`` and to ``PATH`` their per-layer summary, the time they
cover (:meth:`tracer.Tracer.covered_seconds`) and the drained batches.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import prepare_environment  # noqa: E402

prepare_environment()

from common import policies_from_cache_only  # noqa: E402


def main(argv: list[str]) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    from repro.serving.__main__ import main as serve

    with policies_from_cache_only():
        if trace_path is None:
            return serve(argv)

        from pathlib import Path

        from tracer import Tracer, install_program_wrappers

        tracer = Tracer()
        install_program_wrappers(tracer)
        try:
            return serve(argv)
        finally:
            tracer.restore()
            path = Path(trace_path)
            tracer.dump(path.with_name(path.name + ".spans.jsonl"))
            path.write_text(json.dumps({
                "layers": tracer.summary(),
                "wall_s": tracer.covered_seconds(),
                "batches": tracer.batches,
            }))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""Request serving for evaluation episodes: continuous batching + caching.

The batch experiment drivers answer "roll N jobs"; this package answers
"keep answering episode requests, fast".  The pieces:

* :mod:`repro.serving.service` -- :class:`EvaluationService`, the
  programmatic API: queue :class:`EpisodeRequest` objects, drain them
  through a persistently warm fleet (continuous batching: finished lanes'
  slots refill at inference boundaries) or the warm multi-process pool.
* :mod:`repro.serving.cache` -- :class:`ResultCache`, content-addressed on
  policy-weight digest + environment schema + request identity; a hit is
  byte-identical to a fresh roll.
* :mod:`repro.serving.jsonl` -- the JSONL request/response schema.
* :mod:`repro.serving.server` -- :class:`EvaluationServer`, the asyncio
  front end behind ``repro-serve`` (``python -m repro.serving``, or
  ``repro-experiments serve``): one serving loop with admission control,
  per-connection flow control, request priorities/deadlines and hot
  policy-weight reload, over stdin/stdout or a TCP socket
  (``--tcp HOST:PORT``).  :mod:`repro.serving.client` is a TCP client.

See ``docs/serving.md`` for the request lifecycle, cache-key anatomy and
measured throughput, and ``examples/serving_client.py`` for a walkthrough.
"""

from repro.serving.cache import CACHE_SCHEMA, ResultCache, policy_digest, result_key
from repro.serving.client import ServingClient
from repro.serving.server import EvaluationServer, ServerHandle, start_server_thread
from repro.serving.service import (
    EpisodeRequest,
    EvaluationService,
    ServedResult,
    estimate_for_request,
)

__all__ = [
    "CACHE_SCHEMA",
    "EpisodeRequest",
    "EvaluationServer",
    "EvaluationService",
    "ResultCache",
    "ServedResult",
    "ServerHandle",
    "ServingClient",
    "estimate_for_request",
    "policy_digest",
    "result_key",
    "start_server_thread",
]

"""``repro.gateway`` — the asyncio HTTP serving front-end.

The "millions of users" layer: one :class:`Gateway` multiplexes any number
of concurrent HTTP clients onto a single
:class:`~repro.cluster.ShardedTracker` (or plain
:class:`~repro.api.Tracker`), serving batched ingest through a
deterministic single-writer queue and barrier-free typed queries rendered
as ``Answer.to_dict()`` documents — with bearer-token auth, per-request
deadlines, body limits, structured errors, and optional TLS.  Documents
travel as ``application/x-repro-wire`` frames of plain data when the
client negotiates them (``Content-Type`` / ``Accept``) and as JSON
otherwise, so curl keeps working unchanged.

* :mod:`repro.gateway.server` — the :class:`Gateway` itself (routes,
  concurrency model, auth).
* :mod:`repro.gateway.http` — the stdlib HTTP/1.1 framing it speaks and
  the one negotiation rule for both representations.
* :mod:`repro.gateway.client` — :class:`GatewayClient`, a keep-alive
  stdlib client that speaks wire on every request and whose
  ``typed_query`` re-hydrates real ``Answer`` objects via
  ``Answer.from_dict``.

Start one against a live tracker (CLI: ``repro-experiments serve``)::

    with Gateway(cluster, auth_token="s3cret") as gateway:
        client = GatewayClient(gateway.url, auth_token="s3cret")
        client.push(items=[("cat", 2.0), ("dog", 1.0)])
        answer = client.typed_query("heavy_hitters", {"phi": 0.1})
"""

from .client import GatewayClient, GatewayError
from .http import HttpError
from .server import Gateway, QUERY_KINDS

__all__ = [
    "Gateway",
    "GatewayClient",
    "GatewayError",
    "HttpError",
    "QUERY_KINDS",
]

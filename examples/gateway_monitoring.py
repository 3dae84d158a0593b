#!/usr/bin/env python
"""Live service monitoring through the HTTP/JSON serving gateway.

The serving story end to end: a :class:`repro.Gateway` fronts one sharded
``hh/P2`` tracking session, and everything else in the example talks to it
the way real dashboards and agents would — over plain HTTP with stdlib
``urllib``, no repro import on the client side required.

Three concurrent ingest "agents" (think per-datacenter log shippers) POST
batches of ``(endpoint, latency_ms)`` observations to ``/v1/push`` with
nothing but ``urllib``, then a dashboard loop polls
``GET /v1/query/heavy_hitters`` and ``/v1/stats`` through the ETag-aware
:class:`~repro.gateway.GatewayClient`: the first poll pays the full
fan-out, every repeat between pushes revalidates its ``ETag`` with
``If-None-Match`` and is answered ``304 Not Modified`` straight from the
client-side document cache (``client.not_modified`` counts them), and the
first push afterwards moves the item counts the validator names, so the
next poll gets a fresh answer.  One poll passes ``?partial=true`` — the degraded-mode flag
that lets a dashboard keep rendering from the reachable shards if part of
the cluster is down — and the example prints the ``partial`` /
``missing_shards`` fields that come back (partial answers are never
cached or tagged).  At the end the session is checkpointed through
``POST /v1/checkpoint`` and one typed query shows ``GatewayClient``
re-hydrating a real ``Answer`` object via ``Answer.from_dict``.

Run with:  python examples/gateway_monitoring.py
"""

from __future__ import annotations

import json
import tempfile
import threading
import urllib.request
from pathlib import Path

import numpy as np

import repro
from repro.gateway import GatewayClient

AUTH_TOKEN = "dashboard-secret"
NUM_AGENTS = 3
BATCHES_PER_AGENT = 8
OBSERVATIONS_PER_BATCH = 400
PHI = 0.05
DASHBOARD_POLLS = 6

# A handful of genuinely expensive endpoints among a long tail.
ENDPOINTS = [f"/api/v2/resource/{index}" for index in range(200)]
HOT_ENDPOINTS = ["/api/v2/search", "/api/v2/checkout", "/api/v2/export"]


def http_json(url: str, payload=None, method: str = "GET"):
    """One authenticated JSON round-trip with nothing but urllib.

    urllib sends no ``Accept`` header, so the gateway answers in JSON, its
    fallback representation; ``GatewayClient`` below negotiates the binary
    ``application/x-repro-wire`` frames instead.
    """
    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Authorization": f"Bearer {AUTH_TOKEN}",
                 "Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read().decode("utf-8"))


def ingest_agent(base_url: str, agent: int, rng: np.random.Generator) -> int:
    """POST latency observations to /v1/push; returns items accepted."""
    accepted = 0
    for _ in range(BATCHES_PER_AGENT):
        items = []
        for _ in range(OBSERVATIONS_PER_BATCH):
            if rng.uniform() < 0.5:
                endpoint = HOT_ENDPOINTS[rng.integers(len(HOT_ENDPOINTS))]
                latency = float(rng.gamma(8.0, 40.0))  # slow endpoints
            else:
                endpoint = ENDPOINTS[rng.integers(len(ENDPOINTS))]
                latency = float(rng.gamma(2.0, 10.0))
            items.append([endpoint, latency])
        reply = http_json(f"{base_url}/v1/push", {"items": items},
                          method="POST")
        accepted += reply["accepted"]
    return accepted


def main() -> None:
    cluster = repro.ShardedTracker.create("hh/P2", shards=2, backend="thread",
                                          num_sites=12, epsilon=0.02)
    with repro.Gateway(cluster, auth_token=AUTH_TOKEN) as gateway:
        base_url = gateway.url
        print(f"gateway serving hh/P2 at {base_url}")
        health = http_json(f"{base_url}/v1/healthz")
        print(f"healthz: status={health['status']} spec={health['spec']} "
              f"shards={health['shards']}\n")

        # Concurrent ingest: one thread per log-shipping agent, all POSTing
        # through the gateway's single-writer queue.
        totals = [0] * NUM_AGENTS
        threads = []
        for agent in range(NUM_AGENTS):
            rng = np.random.default_rng(2014 + agent)

            def run(agent=agent, rng=rng):
                totals[agent] = ingest_agent(base_url, agent, rng)

            thread = threading.Thread(target=run, name=f"agent-{agent}")
            thread.start()
            threads.append(thread)
        for thread in threads:
            thread.join()
        print(f"{NUM_AGENTS} agents pushed {sum(totals)} observations "
              f"({totals} per agent)")

        # The dashboard's view: which endpoints dominate total latency?
        # Polled through the ETag-aware client — the first poll pays the
        # full shard fan-out, every repeat between pushes revalidates with
        # If-None-Match and is answered 304 from the client's own cache.
        client = GatewayClient(base_url, auth_token=AUTH_TOKEN)
        for _ in range(DASHBOARD_POLLS):
            answer = client.query("heavy_hitters", {"phi": PHI})
        print(f"\n{DASHBOARD_POLLS} dashboard polls: "
              f"{client.not_modified} answered 304 Not Modified "
              "(ETag revalidation, zero gateway fan-outs)")
        assert client.not_modified == DASHBOARD_POLLS - 1, client.not_modified
        print(f"\nEndpoints above {PHI:.0%} of total latency "
              f"(error bound {answer['error_bound']:.4g}):")
        for hitter in answer["estimate"]:
            print(f"  {hitter['element']:<24} share "
                  f"{hitter['relative_weight']:.3f}")
        hot_found = {hitter["element"] for hitter in answer["estimate"]}
        assert set(HOT_ENDPOINTS) <= hot_found, (HOT_ENDPOINTS, hot_found)

        # One straggler batch moves the item counts: the next poll's
        # validator no longer matches, so the gateway re-evaluates and the
        # client caches the fresh answer under the new ETag.
        polls_before = client.not_modified
        client.push(items=[["/api/v2/export", 500.0]])
        refreshed = client.query("heavy_hitters", {"phi": PHI})
        assert client.not_modified == polls_before, \
            "a post-push poll must not be served 304"
        assert refreshed["items_processed"] == answer["items_processed"] + 1
        print("post-push poll re-evaluated (items moved, ETag rotated): "
              f"{answer['items_processed']} -> "
              f"{refreshed['items_processed']} items behind the answer")

        # Degraded-mode poll: partial=true keeps the dashboard rendering
        # even if shards are unreachable; here the cluster is healthy, so
        # the reply says so explicitly.
        degraded = http_json(
            f"{base_url}/v1/query/heavy_hitters?phi={PHI}&partial=true")
        print(f"\npartial=true poll: partial={degraded['partial']} "
              f"missing_shards={degraded.get('missing_shards', ())} "
              f"(all shards reachable)")

        stats = client.stats()
        print(f"stats: {stats['items_processed']} items over "
              f"{stats['shards']} shards "
              f"({', '.join(str(row[0]) for row in stats['per_shard'])}), "
              f"{stats['total_messages']} protocol messages "
              "(site-to-coordinator traffic the protocol saved vs "
              "forwarding every observation)")

        with tempfile.TemporaryDirectory() as tmp:
            checkpoint = str(Path(tmp) / "monitoring.ckpt")
            saved = http_json(f"{base_url}/v1/checkpoint",
                              {"path": checkpoint}, method="POST")
            print(f"checkpointed {saved['spec']} to {saved['saved']}")

        # Typed client: GatewayClient.typed_query returns a real Answer
        # object (Answer.from_dict), so downstream code can keep using the
        # library types it already knows — and it rides the same
        # conditional-GET path as the raw document polls.
        typed = client.typed_query("total_weight")
        client.close()
        print(f"\ntyped total-weight answer: {type(typed).__name__} "
              f"estimate={typed.estimate:.6g}")
        assert typed.estimate > 0
    cluster.close()
    print("\ngateway stopped; session remains usable after serving")


if __name__ == "__main__":
    main()

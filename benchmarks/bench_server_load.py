"""Sustained localhost load against a live SpMM server.

The CI ``server`` job's smoke: N client threads hammer one server over
real loopback sockets for a fixed wall-clock budget with mixed-tenant,
mixed-matrix ``multiply`` traffic (several distinct fingerprints, so
both the batching and the plan-cache paths stay hot).  The run fails
if any 5xx-class ``internal`` error occurs, if any response is wrong
(every result is checked bit-for-bit against a direct in-process
``SpMMEngine``), or if any request is silently dropped — every send
must produce a result frame or a documented retryable error.

The final ``/metrics`` snapshot is written to
``results/server_load_metrics.json`` (CI uploads it as an artifact) and
a human-readable summary to ``results/server_load.txt``.

Run ``python benchmarks/bench_server_load.py --seconds 30`` for the CI
configuration; ``--seconds 3`` for a quick local pass.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import threading
import time

import numpy as np

from _common import RESULTS_DIR, dump
from repro.errors import ServerError
from repro.serve.engine import SpMMEngine
from repro.serve.aio import AsyncSpMMEngine
from repro.serve.server import ServerConfig, SpMMClient, SpMMServer
from repro.sparse.convert import coo_to_csr
from repro.sparse.random import erdos_renyi

N_MATRICES = 4
FEATURE_DIM = 16


def _workload(seed=5):
    mats = [
        coo_to_csr(erdos_renyi(128 + 32 * i, avg_degree=6.0, seed=seed + i))
        for i in range(N_MATRICES)
    ]
    rng = np.random.default_rng(seed)
    bs = [
        rng.uniform(-1.0, 1.0, (m.n_cols, FEATURE_DIM)).astype(np.float32)
        for m in mats
    ]
    refs = [SpMMEngine().spmm(m, b) for m, b in zip(mats, bs)]
    return mats, bs, refs


def run_load(seconds: float, n_clients: int = 6) -> dict:
    mats, bs, refs = _workload()
    started = threading.Event()
    box: dict = {}

    async def serve():
        server = SpMMServer(
            engine=AsyncSpMMEngine(capacity=32),
            config=ServerConfig(batch_window=0.005, max_inflight=64),
        )
        box["server"] = server
        box["addr"] = await server.start()
        box["loop"] = asyncio.get_running_loop()
        box["stop"] = asyncio.Event()
        started.set()
        await box["stop"].wait()
        await server.stop()

    thread = threading.Thread(target=lambda: asyncio.run(serve()))
    thread.start()
    assert started.wait(30)
    host, port = box["addr"]

    deadline = time.monotonic() + seconds
    tallies = [dict(sent=0, ok=0, retryable=0) for _ in range(n_clients)]
    failures: list[str] = []

    def client_run(i: int) -> None:
        rng = np.random.default_rng(100 + i)
        tally = tallies[i]
        try:
            with SpMMClient(host, port) as c:
                while time.monotonic() < deadline:
                    j = int(rng.integers(0, N_MATRICES))
                    tally["sent"] += 1
                    try:
                        C = c.multiply(
                            mats[j], bs[j], tenant=f"tenant-{i % 3}"
                        )
                    except ServerError as exc:
                        if not exc.retryable:
                            failures.append(f"client {i}: {exc}")
                            return
                        tally["retryable"] += 1
                        continue
                    if not np.array_equal(C, refs[j]):
                        failures.append(f"client {i}: wrong result for {j}")
                        return
                    tally["ok"] += 1
        except Exception as exc:  # noqa: BLE001 - recorded and fatal
            failures.append(f"client {i}: {type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=client_run, args=(i,))
        for i in range(n_clients)
    ]
    t0 = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.monotonic() - t0

    with SpMMClient(host, port) as c:
        metrics = c.metrics()
    box["loop"].call_soon_threadsafe(box["stop"].set)
    thread.join(60)

    sent = sum(t["sent"] for t in tallies)
    ok = sum(t["ok"] for t in tallies)
    retryable = sum(t["retryable"] for t in tallies)
    server_counters = metrics["server"]

    # the smoke's contract
    assert not failures, failures
    assert server_counters["internal_errors"] == 0, server_counters
    assert ok + retryable == sent, (ok, retryable, sent)  # nothing dropped
    assert ok > 0
    assert metrics["engine"]["plans_built"] == N_MATRICES  # planned once

    return {
        "seconds": round(elapsed, 2),
        "clients": n_clients,
        "sent": sent,
        "ok": ok,
        "retryable_rejections": retryable,
        "throughput_rps": round(ok / elapsed, 1),
        "batched_share": round(
            server_counters["batched_requests"]
            / max(1, server_counters["multiplies"]),
            3,
        ),
        "metrics": metrics,
    }


def render(result: dict) -> str:
    lines = [
        "sustained localhost load against a live SpMM server",
        f"  duration              {result['seconds']} s"
        f"  ({result['clients']} client threads)",
        f"  requests sent         {result['sent']}",
        f"  results (bit-exact)   {result['ok']}",
        f"  retryable rejections  {result['retryable_rejections']}",
        f"  throughput            {result['throughput_rps']} req/s",
        f"  batched share         {result['batched_share']}",
        f"  internal errors       "
        f"{result['metrics']['server']['internal_errors']}  (must be 0)",
    ]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--clients", type=int, default=6)
    args = parser.parse_args(argv)
    result = run_load(args.seconds, args.clients)
    text = render(result)
    print(text, end="")
    dump("server_load", text)
    RESULTS_DIR.mkdir(exist_ok=True)
    snapshot = RESULTS_DIR / "server_load_metrics.json"
    snapshot.write_text(json.dumps(result["metrics"], indent=2, sort_keys=True))
    print(f"metrics snapshot: {snapshot}")
    print("server load smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

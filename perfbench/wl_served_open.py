"""served_open: the serving path.

Open loop at one fixed offered rate (``SERVED_RATE``) over loopback,
against ``python -m repro.serve.server`` in its own process, through
``SERVED_CONNECTIONS`` client connections (one thread each).  A seeded
arrival schedule mixes three kinds of request:

* ``hot``: exact-tier multiplies on pre-submitted graphs;
* ``fast``: fast-tier multiplies on the FY-RSR twin, arriving in pairs
  so same-fingerprint requests can share one ``multiply_many`` batch;
* ``delta``: a structural edit of one hot graph plus a multiply on the
  edited matrix in the same round trip (writes beside reads).

There are no cold misses.  Latency is timed from each request's due
time, so a stall also charges the requests queued behind it.  The
generator's lateness (send time minus due time, waiting for a free
connection included) is reported, and a run whose generator fell behind
is reported invalid, not fast.  The sender threads only time requests
and keep each output (fast tier) or its digest; every check runs after
the schedule ends, and the scipy arm in the schedule's idle gaps.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import selectors
import subprocess
import sys
import threading
import time

import numpy as np

import config as C
from inputs import b_pool, family_graph, scipy_csr, twin, useful_flops
from measure import (
    clock, engine_counters, geomean, log, median, percentile, sub_seed,
    vm_hwm_mb,
)


def _digest(arr) -> str:
    """Digest of an array's dtype, shape and bytes.  hashlib hashes the
    buffer in place and releases the GIL while it does, so a sender
    thread taking a digest does not stall the other connection."""
    arr = np.ascontiguousarray(arr)
    return f"{arr.dtype}{arr.shape}:{hashlib.sha256(arr).hexdigest()}"


class Server:
    """One ``python -m repro.serve.server`` process."""

    def __init__(self, root) -> None:
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve.server", "--port", "0",
             *C.SERVED_SERVER_ARGS],
            stdout=subprocess.PIPE, text=True, env=env, cwd=str(root),
        )
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        deadline = time.monotonic() + 60
        line = ""
        while not line.startswith("listening on"):
            if not sel.select(timeout=max(0.0, deadline - time.monotonic())):
                self.stop()
                raise RuntimeError("server did not report its address")
            line = self.proc.stdout.readline()
            if not line:
                self.stop()
                raise RuntimeError("server exited before listening")
        sel.close()
        host, port = line.split()[-1].rsplit(":", 1)
        self.addr = (host, int(port))

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _setup(ctx, graphs, fast_A, warm):
    """Launch a server and make it ready: every graph submitted and one
    multiply per graph at its tier.  Returns (server, client, seconds,
    fingerprint record of the delta base)."""
    from repro.serve.server import SpMMClient

    ctx.tracer.active = ctx.trace
    t0 = clock()
    server = Server(ctx.root)
    client = None
    try:
        client = SpMMClient(*server.addr)
        records = {}
        for g, A in graphs.items():
            records[g] = client.submit(A, feature_dim=C.N)["fingerprint"]
        client.submit(fast_A, feature_dim=C.N)
        for g, A in graphs.items():
            client.multiply(A, warm[g], numerics="exact")
        client.multiply(fast_A, warm[C.SERVED_FAST], numerics="fast")
        elapsed = clock() - t0
    except BaseException:
        if client is not None:
            client.close()
        server.stop()
        raise
    finally:
        ctx.tracer.active = False
    return server, client, elapsed, records[C.SERVED_DELTA_BASE]


def _schedule(seed: int, seconds: float, base):
    """Seeded arrival schedule: (due offset, kind, graph, B index, edit).

    ``SERVED_RATE * seconds`` requests in the exact ``SERVED_MIX``
    shares; fast-tier requests come in pairs that share a due time.
    Arrival events are spread evenly over the run, each at a random
    point of its own slot, in a seeded order of kinds.
    """
    rng = random.Random(sub_seed(seed, "served-schedule"))
    total = round(C.SERVED_RATE * seconds)
    counts = {k: round(total * share) for k, share in C.SERVED_MIX.items()}
    counts["fast"] -= counts["fast"] % 2
    events = ["pair"] * (counts.pop("fast") // 2)
    for kind, n in counts.items():
        events += [kind] * n
    rng.shuffle(events)
    slot = seconds / len(events)
    starts, cols = base.indptr, base.indices
    out = []
    for k, kind in enumerate(events):
        t = (k + rng.random()) * slot
        if kind == "pair":
            for _ in range(2):
                out.append((t, "fast", C.SERVED_FAST,
                            rng.randrange(C.B_POOL), None))
        elif kind == "delta":
            n = C.SERVED_DELTA_EDGES
            added = [(rng.randrange(base.n_rows), rng.randrange(base.n_cols),
                      rng.uniform(0.5, 1.5)) for _ in range(n)]
            removed = []
            while len(removed) < n:
                r = rng.randrange(base.n_rows)
                if starts[r + 1] > starts[r]:
                    removed.append(
                        (r, int(cols[rng.randrange(starts[r], starts[r + 1])]))
                    )
            out.append((t, "delta", C.SERVED_DELTA_BASE,
                        rng.randrange(C.B_POOL), (added, removed)))
        else:
            out.append((t, "hot", kind, rng.randrange(C.B_POOL), None))
    return out


def run(ctx) -> dict:
    from repro.kernels.tc_common import execute_tiled_reference
    from repro.serve.engine import SpMMEngine
    from repro.serve.fingerprint import fingerprint
    from repro.serve.server import SpMMClient
    from repro.tune.policy import resolve_policy

    graphs = {
        g: family_graph(*C.SERVED_GENERATED[g], ctx.seed, 0)
        if g in C.SERVED_GENERATED else twin(g, ctx.seed)
        for g in C.SERVED_HOT
    }
    fast_A = twin(C.SERVED_FAST, ctx.seed)
    everything = {**graphs, C.SERVED_FAST: fast_A}
    pools = {g: b_pool(A.n_cols, C.N, C.B_POOL, ctx.seed, "served", g)
             for g, A in everything.items()}
    warm = {g: b_pool(A.n_cols, C.N, 1, ctx.seed, "warm", g)[0]
            for g, A in everything.items()}
    schedule = _schedule(ctx.seed, ctx.seconds, graphs[C.SERVED_DELTA_BASE])

    # oracle, before any server runs: digests of the exact references
    # from in-process plans, and the fast tier's float64 product and
    # error bound
    ref_engine = SpMMEngine(capacity=len(graphs) + 2)
    base_fp = fingerprint(graphs[C.SERVED_DELTA_BASE])
    refs = {
        g: [_digest(execute_tiled_reference(
            ref_engine.get_plan(A, feature_dim=C.N).tc_plan, B))
            for B in pools[g]]
        for g, A in graphs.items()
    }
    sp_fast = scipy_csr(fast_A).astype(np.float64)
    depth = int(np.diff(fast_A.indptr).max())
    bound = resolve_policy("fast").error_bound(depth)
    fast_ref = []
    for B in pools[C.SERVED_FAST]:
        B64 = B.astype(np.float64)
        fast_ref.append((sp_fast @ B64, bound * (abs(sp_fast) @ np.abs(B64))))
    gc.collect()

    # set-up, repeated: each launch builds four plans; the last launch
    # serves the run
    setups = []
    for rep in range(C.SERVED_SETUP_REPS):
        server, client, secs, base_record = _setup(ctx, graphs, fast_A, warm)
        setups.append(secs)
        if rep + 1 < C.SERVED_SETUP_REPS:
            client.close()
            server.stop()
    try:
        before = client.metrics()
        records, scipy_s = _drive(ctx, server, everything, pools, schedule,
                                  base_record)
        # a fresh connection: the server closes one idle for longer
        # than its read timeout, as the set-up connection was
        with SpMMClient(*server.addr) as probe:
            after = probe.metrics()
        peak = server.peak_rss_mb()
    finally:
        client.close()
        server.stop()

    # verification and the scipy arm, after the schedule has ended
    ok = wrong = failed = slo_ok = 0
    lat_ms, rtt_s, flops = [], [], 0.0
    by_kind: dict = {}
    for rec in records:
        status = rec["status"]
        if status == "done":
            kind, g, bi = rec["kind"], rec["graph"], rec["bi"]
            if kind == "delta":
                added, removed = rec["edit"]
                _, new_plan = ref_engine.apply_delta(
                    base_fp, added=added, removed=removed)
                good = _digest(new_plan.multiply(pools[g][bi])) == rec["out"]
            elif kind == "fast":
                c64, tol = fast_ref[bi]
                good = bool(np.all(np.abs(rec["out"] - c64) <= tol))
            else:
                good = rec["out"] == refs[g][bi]
            rec.pop("out")
            if good:
                ok += 1
                lat = (rec["done"] - rec["due"]) * 1e3
                lat_ms.append(lat)
                rtt_s.append(rec["done"] - rec["sent"])
                flops += useful_flops(everything[g], C.N)
                by_kind.setdefault(_label(rec), []).append(lat)
                slo_ok += lat <= C.SERVED_SLO_MS
            else:
                wrong += 1
                log(f"served_open: wrong {kind} result on {g}")
        else:
            failed += 1
    scipy_ms = {k: median(v) * 1e3 for k, v in scipy_s.items()}
    attempted = len(records)
    done = [r for r in records if r["status"] == "done"]
    span = max(r["done"] for r in done) - min(r["due"] for r in records)
    late = [r["late"] * 1e3 for r in records if "late" in r]
    wait = [r["wait"] * 1e3 for r in records if "wait" in r]
    late_p90 = percentile(late, 90)
    valid = late_p90 <= C.SERVED_MAX_LATE_MS
    if not valid:
        log(f"served_open: generator lateness p90 {late_p90:.1f} ms exceeds "
            f"{C.SERVED_MAX_LATE_MS} ms; run invalid")

    srv0, srv1 = before["server"], after["server"]

    def ds(key):
        return srv1.get(key, 0) - srv0.get(key, 0)

    batched = ds("batched_requests")
    computed = batched + ds("single_requests")
    kinds = [_label(r) for r in records]
    layers = engine_counters(before["engine"], after["engine"])
    layers.update({
        "client.send_wait_ms_p90": percentile(wait, 90),
        "gen.late_ms_p90": late_p90,
        "server.batch_size_mean": batched / ds("batches") if ds("batches") else 0.0,
        "server.batched_share": batched / computed if computed else 0.0,
        "server.shed": ds("shed_requests") + ds("shed_connections"),
        "delta.requests": kinds.count("delta"),
        "baseline.scipy_slowdown_x": geomean(
            [median(v) / scipy_ms[k] for k, v in by_kind.items()]),
    })
    for k in KINDS:
        layers[f"mix.share.{k}"] = kinds.count(k) / attempted
        layers[f"mix.latency_ms_p50.{k}"] = median(by_kind.get(k, []))
    e2e = {
        "setup_s": median(setups),
        "latency_ms_p50": percentile(lat_ms, 50),
        "latency_ms_p90": percentile(lat_ms, 90),
        "throughput_rps": len(lat_ms) / span if span > 0 else 0.0,
        "gflops": flops / sum(rtt_s) / 1e9 if rtt_s else 0.0,
        "slo_met_share": slo_ok / attempted,
        "ok_share": ok / attempted,
        "peak_rss_mb": peak,
    }
    kind_p50 = {k: round(median(v), 2) for k, v in by_kind.items()}
    log(f"served_open: median latency ms by kind {kind_p50}")
    log(f"served_open: {attempted} requests, {ok} ok, {failed} failed, "
        f"{batched} batched, late p90 {late_p90:.2f} ms")
    return {
        "attempted": attempted,
        "ok": ok,
        "wrong": wrong,
        "errors": failed,
        "samples": len(lat_ms),
        "valid": valid,
        "setups_s": setups,
        "latency_ms_p50_by_kind": kind_p50,
        "scipy_ms_by_kind": scipy_ms,
        "scipy_samples_by_kind": {k: len(v) for k, v in scipy_s.items()},
        "requests": [
            [r["kind"], r["graph"], r["status"],
             round((r.get("done", 0) - r["due"]) * 1e3, 3),
             round(r.get("late", 0) * 1e3, 3)]
            for r in records
        ],
        "e2e": e2e,
        "layers": layers,
    }


#: request kinds, as reported per kind: the exact-tier hot graphs, the
#: fast-tier requests and the deltas
KINDS = (*C.SERVED_HOT, "fast", "delta")


def _label(rec) -> str:
    return rec["graph"] if rec["kind"] == "hot" else rec["kind"]


#: the scipy arm samples only when no request is in flight and the next
#: one is due at least this far ahead (s); one sample takes 0.5-13 ms
SCIPY_GAP_S = 0.05
#: pause after each scipy sample (s)
SCIPY_PAUSE_S = 0.02


def _scipy_sampler(everything, pools, idle_for, running) -> dict:
    """The scipy arm: times the in-process scipy product of each kind
    (for delta, on the unedited base graph), cycling over kinds and
    pooled B's, in the idle gaps of the schedule, so its samples spread
    over the run beside the requests without overlapping them.
    ``idle_for()`` is how long (s) the connections stay idle, 0 while a
    request is in flight.  Returns every kind's sample times (s); a kind
    the gaps left without a sample is sampled after the run."""
    graph_of = {k: k for k in C.SERVED_HOT}
    graph_of.update(fast=C.SERVED_FAST, delta=C.SERVED_DELTA_BASE)
    mats = {k: scipy_csr(everything[g]) for k, g in graph_of.items()}
    order = [(k, bi) for k in graph_of for bi in range(C.B_POOL)]
    samples: dict = {k: [] for k in graph_of}

    def sample(k, bi) -> None:
        B = pools[graph_of[k]][bi]
        t0 = clock()
        mats[k] @ B
        samples[k].append(clock() - t0)

    n = 0
    while running():
        if idle_for() < SCIPY_GAP_S:
            time.sleep(0.005)
            continue
        sample(*order[n % len(order)])
        n += 1
        time.sleep(SCIPY_PAUSE_S)
    for k in graph_of:
        if not samples[k]:
            for bi in range(C.B_POOL):
                sample(k, bi)
    return samples


def _drive(ctx, server, everything, pools, schedule, base_record):
    """Send the schedule over the client connections; returns one record
    per request and the scipy arm's samples.  A sender thread only times
    its requests and keeps the output of a fast-tier request (for the
    tolerance check) or the digest of any other; nothing else runs
    between a response and the next send.  The main thread runs the
    scipy arm in the schedule's idle gaps."""
    from repro.errors import ServerError
    from repro.serve.server import SpMMClient

    lock = threading.Lock()
    records = [
        {"due_offset": due, "kind": kind, "graph": g, "bi": bi, "edit": edit}
        for due, kind, g, bi, edit in schedule
    ]
    cursor = [0]
    t_zero = clock() + 0.05
    # requests not sent by then are failed, so an overloaded server
    # cannot hold the run open
    deadline = t_zero + ctx.seconds * 1.5 + 5.0
    # per connection: due time of the request it waits to send, or None
    # while one is in flight (inf when it has nothing picked up)
    next_send = [float("inf")] * C.SERVED_CONNECTIONS

    def idle_for() -> float:
        with lock:
            if None in next_send:
                return 0.0
            unpicked = (t_zero + records[cursor[0]]["due_offset"]
                        if cursor[0] < len(records) else float("inf"))
            return min(*next_send, unpicked) - clock()

    def worker(slot: int) -> None:
        client = SpMMClient(*server.addr)
        try:
            while True:
                with lock:
                    if cursor[0] >= len(records):
                        next_send[slot] = float("inf")
                        return
                    idx = cursor[0]
                    cursor[0] += 1
                    rec = records[idx]
                    rec["due"] = due = t_zero + rec["due_offset"]
                    next_send[slot] = due
                picked = clock()
                if picked > deadline:
                    rec["status"] = "expired"
                    continue
                if due > picked:
                    time.sleep(due - picked)
                with lock:
                    next_send[slot] = None
                sent = clock()
                rec["sent"] = sent
                rec["late"] = max(0.0, sent - due)
                rec["wait"] = max(0.0, picked - due)
                g, B = rec["graph"], pools[rec["graph"]][rec["bi"]].copy()
                ctx.tracer.set_request(idx, rec["kind"])
                root = ctx.tracer.begin("request", start=due) if ctx.trace else None
                try:
                    if rec["kind"] == "delta":
                        added, removed = rec["edit"]
                        out, _ = client.delta(
                            base_record, added=added, removed=removed, B=B,
                            numerics="exact")
                    else:
                        out = client.multiply(
                            everything[g], B,
                            numerics="fast" if rec["kind"] == "fast" else "exact")
                    rec["done"] = clock()
                    rec["status"] = "done"
                except ServerError as exc:
                    rec["done"] = clock()
                    rec["status"] = exc.code
                    out = None
                except (OSError, ValueError) as exc:
                    rec["done"] = clock()
                    rec["status"] = "error"
                    out = None
                    log(f"served_open: request {idx}: {exc!r}; reconnecting")
                    client.close()
                    client = SpMMClient(*server.addr)
                finally:
                    if root is not None:
                        ctx.tracer.end(root)
                if out is not None:
                    rec["out"] = out if rec["kind"] == "fast" else _digest(out)
        finally:
            client.close()

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(C.SERVED_CONNECTIONS)]
    ctx.tracer.active = ctx.trace
    for t in threads:
        t.start()
    try:
        scipy_s = _scipy_sampler(
            everything, pools, idle_for,
            lambda: any(t.is_alive() for t in threads))
    finally:
        for t in threads:
            t.join()
        ctx.tracer.active = False
    return records, scipy_s

"""cold_churn: the cold plan path.

Closed loop, one caller.  A seeded stream of distinct generated graphs
(band, road, molecular, uniform and web families) is resolved and
multiplied through an ``SpMMEngine`` whose capacity is below the
distinct-graph count, backed by a per-run ``PlanStore``.  The stream
repeats blocks of ``CHURN_BLOCK`` requests: one graph never seen before
(a full plan build, so reorder dominates), ``CHURN_NEAR_REUSE`` reuses
of a graph used in the last two requests (cache hits), and recurrences
of the stored graphs evicted at least ``CHURN_CAPACITY + 2`` distinct
graphs ago (store hits), so store reads sit beside store writes.
Set-up is ``warm_start()`` over a store written by an earlier, untimed
process (``churn_writer.py``).
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys

import config as C
from inputs import b_pool, family_graph, scipy_csr, useful_flops
from measure import (
    HERE, OUT_DIR, clock, engine_counters, geomean, log, median, percentile,
    sub_seed,
)


#: request kinds by outcome, as reported per kind: a full plan build, a
#: cache hit and a store hit
KINDS = ("build", "hit", "store")


def digest(arr) -> str:
    return hashlib.sha256(arr.tobytes()).hexdigest()


def operand(key, seed: int):
    """The right-hand side every request for graph ``key`` multiplies
    (a fresh copy each time): one of a pooled set per row count."""
    family, rows, index = key
    return b_pool(rows, C.N, C.B_POOL, seed, "churn")[index % C.B_POOL]


def stored_specs():
    """(family, rows, index) of the graphs the writer stores."""
    return [
        (C.CHURN_FAMILIES[k % len(C.CHURN_FAMILIES)],
         C.CHURN_STORED_ROWS[k % len(C.CHURN_STORED_ROWS)], k)
        for k in range(C.CHURN_STORED)
    ]


def stream(seed: int):
    """Endless seeded request stream: ``(kind, graph key)`` pairs.

    New graphs come in rounds covering every family once, in a seeded
    order, so every run builds the same mix of shapes.  Recurrences
    draw from the writer's stored graphs only, so the sizes behind the
    store hits stay the same however many builds a run gets through.
    The kinds are fixed by reuse distance under LRU, independent of
    timing.
    """
    rng = random.Random(sub_seed(seed, "churn-stream"))
    stored = stored_specs()
    history = list(stored)  # most recent last
    fresh: list = []
    index = 1000
    while True:
        kinds = ["build"] + ["near"] * C.CHURN_NEAR_REUSE
        kinds += ["recur"] * (C.CHURN_BLOCK - len(kinds))
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "build":
                if not fresh:
                    fresh = list(C.CHURN_FAMILIES)
                    rng.shuffle(fresh)
                key = (fresh.pop(), C.CHURN_BUILD_ROWS, index)
                index += 1
            elif kind == "near":
                key = rng.choice(history[-2:])
            else:
                recent = set(history[-(C.CHURN_CAPACITY + 2):])
                key = rng.choice([k for k in stored if k not in recent])
            if key in history:
                history.remove(key)
            history.append(key)
            yield kind, key


def run(ctx) -> dict:
    from repro.kernels.tc_common import execute_tiled_reference
    from repro.serve.engine import SpMMEngine
    from repro.serve.store import PlanStore

    work = OUT_DIR / f"churn-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        store_root = work / "store"
        digests_path = work / "digests.json"
        env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))
        subprocess.run(
            [sys.executable, str(HERE / "churn_writer.py"), str(ctx.seed),
             str(store_root), str(digests_path)],
            env=env, check=True, timeout=150,
        )
        known = {
            tuple(int(p) if p.isdigit() else p for p in k.split("/")): v
            for k, v in json.loads(digests_path.read_text()).items()
        }
        return _measure(ctx, store_root, known, execute_tiled_reference,
                        SpMMEngine, PlanStore)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(ctx, store_root, known, reference, SpMMEngine, PlanStore):
    store = PlanStore(root=store_root)
    setups = []
    engine = None
    for _ in range(C.CHURN_SETUP_REPS):
        spent = 0.0
        for _ in range(C.CHURN_SETUP_LOADS):
            engine = None
            gc.collect()
            ctx.tracer.active = ctx.trace
            t0 = clock()
            engine = SpMMEngine(capacity=C.CHURN_CAPACITY, store=store)
            loaded = engine.warm_start()
            spent += clock() - t0
            ctx.tracer.active = False
        setups.append(spent / C.CHURN_SETUP_LOADS)

    graphs: dict = {}
    operands: dict = {}
    baselines: dict = {}

    stats0 = engine.stats
    lat_ms, ratios, block_rps, mult_gflops = [], [], [], []
    busy = block_busy = 0.0
    attempted = ok = wrong = errors = slo_ok = 0
    outcomes: dict = {}
    by_kind: dict = {}
    requests = stream(ctx.seed)
    t_start = clock()
    i = 0
    while clock() - t_start < ctx.seconds:
        kind, key = next(requests)
        if key not in graphs:  # generated outside the timed interval
            graphs[key] = family_graph(key[0], key[1], ctx.seed, key[2])
            operands[key] = operand(key, ctx.seed)
            baselines[key] = scipy_csr(graphs[key])
        A = graphs[key]
        B = operands[key].copy()
        before = engine.stats
        attempted += 1
        ctx.tracer.set_request(i, kind)
        ctx.tracer.active = ctx.trace
        root = ctx.tracer.begin("request") if ctx.trace else None
        t0 = clock()
        try:
            plan = engine.get_plan(A, feature_dim=C.N)
            t1 = clock()
            out = plan.multiply(B)
        except Exception as exc:  # counted, never fatal
            plan = out = None
            t1 = clock()
            log(f"cold_churn: request {i} {key}: {exc!r}")
        t2 = clock()
        if root is not None:
            ctx.tracer.end(root)
        ctx.tracer.active = False
        after = engine.stats
        outcome = (
            "build" if after["plans_built"] > before["plans_built"]
            else "store" if after["store_hits"] > before["store_hits"]
            else "hit"
        )
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        busy += t2 - t0
        block_busy += t2 - t0
        if (i + 1) % C.CHURN_BLOCK == 0:  # a block of the stream ends
            block_rps.append(C.CHURN_BLOCK / block_busy)
            block_busy = 0.0
        lat_ms.append((t2 - t0) * 1e3)
        by_kind.setdefault(outcome, []).append((t2 - t0) * 1e3)
        if out is None:
            errors += 1
        else:
            mult_gflops.append(useful_flops(A, C.N) / (t2 - t1) / 1e9)
            if key not in known:
                # first sight of a graph built in this process: the
                # reference product of this plan
                with ctx.rss.oracle():
                    known[key] = digest(reference(plan.tc_plan, B))
            if digest(out) == known[key]:
                ok += 1
                slo_ok += (t2 - t0) * 1e3 <= C.CHURN_SLO_MS
            else:
                wrong += 1
                log(f"cold_churn: request {i} {key} ({outcome}): wrong result")
            t3 = clock()
            baselines[key] @ B
            ratios.append((t2 - t0) / (clock() - t3))
        i += 1
    stats1 = engine.stats
    log(f"cold_churn: {attempted} requests, outcomes {outcomes}")

    layers = engine_counters(stats0, stats1)
    layers["store.warm_loaded"] = loaded
    layers["store.quarantined"] = store.counters()["quarantined"]
    layers["baseline.scipy_slowdown_x"] = geomean(ratios)
    for k in KINDS:
        layers[f"mix.share.{k}"] = outcomes.get(k, 0) / attempted
        layers[f"mix.latency_ms_p50.{k}"] = median(by_kind.get(k, []))
    e2e = {
        "setup_s": median(setups),
        "latency_ms_p50": percentile(lat_ms, 50),
        "latency_ms_p90": percentile(lat_ms, 90),
        # median over the stream's complete blocks (one build each):
        # a stretch of neighbour load shorter than half the run moves
        # it little, where a whole-run ratio would follow the load
        "throughput_rps": median(block_rps),
        "gflops": median(mult_gflops),
        "slo_met_share": slo_ok / attempted,
        "ok_share": ok / attempted,
        "peak_rss_mb": ctx.rss.value(),
    }
    return {
        "attempted": attempted,
        "ok": ok,
        "wrong": wrong,
        "errors": errors,
        "samples": len(lat_ms),
        "blocks": len(block_rps),
        "requests_per_busy_s": attempted / busy,
        "valid": True,
        "outcomes": outcomes,
        "setups_s": setups,
        "latency_ms_p50_by_kind": {
            k: round(median(v), 2) for k, v in by_kind.items()},
        "e2e": e2e,
        "layers": layers,
    }

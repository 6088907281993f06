"""gnn_steady: the steady multiply path.

Closed loop, one caller.  The DD and rCA twins are planned and prepared
once in set-up; every training step then runs one exact-tier
``SpMMEngine.spmm`` per graph on a fresh B, each followed by the same
product through ``scipy.sparse`` (the interleaved baseline arm).  The
executor does nearly all the timed work and reorder none, so executor
changes show here and reorder changes must not.
"""

from __future__ import annotations

import gc

import numpy as np

import config as C
from inputs import b_pool, scipy_csr, twin, useful_flops
from measure import clock, engine_counters, geomean, log, median, percentile


def run(ctx) -> dict:
    from repro.kernels.tc_common import execute_tiled_reference
    from repro.serve.engine import SpMMEngine

    graphs = {g: twin(g, ctx.seed) for g in C.GNN_GRAPHS}
    pools = {
        g: b_pool(A.n_cols, C.N, C.B_POOL, ctx.seed, "gnn", g)
        for g, A in graphs.items()
    }
    baselines = {g: scipy_csr(A) for g, A in graphs.items()}

    # set-up: plan + prepare both graphs, repeated on fresh engines
    setups = []
    engine = plans = None
    for _ in range(C.GNN_SETUP_REPS):
        engine = plans = None
        gc.collect()
        ctx.tracer.active = ctx.trace
        t0 = clock()
        engine = SpMMEngine()
        plans = {}
        for g, A in graphs.items():
            plans[g] = engine.get_plan(A, feature_dim=C.N).prepare(C.N)
        setups.append(clock() - t0)
        ctx.tracer.active = False

    with ctx.rss.oracle():
        refs = {
            g: [execute_tiled_reference(plans[g].tc_plan, B) for B in pools[g]]
            for g in graphs
        }

    stats0 = engine.stats
    step_ms, slo_ok = [], 0
    exact_s = {g: 0.0 for g in graphs}
    ratios = {g: [] for g in graphs}
    calls = {g: 0 for g in graphs}
    attempted = ok = wrong = errors = 0
    t_start = clock()
    step = 0
    while clock() - t_start < ctx.seconds:
        bi = step % C.B_POOL
        step_s, step_ok = 0.0, True
        for g, A in graphs.items():
            B = pools[g][bi].copy()  # a fresh operand every step
            attempted += 1
            ctx.tracer.set_request(step, g)
            ctx.tracer.active = ctx.trace
            root = ctx.tracer.begin("request") if ctx.trace else None
            t0 = clock()
            try:
                out = engine.spmm(A, B, numerics="exact")
            except Exception as exc:  # counted, never fatal
                out = None
                log(f"gnn_steady: {g} step {step}: {exc!r}")
            t1 = clock()
            if root is not None:
                ctx.tracer.end(root)
            ctx.tracer.active = False
            step_s += t1 - t0
            exact_s[g] += t1 - t0
            calls[g] += 1
            if out is None:
                errors += 1
                step_ok = False
            elif np.array_equal(out, refs[g][bi]):
                ok += 1
            else:
                wrong += 1
                step_ok = False
            t2 = clock()
            baselines[g] @ B
            ratios[g].append((t1 - t0) / (clock() - t2))
        step_ms.append(step_s * 1e3)
        slo_ok += step_ok and step_s * 1e3 <= C.GNN_SLO_MS
        step += 1
    stats1 = engine.stats

    e2e = {
        "setup_s": median(setups),
        "latency_ms_p50": percentile(step_ms, 50),
        "latency_ms_p90": percentile(step_ms, 90),
        "throughput_rps": attempted / sum(exact_s.values()),
        "gflops": geomean(
            [useful_flops(graphs[g], C.N) * calls[g] / exact_s[g] / 1e9
             for g in graphs]
        ),
        "slo_met_share": slo_ok / len(step_ms),
        "ok_share": ok / attempted,
        "peak_rss_mb": ctx.rss.value(),
    }
    return {
        "attempted": attempted,
        "ok": ok,
        "wrong": wrong,
        "errors": errors,
        "samples": len(step_ms),
        "valid": True,
        "setups_s": setups,
        "e2e": e2e,
        "layers": {
            **engine_counters(stats0, stats1),
            # per-call ratios against the arm run right after
            "baseline.scipy_slowdown_x": geomean(
                [median(ratios[g]) for g in graphs]),
        },
    }

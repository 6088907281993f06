"""Outside-in tracing for the traced run (``--trace 1``).

Spans are recorded from the benchmark's own files by wrapping the public
entry points of each layer (``install``); the program itself is not
edited.  Each span keeps its name, start, end, parent span, request id
and a tag (the graph a request is for).  Spans stay in memory and are
written out when the run ends.  A layer's self time is its span minus
the time its child spans cover.
"""

from __future__ import annotations

import functools
import threading
import time

from measure import LAYER_UNITS, median

NAME, START, END, PARENT, RID, TAG, ATTRS = range(7)


class Tracer:
    """In-memory span recorder; records only while ``active`` is set."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list = []
        self.active = False
        #: time spent in ``describe`` callbacks of spans inside requests
        self.describe_s = 0.0
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def set_request(self, rid, tag=None) -> None:
        self._local.rid = rid
        self._local.tag = tag

    def begin(self, name: str, start: float | None = None) -> int:
        st = self._stack()
        rec = [
            name,
            self.clock() if start is None else start,
            None,
            st[-1] if st else -1,
            getattr(self._local, "rid", None),
            getattr(self._local, "tag", None),
            None,
        ]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(rec)
        st.append(idx)
        return idx

    def end(self, idx: int, attrs: dict | None = None) -> None:
        rec = self.spans[idx]
        rec[END] = self.clock()
        if attrs:
            rec[ATTRS] = attrs
        self._stack().pop()

    def dump(self) -> list:
        return [
            {
                "name": s[NAME], "start": s[START], "end": s[END],
                "parent": s[PARENT], "request": s[RID], "tag": s[TAG],
                "attrs": s[ATTRS],
            }
            for s in self.spans
        ]


def _wrap(tracer: Tracer, name: str, fn, describe=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        idx = tracer.begin(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            attrs = None
            if describe is not None and result is not None:
                d0 = tracer.clock()
                attrs = describe(args, kwargs, result)
                if tracer.spans[idx][RID] is not None:
                    with tracer._lock:
                        tracer.describe_s += tracer.clock() - d0
            tracer.end(idx, attrs)

    return traced


def _patch(owner, attr: str, tracer: Tracer, name: str, describe=None):
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(_wrap(tracer, name, raw.__func__, describe)))
    else:
        setattr(owner, attr, _wrap(tracer, name, raw, describe))


def _tiling_attrs(args, kwargs, t):
    return {"blocks": int(t.n_blocks), "nnz": int(t.nnz),
            "area": int(t.window_rows * t.block_cols), "rows": int(t.n_rows)}


def _schedule_attrs(args, kwargs, s):
    return {"tbs": int(s.n_tbs)}


def _execute_attrs(args, kwargs, out):
    ex, B = args[0], args[1]
    t = ex.tiling
    batch = B.shape[0] if B.ndim == 3 else 1
    n = B.shape[-1]
    wr, bc = t.window_rows, t.block_cols
    return {
        "flops_useful": 2.0 * t.nnz * n * batch,
        "flops_issued": 2.0 * t.n_blocks * wr * bc * n * batch,
        # computed from array sizes, not measured: A tiles once, the
        # gathered B rows and the written C once per batch member
        "bytes": 4.0 * (t.n_blocks * wr * bc
                        + batch * (t.n_blocks * bc * n + t.n_rows * n)),
    }


def install(tracer: Tracer) -> dict:
    """Wrap each layer's public entry points; returns a registry that
    collects the executors created while tracing (their ``stats`` carry
    the chunk-strategy counts)."""
    import repro.kernels.accspmm as accspmm
    import repro.kernels.executor as executor
    import repro.serve.engine as engine
    import repro.serve.server as server
    from repro.core.planner import AccPlan
    from repro.formats.bittcf import BitTCF
    from repro.serve.store import PlanStore

    registry = {"executors": {}, "put_bytes": 0}

    def executor_attrs(args, kwargs, ex):
        registry["executors"][id(ex)] = ex
        return None

    def put_attrs(args, kwargs, stored):
        store, fp, device, config = args[0], args[1], args[2], args[3]
        if stored:
            path = store.path_for(store.digest(fp, device, config))
            if path.exists():
                registry["put_bytes"] += path.stat().st_size
        return None

    def frame_attrs(args, kwargs, data):
        return {"bytes": len(data)}

    _patch(accspmm, "data_affinity_reorder", tracer, "reorder")
    _patch(accspmm, "build_tiling", tracer, "formats.tiling", _tiling_attrs)
    _patch(BitTCF, "from_csr", tracer, "formats.bittcf")
    _patch(accspmm, "adaptive_schedule", tracer, "balance.schedule",
           _schedule_attrs)
    _patch(engine, "build_plan", tracer, "planner.plan")
    _patch(AccPlan, "prepare", tracer, "executor.compile")
    _patch(executor, "get_executor", tracer, "executor.get", executor_attrs)
    _patch(executor.TCExecPlan, "prepare_for", tracer, "executor.prepare")
    _patch(executor.TCExecPlan, "execute", tracer, "executor.execute",
           _execute_attrs)
    _patch(engine, "fingerprint", tracer, "fingerprint")
    _patch(engine.SpMMEngine, "get_plan", tracer, "engine.get_plan")
    _patch(engine.SpMMEngine, "warm_start", tracer, "engine.warm_start")
    _patch(PlanStore, "get", tracer, "store.get")
    _patch(PlanStore, "put", tracer, "store.put", put_attrs)
    for rpc in ("multiply", "submit", "delta", "metrics"):
        _patch(server.SpMMClient, rpc, tracer, f"client.{rpc}")
    _patch(server, "encode_frame", tracer, "frames.encode", frame_attrs)
    return registry


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of one recorded span around a trivial call."""
    t = Tracer()
    t.active = True
    wrapped = _wrap(t, "calibrate", lambda: None)
    bare = _wrap(Tracer(), "calibrate", lambda: None)  # inactive tracer
    c0 = time.perf_counter()
    for _ in range(samples):
        wrapped()
    c1 = time.perf_counter()
    for _ in range(samples):
        bare()
    c2 = time.perf_counter()
    return max(0.0, ((c1 - c0) - (c2 - c1)) / samples)


# ----------------------------------------------------------------------
def self_times(spans: list) -> list:
    """Duration minus the direct children's durations, per span."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_metrics(tracer: Tracer, registry: dict, extra: dict) -> dict:
    """Every per-layer metric from the recorded spans plus the
    workload's own counters in ``extra`` (which win on a name clash)."""
    spans = tracer.spans
    for s in spans:  # a span its call never closed (none expected)
        if s[END] is None:
            s[END] = s[START]
    selfs = self_times(spans)

    def durs(name, tag=None):
        return [
            (s[END] - s[START]) * 1e3
            for s in spans
            if s[NAME] == name and (tag is None or s[TAG] == tag)
        ]

    def attrs(name):
        return [s[ATTRS] for s in spans if s[NAME] == name and s[ATTRS]]

    reorder = durs("reorder")
    tilings = attrs("formats.tiling")
    blocks = sum(a["blocks"] for a in tilings)
    area = sum(a["blocks"] * a["area"] for a in tilings)
    execs = attrs("executor.execute")
    strategies: dict = {}
    for ex in registry["executors"].values():
        for name, count in ex.stats.strategies.items():
            strategies[name] = strategies.get(name, 0) + count
    roots = [i for i, s in enumerate(spans) if s[NAME] == "request"]
    root_total = sum(spans[i][END] - spans[i][START] for i in roots)
    frames = attrs("frames.encode")
    client = durs("client.multiply") + durs("client.delta")

    m = {
        "reorder.calls": len(reorder),
        "reorder.ms_p50": median(reorder),
        "reorder.busy_s": sum(reorder) / 1e3,
        "formats.tiling_ms_p50": median(durs("formats.tiling")),
        "formats.bittcf_ms_p50": median(durs("formats.bittcf")),
        # per tiling built (set-up builds each graph once per repetition)
        "formats.tc_blocks": blocks / len(tilings) if tilings else 0,
        "formats.block_fill": (
            sum(a["nnz"] for a in tilings) / area if area else 0.0
        ),
        "balance.schedule_ms_p50": median(durs("balance.schedule")),
        "balance.tb_count": (
            sum(a["tbs"] for a in attrs("balance.schedule"))
            / max(1, len(attrs("balance.schedule")))
        ),
        "executor.compile_ms_p50": median(durs("executor.compile")),
        "executor.execute_ms_p50": median(durs("executor.execute")),
        "executor.execute_ms_p50.DD": median(durs("executor.execute", "DD")),
        "executor.execute_ms_p50.rCA": median(durs("executor.execute", "rCA")),
        "executor.calls": len(durs("executor.execute")),
        "executor.flops_useful": sum(a["flops_useful"] for a in execs),
        "executor.flops_issued": sum(a["flops_issued"] for a in execs),
        "executor.bytes_moved": sum(a["bytes"] for a in execs),
        "fingerprint.calls": len(durs("fingerprint")),
        "fingerprint.ms_p50": median(durs("fingerprint")),
        "engine.resolve_ms_p50": median(
            [selfs[i] * 1e3 for i, s in enumerate(spans)
             if s[NAME] == "engine.get_plan"]
        ),
        "store.get_ms_p50": median(durs("store.get")),
        "store.put_ms_p50": median(durs("store.put")),
        "store.bytes_written": registry["put_bytes"],
        "client.rtt_ms_p50": median(client),
        "frames.req_bytes_mean": (
            sum(a["bytes"] for a in frames) / len(frames) if frames else 0
        ),
        "delta.rtt_ms_p50": median(durs("client.delta")),
        "trace.latency_ms_p50": median(
            [(spans[i][END] - spans[i][START]) * 1e3 for i in roots]
        ),
        # a calibrated estimate, not the measured overhead: spans
        # recorded inside requests priced at the cost of one span around
        # a trivial call, plus the measured time of their describe
        # callbacks, over request time.  The measured overhead is the
        # traced runs' latency against the untraced runs'
        # (steadiness.py --traced)
        "trace.span_cost_share": (
            (sum(1 for s in spans if s[RID] is not None) * span_cost_s()
             + tracer.describe_s) / root_total if root_total else 0.0
        ),
        "trace.uncovered_share": (
            sum(selfs[i] for i in roots) / root_total if root_total else 0.0
        ),
    }
    for name in ("direct", "stepped", "reduceat", "fused"):
        m[f"executor.strategy.{name}"] = strategies.get(name, 0)
    m.update(extra)
    missing = set(LAYER_UNITS) - set(m)
    for name in missing:
        m[name] = 0
    return {k: m[k] for k in LAYER_UNITS}

"""Measurement helpers shared by the workloads.

Percentiles, peak-memory accounting, seeded sub-seeds, the host record
and the result line.  The metric names and units printed by the
benchmark are defined here once (``E2E_UNITS``/``LAYER_UNITS``);
``run.py`` checks them against ``BENCHMARK.json`` before it prints.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: scratch output of a run (host records, span dumps, temp stores);
#: ignored by git
OUT_DIR = HERE / "out"

clock = time.perf_counter

E2E_UNITS = {
    "setup_s": "s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "throughput_rps": "1/s",
    "gflops": "GFLOP/s",
    "slo_met_share": "share",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}

#: request kinds reported per kind (mix.*): served_open's exact-tier hot
#: graphs, fast-tier and delta requests; cold_churn's builds, cache hits
#: and store hits
MIX_KINDS = ("DD", "rPA", "mol4k", "fast", "delta", "build", "hit", "store")

LAYER_UNITS = {
    "reorder.calls": "count",
    "reorder.ms_p50": "ms",
    "reorder.busy_s": "s",
    "formats.tiling_ms_p50": "ms",
    "formats.bittcf_ms_p50": "ms",
    "formats.tc_blocks": "count",
    "formats.block_fill": "share",
    "balance.schedule_ms_p50": "ms",
    "balance.tb_count": "count",
    "executor.compile_ms_p50": "ms",
    "executor.execute_ms_p50": "ms",
    "executor.execute_ms_p50.DD": "ms",
    "executor.execute_ms_p50.rCA": "ms",
    "executor.calls": "count",
    "executor.flops_useful": "flop",
    "executor.flops_issued": "flop",
    "executor.bytes_moved": "B-computed",
    "executor.strategy.direct": "count",
    "executor.strategy.stepped": "count",
    "executor.strategy.reduceat": "count",
    "executor.strategy.fused": "count",
    "fingerprint.calls": "count",
    "fingerprint.ms_p50": "ms",
    "engine.hit_ratio": "share",
    "engine.plans_built": "count",
    "engine.store_hits": "count",
    "engine.evictions": "count",
    "engine.delta_patches": "count",
    "engine.resolve_ms_p50": "ms",
    "store.get_ms_p50": "ms",
    "store.put_ms_p50": "ms",
    "store.bytes_written": "B",
    "store.warm_loaded": "count",
    "store.quarantined": "count",
    "client.rtt_ms_p50": "ms",
    "client.send_wait_ms_p90": "ms",
    "frames.req_bytes_mean": "B",
    "server.batch_size_mean": "count",
    "server.batched_share": "share",
    "server.shed": "count",
    "gen.late_ms_p90": "ms",
    "delta.requests": "count",
    "delta.rtt_ms_p50": "ms",
    # per request kind: served_open's kinds, then cold_churn's outcomes
    **{f"mix.share.{k}": "share" for k in MIX_KINDS},
    **{f"mix.latency_ms_p50.{k}": "ms" for k in MIX_KINDS},
    "baseline.scipy_slowdown_x": "x",
    "trace.latency_ms_p50": "ms",
    "trace.span_cost_share": "share",
    "trace.uncovered_share": "share",
}


# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default rule); 0 when
    there are no samples."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def geomean(values) -> float:
    xs = [v for v in values if v > 0]
    if not xs:
        return 0.0
    return math.exp(sum(math.log(v) for v in xs) / len(xs))


def sub_seed(seed: int, *labels) -> int:
    """A 32-bit seed derived from the workload seed and labels, so every
    input of a run follows from ``--seed`` alone."""
    text = "/".join([str(seed), *map(str, labels)])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "little")


# ----------------------------------------------------------------------
def vm_hwm_mb(pid="self") -> float:
    """Peak resident set (VmHWM) of a process, MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def _reset_hwm() -> bool:
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


class PeakRss:
    """This process's peak RSS with the benchmark's oracle work left out.

    Reference products and other checks run inside :meth:`oracle`; the
    kernel's high-water mark is folded into the running peak before the
    block and reset after it, so their allocations never count.  Where
    the reset is not permitted the oracle's memory does count, and the
    host record says so (``hwm_reset``)."""

    def __init__(self) -> None:
        self.resettable = _reset_hwm()
        self.peak = 0.0

    @contextlib.contextmanager
    def oracle(self):
        self.peak = max(self.peak, vm_hwm_mb())
        try:
            yield
        finally:
            if self.resettable:
                _reset_hwm()

    def value(self) -> float:
        return max(self.peak, vm_hwm_mb())


# ----------------------------------------------------------------------
def _openblas_threads():
    import ctypes
    import glob

    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def source_digest(root: Path) -> str:
    """sha256 over the program's source files (a checkout the benchmark
    runs in need not be a git repository, so this stands in for a
    commit)."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def host_record(root: Path, workload: str, seed: int, trace: bool,
                hwm_reset: bool) -> dict:
    import numpy as np
    import scipy

    blas = (
        np.show_config(mode="dicts")
        .get("Build Dependencies", {})
        .get("blas", {})
    )
    commit = None
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "commit": commit,
        "source_digest": source_digest(root),
        "hwm_reset": hwm_reset,
        "platform": platform.platform(),
    }


def write_out(name: str, payload) -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / name
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))
    return path


def host_probe_ms(reps: int = 7) -> float:
    """Median time of a fixed pure-Python loop: a diagnostic of the
    host's speed at the moment of the call.  Recorded beside each run's
    result, never folded into a metric."""
    times = []
    for _ in range(reps):
        t0 = clock()
        acc = 0
        for k in range(100_000):
            acc += k * k
        times.append((clock() - t0) * 1e3)
    return median(times)


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def engine_counters(before: dict, after: dict) -> dict:
    """Per-layer engine metrics from two engine ``stats`` snapshots
    (the measured phase only)."""

    def d(key):
        return after.get(key, 0) - before.get(key, 0)

    requests = d("hits") + d("misses")
    return {
        "engine.hit_ratio": d("hits") / requests if requests else 0.0,
        "engine.plans_built": d("plans_built"),
        "engine.store_hits": d("store_hits"),
        "engine.evictions": d("evictions"),
        "engine.delta_patches": d("delta_patches"),
    }

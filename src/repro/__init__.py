"""repro — a full reproduction of Acc-SpMM (PPoPP 2025).

Acc-SpMM accelerates general-purpose SpMM on GPU tensor cores with four
coupled techniques: data-affinity-based reordering, the BitTCF compressed
format, a least-bubble double-buffer pipeline, and adaptive sparsity-aware
load balancing.  This package implements the paper's contribution *and*
every substrate it depends on — sparse containers, graph algorithms, six
baseline reorderers, three tiled formats, five rival SpMM kernels, and a
calibrated GPU timing/cache simulator standing in for the RTX 4090 / A800
/ H100 testbeds (see docs/ARCHITECTURE.md for the substitution map).

Quick start::

    import numpy as np
    import repro

    A = repro.load_dataset("DD")                 # Table-2 synthetic twin
    B = np.random.rand(A.n_cols, 128).astype(np.float32)
    C = repro.spmm(A, B, device="a800")          # plans once, caches
    C = repro.spmm(A, B * 2)                     # cache hit: no replan

    p = repro.plan(A, feature_dim=128, device="a800")
    print(p.stats)                                # ordering/format/schedule
    print(p.profile().summary())                  # simulated GFLOPS etc.

Serving repeated traffic (plan-reuse engine, batched right-hand sides)::

    engine = repro.SpMMEngine(capacity=64)
    C = engine.spmm(A, B)                         # cold: builds the plan
    Cs = engine.multiply_many(A, np.stack([B, B]))  # one decompression pass
    print(engine.stats)                           # hits/misses/evictions

Cross-process plan persistence (a new worker skips planning)::

    engine = repro.SpMMEngine(store=repro.PlanStore("/tmp/plans"))
    engine.warm_start()                           # mmap plans from disk
    C = engine.spmm(A, B)                         # cache hit, no replan

Numerics tiers and the per-matrix autotuner (:mod:`repro.tune`)::

    C = repro.spmm(A, B, numerics="fast")         # reassociated, unrounded
    cfg = repro.autotune(A, feature_dim=128)      # tile shape + kernel
    p = repro.plan(A, feature_dim=128, tuned=cfg) # or autotune=True

See ``README.md`` for a tour, ``docs/ARCHITECTURE.md`` for the module
map, ``docs/SERVING.md`` for plan-cache and store semantics, and
``docs/NUMERICS.md`` for tier error bounds and autotuner knobs.
"""

from repro.core import AccConfig, AccPlan, plan, spmm, spmm_many
from repro.serve import (
    AsyncSpMMEngine,
    CacheStats,
    MatrixFingerprint,
    PlanCache,
    SpMMEngine,
    default_engine,
    fingerprint,
    reset_default_engine,
    set_default_engine,
)


def __getattr__(name):
    # lazy, like repro.serve's own store exports: keeps
    # `python -m repro.serve.store` from double-importing the CLI module
    if name == "PlanStore":
        from repro.serve import store

        return store.PlanStore
    # autotune pulls in kernels/gpusim; resolved on first use so
    # `import repro` stays light for policy-only callers
    if name == "autotune":
        from repro.tune.autotune import autotune

        return autotune
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
from repro.errors import (
    ConvergenceError,
    FormatError,
    ReproError,
    SimulationError,
    ValidationError,
)
from repro.gpusim import DEVICES, get_device
from repro.tune import NumericsPolicy, TunedConfig, resolve_policy
from repro.sparse import (
    COOMatrix,
    CSRMatrix,
    GraphDelta,
    coo_to_csr,
    csr_to_coo,
    load_dataset,
    list_datasets,
    load_matrix_market,
    matrix_stats,
    save_matrix_market,
)

__version__ = "1.0.0"

__all__ = [
    "AccConfig",
    "AccPlan",
    "plan",
    "spmm",
    "spmm_many",
    "SpMMEngine",
    "AsyncSpMMEngine",
    "PlanCache",
    "PlanStore",
    "CacheStats",
    "MatrixFingerprint",
    "fingerprint",
    "default_engine",
    "set_default_engine",
    "reset_default_engine",
    "ReproError",
    "ValidationError",
    "FormatError",
    "SimulationError",
    "ConvergenceError",
    "DEVICES",
    "get_device",
    "COOMatrix",
    "CSRMatrix",
    "GraphDelta",
    "coo_to_csr",
    "csr_to_coo",
    "load_dataset",
    "list_datasets",
    "load_matrix_market",
    "save_matrix_market",
    "matrix_stats",
    "NumericsPolicy",
    "resolve_policy",
    "TunedConfig",
    "autotune",
    "__version__",
]

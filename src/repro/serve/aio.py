"""The asyncio facade over :class:`~repro.serve.engine.SpMMEngine`.

:class:`AsyncSpMMEngine` lets an event loop serve SpMM traffic: ``await
engine.multiply(A, B)`` keeps the loop free while the numpy-bound
kernels run on a thread pool, and **coalesces** concurrent misses — M
simultaneous first-requests for one matrix dispatch exactly one plan
resolution, with the other M-1 awaiting the same future
(``stats["async"]["coalesced_waits"]``).

Tenant tags and numerics tiers pass straight through to the wrapped
engine, which resolves request beats tenant pin
(:meth:`~repro.serve.engine.SpMMEngine.set_tenant_numerics`) beats
engine default.  ``docs/CONCURRENCY.md`` covers the coalescing design,
the thread-safety guarantees, and the multi-worker operations runbook;
``docs/NUMERICS.md`` the tier semantics.
"""

from __future__ import annotations

import asyncio
import concurrent.futures as cf
from functools import partial

import numpy as np

from repro.analysis.runtime import audit_guarded, create_lock
from repro.core.config import AccConfig
from repro.errors import EngineClosedError
from repro.gpusim.specs import DeviceSpec, get_device
from repro.serve.engine import SpMMEngine
from repro.serve.fingerprint import MatrixFingerprint, fingerprint
from repro.sparse.convert import coo_to_csr
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix


@audit_guarded
class AsyncSpMMEngine:
    """``await``-able serving front over one :class:`SpMMEngine`.

    The numpy-bound work — fingerprinting, plan resolution, the multiply
    itself — runs on an internal thread pool, so an asyncio server can
    serve SpMM traffic without blocking its event loop::

        engine = AsyncSpMMEngine(capacity=64)
        C = await engine.multiply(A, B, tenant="alice")
        ...
        engine.close()

    Concurrent misses on one matrix are **coalesced**: the first request
    dispatches the plan resolution, the other M-1 await the same future,
    and exactly one plan is built (asserted in
    ``tests/test_engine_concurrency.py``).  A failed resolution propagates
    its exception to every coalesced waiter, and the next request starts
    a fresh attempt.  Cache *hits* are never coalesced — each request
    counts exactly one hit (the probe that finds the plan is
    count-free; the execution counts), keeping the cost-aware policy's
    popularity signal per request.  A resolved miss contributes the
    resolution's miss plus its own execution hit to the cache counters.

    Parameters: pass a ready ``engine`` (a
    :class:`~repro.serve.engine.SpMMEngine`), or keyword arguments to
    build one — e.g. ``AsyncSpMMEngine(store="/var/cache/accspmm")``.
    ``max_workers`` sizes the thread pool (default: Python's
    ``ThreadPoolExecutor`` heuristic).

    The event-loop thread only ever takes dict-sized locks
    (coalescing map, cache probe, tenant counters) — all blocking work
    is on the pool.  One instance serves one event loop at a time;
    worker threads themselves are loop-agnostic.
    """

    #: lock discipline, enforced statically (REP101) and — under
    #: REPRO_LOCK_SANITIZER=1 — dynamically (repro.analysis.runtime)
    _GUARDED_BY_ = {
        "_inflight": "_lock",
        "_requests": "_lock",
        "_resolutions": "_lock",
        "_coalesced_waits": "_lock",
        "_tenants": "_lock",
        "_closing": "_lock",
        "_active": "_lock",
        "_drain_event": "_lock",
    }

    def __init__(self, engine=None, max_workers: int | None = None, **kwargs):
        if engine is None:
            engine = SpMMEngine(**kwargs)
        elif kwargs:
            raise TypeError(
                "pass either a ready engine or SpMMEngine kwargs, "
                f"not both (got engine and {sorted(kwargs)})"
            )
        self.engine = engine
        self._pool = cf.ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="accspmm-async"
        )
        self._lock = create_lock("AsyncSpMMEngine._lock")
        #: plan key -> in-flight plan resolution (the coalescing map)
        self._inflight: dict[tuple, cf.Future] = {}
        self._requests = 0
        self._resolutions = 0
        self._coalesced_waits = 0
        self._tenants: dict[str, dict] = {}
        #: drain protocol: once _closing is set, _begin() rejects new
        #: requests; _active counts requests between _begin and _end,
        #: and the drainer awaits _drain_event until it reaches zero
        self._closing = False
        self._active = 0
        self._drain_event: asyncio.Event | None = None

    # ------------------------------------------------------------------
    def _resolve_key(self, fp, device, config) -> tuple:
        spec = (
            get_device(device) if device is not None
            else self.engine.default_device
        )
        cfg = config or self.engine.default_config
        return (fp.full, spec.name, cfg)

    def _note(self, tenant, field: str) -> None:
        with self._lock:
            if field == "requests":
                self._requests += 1
            elif field == "coalesced_waits":
                self._coalesced_waits += 1
            elif field == "resolutions":
                self._resolutions += 1
            if tenant is not None:
                t = self._tenants.setdefault(
                    str(tenant),
                    {"requests": 0, "resolutions": 0, "coalesced_waits": 0},
                )
                t[field] += 1

    def _begin(self) -> None:
        """Admit one request, or reject it when the engine is draining.

        Every public request path brackets its work in
        ``_begin()``/``_end()`` so :meth:`drain` can wait for exactly
        the requests admitted before it was called."""
        with self._lock:
            if self._closing:
                raise EngineClosedError(
                    "engine is draining; new submissions are rejected"
                )
            self._active += 1

    def _end(self) -> None:
        ev = None
        with self._lock:
            self._active -= 1
            if self._active == 0 and self._closing:
                ev = self._drain_event
        if ev is not None:
            ev.set()

    # ------------------------------------------------------------------
    # hooks for the network front (repro.serve.server)
    # ------------------------------------------------------------------
    async def compute_fingerprint(self, csr) -> MatrixFingerprint:
        """Fingerprint ``csr`` on the pool (hashing a large matrix on
        the event loop would block it).  The server computes the
        fingerprint once, uses it for batch grouping, and passes it
        back down via ``fp=`` so no request hashes twice.  Raises
        :class:`~repro.errors.EngineClosedError` once :meth:`drain` has
        begun, like every other entry point."""
        self._begin()
        try:
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(self._pool, fingerprint, csr)
        finally:
            self._end()

    def resolve_numerics(self, numerics=None, tenant=None):
        """The effective :class:`~repro.tune.NumericsPolicy` for a
        request (see :meth:`SpMMEngine.resolve_numerics`).  The server
        keys its same-fingerprint micro-batches on the resolved tier so
        two tenants pinned to different tiers never coalesce into one
        ``multiply_many``."""
        return self.engine.resolve_numerics(numerics, tenant)

    async def ensure_plan(
        self,
        A: CSRMatrix | COOMatrix,
        feature_dim: int = 128,
        device: DeviceSpec | str | None = None,
        config: AccConfig | None = None,
        tenant=None,
        fp: MatrixFingerprint | None = None,
    ) -> MatrixFingerprint:
        """Resolve (build, store-load, or confirm) the plan for ``A``
        without multiplying — the server's ``submit`` endpoint.

        Coalesces with concurrent misses exactly like
        :meth:`multiply`; returns the matrix fingerprint so the caller
        can report it.  Zero-dimension matrices have no plan and return
        their fingerprint unchanged."""
        self._begin()
        try:
            csr = coo_to_csr(A) if isinstance(A, COOMatrix) else A
            self._note(tenant, "requests")
            if fp is None:
                fp = await self.compute_fingerprint(csr)
            if csr.n_rows == 0 or csr.n_cols == 0:
                return fp
            if self.engine.lookup(fp, device=device, config=config) is None:
                await self._ensure_plan(
                    csr, feature_dim, device, config, fp, tenant
                )
            return fp
        finally:
            self._end()

    async def _ensure_plan(
        self, csr, feature_dim, device, config, fp, tenant
    ) -> None:
        """Resolve a missing plan exactly once per key, however many
        requests arrive while it is in flight."""
        key = self._resolve_key(fp, device, config)
        with self._lock:
            fut = self._inflight.get(key)
            owner = fut is None
            if owner:
                fut = cf.Future()
                # mark RUNNING so no waiter can cancel() the shared
                # future: a timed-out waiter (asyncio.wait_for) must
                # cancel only itself, not poison the other coalesced
                # waiters or the resolver's set_result
                fut.set_running_or_notify_cancel()
                self._inflight[key] = fut
        if owner:
            self._note(tenant, "resolutions")
            self._pool.submit(
                self._run_resolution, key, fut, csr, feature_dim, device,
                config, fp,
            )
        else:
            self._note(tenant, "coalesced_waits")
        await asyncio.wrap_future(fut)

    def _run_resolution(
        self, key, fut, csr, feature_dim, device, config, fp
    ) -> None:
        """Worker-thread half of the coalescing protocol."""
        try:
            result = self.engine.get_plan(
                csr, feature_dim=feature_dim, device=device, config=config,
                fp=fp,
            )
            exc = None
        except BaseException as e:  # noqa: BLE001 - delivered to waiters
            result, exc = None, e
        # retire the in-flight entry *before* waking the waiters: on
        # success the plan is already in the cache, so a new request can
        # only hit; on failure the next request starts a fresh attempt.
        # The reverse order let a waiter observe stats (or a stale
        # future) between set_result and the pop.
        with self._lock:
            self._inflight.pop(key, None)
        if exc is None:
            fut.set_result(result)
        else:
            fut.set_exception(exc)

    # ------------------------------------------------------------------
    async def multiply(
        self,
        A: CSRMatrix | COOMatrix,
        B: np.ndarray,
        device: DeviceSpec | str | None = None,
        config: AccConfig | None = None,
        tenant=None,
        numerics=None,
        fp: MatrixFingerprint | None = None,
        backend=None,
    ) -> np.ndarray:
        """``C = A @ B`` without blocking the event loop.

        ``numerics`` overrides the numerics tier for this request; a
        tagged tenant's pinned tier applies otherwise (see
        :meth:`SpMMEngine.set_tenant_numerics`).  ``backend``
        overrides the execution arm (see :mod:`repro.backend`).  ``fp``
        optionally carries ``A``'s precomputed fingerprint (the server
        passes the one it grouped batches by); it must be the
        fingerprint of *this* ``A``.  Raises
        :class:`~repro.errors.EngineClosedError` once :meth:`drain` has
        begun."""
        self._begin()
        try:
            loop = asyncio.get_running_loop()
            csr = coo_to_csr(A) if isinstance(A, COOMatrix) else A
            B = np.asarray(B)
            self._note(tenant, "requests")
            if csr.n_rows == 0 or csr.n_cols == 0:
                # trivial answer; engine.spmm validates without planning
                return self.engine.spmm(
                    csr, B, device=device, config=config, numerics=numerics,
                    backend=backend, tenant=tenant,
                )
            if fp is None:
                fp = await loop.run_in_executor(self._pool, fingerprint, csr)
            if self.engine.lookup(fp, device=device, config=config) is None:
                await self._ensure_plan(
                    csr, B.shape[-1], device, config, fp, tenant
                )
            return await loop.run_in_executor(
                self._pool,
                partial(
                    self.engine.spmm, csr, B, device=device, config=config,
                    fp=fp, numerics=numerics, backend=backend, tenant=tenant,
                ),
            )
        finally:
            self._end()

    async def multiply_many(
        self,
        A: CSRMatrix | COOMatrix,
        Bs,
        device: DeviceSpec | str | None = None,
        config: AccConfig | None = None,
        tenant=None,
        numerics=None,
        fp: MatrixFingerprint | None = None,
        backend=None,
    ) -> np.ndarray:
        """Batched ``C[i] = A @ Bs[i]`` without blocking the event loop.

        Numerics/backend precedence and the ``fp``/drain contracts match
        :meth:`multiply`."""
        self._begin()
        try:
            loop = asyncio.get_running_loop()
            csr = coo_to_csr(A) if isinstance(A, COOMatrix) else A
            if not isinstance(Bs, np.ndarray):
                Bs = np.stack([np.asarray(b) for b in Bs])
            self._note(tenant, "requests")
            if csr.n_rows == 0 or csr.n_cols == 0:
                return self.engine.multiply_many(
                    csr, Bs, device=device, config=config, numerics=numerics,
                    backend=backend, tenant=tenant,
                )
            if fp is None:
                fp = await loop.run_in_executor(self._pool, fingerprint, csr)
            if self.engine.lookup(fp, device=device, config=config) is None:
                await self._ensure_plan(
                    csr, Bs.shape[-1], device, config, fp, tenant
                )
            return await loop.run_in_executor(
                self._pool,
                partial(
                    self.engine.multiply_many, csr, Bs, device=device,
                    config=config, fp=fp, numerics=numerics, backend=backend,
                    tenant=tenant,
                ),
            )
        finally:
            self._end()

    async def apply_delta(
        self,
        fp: MatrixFingerprint,
        added=None,
        removed=None,
        device: DeviceSpec | str | None = None,
        config: AccConfig | None = None,
        tenant=None,
    ):
        """Patch a cached plan with a structural delta on the pool.

        Wraps the engine's ``apply_delta`` (see
        :meth:`SpMMEngine.apply_delta`): returns ``(new_fingerprint,
        new_plan)``, rejects once :meth:`drain` has begun.  Deltas are
        not coalesced — each request is one patch; streaming callers
        serialise edits per matrix themselves, since two deltas against
        one base fingerprint are independent edits, not duplicates."""
        self._begin()
        try:
            self._note(tenant, "requests")
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(
                self._pool,
                partial(
                    self.engine.apply_delta, fp, added=added,
                    removed=removed, device=device, config=config,
                    tenant=tenant,
                ),
            )
        finally:
            self._end()

    async def warm_start(self, limit: int | None = None) -> int:
        """Preload persisted plans on the pool (see
        :meth:`SpMMEngine.warm_start`)."""
        self._begin()
        try:
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(
                self._pool, self.engine.warm_start, limit
            )
        finally:
            self._end()

    # ------------------------------------------------------------------
    @property
    def stats(self) -> dict:
        """The wrapped engine's stats plus an ``"async"`` sub-dict:
        request/resolution/coalescing counters, the current in-flight
        count, and per-tenant breakdowns for tagged traffic."""
        out = self.engine.stats
        with self._lock:
            out["async"] = {
                "requests": self._requests,
                "resolutions": self._resolutions,
                "coalesced_waits": self._coalesced_waits,
                "inflight": len(self._inflight),
                "active": self._active,
                "draining": self._closing,
                "tenants": {t: dict(c) for t, c in self._tenants.items()},
            }
        return out

    def clear(self) -> None:
        """Clear the wrapped engine and the async counters (not a
        shutdown — the pool keeps serving)."""
        self.engine.clear()
        with self._lock:
            self._requests = 0
            self._resolutions = 0
            self._coalesced_waits = 0
            self._tenants.clear()

    async def drain(self) -> None:
        """Stop gracefully: reject new submissions, let in-flight
        requests complete, then shut the thread pool down.

        After ``drain()`` returns, every request admitted before it was
        called has delivered its result (or exception), every
        subsequent :meth:`multiply`/:meth:`multiply_many`/
        :meth:`ensure_plan`/:meth:`warm_start` raises
        :class:`~repro.errors.EngineClosedError`, and the pool's worker
        threads have exited — the deterministic shutdown a serving
        process needs before dropping its listening socket.  Idempotent:
        a second ``drain()`` returns once the first completes."""
        with self._lock:
            self._closing = True
            idle = self._active == 0
            if not idle and self._drain_event is None:
                self._drain_event = asyncio.Event()
            ev = self._drain_event
        if not idle:
            await ev.wait()
        # every request is done; shutdown(wait=True) only joins threads
        await asyncio.get_running_loop().run_in_executor(
            None, partial(self._pool.shutdown, True)
        )

    def close(self) -> None:
        """Shut the thread pool down (blocks until workers drain).

        The synchronous sibling of :meth:`drain`, for teardown after
        the loop is done serving: new submissions are rejected from the
        moment of the call, work already on the pool finishes first.
        Unlike :meth:`drain` it does not wait for requests still
        awaiting on the event loop — call it when no coroutine is
        mid-request."""
        with self._lock:
            self._closing = True
        self._pool.shutdown(wait=True)

    async def __aenter__(self) -> "AsyncSpMMEngine":
        return self

    async def __aexit__(self, *exc) -> None:
        self.close()


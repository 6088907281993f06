"""The plan-reuse serving engine.

:class:`SpMMEngine` fronts repeated ``C = A @ B`` traffic the way a
production service would: every request is keyed by the *content* of its
sparse operand, plans are built once and reused from a
:class:`~repro.serve.cache.PlanCache` (LRU or cost-aware, optionally
byte-budgeted — entries are charged their measured :func:`plan_nbytes`,
prepared executors included), value-only matrix updates are served by
repacking values into the cached structural plan, and steady-state
multiplies replay each plan's compiled executor
(:mod:`repro.kernels.executor`), so only the B-dependent work runs per
request.  With a :class:`~repro.serve.store.PlanStore` attached
(``store=``), plans additionally persist across processes: misses
consult the store before planning, new plans are written back
atomically, and :meth:`SpMMEngine.warm_start` preloads a fresh worker
from disk so its first request is already a cache hit.

One engine serves many matrices, devices and configs concurrently — the
cache key is ``(fingerprint, device, config)``.  Plans are reused across
feature dimensions: the numeric result of
:meth:`~repro.core.planner.AccPlan.multiply` does not depend on the
``feature_dim`` the plan was built with (only simulated profiles do).
"""

from __future__ import annotations

from dataclasses import replace as dc_replace

import numpy as np

from repro.analysis.runtime import audit_guarded, create_lock
from repro.backend import resolve_backend, validate_backend
from repro.core.config import AccConfig
from repro.core.planner import AccPlan, plan as build_plan
from repro.errors import ValidationError
from repro.gpusim.specs import DeviceSpec, get_device
from repro.serve.cache import PlanCache
from repro.serve.fingerprint import fingerprint
from repro.sparse.convert import coo_to_csr
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.tune.policy import resolve_policy
from repro.util.timing import Timer


def plan_nbytes(plan) -> int:
    """Byte estimate of a cached plan (tiling + values + executor state).

    Duck-typed so :class:`~repro.serve.cache.PlanCache` stays agnostic of
    what it stores; objects without an ``nbytes`` estimator cost 0.
    """
    estimator = getattr(plan, "nbytes", None)
    return int(estimator()) if callable(estimator) else 0


def plan_build_cost(plan) -> float:
    """Rebuild cost of a cached plan in seconds (cost-aware eviction).

    Duck-typed like :func:`plan_nbytes`; plans without a recorded
    ``build_seconds`` cost 0 and are therefore evicted first.
    """
    return float(getattr(plan, "build_seconds", 0.0) or 0.0)


@audit_guarded
class SpMMEngine:
    """Serve repeated SpMM traffic through a content-addressed plan cache.

    Parameters
    ----------
    capacity:
        Maximum number of cached plans (LRU eviction beyond it).
    max_bytes:
        Optional byte budget for the cache: each entry is charged its
        :func:`plan_nbytes` (which includes lazily-built prepared
        executors), and LRU eviction keeps the total under budget.  The
        budget is enforced on inserts and after engine-mediated
        multiplies that compiled executor state; a plan fetched via
        :meth:`get_plan` and multiplied *outside* the engine grows its
        entry silently until the next engine-mediated request re-checks.
    exec_max_bytes:
        Optional per-plan budget for executor tile materialisation;
        plans whose dense tiles would exceed it fall back to lazy
        per-chunk decompression (see :mod:`repro.kernels.executor`).
    store:
        Optional cross-process persistence: a
        :class:`~repro.serve.store.PlanStore` (or a directory path, which
        builds one).  Cache misses consult the store before planning from
        scratch, and newly built plans are persisted back (best-effort,
        write-temp-then-rename).  Corrupt store entries are quarantined
        by the store and served as ordinary misses — the engine's
        counters and byte accounting stay consistent either way.
    policy:
        Eviction policy for the in-memory cache: ``"lru"`` (default) or
        ``"cost"`` — rank entries by recorded ``build_seconds`` times
        observed hit rate, so expensive reorder+tile plans survive
        byte-budget pressure (see :mod:`repro.serve.cache`).
    max_idle_seconds:
        Optional TTL for cached plans: entries not requested for this
        long are expired whenever cache limits are enforced, so a matrix
        that stops arriving stops pinning memory (counted in
        ``stats["expirations"]``; see :mod:`repro.serve.cache`).
    numerics:
        Default numerics tier for requests that do not name their own —
        ``"exact"`` (bit-for-bit, the default), ``"tf32"``, ``"fast"``,
        or a :class:`repro.tune.NumericsPolicy` (see
        ``docs/NUMERICS.md``).  A per-request ``numerics=`` on
        :meth:`spmm`/:meth:`multiply_many` wins over this default.
    autotune:
        Run the per-matrix autotuner (:func:`repro.tune.autotune`) on
        cache-miss builds, baking the winning tile shape, kernel, and
        strategy hint into the plan.  The verdict persists with the plan
        (container v3), so with a store attached tuning happens at most
        once per matrix across processes.
    device, config:
        Defaults applied when a request does not name its own.

    Tenants: :meth:`spmm`, :meth:`multiply_many` and :meth:`apply_delta`
    accept an optional ``tenant=`` tag.  Tagged traffic is counted per
    tenant in ``stats["tenants"]`` and served at the tenant's pinned
    numerics tier (:meth:`set_tenant_numerics`) when one is set: a
    request's own ``numerics=`` beats the tenant pin, which beats the
    engine default.

    Thread safety: one engine serves concurrent threads.  Cache state,
    tenant counters and tenant pins are guarded by one internal lock,
    held only for dict-sized operations — never across a plan build or
    a multiply; per-key build locks serialise concurrent misses on the
    *same* content so exactly one thread builds while same-key requests
    wait and different-key traffic proceeds (see
    ``docs/CONCURRENCY.md``).
    """

    #: lock discipline, enforced statically (REP101) and — under
    #: REPRO_LOCK_SANITIZER=1 — dynamically (repro.analysis.runtime)
    _GUARDED_BY_ = {
        "cache": "_lock",
        "_build_locks": "_lock",
        "_tenants": "_lock",
        "_tenant_numerics": "_lock",
    }

    def __init__(
        self,
        capacity: int = 32,
        device: DeviceSpec | str = "a800",
        config: AccConfig | None = None,
        max_bytes: int | None = None,
        exec_max_bytes: int | None = None,
        store=None,
        policy: str = "lru",
        max_idle_seconds: float | None = None,
        numerics=None,
        autotune: bool = False,
        backend=None,
    ) -> None:
        # the lock exists before the state it guards, so the cache can
        # carry an owner_lock reference for its own held-lock assertion
        self._lock = create_lock("SpMMEngine._lock")
        self.cache = PlanCache(
            capacity=capacity,
            max_bytes=max_bytes,
            size_of=plan_nbytes,
            policy=policy,
            cost_of=plan_build_cost,
            max_idle_seconds=max_idle_seconds,
            owner_lock=self._lock,
        )
        if store is not None and not hasattr(store, "get"):
            from repro.serve.store import PlanStore

            store = PlanStore(root=store)
        self.store = store
        self.default_device = get_device(device)
        self.default_config = config or AccConfig.paper_default()
        self.exec_max_bytes = exec_max_bytes
        #: engine-default numerics tier (validated up front, so a typo
        #: fails at construction rather than on the first request)
        self.default_numerics = resolve_policy(numerics)
        #: engine-default execution arm (name or DeviceBackend instance);
        #: validated by name only — resolution stays lazy so the cupy
        #: probe runs on first use, not at engine construction
        validate_backend(backend)
        self.backend = backend
        self.autotune = bool(autotune)
        #: per-key locks so a slow plan build only blocks same-key requests
        self._build_locks: dict = {}
        #: tenant -> request counters of tagged traffic
        self._tenants: dict[str, dict] = {}
        #: tenant -> NumericsPolicy served when the request itself does
        #: not pass ``numerics=`` (request override always wins)
        self._tenant_numerics: dict[str, object] = {}

    # ------------------------------------------------------------------
    def get_plan(
        self,
        A: CSRMatrix | COOMatrix,
        feature_dim: int = 128,
        device: DeviceSpec | str | None = None,
        config: AccConfig | None = None,
        fp=None,
    ) -> AccPlan:
        """The cached plan for ``A`` on ``device``/``config`` — built,
        value-refreshed, or served straight from the cache.

        ``fp`` may carry a precomputed
        :class:`~repro.serve.fingerprint.MatrixFingerprint` of ``A`` so
        callers that already hashed the matrix — the async facade, the
        server — do not pay for a second content hash.  It must be
        the fingerprint of *this* ``A``; no cross-check is performed.
        """
        csr = coo_to_csr(A) if isinstance(A, COOMatrix) else A
        spec = get_device(device) if device is not None else self.default_device
        cfg = config or self.default_config
        fp = fp if fp is not None else fingerprint(csr)
        key = (fp.full, spec.name, cfg)
        structural_key = (fp.structural, spec.name, cfg)
        with self._lock:
            cached = self.cache.get(key)
            if cached is not None:
                return cached
            build_lock = self._build_locks.setdefault(
                key, create_lock("SpMMEngine.build_lock")
            )
        # build outside the engine lock: a slow plan build must not stall
        # cache hits on other matrices; same-key requests queue here
        with build_lock:
            try:
                with self._lock:
                    cached = self.cache.peek(key)  # built while we waited?
                    if cached is not None:
                        return cached
                    base = self.cache.peek_structural(structural_key)
                # resolution order: in-memory structural repack is the
                # cheapest miss path, then the on-disk store (mmap load,
                # no replan), then a full build.  Store I/O and plan
                # builds run outside the engine lock.
                p = None
                outcome = "refresh" if base is not None else None
                if base is None and self.store is not None:
                    p = self.store.get(fp, spec.name, cfg)  # never raises
                    outcome = "store" if p is not None else None
                    if p is not None:
                        # same policy as value refresh: a previous
                        # process opting into the reassociating adaptive
                        # strategy must not silently extend to this one;
                        # likewise the writer's materialisation budget —
                        # this engine re-applies its own below.  "tuned"
                        # is deliberately NOT scrubbed: it is derived
                        # from the matrix, not from any requester's
                        # policy, and dropping it would waste the
                        # amortised autotuning.
                        p.tc_plan.meta.pop("exec_mode", None)
                        p.tc_plan.meta.pop("exec_max_bytes", None)
                if p is None and base is not None:
                    p = self._refresh_values(base, csr)
                if p is None:
                    p = build_plan(
                        csr,
                        feature_dim=feature_dim,
                        device=spec,
                        config=cfg,
                        autotune=self.autotune,
                    )
                    outcome = "build"
                if self.exec_max_bytes is not None:
                    p.tc_plan.meta["exec_max_bytes"] = self.exec_max_bytes
                if outcome == "build" and self.store is not None:
                    # compile the executor now, before persisting, so the
                    # stored entry carries the exec structural payload —
                    # without this the engine always wrote plans before
                    # any executor existed and warm-started workers
                    # re-derived exec preparation from scratch
                    p.prepare(feature_dim)
                with self._lock:
                    stats = self.cache.stats
                    if outcome == "refresh":
                        stats.value_refreshes += 1
                    elif outcome == "store":
                        stats.store_hits += 1
                    else:
                        stats.plans_built += 1
                        if self.store is not None:
                            stats.store_misses += 1
                    self.cache.put(key, p, structural_key=structural_key)
                if outcome == "build" and self.store is not None:
                    # best-effort persistence (atomic write-then-rename);
                    # failures are counted on the store, never raised.
                    # Only full builds are persisted: value refreshes
                    # under training traffic would write one multi-MB
                    # entry per weight update, keyed by values digests
                    # that never recur
                    self.store.put(fp, spec.name, cfg, p)
                return p
            finally:
                with self._lock:
                    self._build_locks.pop(key, None)

    def lookup(
        self,
        fp,
        device: DeviceSpec | str | None = None,
        config: AccConfig | None = None,
    ) -> AccPlan | None:
        """Cache-only probe by fingerprint: the plan, or ``None``.

        Count-free: neither outcome touches the hit/miss counters, LRU
        order, or TTL recency — the follow-up :meth:`spmm`/:meth:`get_plan`
        that acts on the answer counts the request exactly once.  Never
        builds, never touches the store: this is the non-blocking fast
        path the async facade probes before deciding to coalesce a
        resolution (see :class:`~repro.serve.aio.AsyncSpMMEngine`).
        """
        spec = get_device(device) if device is not None else self.default_device
        cfg = config or self.default_config
        key = (fp.full, spec.name, cfg)
        with self._lock:
            return self.cache.peek(key)

    def apply_delta(
        self,
        fp,
        added=None,
        removed=None,
        device: DeviceSpec | str | None = None,
        config: AccConfig | None = None,
        tenant=None,
    ):
        """Derive, cache, and persist a plan for a structural edit.

        ``fp`` is the fingerprint of the *base* matrix, which must be
        resolvable — from the in-memory cache or the attached store;
        streaming callers serve the full matrix once, then send deltas.
        ``added``/``removed`` follow
        :meth:`~repro.core.planner.AccPlan.apply_delta` (``added`` may be
        a prebuilt :class:`~repro.sparse.delta.GraphDelta`).  Returns
        ``(new_fingerprint, new_plan)``; the derived plan is inserted
        under its own content key, so follow-up :meth:`spmm` traffic on
        the edited matrix is a pure cache hit, and chained deltas can
        name ``new_fingerprint`` as their base.

        With a store attached, the delta itself is persisted as a chain
        link (:meth:`~repro.serve.store.PlanStore.put_delta`), falling
        back to a full plan write when the chain would grow past the
        store's depth bound.  ``apply_delta`` is pure on the base plan,
        so concurrent deltas on one base need no per-key build lock —
        last insert wins under the engine lock.  ``tenant`` tags the
        request in ``stats["tenants"]``.
        """
        from repro.sparse.delta import GraphDelta

        self._note_tenant(tenant, "requests")
        spec = get_device(device) if device is not None else self.default_device
        cfg = config or self.default_config
        if isinstance(added, GraphDelta):
            if removed is not None:
                raise ValidationError(
                    "pass either a GraphDelta or added/removed arrays, not both"
                )
            delta = added
        else:
            delta = GraphDelta.from_edges(added=added, removed=removed)
        key = (fp.full, spec.name, cfg)
        with self._lock:
            base = self.cache.get(key)
        if base is None and self.store is not None:
            base = self.store.get(fp, spec.name, cfg)  # never raises
            if base is not None:
                with self._lock:
                    self.cache.stats.store_hits += 1
                self._adopt(base)  # scrubs policy as a store hit does
        if base is None:
            raise ValidationError(
                "no cached or stored plan for the delta's base fingerprint; "
                "serve the full matrix once before streaming deltas against it"
            )
        new_plan = base.apply_delta(delta)
        if self.exec_max_bytes is not None:
            new_plan.tc_plan.meta["exec_max_bytes"] = self.exec_max_bytes
        new_fp = fingerprint(new_plan.csr)
        new_key = (new_fp.full, spec.name, cfg)
        new_structural = (new_fp.structural, spec.name, cfg)
        with self._lock:
            self.cache.stats.delta_patches += 1
            self.cache.put(new_key, new_plan, structural_key=new_structural)
        if self.store is not None:
            # best-effort persistence: a chain link when the base is on
            # disk and the chain stays within depth, else a full plan
            stored = self.store.put_delta(
                fp, new_fp, spec.name, cfg, delta,
                build_seconds=new_plan.build_seconds,
            )
            if not stored:
                self.store.put(new_fp, spec.name, cfg, new_plan)
        return new_fp, new_plan

    @staticmethod
    def _refresh_values(base: AccPlan, csr: CSRMatrix) -> AccPlan:
        """New plan for a value-only change: repack values through the
        cached structural plan (reorder/tiling/schedule are reused)."""
        tc = base.tc_plan
        timer = Timer()
        with timer:
            same_layout = tc.reorder.row_perm.is_identity()
            csr_r = csr if same_layout else tc.reorder.apply(csr)
            vals_packed = csr_r.vals[tc.tiling.perm_nnz]
            # dc_replace is shallow and meta is mutable (exec_mode /
            # exec_max_bytes live there): give the refreshed plan its own
            # copy so later prepare() calls cannot leak across plans, and
            # drop any user-requested exec_mode — opting the *old* values
            # into the reassociating adaptive strategy must not silently
            # extend to a new matrix.  exec_max_bytes stays: the engine
            # owns it.  exec_cache is init=False, so the stale executor —
            # which bakes the old values in — is dropped automatically.
            meta = dict(tc.meta)
            meta.pop("exec_mode", None)
            new_tc = dc_replace(
                tc,
                csr_reordered=csr_r,
                vals_packed=vals_packed,
                meta=meta,
            )
        return AccPlan(
            csr=csr,
            config=base.config,
            device=base.device,
            feature_dim=base.feature_dim,
            tc_plan=new_tc,
            build_seconds=timer.elapsed,
            kernel=base.kernel,
        )

    # ------------------------------------------------------------------
    def warm_start(self, limit: int | None = None) -> int:
        """Preload persisted plans into the in-memory cache.

        Selects the most-expensive-to-rebuild entries (bounded by
        ``limit`` and the cache capacity, so no plan is deserialised
        just to be evicted) and inserts them *cheapest-first*, leaving
        the expensive plans at the MRU end — if byte pressure evicts
        during warm-up, it discards what is cheapest to rebuild.  The
        hit/miss counters are untouched: warm-start is provisioning,
        not traffic.  Returns the number of plans inserted; 0 when no
        store is attached.

        After ``warm_start()``, requests for stored content are pure
        cache hits: no planning, no store I/O (verifiable via
        ``stats["plans_built"] == 0``).
        """
        if self.store is None:
            return 0
        entries = sorted(
            self.store.entries(), key=lambda e: -e.build_seconds
        )
        cap = self.capacity if limit is None else min(limit, self.capacity)
        loaded = 0
        for entry in reversed(entries[:cap]):
            plan_obj = self.store._load(entry.path)
            if plan_obj is not None and self._adopt(plan_obj):
                loaded += 1
        return loaded

    def _adopt(self, plan_obj: AccPlan) -> bool:
        """Insert a store-loaded plan into the cache (warm-start and
        delta-base paths).

        Applies the same policy scrubbing as a store hit (the writer's
        ``exec_mode``/``exec_max_bytes`` must not leak into this
        engine), then inserts under the engine lock.  The fingerprint is
        recomputed from the loaded arrays, which doubles as an integrity
        check on the mapped data.  Returns ``False`` when the content is
        already cached.
        """
        # scrub requester policy, keep the matrix-derived "tuned" verdict
        plan_obj.tc_plan.meta.pop("exec_mode", None)
        plan_obj.tc_plan.meta.pop("exec_max_bytes", None)
        if self.exec_max_bytes is not None:
            plan_obj.tc_plan.meta["exec_max_bytes"] = self.exec_max_bytes
        fp = fingerprint(plan_obj.csr)
        key = (fp.full, plan_obj.device.name, plan_obj.config)
        structural_key = (
            fp.structural, plan_obj.device.name, plan_obj.config
        )
        with self._lock:
            if key in self.cache:
                return False
            self.cache.put(key, plan_obj, structural_key=structural_key)
        return True

    # ------------------------------------------------------------------
    def spmm(
        self,
        A: CSRMatrix | COOMatrix,
        B: np.ndarray,
        device: DeviceSpec | str | None = None,
        config: AccConfig | None = None,
        fp=None,
        numerics=None,
        backend=None,
        tenant=None,
    ) -> np.ndarray:
        """``C = A @ B`` through the plan cache.

        Zero-dimension operands (e.g. an empty mini-batch selection) are
        answered directly — their product is trivially empty and the
        planner cannot tile them.  ``fp`` optionally carries ``A``'s
        precomputed fingerprint (see :meth:`get_plan`).  ``numerics``
        overrides the tenant's pinned tier and the engine default for
        this request only (see :meth:`resolve_numerics`); ``backend``
        likewise overrides the engine's execution arm (see
        :mod:`repro.backend`); ``tenant`` tags the request in
        ``stats["tenants"]``."""
        B = np.asarray(B)  # dtype coercion is AccPlan.multiply's job
        csr = coo_to_csr(A) if isinstance(A, COOMatrix) else A
        self._note_tenant(tenant, "requests")
        if csr.n_rows == 0 or csr.n_cols == 0:
            if B.ndim != 2 or B.shape[0] != csr.n_cols:
                raise ValidationError(
                    f"B must be ({csr.n_cols}, N); got {B.shape}"
                )
            return np.zeros((csr.n_rows, B.shape[1]), dtype=np.float32)
        policy = self.resolve_numerics(numerics, tenant)
        p = self.get_plan(
            csr, feature_dim=B.shape[-1], device=device, config=config, fp=fp
        )
        eff_backend = backend if backend is not None else self.backend
        was_prepared = self._is_prepared(p, B.shape[-1], policy)
        C = p.multiply(B, numerics=policy, backend=eff_backend)
        # only a multiply that built executor state can have grown the
        # entry enough to matter; steady-state hits skip the re-check
        # (and its O(entries) byte walk under the engine lock)
        if not was_prepared:
            self.enforce_limits()
        return C

    def multiply_many(
        self,
        A: CSRMatrix | COOMatrix,
        Bs,
        device: DeviceSpec | str | None = None,
        config: AccConfig | None = None,
        fp=None,
        numerics=None,
        backend=None,
        tenant=None,
    ) -> np.ndarray:
        """Batched ``C[i] = A @ Bs[i]`` through the plan cache.

        ``Bs`` is a ``(batch, n_cols, N)`` array or a sequence of 2-D
        matrices; the cached plan's tiles are decompressed once for the
        whole batch (one device upload on the cupy arm).  ``fp``,
        ``numerics``, ``backend`` and ``tenant`` behave as in
        :meth:`spmm`; a tagged request also counts as one of the
        tenant's ``batched_requests``.
        """
        if not isinstance(Bs, np.ndarray):
            Bs = np.stack([np.asarray(b) for b in Bs])
        csr = coo_to_csr(A) if isinstance(A, COOMatrix) else A
        self._note_tenant(tenant, "requests", "batched_requests")
        if csr.n_rows == 0 or csr.n_cols == 0:
            if Bs.ndim != 3 or Bs.shape[1] != csr.n_cols:
                raise ValidationError(
                    f"Bs must be (batch, {csr.n_cols}, N); got {Bs.shape}"
                )
            return np.zeros(
                (Bs.shape[0], csr.n_rows, Bs.shape[2]), dtype=np.float32
            )
        policy = self.resolve_numerics(numerics, tenant)
        p = self.get_plan(
            csr, feature_dim=Bs.shape[-1], device=device, config=config, fp=fp
        )
        eff_backend = backend if backend is not None else self.backend
        was_prepared = self._is_prepared(p, Bs.shape[-1], policy)
        Cs = p.multiply_many(Bs, numerics=policy, backend=eff_backend)
        if not was_prepared:
            self.enforce_limits()
        return Cs

    @staticmethod
    def _is_prepared(p: AccPlan, feature_dim: int, numerics=None) -> bool:
        """True when a multiply at ``feature_dim`` under ``numerics``
        will compile nothing (that tier's executor is built and its
        chunk program for this N-class cached)."""
        ex = p.executor_for(numerics)
        return ex is not None and ex.is_prepared_for(feature_dim)

    # ------------------------------------------------------------------
    # tenants
    # ------------------------------------------------------------------
    def _note_tenant(self, tenant, *fields: str) -> None:
        if tenant is None:
            return
        with self._lock:
            t = self._tenants.setdefault(
                str(tenant), {"requests": 0, "batched_requests": 0}
            )
            for field in fields:
                t[field] += 1

    def set_tenant_numerics(self, tenant, numerics) -> None:
        """Pin (or clear) a tenant's default numerics tier.

        ``numerics`` is a tier name or
        :class:`~repro.tune.NumericsPolicy`; ``None`` clears the pin so
        the tenant falls back to the engine default.  The tier applies
        to every subsequent tagged request that does not carry its own
        ``numerics=`` override."""
        if tenant is None:
            raise ValueError("tenant must not be None")
        if numerics is None:
            with self._lock:
                self._tenant_numerics.pop(str(tenant), None)
            return
        policy = resolve_policy(numerics)  # validate outside the lock
        with self._lock:
            self._tenant_numerics[str(tenant)] = policy

    def tenant_numerics_for(self, tenant):
        """The tenant's pinned :class:`~repro.tune.NumericsPolicy`, or
        ``None`` when unpinned (engine default applies)."""
        if tenant is None:
            return None
        with self._lock:
            return self._tenant_numerics.get(str(tenant))

    def resolve_numerics(self, numerics=None, tenant=None):
        """The effective :class:`~repro.tune.NumericsPolicy` for a
        request: request override > tenant pin > engine default."""
        if numerics is None:
            numerics = self.tenant_numerics_for(tenant)
        if numerics is None:
            return self.default_numerics
        return resolve_policy(numerics)

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Slot capacity of the in-memory cache (a lock-held read, so
        callers never see the cache mid-mutation)."""
        with self._lock:
            return self.cache.capacity

    @property
    def stats(self) -> dict:
        """Cache counters plus occupancy and executor-prep accounting.

        The cache counters (``hits``/``misses``/``evictions``/...) are
        lifetime totals; ``cached_bytes``, ``prepared_*`` and
        ``prep_hits``/``prep_misses`` are *point-in-time* sums over the
        currently cached plans — they shrink when a prepared plan is
        evicted.  With a store attached, a ``"store"`` sub-dict reports
        this process's store traffic (hits/misses/puts/quarantines) —
        in-memory counters only; use ``engine.store.as_dict()`` for the
        on-disk entry count and byte footprint (it scans the directory).
        A ``"backend"`` sub-dict names the execution arm serving this
        engine's default traffic; on the cupy arm it includes transfer
        counts and resident ``device_bytes`` (see ``docs/GPU.md``).
        ``"tenants"`` maps each tagged tenant to its ``requests`` and
        ``batched_requests`` counters and, when pinned, its
        ``numerics`` tier.

        One consistent snapshot: counters, occupancy and configuration
        are all read under a single hold of the engine lock, so the
        reported numbers describe one moment of the cache rather than a
        torn mix (this was historically a set of unlocked reads — the
        exact class of bug REP101 now flags).
        """
        with self._lock:
            plans = self.cache.values()
            cached_bytes = self.cache.total_bytes()
            counters = self.cache.stats.as_dict()
            capacity = self.cache.capacity
            max_bytes = self.cache.max_bytes
            policy = self.cache.policy
            tenants = {t: dict(c) for t, c in self._tenants.items()}
            for t, pol in self._tenant_numerics.items():
                tenants.setdefault(t, {})["numerics"] = pol.tier
        # exec_cache is a mode-keyed dict: count plans with at least one
        # compiled executor, sum prep accounting over every mode
        per_plan = [
            list(
                (
                    getattr(getattr(p, "tc_plan", None), "exec_cache", None)
                    or {}
                ).values()
            )
            for p in plans
        ]
        executors = [ex for exs in per_plan for ex in exs]
        out = {
            **counters,
            "cached_plans": len(plans),
            "capacity": capacity,
            "cached_bytes": cached_bytes,
            "max_bytes": max_bytes,
            "policy": policy,
            "prepared_plans": sum(1 for exs in per_plan if exs),
            "prepared_bytes": sum(ex.nbytes for ex in executors),
            "prep_hits": sum(ex.stats.prep_hits for ex in executors),
            "prep_misses": sum(ex.stats.prep_misses for ex in executors),
        }
        # the resolved arm serving this engine's default traffic; on the
        # cupy arm the info carries transfers/device_bytes accounting
        out["backend"] = resolve_backend(self.backend).info()
        if self.store is not None:
            out["store"] = self.store.counters()
        out["tenants"] = tenants
        return out

    def enforce_limits(self) -> None:
        """Run the cache's TTL/byte/capacity enforcement now (ops
        cadence hook: steady all-hit traffic never inserts, so idle
        entries otherwise outlive ``max_idle_seconds`` until the next
        insert)."""
        with self._lock:
            self.cache.enforce_limits()

    def clear(self) -> None:
        """Drop every cached plan and reset the counters (tenant
        numerics pins stay)."""
        with self._lock:
            self.cache.clear()
            self.cache.reset_stats()
            self._build_locks.clear()
            self._tenants.clear()


# ----------------------------------------------------------------------
# process-wide default engine (what `repro.spmm` routes through)
# ----------------------------------------------------------------------
_default_engine: SpMMEngine | None = None
_default_lock = create_lock("repro.serve.engine._default_lock")


def default_engine():
    """The lazily-created process-wide engine behind :func:`repro.spmm`.

    Byte-budgeted rather than merely slot-bounded: each cached plan pins
    the matrix, its reordered copy, the tiling, and (once multiplied) its
    prepared executor, so the cache is capped at 256 MB of measured plan
    bytes — which lets the slot count be generous for small-matrix
    traffic.  Traffic that wants a bigger working set should build its
    own :class:`SpMMEngine` (and may install it process-wide via
    :func:`set_default_engine`); one-off multiplications should pass
    ``use_cache=False``.
    """
    global _default_engine
    with _default_lock:
        if _default_engine is None:
            _default_engine = SpMMEngine(capacity=64, max_bytes=256 << 20)
        return _default_engine


def set_default_engine(engine) -> None:
    """Install ``engine`` as the process-wide default behind
    :func:`repro.spmm` (opt-in; e.g. a store-backed or larger
    :class:`SpMMEngine`).  Any object with the engine interface
    (``spmm``/``multiply_many``/``stats``/``clear``) works.  Plans
    cached by the previous default are dropped with it."""
    global _default_engine
    with _default_lock:
        _default_engine = engine


def reset_default_engine() -> None:
    """Discard the process-wide engine (tests; freeing cached plans).

    The next :func:`default_engine` call lazily recreates the standard
    single-engine default — including after :func:`set_default_engine`.
    """
    global _default_engine
    with _default_lock:
        _default_engine = None

"""Concurrent/async engines, tenants, TTL eviction, store sharding,
version compat.

Acceptance criteria: M simultaneous misses on one matrix build exactly
one plan (threaded and async, asserted via stats), tagged traffic is
counted per tenant, ``max_idle_seconds`` expires idle entries in both
the in-memory cache and the on-disk store — never one used since the
cutoff — warm start from a directory-sharded store serves with
``plans_built == 0``, and v1-format containers still load after the v2
container-version bump.
"""

from __future__ import annotations

import asyncio
import struct
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro
from repro.errors import EngineClosedError, StoreVersionError
from repro.serve import (
    AsyncSpMMEngine,
    SpMMEngine,
    default_engine,
    fingerprint,
    reset_default_engine,
    set_default_engine,
)
from repro.serve.cache import PlanCache
from repro.serve.serial import (
    MIN_PLAN_FORMAT_VERSION,
    PLAN_FORMAT_VERSION,
    plan_from_bytes,
    read_header,
)
from repro.serve.store import PlanStore
from repro.sparse.convert import coo_to_csr
from repro.sparse.csr import CSRMatrix
from repro.sparse.random import erdos_renyi


def make_csr(seed=0, n=256, deg=8.0):
    return coo_to_csr(erdos_renyi(n, avg_degree=deg, seed=seed))


def make_b(csr, n=32, seed=9):
    r = np.random.default_rng(seed)
    return r.uniform(-1.0, 1.0, size=(csr.n_cols, n)).astype(np.float32)


def with_values(csr: CSRMatrix, vals: np.ndarray) -> CSRMatrix:
    return CSRMatrix(csr.n_rows, csr.n_cols, csr.indptr, csr.indices, vals)


def patched_version(data: bytes, version: int) -> bytes:
    """A container blob with its fixed-head version field rewritten."""
    out = bytearray(data)
    struct.pack_into("<I", out, 8, version)
    return bytes(out)


# ----------------------------------------------------------------------
# tenants and the count-free probe
# ----------------------------------------------------------------------
class TestTenants:
    def test_tenant_stats(self):
        eng = SpMMEngine()
        A = make_csr(seed=4)
        B = make_b(A)
        eng.spmm(A, B, tenant="alice")
        eng.spmm(A, B, tenant="alice")
        eng.multiply_many(A, np.stack([B, B]), tenant="bob")
        eng.spmm(A, B)  # untagged traffic is not tracked
        t = eng.stats["tenants"]
        assert t["alice"] == {"requests": 2, "batched_requests": 0}
        assert t["bob"] == {"requests": 1, "batched_requests": 1}
        assert len(t) == 2
        eng.clear()
        assert eng.stats["tenants"] == {}

    def test_lookup_is_count_free(self):
        eng = SpMMEngine()
        A = make_csr(seed=5)
        fp = fingerprint(A)
        assert eng.lookup(fp) is None
        assert eng.stats["misses"] == 0  # miss left for get_plan to count
        eng.spmm(A, make_b(A))
        assert eng.lookup(fp) is not None
        assert eng.stats["hits"] == 0  # probe never counts; spmm will


# ----------------------------------------------------------------------
# concurrency: exactly-one-build, identical results
# ----------------------------------------------------------------------
def run_stress(eng, matrices, n_threads=16):
    """All threads hammer all matrices; first arrivals race the miss."""
    barrier = threading.Barrier(n_threads)
    refs = {
        i: SpMMEngine().spmm(A, make_b(A, seed=i))
        for i, A in enumerate(matrices)
    }
    failures = []

    def worker(tid):
        barrier.wait()
        for i, A in enumerate(matrices):
            C = eng.spmm(A, make_b(A, seed=i))
            if not np.array_equal(C, refs[i]):
                failures.append((tid, i))

    with ThreadPoolExecutor(n_threads) as pool:
        list(pool.map(worker, range(n_threads)))
    assert not failures


class TestConcurrentAccess:
    N_THREADS = 16

    def _stress(self, eng, matrices):
        run_stress(eng, matrices, self.N_THREADS)

    def test_exactly_one_build_under_simultaneous_misses(self):
        eng = SpMMEngine()
        self._stress(eng, [make_csr(seed=7)])
        s = eng.stats
        assert s["plans_built"] == 1  # 16 threads, one matrix, one build
        assert s["requests"] == self.N_THREADS

    def test_exactly_one_build_per_matrix_mixed_workload(self):
        eng = SpMMEngine()
        matrices = [make_csr(seed=s) for s in range(4)]
        self._stress(eng, matrices)
        assert eng.stats["plans_built"] == len(matrices)


# ----------------------------------------------------------------------
# the same stress, under the runtime lock sanitizer (PR 6)
# ----------------------------------------------------------------------
class TestSanitizedStress:
    """16-thread stress with REPRO_LOCK_SANITIZER semantics active.

    Engines are built *after* enabling, so every engine/build/tenant
    lock is a TrackedLock and every ``_GUARDED_BY_`` field read is
    audited; the acceptance bar is zero lock-order inversions and zero
    unlocked guarded-field accesses under real contention.
    """

    N_THREADS = 16

    @pytest.fixture
    def sanitizer(self):
        from repro.analysis import runtime as rt

        rt.enable()
        rt.reset()
        rt.install_guard_audit()
        yield rt
        rt.uninstall_guard_audit()
        rt.disable()
        rt.reset()

    def test_engine_stress_is_violation_free(self, sanitizer):
        eng = SpMMEngine()
        run_stress(eng, [make_csr(seed=s) for s in range(3)], self.N_THREADS)
        _ = eng.stats  # the historically-racy snapshot path
        assert eng.stats["plans_built"] == 3
        assert sanitizer.violations() == []

    def test_tenant_traffic_is_violation_free(self, sanitizer):
        eng = SpMMEngine()
        eng.set_tenant_numerics("t1", "fast")
        A = make_csr(seed=31)
        B = make_b(A)
        per_thread = 8

        def worker(tid):
            for _ in range(per_thread):
                eng.spmm(A, B, tenant=f"t{tid % 2}")
                eng.tenant_numerics_for(f"t{tid % 2}")

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # provoke lost counter updates
        try:
            with ThreadPoolExecutor(self.N_THREADS) as pool:
                list(pool.map(worker, range(self.N_THREADS)))
        finally:
            sys.setswitchinterval(old)
        t = eng.stats["tenants"]
        assert t["t0"]["requests"] == t["t1"]["requests"] == (
            self.N_THREADS // 2 * per_thread
        )
        assert t["t1"]["numerics"] == "fast"
        assert sanitizer.violations() == []

    def test_store_backed_stress_is_violation_free(
        self, sanitizer, tmp_path
    ):
        store = PlanStore(tmp_path / "plans", shards=2)
        eng = SpMMEngine(store=store)
        run_stress(eng, [make_csr(seed=41)], self.N_THREADS)
        warm = SpMMEngine(store=PlanStore(tmp_path / "plans", shards=2))
        assert warm.warm_start() == 1
        _ = warm.stats
        assert sanitizer.violations() == []

    def test_async_traffic_is_violation_free(self, sanitizer):
        A = make_csr(seed=51)
        B = make_b(A)

        async def main():
            async with AsyncSpMMEngine() as eng:
                await asyncio.gather(
                    *[eng.multiply(A, B, tenant=f"t{i % 2}") for i in range(8)]
                )
                return eng.stats

        stats = asyncio.run(main())
        assert stats["plans_built"] == 1
        assert sanitizer.violations() == []


# ----------------------------------------------------------------------
# the async facade
# ----------------------------------------------------------------------
class TestAsyncEngine:
    def test_concurrent_misses_coalesce_to_one_build(self):
        A = make_csr(seed=10)
        B = make_b(A)
        ref = SpMMEngine().spmm(A, B)
        M = 12
        release = threading.Event()

        async def main():
            async with AsyncSpMMEngine() as eng:
                fp = await eng.compute_fingerprint(A)
                inner = eng.engine.get_plan

                def gated_get_plan(*args, **kwargs):
                    # hold the build until every request has joined the
                    # coalescer — otherwise a straggler whose turn comes
                    # after the build completes is a plain warm hit and
                    # coalesced_waits undercounts (a real race this test
                    # used to lose ~10% of the time)
                    assert release.wait(30)
                    return inner(*args, **kwargs)

                eng.engine.get_plan = gated_get_plan
                tasks = [
                    asyncio.ensure_future(
                        eng.multiply(A, B, tenant=f"t{i % 3}", fp=fp)
                    )
                    for i in range(M)
                ]
                # with fp precomputed there is no await before the
                # coalescing registration, so one loop pass runs every
                # task up to its wait on the shared in-flight future
                await asyncio.sleep(0)
                release.set()
                outs = await asyncio.gather(*tasks)
                return outs, eng.stats

        outs, stats = asyncio.run(main())
        for C in outs:
            assert np.array_equal(C, ref)
        assert stats["plans_built"] == 1
        a = stats["async"]
        assert a["requests"] == M
        assert a["resolutions"] == 1
        assert a["coalesced_waits"] == M - 1
        assert a["inflight"] == 0
        assert sum(t["requests"] for t in a["tenants"].values()) == M
        assert sum(t["resolutions"] for t in a["tenants"].values()) == 1

    def test_async_multiply_many_and_warm_hits(self):
        A = make_csr(seed=11)
        Bs = np.stack([make_b(A, seed=s) for s in range(2)])
        ref = SpMMEngine()

        async def main():
            async with AsyncSpMMEngine() as eng:
                Cs = await eng.multiply_many(A, Bs)
                C0 = await eng.multiply(A, Bs[0])  # warm: no coalescing
                return Cs, C0, eng.stats

        Cs, C0, stats = asyncio.run(main())
        assert np.array_equal(Cs[0], ref.spmm(A, Bs[0]))
        assert np.array_equal(Cs[1], ref.spmm(A, Bs[1]))
        assert np.array_equal(C0, Cs[0])
        assert stats["plans_built"] == 1
        assert stats["async"]["resolutions"] == 1

    def test_wraps_an_existing_engine(self):
        inner = SpMMEngine()
        A = make_csr(seed=12)
        B = make_b(A)

        async def main():
            async with AsyncSpMMEngine(engine=inner) as eng:
                return await eng.multiply(A, B)

        C = asyncio.run(main())
        assert np.array_equal(C, inner.get_plan(A).multiply(B))
        assert inner.stats["plans_built"] == 1

    def test_engine_and_kwargs_conflict(self):
        with pytest.raises(TypeError):
            AsyncSpMMEngine(engine=SpMMEngine(), capacity=4)

    def test_async_hit_counts_exactly_once_per_request(self):
        A = make_csr(seed=15)
        B = make_b(A)

        async def main():
            async with AsyncSpMMEngine() as eng:
                for _ in range(3):
                    await eng.multiply(A, B)
                return eng.stats

        stats = asyncio.run(main())
        # request 1: resolution miss + execution hit; requests 2-3: one
        # hit each (the count-free probe never double-counts)
        assert stats["misses"] == 1
        assert stats["hits"] == 3
        assert stats["requests"] == 4

    def test_cancelled_waiter_does_not_poison_coalesced_peers(self):
        A = make_csr(seed=16)
        B = make_b(A)
        ref = SpMMEngine().spmm(A, B)

        async def main():
            async with AsyncSpMMEngine() as eng:
                impatient = asyncio.create_task(
                    asyncio.wait_for(eng.multiply(A, B), timeout=1e-4)
                )
                patient = asyncio.create_task(eng.multiply(A, B))
                timed_out = False
                try:
                    await impatient
                except asyncio.TimeoutError:
                    timed_out = True
                C = await patient  # must not see the peer's cancellation
                return C, timed_out, eng.stats

        C, timed_out, stats = asyncio.run(main())
        assert np.array_equal(C, ref)
        assert stats["plans_built"] == 1
        # the build outlasts the 100us timeout, so the impatient waiter
        # timed out — and only it (otherwise this test proved nothing)
        assert timed_out

    def test_zero_dim_async(self):
        empty = CSRMatrix(
            0, 8, np.zeros(1, np.int64), np.zeros(0, np.int64),
            np.zeros(0, np.float32),
        )

        async def main():
            async with AsyncSpMMEngine() as eng:
                return await eng.multiply(
                    empty, np.zeros((8, 4), dtype=np.float32)
                )

        assert asyncio.run(main()).shape == (0, 4)


# ----------------------------------------------------------------------
# TTL / staleness: in-memory cache
# ----------------------------------------------------------------------
class TestCacheTTL:
    def test_idle_entries_expire_used_entries_survive(self):
        t = [0.0]
        c = PlanCache(capacity=8, max_idle_seconds=10.0, clock=lambda: t[0])
        c.put(("a",), 1)
        c.put(("b",), 2)
        t[0] = 8.0
        assert c.get(("b",)) == 2  # refreshes b's recency
        t[0] = 15.0  # a idle 15s (> 10), b idle 7s
        c.enforce_limits()
        assert ("a",) not in c and ("b",) in c
        assert c.stats.expirations == 1 and c.stats.evictions == 0

    def test_ttl_may_empty_the_cache(self):
        t = [0.0]
        c = PlanCache(capacity=8, max_idle_seconds=5.0, clock=lambda: t[0])
        c.put(("a",), 1)
        t[0] = 100.0
        assert c.expire_idle() == 1
        assert len(c) == 0

    def test_insert_driven_expiry(self):
        t = [0.0]
        c = PlanCache(capacity=8, max_idle_seconds=5.0, clock=lambda: t[0])
        c.put(("a",), 1)
        t[0] = 50.0
        c.put(("b",), 2)  # put() enforces limits -> expires a
        assert ("a",) not in c and ("b",) in c

    def test_structural_index_follows_expiry(self):
        t = [0.0]
        c = PlanCache(capacity=8, max_idle_seconds=5.0, clock=lambda: t[0])
        c.put(("a", "v1"), 1, structural_key=("a",))
        t[0] = 50.0
        c.expire_idle()
        assert c.peek_structural(("a",)) is None

    def test_validated(self):
        with pytest.raises(ValueError):
            PlanCache(max_idle_seconds=0.0)

    def test_engine_level_ttl(self):
        eng = SpMMEngine(max_idle_seconds=30.0)
        t = [0.0]
        eng.cache.clock = lambda: t[0]
        A, A2 = make_csr(seed=13), make_csr(seed=14)
        eng.spmm(A, make_b(A))
        t[0] = 60.0  # A idle past the TTL
        eng.spmm(A2, make_b(A2))  # insert sweeps the idle entry
        s = eng.stats
        assert s["expirations"] == 1 and s["cached_plans"] == 1
        # the expired matrix is replanned on its next appearance
        eng.spmm(A, make_b(A))
        assert eng.stats["plans_built"] == 3

    def test_enforce_limits_expires_idle_entries(self):
        # the ops cadence hook: all-hit traffic never inserts, so only
        # an explicit sweep expires what went idle
        eng = SpMMEngine(max_idle_seconds=30.0)
        t = [0.0]
        eng.cache.clock = lambda: t[0]
        mats = [make_csr(seed=s) for s in range(4)]
        for A in mats:
            eng.spmm(A, make_b(A))
        assert eng.stats["cached_plans"] == 4
        t[0] = 100.0
        eng.enforce_limits()
        s = eng.stats
        assert s["cached_plans"] == 0 and s["expirations"] == 4


# ----------------------------------------------------------------------
# TTL / staleness: the on-disk store
# ----------------------------------------------------------------------
class TestStoreTTL:
    def _populated(self, tmp_path, n=2):
        store = PlanStore(tmp_path)
        for seed in range(n):
            A = make_csr(seed=seed)
            p = repro.plan(A, feature_dim=16)
            assert store.put(fingerprint(A), p.device.name, p.config, p)
        return store

    def test_gc_drops_idle_keeps_recently_used(self, tmp_path):
        import os
        import time

        store = self._populated(tmp_path, n=2)
        e_old, e_new = store.entries()
        # age both below the cutoff is impossible via mtime alone (the
        # header's saved_at also counts) — so move "now" forward instead
        # and refresh one entry the way real traffic would (a load)
        now = time.time() + 7200.0
        os.utime(e_new.path, times=(now - 10.0, now - 10.0))
        evicted = store.gc(max_idle_seconds=3600.0, now=now)
        assert [e.path for e in evicted] == [e_old.path]
        remaining = store.entries()
        assert [e.path for e in remaining] == [e_new.path]

    def test_gc_never_evicts_used_since_cutoff(self, tmp_path):
        import time

        store = self._populated(tmp_path, n=3)
        # everything was just written: nothing is idle
        assert store.gc(max_idle_seconds=3600.0, now=time.time()) == []
        assert len(store.entries()) == 3

    def test_load_refreshes_recency(self, tmp_path):
        import os
        import time

        store = self._populated(tmp_path, n=1)
        A = make_csr(seed=0)
        p = repro.plan(A, feature_dim=16)
        (entry,) = store.entries()
        ancient = time.time() - 10_000.0
        os.utime(entry.path, times=(ancient, ancient))
        assert store.get(fingerprint(A), p.device.name, p.config) is not None
        (entry,) = store.entries()
        assert entry.mtime > ancient + 5000.0  # load bumped the mtime

    def test_configured_ttl_applies_on_put(self, tmp_path):
        import os

        store = PlanStore(tmp_path, max_idle_seconds=3600.0)
        A0 = make_csr(seed=0)
        p0 = repro.plan(A0, feature_dim=16)
        store.put(fingerprint(A0), p0.device.name, p0.config, p0)
        # put() runs gc when a TTL is configured; fresh entries survive
        assert len(store.entries()) == 1
        assert store.max_idle_seconds == 3600.0
        assert store.as_dict()["max_idle_seconds"] == 3600.0
        assert os.path.isdir(tmp_path)

    def test_validated(self, tmp_path):
        with pytest.raises(ValueError):
            PlanStore(tmp_path, max_idle_seconds=-1.0)

    def test_gc_race_ghost_entry_does_not_evict_live_ones(self, tmp_path):
        # a concurrent gc deletes the cheapest entry between this gc's
        # directory scan and its unlink: the ghost's bytes must leave
        # the budget total instead of forcing live entries out to
        # "make room" for a file that no longer occupies any
        store = PlanStore(tmp_path)
        for seed, cost in ((0, 0.001), (1, 100.0)):
            A = make_csr(seed=seed)
            p = repro.plan(A, feature_dim=16)
            p.build_seconds = cost  # ghost evicts first, live last
            assert store.put(fingerprint(A), p.device.name, p.config, p)
        stale = sorted(store.entries(), key=lambda e: e.build_seconds)
        ghost, live = stale[0], stale[1]
        ghost.path.unlink()  # the "concurrent" gc
        store.entries = lambda now=None: stale  # this gc saw the pre-race scan
        evicted = store.gc(max_bytes=live.nbytes)
        assert evicted == []  # ghost not reported, live not sacrificed
        assert live.path.is_file()

    def test_gc_ttl_race_ghost_entry_is_not_reported(self, tmp_path):
        import time

        store = self._populated(tmp_path, n=2)
        stale = store.entries()
        stale[0].path.unlink()
        store.entries = lambda now=None: stale
        evicted = store.gc(
            max_idle_seconds=3600.0, now=time.time() + 7200.0
        )
        # both are idle; only the one still on disk is evicted/reported
        assert [e.path for e in evicted] == [stale[1].path]


# ----------------------------------------------------------------------
# store directory sharding
# ----------------------------------------------------------------------
class TestStoreSharding:
    def test_entries_land_in_shard_dirs(self, tmp_path):
        store = PlanStore(tmp_path, shards=4)
        digests = []
        for seed in range(6):
            A = make_csr(seed=seed)
            p = repro.plan(A, feature_dim=16)
            fp = fingerprint(A)
            assert store.put(fp, p.device.name, p.config, p)
            digests.append(store.digest(fp, p.device.name, p.config))
        for d in digests:
            path = store.path_for(d)
            assert path.parent.name.startswith("shard-")
            assert path.is_file()
        assert len(store.entries()) == 6

    def test_round_trip_through_shards(self, tmp_path):
        store = PlanStore(tmp_path, shards=8)
        A = make_csr(seed=1)
        B = make_b(A)
        p = repro.plan(A, feature_dim=16)
        C0 = p.multiply(B)
        store.put(fingerprint(A), p.device.name, p.config, p)
        p2 = store.get(fingerprint(A), p.device.name, p.config)
        assert p2 is not None
        assert np.array_equal(C0, p2.multiply(B))

    def test_same_digest_same_dir_any_process(self, tmp_path):
        a = PlanStore(tmp_path, shards=4)
        b = PlanStore(tmp_path, shards=4)
        d = "deadbeef" * 4
        assert a.path_for(d) == b.path_for(d)

    def test_maintenance_scans_mixed_layouts(self, tmp_path):
        flat = PlanStore(tmp_path)  # unsharded writer
        A = make_csr(seed=2)
        p = repro.plan(A, feature_dim=16)
        flat.put(fingerprint(A), p.device.name, p.config, p)
        sharded = PlanStore(tmp_path, shards=4)  # sharded writer, same tree
        A2 = make_csr(seed=3)
        p2 = repro.plan(A2, feature_dim=16)
        sharded.put(fingerprint(A2), p2.device.name, p2.config, p2)
        # both openers see both entries; gc covers both layouts
        assert len(flat.entries()) == 2
        assert len(sharded.entries()) == 2
        assert len(sharded.gc(max_bytes=0)) == 2
        assert sharded.entries() == []

    def test_quarantine_from_shard_dir(self, tmp_path):
        store = PlanStore(tmp_path, shards=4)
        A = make_csr(seed=4)
        p = repro.plan(A, feature_dim=16)
        fp = fingerprint(A)
        store.put(fp, p.device.name, p.config, p)
        path = store.path_for(store.digest(fp, p.device.name, p.config))
        path.write_bytes(b"garbage")
        assert store.get(fp, p.device.name, p.config) is None
        assert store.stats.quarantined == 1
        assert (store.quarantine_dir / path.name).is_file()

    def test_engine_warm_starts_from_sharded_tree(self, tmp_path):
        eng = SpMMEngine(store=PlanStore(tmp_path, shards=4))
        A = make_csr(seed=5)
        B = make_b(A)
        C0 = eng.spmm(A, B)
        # a second worker warm-starts from the shared sharded tree
        eng2 = SpMMEngine(store=PlanStore(tmp_path, shards=4))
        assert eng2.warm_start() == 1
        assert np.array_equal(C0, eng2.spmm(A, B))
        s = eng2.stats
        assert s["plans_built"] == 0 and s["hits"] == 1

    def test_engine_store_from_path_is_flat(self, tmp_path):
        eng = SpMMEngine(store=tmp_path)
        assert eng.store.shards is None

    def test_warm_start_respects_capacity(self, tmp_path):
        # 3 persisted plans, capacity 1: exactly one plan may be
        # deserialised — loading the others just to evict them is the
        # waste warm_start avoids
        store = PlanStore(tmp_path)
        for seed in range(3):
            A = make_csr(seed=seed)
            p = repro.plan(A, feature_dim=16)
            assert store.put(fingerprint(A), p.device.name, p.config, p)
        eng = SpMMEngine(capacity=1, store=tmp_path)
        assert eng.warm_start() == 1
        assert eng.stats["cached_plans"] == 1
        assert eng.stats["evictions"] == 0

    def test_warm_start_limit_spends_on_priciest_plans(self, tmp_path):
        cheap, pricey = make_csr(seed=6), make_csr(seed=7)
        store = PlanStore(tmp_path)
        for A, cost in ((cheap, 0.001), (pricey, 100.0)):
            p = repro.plan(A, feature_dim=16)
            p.build_seconds = cost
            assert store.put(fingerprint(A), p.device.name, p.config, p)
        eng = SpMMEngine(store=tmp_path)
        assert eng.warm_start(limit=1) == 1
        assert eng.lookup(fingerprint(pricey)) is not None
        assert eng.lookup(fingerprint(cheap)) is None

    def test_shards_validated(self, tmp_path):
        with pytest.raises(ValueError):
            PlanStore(tmp_path, shards=0)


# ----------------------------------------------------------------------
# container version bump: v1 compat, error messages
# ----------------------------------------------------------------------
class TestVersionCompat:
    def test_current_version_is_four_reads_back_to_one(self):
        assert PLAN_FORMAT_VERSION == 4
        assert MIN_PLAN_FORMAT_VERSION == 1

    def test_v1_container_round_trips(self):
        # a v1 container is the v2 layout minus the saved_at header
        # field, which readers default — rewriting the version word
        # reproduces a pre-bump blob exactly as the parser sees it
        A = make_csr(seed=20)
        B = make_b(A)
        p = repro.plan(A, feature_dim=16)
        C0 = p.multiply(B)
        v1 = patched_version(p.to_bytes(), 1)
        header, _ = read_header(v1)
        assert header["format_version"] == 1
        p2 = plan_from_bytes(v1)
        assert np.array_equal(C0, p2.multiply(B))

    def test_v1_store_entry_still_serves(self, tmp_path):
        store = PlanStore(tmp_path)
        A = make_csr(seed=21)
        B = make_b(A)
        p = repro.plan(A, feature_dim=16)
        fp = fingerprint(A)
        path = store.path_for(store.digest(fp, p.device.name, p.config))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(patched_version(p.to_bytes(), 1))
        p2 = store.get(fp, p.device.name, p.config)
        assert p2 is not None and store.stats.quarantined == 0
        assert np.array_equal(p.multiply(B), p2.multiply(B))
        # v1 headers have no saved_at; recency falls back to mtime
        (entry,) = store.entries()
        assert entry.last_used == entry.mtime

    def test_unknown_version_reports_found_and_expected(self):
        A = make_csr(seed=22)
        data = patched_version(repro.plan(A, feature_dim=16).to_bytes(), 99)
        with pytest.raises(StoreVersionError) as exc_info:
            plan_from_bytes(data)
        msg = str(exc_info.value)
        assert "found plan format version 99" in msg
        assert f"{MIN_PLAN_FORMAT_VERSION}..{PLAN_FORMAT_VERSION}" in msg

    def test_quarantine_reason_names_both_versions(self, tmp_path):
        store = PlanStore(tmp_path)
        A = make_csr(seed=23)
        p = repro.plan(A, feature_dim=16)
        fp = fingerprint(A)
        path = store.path_for(store.digest(fp, p.device.name, p.config))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(patched_version(p.to_bytes(), 7))
        assert store.get(fp, p.device.name, p.config) is None
        reason = (
            store.quarantine_dir / f"{path.name}.reason"
        ).read_text()
        assert "found plan format version 7" in reason
        assert f"{MIN_PLAN_FORMAT_VERSION}..{PLAN_FORMAT_VERSION}" in reason

    def test_saved_at_recorded_in_v2_headers(self, tmp_path):
        import time

        before = time.time()
        store = PlanStore(tmp_path)
        A = make_csr(seed=24)
        p = repro.plan(A, feature_dim=16)
        store.put(fingerprint(A), p.device.name, p.config, p)
        (entry,) = store.entries()
        assert entry.meta is not None
        assert before <= float(entry.meta["saved_at"]) <= time.time()
        assert entry.last_used >= before


# ----------------------------------------------------------------------
# the process-wide default engine opt-in
# ----------------------------------------------------------------------
class TestDefaultEngine:
    def teardown_method(self):
        reset_default_engine()

    def test_set_default_engine_routes_repro_spmm(self):
        eng = SpMMEngine(capacity=4)
        set_default_engine(eng)
        assert default_engine() is eng
        A = make_csr(seed=30)
        B = make_b(A)
        C = repro.spmm(A, B)
        assert eng.stats["plans_built"] == 1
        assert np.array_equal(C, SpMMEngine().spmm(A, B))
        repro.spmm(A, B)
        assert eng.stats["hits"] == 1

    def test_reset_restores_standard_default(self):
        custom = SpMMEngine(capacity=4)
        set_default_engine(custom)
        reset_default_engine()
        assert default_engine() is not custom
        assert isinstance(default_engine(), SpMMEngine)


# ----------------------------------------------------------------------
# drain vs in-flight warm_start (regression: the drain protocol must
# bracket *every* admitted pool submission, warm_start included)
# ----------------------------------------------------------------------
class TestDrainDuringWarmStart:
    def test_drain_waits_for_admitted_warm_start(self):
        """drain() during an in-flight warm_start(): no deadlock, the
        admitted warm-up still delivers its result, new work is
        rejected the moment draining begins."""
        inner = SpMMEngine()
        entered = threading.Event()
        release = threading.Event()

        def gated_warm_start(limit=None):
            entered.set()
            assert release.wait(10), "warm_start was never released"
            return 7

        inner.warm_start = gated_warm_start
        A = make_csr(seed=41)
        B = make_b(A)

        async def main():
            loop = asyncio.get_running_loop()
            eng = AsyncSpMMEngine(engine=inner, max_workers=2)
            warm = asyncio.create_task(eng.warm_start())
            # the warm-up is admitted and running on the pool...
            await loop.run_in_executor(None, entered.wait, 10)
            drain = asyncio.create_task(eng.drain())
            await asyncio.sleep(0.05)
            # ...so the drain must still be waiting on it
            assert not drain.done()
            assert eng.stats["async"]["draining"]
            # and anything submitted after drain() began is rejected
            with pytest.raises(EngineClosedError):
                await eng.multiply(A, B)
            with pytest.raises(EngineClosedError):
                await eng.warm_start()
            release.set()
            warmed = await asyncio.wait_for(warm, timeout=10)
            await asyncio.wait_for(drain, timeout=10)
            # idempotent: a second drain returns immediately
            await asyncio.wait_for(eng.drain(), timeout=10)
            return warmed

        assert asyncio.run(main()) == 7

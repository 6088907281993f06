"""Streaming-path integration tests: delta chains through the store,
the engines, and the server — plus the clock-domain TTL regressions.

Three families of behaviour, matching ``docs/STREAMING.md``:

* **clock domains** — ``StoreEntry.last_used`` must discard recency
  signals that run *ahead* of the reader's clock (a skewed writer's
  ``saved_at`` previously pinned entries immortal against every TTL),
  and ``PlanCache.peek_structural`` must count as a use for the cache
  TTL (a plan serving pure value-refresh traffic was expired
  mid-stream);
* **chains** — ``put_delta`` links persist at the edited matrix's
  content address, resolve transparently (and bit-for-bit) through
  ``get``, are depth-bounded, compact during gc, and are never orphaned
  by base eviction;
* **serving** — ``apply_delta`` on the engines derives/caches/persists
  patched plans, a warm-started engine serves a whole delta chain as
  cache hits, and the server's ``delta`` endpoint patches plans over the
  wire with results identical to shipping the edited matrix whole.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import threading

import numpy as np
import pytest

import repro
from conftest import bits_equal, make_b, random_csr
from repro.core.config import AccConfig
from repro.errors import ServerError, ValidationError
from repro.serve import serial
from repro.serve.cache import CacheStats, PlanCache
from repro.serve.engine import SpMMEngine
from repro.serve.fingerprint import fingerprint
from repro.serve.aio import AsyncSpMMEngine
from repro.serve.server import ServerConfig, SpMMClient, SpMMServer
from repro.serve.store import PlanStore
from repro.sparse.delta import GraphDelta

CFG = AccConfig.paper_default()
DEV = "a800"


def put_full(store, csr, feature_dim=16):
    """Plan ``csr`` and persist it; returns (fingerprint, plan)."""
    p = repro.plan(csr, feature_dim=feature_dim)
    fp = fingerprint(csr)
    assert store.put(fp, DEV, CFG, p)
    return fp, p


# ----------------------------------------------------------------------
# clock domains (the bugfix sweep)
# ----------------------------------------------------------------------
class TestStoreClockDomains:
    def _entry(self, store, tmp_path, monkeypatch, saved_at, mtime):
        """One stored plan with controlled saved_at and mtime."""
        monkeypatch.setattr(serial, "_wall_clock", lambda: saved_at)
        fp, _ = put_full(store, random_csr(32, 32, seed=1))
        path = store.path_for(store.digest(fp, DEV, CFG))
        os.utime(path, (mtime, mtime))
        return fp, path

    def test_future_saved_at_no_longer_pins_entry_alive(
        self, tmp_path, monkeypatch
    ):
        """The regression: a writer whose wall clock ran ahead stamped
        ``saved_at`` in the future; taking max(mtime, saved_at) made the
        entry's idle time negative forever — immortal to every TTL."""
        store = PlanStore(root=tmp_path, clock=lambda: 1000.0)
        self._entry(store, tmp_path, monkeypatch, saved_at=5e9, mtime=900.0)
        (entry,) = store.entries()
        assert entry.last_used == 900.0  # foreign-domain signal discarded
        removed = store.gc(max_idle_seconds=50.0)
        assert len(removed) == 1  # idle 100s > 50s: evicted, not immortal

    def test_newest_in_domain_signal_wins(self, tmp_path, monkeypatch):
        store = PlanStore(root=tmp_path, clock=lambda: 1000.0)
        self._entry(store, tmp_path, monkeypatch, saved_at=950.0, mtime=900.0)
        (entry,) = store.entries()
        assert entry.last_used == 950.0
        assert store.gc(max_idle_seconds=60.0) == []  # idle 50s < 60s

    def test_every_signal_ahead_falls_back_to_scan_time(
        self, tmp_path, monkeypatch
    ):
        """When the *local* clock stepped backwards (all signals ahead),
        idle time reads 0 — eviction waits for the clock to recover
        rather than dropping entries on a clock glitch."""
        store = PlanStore(root=tmp_path, clock=lambda: 1000.0)
        self._entry(store, tmp_path, monkeypatch, saved_at=2000.0, mtime=1500.0)
        (entry,) = store.entries()
        assert entry.last_used == 1000.0
        assert store.gc(max_idle_seconds=1.0) == []

    def test_unstamped_scan_keeps_legacy_semantics(
        self, tmp_path, monkeypatch
    ):
        from repro.serve.store import StoreEntry

        e = StoreEntry(
            digest="d", path=tmp_path, nbytes=0, mtime=900.0,
            meta={"saved_at": 950.0}, kind="accplan", now=None,
        )
        assert e.last_used == 950.0  # no domain to clamp into


class TestCacheTTLTouch:
    def _cache(self, clock):
        return PlanCache(capacity=4, max_idle_seconds=10.0, clock=clock)

    class _Plan:
        nbytes = 8

    def test_peek_structural_counts_as_a_use(self):
        t = [0.0]
        cache = self._cache(lambda: t[0])
        cache.put(("k",), self._Plan(), structural_key=("s",))
        t[0] = 9.0
        assert cache.peek_structural(("s",)) is not None  # touch
        t[0] = 15.0  # idle since touch: 6s < 10s
        assert cache.expire_idle() == 0
        assert ("k",) in cache

    def test_untouched_entry_still_expires(self):
        t = [0.0]
        cache = self._cache(lambda: t[0])
        cache.put(("k",), self._Plan(), structural_key=("s",))
        t[0] = 15.0
        assert cache.expire_idle() == 1
        assert ("k",) not in cache

    def test_plain_peek_does_not_touch(self):
        t = [0.0]
        cache = self._cache(lambda: t[0])
        cache.put(("k",), self._Plan())
        t[0] = 9.0
        assert cache.peek(("k",)) is not None
        t[0] = 15.0
        assert cache.expire_idle() == 1

    def test_stats_report_delta_patches(self):
        stats = CacheStats()
        assert stats.as_dict()["delta_patches"] == 0
        stats.delta_patches += 1
        assert stats.as_dict()["delta_patches"] == 1


# ----------------------------------------------------------------------
# delta chains in the store
# ----------------------------------------------------------------------
def grow_chain(store, csr, n_links, feature_dim=16, seed=100):
    """Persist a full plan and ``n_links`` chained deltas; returns the
    per-link (fingerprint, plan) list, base first."""
    fp, p = put_full(store, csr, feature_dim)
    out = [(fp, p)]
    rng = np.random.default_rng(seed)
    for i in range(n_links):
        delta = GraphDelta.from_edges(
            added=[
                (int(rng.integers(csr.n_rows)), int(rng.integers(csr.n_cols)),
                 float(rng.uniform(0.2, 1.0)))
                for _ in range(3)
            ]
        )
        new_p = out[-1][1].apply_delta(delta)
        new_fp = fingerprint(new_p.csr)
        assert store.put_delta(out[-1][0], new_fp, DEV, CFG, delta)
        out.append((new_fp, new_p))
    return out


class TestStoreDeltaChains:
    def test_chained_get_resolves_bit_for_bit(self, tmp_path):
        store = PlanStore(root=tmp_path)
        chain = grow_chain(store, random_csr(48, 48, seed=3), n_links=4)
        kinds = {e.chain_depth: e.kind for e in store.entries()}
        assert kinds == {
            0: "accplan", 1: "accdelta", 2: "accdelta",
            3: "accdelta", 4: "accdelta",
        }
        for fp, want in chain:
            got = store.get(fp, DEV, CFG)
            assert got is not None
            B = make_b(want.csr, n=8)
            assert bits_equal(got.multiply(B), want.multiply(B))

    def test_depth_bound_rejects_overlong_chain(self, tmp_path):
        store = PlanStore(root=tmp_path)
        chain = grow_chain(
            store, random_csr(32, 32, seed=4),
            n_links=PlanStore.MAX_CHAIN_DEPTH,
        )
        fp, p = chain[-1]
        delta = GraphDelta.from_edges(added=[(0, 0, 1.0)])
        over = p.apply_delta(delta)
        assert not store.put_delta(fp, fingerprint(over.csr), DEV, CFG, delta)

    def test_put_delta_without_base_returns_false(self, tmp_path):
        store = PlanStore(root=tmp_path)
        csr = random_csr(16, 16, seed=5)
        p = repro.plan(csr, feature_dim=16)
        delta = GraphDelta.from_edges(added=[(0, 0, 1.0)])
        new_fp = fingerprint(p.apply_delta(delta).csr)
        assert not store.put_delta(fingerprint(csr), new_fp, DEV, CFG, delta)

    def test_gc_compacts_deep_links_in_place(self, tmp_path):
        store = PlanStore(root=tmp_path)
        chain = grow_chain(store, random_csr(48, 48, seed=6), n_links=5)
        store.gc(compact_depth=3)
        by_digest = {e.digest: e for e in store.entries()}
        for depth, (fp, want) in enumerate(chain):
            e = by_digest[store.digest(fp, DEV, CFG)]
            assert e.kind == ("accdelta" if 0 < depth < 3 else "accplan")
            got = store.get(fp, DEV, CFG)
            B = make_b(want.csr, n=8)
            assert bits_equal(got.multiply(B), want.multiply(B))

    def test_eviction_never_orphans_a_dependent(self, tmp_path, monkeypatch):
        """TTL-evicting a chain's base compacts its surviving dependent
        to a full plan first; the dependent keeps resolving."""
        clock = [900.0]
        store = PlanStore(root=tmp_path, clock=lambda: clock[0])
        monkeypatch.setattr(serial, "_wall_clock", lambda: clock[0])
        (base_fp, _), (leaf_fp, leaf_plan) = grow_chain(
            store, random_csr(40, 40, seed=7), n_links=1
        )
        base_path = store.path_for(store.digest(base_fp, DEV, CFG))
        leaf_path = store.path_for(store.digest(leaf_fp, DEV, CFG))
        os.utime(base_path, (900.0, 900.0))    # base: idle 100s at gc time
        os.utime(leaf_path, (995.0, 995.0))    # leaf: idle 5s at gc time
        clock[0] = 1000.0
        removed = store.gc(max_idle_seconds=50.0)
        assert [e.digest for e in removed] == [base_path.stem]
        (survivor,) = store.entries()
        assert survivor.kind == "accplan"  # compacted, not orphaned
        got = store.get(leaf_fp, DEV, CFG)
        B = make_b(leaf_plan.csr, n=8)
        assert bits_equal(got.multiply(B), leaf_plan.multiply(B))


# ----------------------------------------------------------------------
# engines
# ----------------------------------------------------------------------
class TestEngineDelta:
    def test_unknown_base_is_a_validation_error(self):
        eng = SpMMEngine()
        fp = fingerprint(random_csr(16, 16, seed=8))
        with pytest.raises(ValidationError, match="serve the full matrix"):
            eng.apply_delta(fp, added=[(0, 0, 1.0)])

    def test_derived_plan_serves_as_pure_cache_hit(self):
        eng = SpMMEngine()
        csr = random_csr(48, 48, seed=9)
        B = make_b(csr, n=16)
        eng.spmm(csr, B)
        new_fp, new_plan = eng.apply_delta(
            fingerprint(csr), added=[(0, 1, 0.5)], removed=[(1, 1)]
        )
        assert eng.stats["delta_patches"] == 1
        misses_before = eng.stats["misses"]
        C = eng.spmm(new_plan.csr, B)
        assert eng.stats["misses"] == misses_before  # no rebuild
        assert bits_equal(C, new_plan.multiply(B))

    def test_chain_restored_by_a_fresh_engine(self, tmp_path):
        store_root = tmp_path / "store"
        eng = SpMMEngine(store=PlanStore(root=store_root))
        csr = random_csr(48, 48, seed=10)
        B = make_b(csr, n=16)
        eng.spmm(csr, B)
        fp1, p1 = eng.apply_delta(fingerprint(csr), added=[(2, 3, 1.5)])
        fp2, p2 = eng.apply_delta(fp1, removed=[(2, 3)])
        # a second process: resolves mid-chain bases from disk alone
        eng2 = SpMMEngine(store=PlanStore(root=store_root))
        fp3, p3 = eng2.apply_delta(fp2, added=[(5, 5, 2.0)])
        want = p2.apply_delta(GraphDelta.from_edges(added=[(5, 5, 2.0)]))
        assert fp3.full == fingerprint(want.csr).full
        assert bits_equal(p3.multiply(B), want.multiply(B))

    def test_warm_started_chain_serves_as_hits(self, tmp_path):
        store_root = tmp_path / "store"
        eng = SpMMEngine(store=PlanStore(root=store_root))
        csr = random_csr(48, 48, seed=13)
        B = make_b(csr, n=16)
        eng.spmm(csr, B)
        fp1, p1 = eng.apply_delta(fingerprint(csr), added=[(7, 7, 0.5)])
        fp2, p2 = eng.apply_delta(fp1, added=[(9, 1, 0.25)])
        # a fresh engine warm-starts the whole chain from disk
        eng2 = SpMMEngine(store=PlanStore(root=store_root))
        assert eng2.warm_start() == 3
        for want in (p1, p2):
            C = eng2.spmm(want.csr, B)
            assert bits_equal(C, want.multiply(B))
        s = eng2.stats
        assert s["plans_built"] == 0 and s["misses"] == 0
        assert s["hits"] == 2

    def test_async_facade_applies_deltas(self):
        async def run():
            async with AsyncSpMMEngine() as eng:
                csr = random_csr(32, 32, seed=14)
                B = make_b(csr, n=8)
                await eng.multiply(csr, B)
                fp = await eng.compute_fingerprint(csr)
                new_fp, new_plan = await eng.apply_delta(
                    fp, added=[(3, 3, 1.0)], tenant="t0"
                )
                C = await eng.multiply(new_plan.csr, B)
                assert bits_equal(C, new_plan.multiply(B))
                assert new_fp.full != fp.full
                assert eng.stats["tenants"]["t0"]["requests"] == 1

        asyncio.run(run())


# ----------------------------------------------------------------------
# the server's delta endpoint
# ----------------------------------------------------------------------
@contextlib.contextmanager
def live_server(**cfg_kw):
    started = threading.Event()
    box = {}

    async def serve():
        server = SpMMServer(
            engine=AsyncSpMMEngine(),
            config=ServerConfig(**cfg_kw),
        )
        box["server"] = server
        box["addr"] = await server.start()
        box["loop"] = asyncio.get_running_loop()
        box["stop"] = asyncio.Event()
        started.set()
        await box["stop"].wait()
        await server.stop()

    thread = threading.Thread(target=lambda: asyncio.run(serve()), daemon=True)
    thread.start()
    assert started.wait(30), "server failed to start"
    try:
        yield box
    finally:
        box["loop"].call_soon_threadsafe(box["stop"].set)
        thread.join(30)
        assert not thread.is_alive(), "server failed to stop"


class TestServerDelta:
    def test_delta_endpoint_round_trip(self):
        csr = random_csr(48, 48, seed=15)
        B = make_b(csr, n=16)
        edits = dict(added=[(0, 1, 0.5), (17, 3, 1.25)], removed=[(2, 2)])
        with live_server() as box:
            host, port = box["addr"]
            with SpMMClient(host, port) as c:
                rec = c.submit(csr, feature_dim=B.shape[1])["fingerprint"]
                # patch only: edits travel, no matrix payload
                rec2 = c.delta(rec, **edits)
                new_csr = GraphDelta.from_edges(**edits).apply_to(csr)
                assert rec2["nnz"] == new_csr.indices.size
                # patch + multiply in one round trip, micro-batched
                C, rec3 = c.delta(rec, B=B, **edits)
                assert rec3 == rec2
                # same bits as shipping the edited matrix whole
                assert bits_equal(C, c.multiply(new_csr, B))
                metrics = c.metrics()
        assert metrics["server"]["deltas"] == 2
        assert metrics["server"]["internal_errors"] == 0

    def test_chained_deltas_over_the_wire(self):
        csr = random_csr(40, 40, seed=16)
        B = make_b(csr, n=8)
        with live_server() as box:
            host, port = box["addr"]
            with SpMMClient(host, port) as c:
                rec = c.submit(csr, feature_dim=B.shape[1])["fingerprint"]
                cur = csr
                for step in range(3):
                    edits = dict(added=[(step, 5, float(step + 1))])
                    C, rec = c.delta(rec, B=B, **edits)
                    cur = GraphDelta.from_edges(**edits).apply_to(cur)
                    assert bits_equal(C, c.multiply(cur, B))

    def test_unknown_base_maps_to_bad_request(self):
        csr = random_csr(16, 16, seed=17)
        with live_server() as box:
            host, port = box["addr"]
            with SpMMClient(host, port) as c:
                with pytest.raises(ServerError) as err:
                    c.delta(fingerprint(csr), added=[(0, 0, 1.0)])
                assert err.value.code == "bad_request"
                assert c.ping()  # connection survives the error
                metrics = c.metrics()
        assert metrics["server"]["internal_errors"] == 0

"""Backend conformance: the cpu and cupy arms must agree bit for bit.

The contract under test (see ``docs/GPU.md``):

* every execution arm produces **bit-for-bit** the bits of
  :func:`~repro.kernels.tc_common.execute_tiled_reference` under the
  ``exact`` tier, and bit-for-bit the CPU arm's bits under every tier —
  across tile shapes, kernels, chunk strategies, zero-dimension edges,
  and budget-fallback (unmaterialized) executors;
* the cupy arm uploads the compiled executor state **once per
  executor** (proven by the fake's transfer counters: steady-state
  multiplies move exactly one ``B`` up and one ``C`` down, a
  ``multiply_many`` batch rides a single upload) and re-uploads after
  the executor itself is invalidated;
* a requested-but-unavailable cupy arm — module missing, module broken,
  bad device config, device init failure, failed reduceat-replica probe
  — degrades to a *reasoned* CPU fallback, never an exception;
* the choice threads end to end: env gate, ``AccPlan.multiply``, the
  engines, the server's request metadata; unknown names are rejected
  eagerly everywhere.

The "device" is :mod:`tests.fake_cupy` — numpy underneath, installed
via ``sys.modules`` exactly as the loader discovers the real thing —
so the equality assertions are exact, and its host/device discipline
makes any accidental host-side operand in the device path a hard error.
"""

from __future__ import annotations

import asyncio
import gc
import sys

import numpy as np
import pytest

import repro
import repro.backend.gpu as backend_gpu
from repro.backend import (
    BACKEND_NAMES,
    CpuBackend,
    CupyBackend,
    DeviceBackend,
    available_backends,
    get_backend,
    reset_backend,
    resolve_backend,
    validate_backend,
)
from repro.backend.base import BackendStats
from repro.backend.gpu import device_reduceat, reduceat_replica_ok
from repro.errors import ValidationError
from repro.kernels.accspmm import AccSpMMKernel
from repro.kernels.dtc import DTCKernel
from repro.kernels.executor import get_executor
from repro.kernels.tcgnn import TCGNNKernel
from repro.kernels.tc_common import execute_tiled_reference
from repro.serve.aio import AsyncSpMMEngine
from repro.sparse.convert import coo_to_csr
from repro.sparse.coo import COOMatrix
from repro.tune.space import TunedConfig

from conftest import bits_equal, dense_band, hub_csr, make_b, random_csr
from fake_cupy import FakeDeviceArray, make_fake_cupy

TIERS = ("exact", "tf32", "fast")


@pytest.fixture
def fake(monkeypatch):
    """A fresh fake-cupy module installed as ``sys.modules['cupy']``.

    ``reset_backend()`` before the yield makes the loader re-import (and
    find the fake); after the yield it clears every memo again *while
    the fake is still installed* — reset only clears caches, so nothing
    re-resolves against the fake before monkeypatch restores the world.
    """
    mod = make_fake_cupy()
    monkeypatch.setitem(sys.modules, "cupy", mod)
    monkeypatch.delenv("REPRO_USE_GPU", raising=False)
    monkeypatch.delenv("REPRO_GPU_DEVICE", raising=False)
    reset_backend()
    yield mod
    reset_backend()


@pytest.fixture(params=["cpu", "cupy"])
def arm(request, fake):
    """Both arms, cupy served by the fake; asserts the arm is real."""
    backend = resolve_backend(request.param)
    assert backend.name == request.param  # cupy must not have fallen back
    return request.param


def plan_for(csr, B, **kwargs):
    return repro.plan(csr, feature_dim=B.shape[-1], **kwargs)


# ----------------------------------------------------------------------
# bit-for-bit conformance
# ----------------------------------------------------------------------
class TestConformance:
    @pytest.mark.parametrize("n", [8, 16, 33])
    def test_exact_matches_reference(self, arm, n):
        csr = random_csr(n_rows=96, n_cols=80, density=0.12, seed=3)
        B = make_b(csr, n=n, seed=5)
        p = plan_for(csr, B)
        ref = execute_tiled_reference(p.tc_plan, B)
        assert bits_equal(p.multiply(B, backend=arm), ref)

    @pytest.mark.parametrize("tier", TIERS)
    def test_tiers_match_cpu_arm(self, fake, tier):
        # dense band: tf32/fast promote dense chunks to the fused
        # strategy, the branch the device mirror must replicate exactly
        csr = dense_band()
        B = make_b(csr, n=16, seed=6)
        p = plan_for(csr, B)
        C_cpu = p.multiply(B, numerics=tier, backend="cpu")
        C_gpu = p.multiply(B, numerics=tier, backend="cupy")
        assert bits_equal(C_gpu, C_cpu)
        if tier != "exact":
            ex = p.executor_for(tier)
            assert "fused" in ex.stats.strategies

    def test_hub_long_segments(self, arm):
        # hub row: RowWindows with > 8 TC blocks land in the stepped
        # strategy's long bucket (device_reduceat on the cupy arm)
        csr = hub_csr()
        B = make_b(csr, n=16, seed=7)
        p = plan_for(csr, B)
        ref = execute_tiled_reference(p.tc_plan, B)
        assert bits_equal(p.multiply(B, backend=arm), ref)

    def test_direct_strategy(self, arm):
        # <= 8 columns: one block per window per chunk -> "direct"
        csr = random_csr(n_rows=64, n_cols=8, density=0.5, seed=8)
        B = make_b(csr, n=16, seed=9)
        p = plan_for(csr, B)
        p.multiply(B, backend=arm)
        ex = get_executor(p.tc_plan)
        assert set(ex.stats.strategies) == {"direct"}
        assert bits_equal(
            p.multiply(B, backend=arm),
            execute_tiled_reference(p.tc_plan, B),
        )

    def test_stepped_single_block_windows(self, arm):
        # windows whose nnz fit one TC block land in the stepped
        # single bucket (indexed add, no fold) when the chunk also
        # holds multi-block windows; build that mix explicitly
        r = np.random.default_rng(5)
        dense = np.zeros((64, 64), dtype=np.float32)
        for w in range(4):
            rows = slice(w * 16, w * 16 + 16)
            dense[rows, 0:8] = r.uniform(0.1, 1.0, (16, 8)) * (
                r.random((16, 8)) < 0.6
            )
        for w in range(2, 4):
            rows = slice(w * 16, w * 16 + 16)
            dense[rows, 8:64] = r.uniform(0.1, 1.0, (16, 56)) * (
                r.random((16, 56)) < 0.3
            )
        csr = coo_to_csr(COOMatrix.from_dense(dense))
        B = make_b(csr, n=8, seed=6)
        p = plan_for(csr, B)
        C = p.multiply(B, backend=arm)
        ex = get_executor(p.tc_plan)
        singles = sum(
            cp.single_rows.size
            for prog in ex._programs.values()
            for cp in prog
            if cp.strategy == "stepped"
        )
        assert singles > 0
        assert bits_equal(C, execute_tiled_reference(p.tc_plan, B))

    def test_nonfinite_inputs_round_identically(self, fake):
        # tf32 RNE must pass non-finite bits through unchanged on both
        # arms (the device rounding replica has its own nonfinite path)
        csr = random_csr(n_rows=64, n_cols=64, density=0.15, seed=35)
        B = make_b(csr, n=16, seed=36)
        B[0, 0] = np.float32(np.inf)
        B[1, 1] = np.float32(-np.inf)
        B[2, 2] = np.float32(np.nan)
        p = plan_for(csr, B)
        with np.errstate(invalid="ignore"):  # NaN * 0 inside matmul
            C_cpu = p.multiply(B, numerics="tf32", backend="cpu")
            C_gpu = p.multiply(B, numerics="tf32", backend="cupy")
        assert bits_equal(C_gpu, C_cpu)

    def test_reduceat_strategy(self, arm, monkeypatch):
        # the reduceat strategy is the fallback when the host stepped
        # replica fails its probe; force it to cover that chunk kind
        import repro.kernels.executor as executor_mod

        monkeypatch.setattr(
            executor_mod, "_stepped_replica_ok", lambda: False
        )
        csr = hub_csr()
        B = make_b(csr, n=16, seed=10)
        p = plan_for(csr, B)
        p.multiply(B, backend=arm)
        ex = get_executor(p.tc_plan)
        assert "reduceat" in ex.stats.strategies
        assert bits_equal(
            p.multiply(B, backend=arm),
            execute_tiled_reference(p.tc_plan, B),
        )

    @pytest.mark.parametrize("shape", [(4, 8), (8, 4), (4, 4)])
    def test_tuned_tile_shapes(self, arm, shape):
        csr = random_csr(n_rows=96, n_cols=96, density=0.12, seed=33)
        B = make_b(csr, n=16, seed=34)
        cfg = TunedConfig(window_rows=shape[0], block_cols=shape[1])
        p = plan_for(csr, B, tuned=cfg)
        assert p.tc_plan.tiling.tile_shape == shape
        assert bits_equal(
            p.multiply(B, backend=arm),
            execute_tiled_reference(p.tc_plan, B),
        )

    @pytest.mark.parametrize(
        "kernel_cls", [AccSpMMKernel, DTCKernel, TCGNNKernel]
    )
    def test_kernels(self, arm, kernel_cls):
        csr = random_csr(n_rows=80, n_cols=80, density=0.1, seed=12)
        B = make_b(csr, n=16, seed=13)
        k = kernel_cls()
        tc = k.plan(csr, B.shape[1], repro.get_device("a800"))
        ref = execute_tiled_reference(tc, B)
        assert bits_equal(k.execute(tc, B, backend=arm), ref)

    def test_budget_fallback_unmaterialized(self, arm):
        # exec_max_bytes too small to materialize tiles: the lazy
        # per-chunk scatter path, single and batched
        csr = hub_csr()
        p = repro.plan(csr, feature_dim=16)
        p.prepare(max_bytes=64)
        ex = get_executor(p.tc_plan)
        assert not ex.materialized
        B = make_b(csr, n=16, seed=14)
        assert bits_equal(
            p.multiply(B, backend=arm),
            execute_tiled_reference(p.tc_plan, B),
        )
        Bs = np.stack([make_b(csr, n=16, seed=s) for s in (20, 21, 22)])
        ref = np.stack(
            [execute_tiled_reference(p.tc_plan, b) for b in Bs]
        )
        assert bits_equal(p.multiply_many(Bs, backend=arm), ref)
        # fast tier: the only mode whose executor does NOT round B,
        # the other half of the lazy multi-B decompress loop
        assert bits_equal(
            p.multiply_many(Bs, numerics="fast", backend=arm),
            p.multiply_many(Bs, numerics="fast", backend="cpu"),
        )

    def test_multiply_many_matches_singles(self, arm):
        csr = random_csr(n_rows=96, n_cols=96, density=0.1, seed=15)
        Bs = np.stack([make_b(csr, n=16, seed=s) for s in (1, 2, 3, 4)])
        p = repro.plan(csr, feature_dim=16)
        Cs = p.multiply_many(Bs, backend=arm)
        for i in range(Bs.shape[0]):
            assert bits_equal(Cs[i], p.multiply(Bs[i], backend=arm))

    def test_zero_dim_edges(self, arm):
        csr = random_csr(n_rows=64, n_cols=64, density=0.1, seed=16)
        p = repro.plan(csr, feature_dim=8)
        # N = 0
        C = p.multiply(np.zeros((64, 0), dtype=np.float32), backend=arm)
        assert C.shape == (64, 0) and C.dtype == np.float32
        # batch = 0
        Cs = p.multiply_many(
            np.zeros((0, 64, 8), dtype=np.float32), backend=arm
        )
        assert Cs.shape == (0, 64, 8)
        # all-zero matrix (no TC blocks at all)
        empty = coo_to_csr(
            COOMatrix.from_dense(np.zeros((16, 16), dtype=np.float32))
        )
        pe = repro.plan(empty, feature_dim=4)
        Ce = pe.multiply(make_b(empty, n=4, seed=17), backend=arm)
        assert Ce.shape == (16, 4) and not Ce.any()

    def test_backend_instance_passthrough(self, fake):
        csr = random_csr(seed=18)
        B = make_b(csr, seed=19)
        p = plan_for(csr, B)
        ref = execute_tiled_reference(p.tc_plan, B)
        gpu = resolve_backend("cupy")
        assert isinstance(gpu, CupyBackend)
        for instance in (CpuBackend(), gpu):
            assert resolve_backend(instance) is instance
            assert bits_equal(p.multiply(B, backend=instance), ref)


# ----------------------------------------------------------------------
# upload-once accounting
# ----------------------------------------------------------------------
class TestUploadOnce:
    def test_steady_state_moves_only_b_and_c(self, fake):
        csr = hub_csr()
        B = make_b(csr, n=16, seed=23)
        p = plan_for(csr, B)
        backend = resolve_backend("cupy")
        p.multiply(B, backend=backend)  # warm: uploads executor state
        state_uploads = fake.counters["uploads"]
        before = dict(fake.counters)
        for _ in range(5):
            p.multiply(B, backend=backend)
        assert fake.counters["uploads"] - before["uploads"] == 5
        assert (
            fake.counters["upload_bytes"] - before["upload_bytes"]
            == 5 * B.nbytes
        )
        assert fake.counters["downloads"] - before["downloads"] == 5
        # and the backend's own stats agree with the fake's ledger
        info = backend.info()
        assert info["transfers"]["uploads"] == fake.counters["uploads"]
        assert (
            info["transfers"]["bytes_to_device"]
            == fake.counters["upload_bytes"]
        )
        assert info["device_bytes"] > 0
        assert state_uploads > 1  # the warm call did move the state

    def test_multiply_many_single_upload(self, fake):
        csr = random_csr(n_rows=96, n_cols=96, density=0.1, seed=24)
        p = repro.plan(csr, feature_dim=16)
        backend = resolve_backend("cupy")
        Bs = np.stack([make_b(csr, n=16, seed=s) for s in (1, 2, 3, 4)])
        p.multiply_many(Bs, backend=backend)  # warm
        before = dict(fake.counters)
        p.multiply_many(Bs, backend=backend)
        assert fake.counters["uploads"] - before["uploads"] == 1
        assert (
            fake.counters["upload_bytes"] - before["upload_bytes"]
            == Bs.nbytes
        )
        assert fake.counters["downloads"] - before["downloads"] == 1

    def test_prepare_makes_first_multiply_steady_state(self, fake):
        csr = random_csr(n_rows=96, n_cols=96, density=0.1, seed=25)
        B = make_b(csr, n=16, seed=26)
        p = plan_for(csr, B)
        p.prepare(backend="cupy")
        before = dict(fake.counters)
        assert bits_equal(
            p.multiply(B, backend="cupy"),
            execute_tiled_reference(p.tc_plan, B),
        )
        assert fake.counters["uploads"] - before["uploads"] == 1

    def test_executor_invalidation_reuploads_and_frees(self, fake):
        csr = random_csr(n_rows=96, n_cols=96, density=0.1, seed=27)
        B = make_b(csr, n=16, seed=28)
        p = plan_for(csr, B)
        backend = resolve_backend("cupy")
        p.multiply(B, backend=backend)
        resident = backend.info()["device_bytes"]
        assert resident > 0
        # shrinking the materialisation budget compiles a replacement
        # executor; the device mirror must follow the new object
        old_ex = get_executor(p.tc_plan)
        p.prepare(max_bytes=64)
        assert get_executor(p.tc_plan) is not old_ex
        before = fake.counters["uploads"]
        assert bits_equal(
            p.multiply(B, backend=backend),
            execute_tiled_reference(p.tc_plan, B),
        )
        assert fake.counters["uploads"] - before > 1  # state re-uploaded
        del old_ex  # drop the test's own reference to the old executor
        gc.collect()  # ... so its DeviceExecState is unreachable now
        assert backend.info()["device_bytes"] < resident + B.nbytes

    def test_program_cache_eviction_rebuilds_mirror(self, fake):
        # more feature dims than _MAX_PROGRAMS: both the host program
        # cache and its device mirror evict oldest-first and stay in
        # lockstep (every width still bit-for-bit)
        csr = random_csr(n_rows=96, n_cols=96, density=0.1, seed=31)
        p = repro.plan(csr, feature_dim=16)
        backend = resolve_backend("cupy")
        ex = get_executor(p.tc_plan)
        # the default chunk budget collapses every width to a single
        # blocks-per-chunk key; shrink it so each width gets its own.
        # chunking changes accumulation *grouping*, so the oracle here
        # is the CPU arm on the same executor, not the 1-chunk reference
        ex.chunk_elems = ex.tiling.block_cols * 400
        widths = range(4, 14)  # > _MAX_PROGRAMS distinct cache keys
        assert len({ex._blocks_per_chunk(n) for n in widths}) > ex._MAX_PROGRAMS
        for n in widths:
            B = make_b(csr, n=n, seed=32 + n)
            assert bits_equal(
                p.multiply(B, backend=backend),
                p.multiply(B, backend="cpu"),
            )
        state = ex._device_state
        assert state.device_bytes > 0
        assert len(state._programs) <= ex._MAX_PROGRAMS

    def test_per_executor_not_per_tier_shared(self, fake):
        # each numerics tier compiles its own executor, so each gets its
        # own device mirror — but within a tier the mirror is reused
        csr = random_csr(n_rows=96, n_cols=96, density=0.1, seed=29)
        B = make_b(csr, n=16, seed=30)
        p = plan_for(csr, B)
        backend = resolve_backend("cupy")
        p.multiply(B, numerics="exact", backend=backend)
        p.multiply(B, numerics="fast", backend=backend)
        before = dict(fake.counters)
        p.multiply(B, numerics="exact", backend=backend)
        p.multiply(B, numerics="fast", backend=backend)
        assert fake.counters["uploads"] - before["uploads"] == 2  # two Bs


# ----------------------------------------------------------------------
# resolution, gating, fallback
# ----------------------------------------------------------------------
class TestResolution:
    def test_default_is_cpu_without_env_gate(self, fake):
        assert get_backend().name == "cpu"
        assert "fallback_reason" not in get_backend().info()

    def test_env_gate_selects_cupy(self, fake, monkeypatch):
        monkeypatch.setenv("REPRO_USE_GPU", "1")
        reset_backend()
        assert get_backend().name == "cupy"
        assert fake.used_devices == [0]

    @pytest.mark.parametrize("value", ["true", "YES", " on "])
    def test_truthy_spellings(self, fake, monkeypatch, value):
        monkeypatch.setenv("REPRO_USE_GPU", value)
        reset_backend()
        assert get_backend().name == "cupy"

    @pytest.mark.parametrize("value", ["", "0", "no", "banana"])
    def test_falsy_spellings(self, fake, monkeypatch, value):
        monkeypatch.setenv("REPRO_USE_GPU", value)
        reset_backend()
        assert get_backend().name == "cpu"

    def test_device_selection(self, fake, monkeypatch):
        monkeypatch.setenv("REPRO_GPU_DEVICE", "1")
        reset_backend()
        backend = resolve_backend("cupy")
        assert backend.name == "cupy"
        assert backend.info()["device"] == 1
        assert fake.used_devices == [1]

    def test_gpu_alias(self, fake):
        assert resolve_backend("gpu") is resolve_backend("cupy")

    def test_resolution_is_memoised(self, fake):
        assert resolve_backend("cupy") is resolve_backend("cupy")
        assert resolve_backend("cpu") is resolve_backend("cpu")
        assert get_backend() is get_backend()

    def test_available_backends(self, fake):
        snap = available_backends()
        assert snap["default"]["name"] == "cpu"
        assert snap["cupy"]["name"] == "cupy"

    def test_unknown_names_rejected(self, fake):
        assert BACKEND_NAMES == ("cpu", "cupy", "gpu")
        with pytest.raises(ValidationError, match="backend"):
            resolve_backend("tpu")
        with pytest.raises(ValidationError, match="backend"):
            validate_backend("tpu")
        validate_backend(None)
        validate_backend("CPU")  # names are case-insensitive
        validate_backend(CpuBackend())

    def test_abstract_backend_refuses_execute(self):
        with pytest.raises(NotImplementedError):
            DeviceBackend().execute(None, np.zeros((2, 2)))
        assert DeviceBackend().info() == {"name": "abstract"}

    def test_stats_counters(self):
        s = BackendStats()
        s.count_upload(10)
        s.count_upload(5)
        s.count_download(3)
        s.add_device_bytes(7)
        d = s.as_dict()
        assert d["uploads"] == 2 and d["bytes_to_device"] == 15
        assert d["downloads"] == 1 and d["bytes_from_device"] == 3
        assert d["device_bytes"] == 7


class TestFallback:
    def run_multiply(self, backend_choice="cupy"):
        csr = random_csr(seed=40)
        B = make_b(csr, seed=41)
        p = plan_for(csr, B)
        C = p.multiply(B, backend=backend_choice)
        assert bits_equal(C, execute_tiled_reference(p.tc_plan, B))

    def test_missing_cupy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "cupy", None)  # ImportError
        reset_backend()
        backend = resolve_backend("cupy")
        assert backend.name == "cpu"
        info = backend.info()
        assert info["fallback_from"] == "cupy"
        assert "import cupy failed" in info["fallback_reason"]
        self.run_multiply()
        reset_backend()

    def test_broken_cupy_missing_attrs(self, fake, monkeypatch):
        monkeypatch.delattr(fake, "stack")
        monkeypatch.delattr(fake, "take")
        reset_backend()
        backend = resolve_backend("cupy")
        assert backend.name == "cpu"
        reason = backend.info()["fallback_reason"]
        assert "stack" in reason and "take" in reason
        self.run_multiply()

    def test_bad_device_env(self, fake, monkeypatch):
        monkeypatch.setenv("REPRO_USE_GPU", "1")
        monkeypatch.setenv("REPRO_GPU_DEVICE", "zero")
        reset_backend()
        backend = get_backend()
        assert backend.name == "cpu"
        assert "REPRO_GPU_DEVICE" in backend.info()["fallback_reason"]
        self.run_multiply(backend_choice=None)

    def test_device_init_failure(self, fake):
        fake.fail_device_use = True
        backend = resolve_backend("cupy")
        assert backend.name == "cpu"
        assert "device init failed" in backend.info()["fallback_reason"]
        self.run_multiply()

    def test_failed_replica_probe(self, fake, monkeypatch):
        monkeypatch.setattr(backend_gpu, "_replica_ok", False)
        backend = resolve_backend("cupy")
        assert backend.name == "cpu"
        assert "reduceat replica" in backend.info()["fallback_reason"]
        self.run_multiply()

    def test_enabling_gate_never_breaks_without_cupy(self, monkeypatch):
        # the deployment story: REPRO_USE_GPU=1 on a box with no cupy
        monkeypatch.setitem(sys.modules, "cupy", None)
        monkeypatch.setenv("REPRO_USE_GPU", "1")
        reset_backend()
        assert get_backend().name == "cpu"
        self.run_multiply(backend_choice=None)
        reset_backend()


class TestReduceatReplica:
    def test_probe_passes_on_this_numpy(self):
        backend_gpu._replica_ok = None
        try:
            assert reduceat_replica_ok() is True
        finally:
            backend_gpu._replica_ok = None

    @pytest.mark.parametrize(
        "lens",
        [[1], [2], [7], [8], [9], [128], [129], [300], [1, 5, 9, 130, 2]],
    )
    def test_matches_numpy_bitwise(self, lens):
        rng = np.random.default_rng(sum(lens))
        total = sum(lens)
        a = rng.standard_normal((total, 4)).astype(np.float32)
        a[rng.integers(0, total, size=max(1, total // 3))] = np.float32(-0.0)
        first = np.zeros(len(lens), dtype=np.int64)
        np.cumsum(np.asarray(lens[:-1], dtype=np.int64), out=first[1:])
        ref = np.add.reduceat(a, first, axis=0)
        out = device_reduceat(np, a, [int(f) for f in first])
        assert ref.tobytes() == np.ascontiguousarray(out).tobytes()


# ----------------------------------------------------------------------
# device discipline (the fake's own teeth)
# ----------------------------------------------------------------------
class TestFakeDiscipline:
    def test_host_arrays_rejected_by_device_ops(self, fake):
        host = np.zeros((2, 2), dtype=np.float32)
        dev = fake.asarray(host)
        assert isinstance(dev, FakeDeviceArray)
        assert isinstance(dev[0], FakeDeviceArray)  # views stay device
        with pytest.raises(TypeError, match="host ndarray"):
            fake.matmul(host, dev)
        with pytest.raises(TypeError, match="host ndarray"):
            fake.take(dev, np.zeros(1, dtype=np.int64), axis=0)
        with pytest.raises(TypeError, match="host ndarray"):
            fake.stack([dev, host])
        with pytest.raises(TypeError, match="host ndarray"):
            fake.asnumpy(host)

    def test_asarray_of_device_array_is_free(self, fake):
        dev = fake.asarray(np.ones((3,), dtype=np.float32))
        before = dict(fake.counters)
        assert fake.asarray(dev) is dev
        assert fake.counters == before

    def test_download_is_a_host_copy(self, fake):
        dev = fake.asarray(np.ones((3,), dtype=np.float32))
        host = fake.asnumpy(dev)
        assert type(host) is np.ndarray
        host[0] = 7.0
        assert dev[0] == 1.0


# ----------------------------------------------------------------------
# serving integration
# ----------------------------------------------------------------------
class TestServing:
    def test_engine_default_backend(self, fake):
        csr = random_csr(n_rows=96, n_cols=96, density=0.1, seed=50)
        B = make_b(csr, n=16, seed=51)
        gpu_engine = repro.SpMMEngine(capacity=4, backend="cupy")
        cpu_engine = repro.SpMMEngine(capacity=4)
        C_gpu = gpu_engine.spmm(csr, B)
        assert fake.counters["downloads"] >= 1
        assert bits_equal(C_gpu, cpu_engine.spmm(csr, B))
        info = gpu_engine.stats["backend"]
        assert info["name"] == "cupy"
        assert info["transfers"]["uploads"] > 0
        assert cpu_engine.stats["backend"]["name"] == "cpu"

    def test_per_request_override_beats_engine_default(self, fake):
        csr = random_csr(n_rows=64, n_cols=64, density=0.1, seed=52)
        B = make_b(csr, n=8, seed=53)
        engine = repro.SpMMEngine(capacity=4, backend="cupy")
        engine.spmm(csr, B)  # warm on the cupy arm
        before = dict(fake.counters)
        C = engine.spmm(csr, B, backend="cpu")
        assert fake.counters == before  # the fake never saw the request
        assert bits_equal(C, engine.spmm(csr, B))

    def test_engine_rejects_unknown_backend(self):
        with pytest.raises(ValidationError, match="backend"):
            repro.SpMMEngine(backend="tpu")
        engine = repro.SpMMEngine(capacity=2)
        csr = random_csr(seed=54)
        with pytest.raises(ValidationError, match="backend"):
            engine.spmm(csr, make_b(csr, n=8), backend="tpu")

    def test_async_engine_backend_override(self, fake):
        csr = random_csr(n_rows=96, n_cols=96, density=0.1, seed=57)
        B = make_b(csr, n=16, seed=58)
        Bs = np.stack([B, make_b(csr, n=16, seed=59)])

        async def run():
            engine = AsyncSpMMEngine(capacity=4)
            try:
                C = await engine.multiply(csr, B, backend="cupy")
                Cs = await engine.multiply_many(csr, Bs, backend="cupy")
                return C, Cs
            finally:
                await engine.drain()

        C, Cs = asyncio.run(run())
        assert fake.counters["downloads"] >= 2
        p = repro.plan(csr, feature_dim=16)
        assert bits_equal(C, p.multiply(B, backend="cpu"))
        assert bits_equal(Cs, p.multiply_many(Bs, backend="cpu"))

"""Numerics-policy tiers: resolution, error bounds, and plumbing.

The :mod:`repro.tune.policy` contract under test:

* ``exact`` is bit-for-bit identical to the reference executor path
  (and therefore to the seed behaviour before tiers existed);
* ``tf32`` and ``fast`` satisfy the *documented* elementwise bound
  ``|C - C64| <= error_bound(depth) * (|A| @ |B|)`` against a float64
  oracle, where ``depth`` is the worst-case accumulation length (max
  row nnz) — see ``docs/NUMERICS.md``;
* the tier threads end-to-end: ``repro.spmm`` -> engine -> plan ->
  executor, with per-tenant pins and per-request overrides layering in
  the sync and async engines.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

import repro
from repro.errors import ValidationError
from repro.kernels.tc_common import execute_tiled_reference
from repro.serve import AsyncSpMMEngine, SpMMEngine
from repro.sparse.convert import coo_to_csr
from repro.sparse.csr import CSRMatrix
from repro.sparse.random import erdos_renyi
from repro.tune.policy import (
    EXACT,
    FAST,
    TF32,
    TIERS,
    NumericsPolicy,
    resolve_policy,
)

from conftest import bits_equal, make_b, max_row_nnz, random_csr


# ----------------------------------------------------------------------
# policy objects
# ----------------------------------------------------------------------
class TestPolicy:
    def test_tiers_and_constants(self):
        assert TIERS == ("exact", "tf32", "fast")
        assert EXACT.tier == "exact" and TF32.tier == "tf32"
        assert FAST.tier == "fast"

    def test_resolution(self):
        assert resolve_policy(None) is EXACT
        assert resolve_policy("fast") is FAST
        assert resolve_policy(TF32) is TF32
        p = NumericsPolicy(tier="tf32")
        assert resolve_policy(p) is p

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValidationError, match="tier"):
            NumericsPolicy(tier="double")
        with pytest.raises(ValidationError, match="tier"):
            resolve_policy("sloppy")

    def test_exec_mode_mapping(self):
        assert EXACT.exec_mode == "exact"
        assert TF32.exec_mode == "adaptive"
        assert FAST.exec_mode == "fast"

    def test_semantics_flags(self):
        assert EXACT.rounds_inputs and not EXACT.reassociates
        assert TF32.rounds_inputs and TF32.reassociates
        assert not FAST.rounds_inputs and FAST.reassociates

    def test_error_bound_shape(self):
        for tier in TIERS:
            pol = resolve_policy(tier)
            b1, b64 = pol.error_bound(1), pol.error_bound(64)
            assert 0.0 < b1 < b64 < 1e-2  # monotone in depth, small
        # fast drops the input-rounding term entirely
        assert FAST.error_bound(16) < EXACT.error_bound(16)
        # tf32 and exact share the bound: same rounding, and the bound
        # is association-free by construction
        assert TF32.error_bound(16) == EXACT.error_bound(16)

    def test_error_bound_depth_overflow(self):
        with pytest.raises(ValidationError):
            EXACT.error_bound(2**25)


# ----------------------------------------------------------------------
# numeric contracts against the float64 oracle
# ----------------------------------------------------------------------
def assert_within_bound(csr, B, tier):
    p = repro.plan(csr, feature_dim=B.shape[1])
    C = p.multiply(B, numerics=tier)
    # the float64 oracle stays sparse: densifying a dataset twin (rCA is
    # 30801 x 30801, 7.6 GB as float64) would exhaust a modest host
    B64 = B.astype(np.float64)
    C64 = csr.matmat(B64)
    abs_a = CSRMatrix(
        csr.n_rows, csr.n_cols, csr.indptr, csr.indices, np.abs(csr.vals)
    )
    envelope = abs_a.matmat(np.abs(B64))
    bound = resolve_policy(tier).error_bound(max_row_nnz(csr))
    err = np.abs(C.astype(np.float64) - C64)
    assert np.all(err <= bound * envelope + 1e-30), (
        f"{tier}: worst {err.max():.3e} vs "
        f"{(bound * envelope).max():.3e}"
    )


class TestErrorBounds:
    @pytest.mark.parametrize("tier", ["tf32", "fast"])
    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_random_matrices(self, tier, seed):
        csr = random_csr(n_rows=96, n_cols=80, density=0.15, seed=seed)
        assert_within_bound(csr, make_b(csr, n=32, seed=seed + 50), tier)

    @pytest.mark.parametrize("tier", ["tf32", "fast"])
    def test_signed_cancellation(self, tier):
        # signed values exercise cancellation, where reassociation bites
        r = np.random.default_rng(11)
        dense = np.where(
            r.random((80, 80)) < 0.2,
            r.uniform(-1.0, 1.0, (80, 80)),
            0.0,
        ).astype(np.float32)
        from repro.sparse.coo import COOMatrix

        csr = coo_to_csr(COOMatrix.from_dense(dense))
        assert_within_bound(csr, make_b(csr, n=32, seed=12), tier)

    @pytest.mark.parametrize("tier", ["tf32", "fast"])
    def test_dataset_matrix(self, tier):
        csr = repro.load_dataset("rCA")
        assert_within_bound(csr, make_b(csr, n=16, seed=13), tier)

    def test_exact_bit_for_bit_vs_reference(self):
        csr = random_csr(n_rows=128, n_cols=128, density=0.12, seed=6)
        B = make_b(csr, n=32, seed=14)
        p = repro.plan(csr, feature_dim=B.shape[1])
        ref = execute_tiled_reference(p.tc_plan, B)
        assert bits_equal(p.multiply(B, numerics="exact"), ref)
        # and the default tier IS exact
        assert bits_equal(p.multiply(B), ref)

    def test_fast_skips_input_rounding(self):
        # a value with >10 mantissa bits must survive the fast path and
        # be rounded on the exact path
        from repro.sparse.coo import COOMatrix

        dense = np.zeros((8, 8), dtype=np.float32)
        v = np.float32(1.0 + 2.0**-12)  # rounds to 1.0 in TF32
        dense[0, 0] = v
        csr = coo_to_csr(COOMatrix.from_dense(dense))
        B = np.eye(8, dtype=np.float32)
        p = repro.plan(csr, feature_dim=8)
        assert p.multiply(B, numerics="fast")[0, 0] == v
        assert p.multiply(B, numerics="exact")[0, 0] == np.float32(1.0)


# ----------------------------------------------------------------------
# per-mode executor coexistence
# ----------------------------------------------------------------------
class TestPerModeExecutors:
    def test_tiers_do_not_thrash(self):
        csr = random_csr(n_rows=96, n_cols=96, density=0.1, seed=8)
        B = make_b(csr, n=32, seed=15)
        p = repro.plan(csr, feature_dim=B.shape[1])
        p.multiply(B, numerics="exact")
        p.multiply(B, numerics="fast")
        cache = p.tc_plan.exec_cache
        assert set(cache) == {"exact", "fast"}
        ex_exact, ex_fast = cache["exact"], cache["fast"]
        p.multiply(B, numerics="exact")
        assert p.tc_plan.exec_cache["exact"] is ex_exact  # no rebuild
        # compiled geometry is shared across modes (same tiling)
        assert ex_fast.out_rank is ex_exact.out_rank
        assert ex_fast.pos_all is ex_exact.pos_all

    def test_executor_for(self):
        csr = random_csr(seed=9)
        B = make_b(csr, n=32, seed=16)
        p = repro.plan(csr, feature_dim=B.shape[1])
        assert p.executor_for("fast") is None
        p.multiply(B, numerics="fast")
        assert p.executor_for("fast") is not None
        assert p.executor_for("fast").mode == "fast"
        assert p.executor is None  # default (exact) never compiled

    def test_fast_promotes_fused_on_dense_blocks(self):
        # a dense band saturates the tiles: mean nnz per block clears
        # the fused threshold, so the reassociating tiers fuse
        from repro.sparse.random import banded_matrix

        csr = coo_to_csr(banded_matrix(512, bandwidth=24, fill=0.95, seed=17))
        B = make_b(csr, n=32, seed=18)
        p = repro.plan(csr, feature_dim=B.shape[1])
        p.multiply(B, numerics="fast")
        ex = p.executor_for("fast")
        assert ex.materialized
        assert "fused" in ex.stats.strategies
        # while exact stays stepped (order-preserving)
        p.multiply(B, numerics="exact")
        assert "fused" not in p.executor_for("exact").stats.strategies


# ----------------------------------------------------------------------
# serving plumbing
# ----------------------------------------------------------------------
class TestEngineNumerics:
    def test_engine_default_tier(self):
        csr = random_csr(seed=10)
        B = make_b(csr, n=32, seed=19)
        fast_engine = repro.SpMMEngine(numerics="fast")
        exact_engine = repro.SpMMEngine()
        assert fast_engine.default_numerics.tier == "fast"
        C_fast = fast_engine.spmm(csr, B)
        C_exact = exact_engine.spmm(csr, B)
        ref = execute_tiled_reference(
            exact_engine.get_plan(csr, feature_dim=B.shape[1]).tc_plan, B
        )
        assert bits_equal(C_exact, ref)
        # the fast default actually selected the fast executor
        p = fast_engine.get_plan(csr, feature_dim=B.shape[1])
        assert p.executor_for("fast") is not None
        assert np.allclose(C_fast, C_exact, rtol=1e-2, atol=1e-2)

    def test_per_request_override_wins(self):
        csr = random_csr(seed=11)
        B = make_b(csr, n=32, seed=20)
        engine = repro.SpMMEngine(numerics="fast")
        C = engine.spmm(csr, B, numerics="exact")
        ref = execute_tiled_reference(
            engine.get_plan(csr, feature_dim=B.shape[1]).tc_plan, B
        )
        assert bits_equal(C, ref)

    def test_engine_rejects_bad_tier(self):
        with pytest.raises(ValidationError):
            repro.SpMMEngine(numerics="double")

    def test_spmm_api_forwards_numerics(self):
        csr = random_csr(seed=12)
        B = make_b(csr, n=32, seed=21)
        repro.reset_default_engine()
        try:
            C_exact = repro.spmm(csr, B)
            C_fast = repro.spmm(csr, B, numerics="fast")
            C_nocache = repro.spmm(
                csr, B, use_cache=False, numerics="fast"
            )
            assert np.array_equal(C_fast, C_nocache)
            assert np.allclose(C_exact, C_fast, rtol=1e-2, atol=1e-2)
        finally:
            repro.reset_default_engine()


class TestTenantNumerics:
    def test_tenant_pin_and_precedence(self):
        csr = coo_to_csr(erdos_renyi(256, avg_degree=8.0, seed=22))
        B = make_b(csr, n=32, seed=23)
        eng = SpMMEngine()
        eng.set_tenant_numerics("alice", "fast")
        assert eng.tenant_numerics_for("alice").tier == "fast"
        assert eng.tenant_numerics_for("bob") is None

        C_alice = eng.spmm(csr, B, tenant="alice")
        C_bob = eng.spmm(csr, B, tenant="bob")
        p = eng.get_plan(csr, feature_dim=B.shape[1])
        ref = execute_tiled_reference(p.tc_plan, B)
        assert bits_equal(C_bob, ref)  # unpinned -> engine default
        assert p.executor_for("fast") is not None  # alice ran fast
        # request override beats the tenant pin
        C_exact = eng.spmm(csr, B, tenant="alice", numerics="exact")
        assert bits_equal(C_exact, ref)
        assert np.allclose(C_alice, C_exact, rtol=1e-2, atol=1e-2)
        assert eng.resolve_numerics(tenant="alice").tier == "fast"
        assert eng.resolve_numerics("tf32", tenant="alice").tier == "tf32"
        assert eng.resolve_numerics(tenant="bob").tier == "exact"

    def test_tenant_pin_beats_engine_default(self):
        eng = SpMMEngine(numerics="tf32")
        eng.set_tenant_numerics("alice", "fast")
        assert eng.resolve_numerics(tenant="alice").tier == "fast"
        assert eng.resolve_numerics(tenant="bob").tier == "tf32"
        assert eng.resolve_numerics("exact", tenant="alice").tier == "exact"

    def test_pin_clears_and_validates(self):
        eng = SpMMEngine()
        with pytest.raises(ValidationError):
            eng.set_tenant_numerics("alice", "bogus")
        with pytest.raises(ValueError):
            eng.set_tenant_numerics(None, "fast")
        eng.set_tenant_numerics("alice", "tf32")
        eng.set_tenant_numerics("alice", None)
        assert eng.tenant_numerics_for("alice") is None

    def test_stats_show_pinned_tier(self):
        eng = SpMMEngine()
        eng.set_tenant_numerics("alice", "fast")
        assert eng.stats["tenants"]["alice"]["numerics"] == "fast"


class TestAsyncNumerics:
    def test_request_and_tenant_tier(self):
        csr = coo_to_csr(erdos_renyi(192, avg_degree=8.0, seed=24))
        B = make_b(csr, n=32, seed=25)

        async def scenario():
            async with AsyncSpMMEngine() as eng:
                eng.engine.set_tenant_numerics("alice", "fast")
                c_fast = await eng.multiply(csr, B, numerics="fast")
                c_alice = await eng.multiply(csr, B, tenant="alice")
                c_alice_exact = await eng.multiply(
                    csr, B, tenant="alice", numerics="exact"
                )
                c_default = await eng.multiply(csr, B)
                assert eng.resolve_numerics(tenant="alice").tier == "fast"
                p = eng.engine.get_plan(csr, feature_dim=B.shape[1])
                outs = (c_fast, c_alice, c_alice_exact, c_default)
                return outs, p, eng.stats

        outs, p, stats = asyncio.run(scenario())
        c_fast, c_alice, c_alice_exact, c_default = outs
        ref = execute_tiled_reference(p.tc_plan, B)
        assert bits_equal(c_default, ref)
        assert bits_equal(c_alice_exact, ref)  # request beats tenant pin
        assert np.array_equal(c_fast, c_alice)  # same tier, same plan
        assert np.allclose(c_fast, c_default, rtol=1e-2, atol=1e-2)
        assert stats["tenants"]["alice"] == {
            "requests": 2, "batched_requests": 0, "numerics": "fast",
        }

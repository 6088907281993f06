"""Seeded, in-memory inputs.

Every graph is generated here from the workload seed through the
program's own generators — ``DATASETS[abbr].builder`` and
``repro.sparse.random`` — never through ``load_dataset`` or the
benchmark-harness reorder cache, which read and write an on-disk cache
and would make the first run on a host pay for work later runs skip.
"""

from __future__ import annotations

import numpy as np

from measure import sub_seed


def twin(abbr: str, seed: int):
    """The Table-2 synthetic twin ``abbr`` for this seed, as CSR."""
    from repro.sparse.convert import coo_to_csr
    from repro.sparse.datasets import DATASETS

    return coo_to_csr(DATASETS[abbr].builder(sub_seed(seed, "twin", abbr)))


def family_graph(family: str, n: int, seed: int, index: int):
    """One graph of a structural family with ``n`` rows, as CSR."""
    from repro.sparse import random as gen
    from repro.sparse.convert import coo_to_csr

    s = sub_seed(seed, "family", family, n, index)
    if family == "band":
        coo = gen.banded_matrix(n, 8, fill=0.5, seed=s)
    elif family == "road":
        coo = gen.road_network(n, seed=s)
    elif family == "molecular":
        coo = gen.block_community_graph(
            n, n_blocks=max(2, n // 26), avg_block_degree=5.0, seed=s
        )
    elif family == "uniform":
        coo = gen.erdos_renyi(n, 6.0, seed=s)
    elif family == "web":
        coo = gen.powerlaw_graph(
            n, 10.0, community_blocks=max(2, n // 128), seed=s
        )
    else:
        raise ValueError(f"unknown graph family {family!r}")
    return coo_to_csr(coo)


def b_pool(n_rows: int, n_cols: int, count: int, seed: int, *labels):
    """``count`` dense float32 right-hand sides of shape (n_rows, n_cols)."""
    rng = np.random.default_rng(sub_seed(seed, "B", n_rows, *labels))
    return [
        rng.uniform(-1.0, 1.0, (n_rows, n_cols)).astype(np.float32)
        for _ in range(count)
    ]


def scipy_csr(csr):
    """The same matrix as a ``scipy.sparse`` CSR (the baseline arm)."""
    import scipy.sparse as sp

    return sp.csr_matrix(
        (csr.vals, csr.indices, csr.indptr), shape=(csr.n_rows, csr.n_cols)
    )


def useful_flops(csr, n: int) -> float:
    return 2.0 * csr.nnz * n

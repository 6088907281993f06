"""cold_churn's store writer: the "earlier worker" whose plans the
measured process warm-starts from.

    python3 perfbench/churn_writer.py SEED STORE_ROOT DIGESTS_JSON

Run by ``wl_cold_churn`` in its own process before set-up, untimed.  It
builds and persists the stored graphs' plans through an
``SpMMEngine`` backed by the store, and writes, for every stored graph,
the sha256 of the built plan's reference product on its B — what the
measured process's store hits must reproduce bit for bit.
"""

from __future__ import annotations

import json
import sys


def main(argv) -> int:
    seed, store_root, digests_path = int(argv[0]), argv[1], argv[2]

    import config as C
    from wl_cold_churn import digest, operand, stored_specs
    from inputs import family_graph
    from repro.kernels.tc_common import execute_tiled_reference
    from repro.serve.engine import SpMMEngine

    engine = SpMMEngine(capacity=1, store=store_root)
    digests = {}
    for key in stored_specs():
        family, rows, index = key
        A = family_graph(family, rows, seed, index)
        plan = engine.get_plan(A, feature_dim=C.N)
        digests["/".join(map(str, key))] = digest(
            execute_tiled_reference(plan.tc_plan, operand(key, seed))
        )
    with open(digests_path, "w") as fh:
        json.dump(digests, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

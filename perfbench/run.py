"""Run one benchmark workload and print its result line.

    python3 perfbench/run.py --workload gnn_steady --seed 1 --seconds 22 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
of the current directory.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; with ``--trace 0`` the metrics are the end-to-end metrics
of ``BENCHMARK.json``, with ``--trace 1`` the per-layer metrics of the
traced run.  Progress, the host record and failures go to standard
error; host records and span dumps are also written under
``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("gnn_steady", "cold_churn", "served_open")


@dataclass
class Context:
    root: Path
    workload: str
    seed: int
    seconds: float
    trace: bool
    tracer: object
    rss: object
    registry: dict = field(default_factory=dict)


def _declared(root: Path) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {
        "workloads": [w["name"] for w in spec["workloads"]],
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source at {root / 'src' / 'repro'}; "
            "run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(root / "src"))

    import measure
    import spans

    declared = _declared(root)
    units = measure.LAYER_UNITS if args.trace else measure.E2E_UNITS
    if args.workload not in declared["workloads"] or declared[args.trace] != units:
        print("perfbench: BENCHMARK.json disagrees with perfbench/measure.py",
              file=sys.stderr)
        return 2

    tracer = spans.Tracer()
    ctx = Context(
        root=root, workload=args.workload, seed=args.seed,
        seconds=args.seconds, trace=bool(args.trace), tracer=tracer,
        rss=measure.PeakRss(),
    )
    if ctx.trace:
        ctx.registry = spans.install(tracer)
    host = measure.host_record(
        root, args.workload, args.seed, ctx.trace, ctx.rss.resettable
    )
    measure.log(f"perfbench host: {json.dumps(host, sort_keys=True)}")
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    measure.write_out(f"host-{tag}.json", host)

    module = __import__(f"wl_{args.workload}")
    probe_before = measure.host_probe_ms()
    res = module.run(ctx)
    res["host_probe_ms"] = [probe_before, measure.host_probe_ms()]

    failed = res["attempted"] - res["ok"]
    correct = res["wrong"] == 0 and res["valid"]
    if res["samples"] < 100:
        measure.log(f"perfbench: only {res['samples']} latency samples; "
                    "a p90 needs at least 100")
    if ctx.trace:
        layers = dict(res["layers"])
        layers["trace.latency_ms_p50"] = res["e2e"]["latency_ms_p50"]
        values = spans.layer_metrics(tracer, ctx.registry, layers)
        measure.write_out(f"spans-{tag}.json", tracer.dump())
    else:
        values = res["e2e"]
    measure.write_out(f"result-{tag}.json", {**res, "failed": failed})
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(res["attempted"]),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Steadiness report: run every workload repeatedly and print, per
end-to-end metric, the median, the quartiles, the quartile spread and
(max - min) / median.  Every metric, setup_s included, is judged on
(max - min) / median against its bound in BENCHMARK.json; the report
exits with code 1 when any spread exceeds its bound.

    python3 perfbench/steadiness.py --runs 10 --first-seed 1 \\
        --save perfbench/results/set1.jsonl > perfbench/results/set1.txt
    python3 perfbench/steadiness.py --compare perfbench/results/set1.jsonl \\
        perfbench/results/set2.jsonl

Run from the root of a checkout.  Run i of every workload uses seed
``first_seed + i``.  ``--traced K`` adds traced runs of every workload
on the first K seeds and reports the measured tracing overhead: the
median of the traced runs' latency p50 against the untraced runs'
median latency p50.  ``--compare`` reads two saved sets of runs of the
same code and prints, per metric, how much worse each set's median is
than the other's; the sets agree when neither is worse by more than the
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _spec() -> dict:
    return json.loads(Path("BENCHMARK.json").read_text())


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """One run's result line and its host-speed probe times (ms)."""
    cmd = [*_spec()["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    detail = Path("perfbench/out") / f"result-{workload}-{seed}-trace{trace}.json"
    probe = json.loads(detail.read_text()).get("host_probe_ms")
    return json.loads(proc.stdout.strip().splitlines()[-1]), probe


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(rows: list, spec: dict) -> bool:
    """Print the per-metric table; True when every run was correct and
    every metric's (max - min) / median is within its bound."""
    steady = all(r["result"]["correct"] for r in rows)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w in [w["name"] for w in spec["workloads"]]:
        runs = [r["result"] for r in rows if r["workload"] == w and not r["trace"]]
        if not runs:
            continue
        print(f"\n{w}: {len(runs)} runs, all correct: "
              f"{all(r['correct'] for r in runs)}, attempted "
              f"{min(r['attempted'] for r in runs)}-"
              f"{max(r['attempted'] for r in runs)}, failed "
              f"{sum(r['failed'] for r in runs)}")
        print(f"  {'metric':18s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
              f"{'iqr/med':>8s} {'rng/med':>8s} {'bound':>6s}  verdict")
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = _quartiles(vals)
            iqr = (q3 - q1) / med if med else 0.0
            rng = (max(vals) - min(vals)) / med if med else 0.0
            if rng <= bound / 3:
                verdict = "steady"
            elif rng <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO NOISY"
                steady = False
            print(f"  {name:18s} {med:11.4f} {q1:11.4f} {q3:11.4f} "
                  f"{iqr:8.3f} {rng:8.3f} {bound:6.2f}  {verdict}")
        probes = [p for r in rows if r["workload"] == w and not r["trace"]
                  for p in (r.get("host_probe_ms") or [])]
        if probes:
            q1, med, q3 = _quartiles(probes)
            print(f"  host probe (fixed Python loop, before and after each "
                  f"run): median {med:.2f} ms, iqr/med {(q3 - q1) / med:.3f}, "
                  f"rng/med {(max(probes) - min(probes)) / med:.3f}")
        traced = [r["result"] for r in rows if r["workload"] == w and r["trace"]]
        if traced:
            base = statistics.median(
                r["metrics"]["latency_ms_p50"]["value"] for r in runs)
            ts = [r["metrics"]["trace.latency_ms_p50"]["value"] for r in traced]
            t = statistics.median(ts)
            est = statistics.median(
                r["metrics"]["trace.span_cost_share"]["value"] for r in traced)
            unc = statistics.median(
                r["metrics"]["trace.uncovered_share"]["value"] for r in traced)
            print(f"  tracing overhead (measured): median traced latency p50 "
                  f"{t:.3f} ms over {len(ts)} traced runs "
                  f"({min(ts):.3f}-{max(ts):.3f}) vs untraced median "
                  f"{base:.3f} ms: {(t / base - 1) * 100:+.1f}%")
            print(f"  calibrated span cost: {est * 100:.3f}% of request time; "
                  f"request time left uncovered by layer spans: "
                  f"{unc * 100:.1f}%")
    return steady


def compare(first: list, second: list, spec: dict) -> bool:
    ok = True
    print(f"{'workload':12s} {'metric':18s} {'median 1':>11s} {'median 2':>11s} "
          f"{'2 worse':>8s} {'1 worse':>8s} {'bound':>6s}")
    for w in [w["name"] for w in spec["workloads"]]:
        for m in spec["end_to_end"]:
            name = m["name"]
            a = [r["result"]["metrics"][name]["value"] for r in first
                 if r["workload"] == w and not r["trace"]]
            b = [r["result"]["metrics"][name]["value"] for r in second
                 if r["workload"] == w and not r["trace"]]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            sign = 1 if m["better"] == "lower" else -1
            worse2 = sign * (mb - ma) / ma
            worse1 = sign * (ma - mb) / mb
            agree = max(worse1, worse2) <= m["bound"]
            ok &= agree
            print(f"{w:12s} {name:18s} {ma:11.4f} {mb:11.4f} "
                  f"{worse2 * 100:7.2f}% {worse1 * 100:7.2f}% "
                  f"{m['bound']:6.2f}{'' if agree else '  EXCEEDS BOUND'}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="limit to these workloads (repeatable)")
    parser.add_argument("--traced", type=int, default=0, metavar="K",
                        help="add traced runs of every workload on the "
                             "first K seeds")
    parser.add_argument("--save", help="write every run's result as JSONL")
    parser.add_argument("--compare", nargs=2, metavar="JSONL")
    args = parser.parse_args(argv)
    spec = _spec()

    if args.compare:
        sets = [[json.loads(line) for line in Path(p).read_text().splitlines()]
                for p in args.compare]
        return 0 if compare(*sets, spec) else 1

    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    rows = []
    out = open(args.save, "w") if args.save else None
    try:
        # interleave workloads so slow drift of the host spreads evenly
        for i in range(args.runs):
            for w in workloads:
                seed = args.first_seed + i
                result, probe = _run(w, seed, spec["run_seconds"], 0)
                row = {"workload": w, "seed": seed, "trace": 0,
                       "result": result, "host_probe_ms": probe}
                rows.append(row)
                print(f"# {w} seed {seed}: done", file=sys.stderr, flush=True)
                if out:
                    out.write(json.dumps(row) + "\n")
                    out.flush()
        for i in range(args.traced):
            for w in workloads:
                seed = args.first_seed + i
                result, probe = _run(w, seed, spec["run_seconds"], 1)
                row = {"workload": w, "seed": seed, "trace": 1,
                       "result": result, "host_probe_ms": probe}
                rows.append(row)
                print(f"# {w} seed {seed} traced: done", file=sys.stderr,
                      flush=True)
                if out:
                    out.write(json.dumps(row) + "\n")
                    out.flush()
    finally:
        if out:
            out.close()
    print(f"run_seconds {spec['run_seconds']}, seeds {args.first_seed}.."
          f"{args.first_seed + args.runs - 1}; verdict: (max - min) / median "
          f"against the bound (steady: within a third of it)")
    return 0 if report(rows, spec) else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Run-to-run spread of the end-to-end metrics, to set and check their bounds.

Run from the root of a checkout:

    python3 bench/spread.py --workload render-deep --seeds 1-10

Runs bench/run.py once per seed, one run at a time, with the run_seconds of
BENCHMARK.json, and prints for each metric the median and quartiles of the
per-run values (statistics.quantiles, n=4) with the sample count, and the
quartile distance as a share of the median next to the metric's bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    status = 0
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in args.seeds:
            start = time.perf_counter()
            result = run_once(workload, seed, spec["run_seconds"], args.trace)
            took = time.perf_counter() - start
            if not result["correct"]:
                status = 1
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} run took {took:.1f} s",
                  flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"{workload}: {'metric':<40}{'n':>4}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'iqr/med':>9}{'bound':>7}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            share = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None else ("  ok" if share <= bound / 3 else
                                             "  within bound" if share <= bound else "  TOO WIDE")
            print(f"{workload}: {name:<40}{len(vals):>4}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{share:>9.4f}{'' if bound is None else bound:>7}{flag} {units[name]}")
        out = ROOT / ".bench_out" / f"spread-{workload}-trace{args.trace}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"seeds": args.seeds, "values": values, "units": units}))
    return status


if __name__ == "__main__":
    raise SystemExit(main())

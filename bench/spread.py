"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 1-10 [--workloads city15,pool10]
                            [--trace 0|1] [--save runs.json] [--against old.json]

Workloads are interleaved: each seed runs every workload, and the order
rotates from seed to seed, so a slow stretch of the host does not land on
one workload.  For every end-to-end metric it prints the median over the
seeds, the quartiles, the spread (q3 - q1) / median and the bound from
BENCHMARK.json.  ``--against`` compares the medians with a saved set of
runs, as a check of parent against change does.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                 f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", type=Path)
    ap.add_argument("--against", type=Path)
    args = ap.parse_args()
    workloads = args.workloads.split(",")

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for k, seed in enumerate(args.seeds):
        shift = k % len(workloads)
        for workload in workloads[shift:] + workloads[:shift]:
            result = run_once(workload, seed, args.seconds, args.trace)
            runs[workload].append(result)
            print(f"seed {seed} {workload}: correct {result['correct']} "
                  f"failed {result['failed']}/{result['attempted']}",
                  flush=True)
    if args.save:
        args.save.write_text(json.dumps(runs))
    old = json.loads(args.against.read_text()) if args.against else {}

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print(f"{'workload':9} {'metric':38} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}"
          + (f" {'vs saved':>9}" if old else ""))
    for workload, results in runs.items():
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            if None in values:
                print(f"{workload:9} {name:38} missing")
                continue
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name)
            line = (f"{workload:9} {name:38} {median:12.4f} {q1:12.4f} "
                    f"{q3:12.4f} {spread:7.3f} "
                    f"{'' if bound is None else bound:>6}")
            if workload in old:
                before = statistics.median(
                    r["metrics"][name]["value"] for r in old[workload])
                line += (f" {(median - before) / before:+9.3f}" if before
                         else f" {'n/a':>9}")
            print(line)
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload:9} {'failed_run_share':38} {failed / attempted:12.4f}"
              f"  ({failed} of {attempted} runs; all correct: "
              f"{all(r['correct'] for r in results)})")


if __name__ == "__main__":
    main()

"""ridematch benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload city15 [--seed 1] [--seconds 40] [--trace 0|1]

A seed stands for three draws of the workload's demand (``workloads.py``).
With ``--trace 0`` the draws run in turn, again and again, in one fresh
single-threaded process until ``--seconds`` have passed (each at least
once), and every run's trip log is checked.  The host's speed
is probed just before every matcher call, and every time reported is
scaled to a fixed host speed (``scaled_runs``), so a slow stretch of a
shared host does not show as a slower program.  With ``--trace 1`` the
first draw runs once untraced and twice with every layer hooked, each in
a fresh process; the per-layer metrics come from the traced runs, whose
counts must agree.

Run from the root of a checkout: the program is imported from ``src/``.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

START = time.perf_counter()
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED = BENCH_DIR / "expected.json"

sys.path.insert(0, str(BENCH_DIR))
from tracer import METRICS as LAYER_METRICS  # noqa: E402
from workloads import DEFAULT_SEED, DRAWS, WORKLOADS  # noqa: E402

WORKER_TIMEOUT_S = 170
# times are scaled to a host on which ``worker.host_probe`` takes this long,
# about its time at full speed on the 2-vCPU Intel Xeon VM the benchmark
# was tuned on; see README.md
PROBE_S = 1.0e-3
# a worker runs alone in its process: no BLAS thread pools
WORKER_ENV = {**os.environ, "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_worker(workload: str, seed: int, *extra: str):
    """A worker in a fresh process; None when it failed or timed out."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload",
           workload, "--seed", str(seed), *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S, env=WORKER_ENV)
    except subprocess.TimeoutExpired:
        print(f"worker timed out after {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(proc.stderr[-2000:], file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def check_runs(runs: list[dict], expected: list[str] | None) -> int:
    """Failed runs: broke an invariant or a trip-log mismatch.

    Without recorded hashes, the runs of a draw must still agree with each
    other.
    """
    reference = list(expected or [])
    for r in runs:
        if r["draw"] >= len(reference):
            reference.append(r["trip_log_sha256"])
    return sum(1 for r in runs if r["breaches"]
               or r["trip_log_sha256"] != reference[r["draw"]])


def recorded_hashes(workload: str, seed: int) -> list[str] | None:
    if not EXPECTED.is_file():
        return None
    return json.loads(EXPECTED.read_text()).get(workload, {}).get(str(seed))


def record_hashes(workload: str, seed: int, shas: list[str]) -> None:
    doc = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    doc.setdefault(workload, {})[str(seed)] = shas
    EXPECTED.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def environment() -> str:
    versions = " ".join(f"{pkg} {metadata.version(pkg)}"
                        for pkg in ("numpy", "scipy", "networkx"))
    return (f"python {sys.version.split()[0]} {versions} "
            f"nproc {len(os.sched_getaffinity(0))}")


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4f} q3 {q3:.4f} n={len(values)}"


def wall_s(run: dict) -> float:
    """Unscaled wall time of one run, the probes left out."""
    return run["head_s"] + sum(run["update_s"]) + sum(run["between_s"])


def scaled_runs(out: dict) -> tuple[list[float], list[list[float]],
                                      list[float]]:
    """Every time scaled to a host on which the probe takes PROBE_S.

    A segment's time is multiplied by ``PROBE_S / probe``, the probe being
    the median of the readings just before the segment's matcher call and
    just before the calls either side.  Returns per run the scaled run
    time and the scaled matcher-call times, and the scaled set-up times.
    """
    totals, updates = [], []
    for r in out["runs"]:
        probes = r["probe_s"]
        scale = [PROBE_S / statistics.median(probes[max(k - 1, 0):k + 2])
                 for k in range(len(probes))]
        totals.append(r["head_s"] * scale[0] + sum(
            (u + b) * k for u, b, k in zip(r["update_s"], r["between_s"],
                                           scale)))
        updates.append([u * k for u, k in zip(r["update_s"], scale)])
    setup = [t * PROBE_S / p
             for t, p in zip(out["setup_s"], out["setup_probe_s"])]
    return totals, updates, setup


def first_hashes(runs: list[dict]) -> list[str]:
    """The trip-log hash of each draw's first run, in draw order."""
    return [next(r["trip_log_sha256"] for r in runs if r["draw"] == d)
            for d in sorted({r["draw"] for r in runs})]


def end_to_end(args, expected: list[str] | None):
    budget = args.seconds - (time.perf_counter() - START)
    out = run_worker(args.workload, args.seed,
                     "--seconds", str(max(budget, 0.0)))
    if out is None:
        return 1, 1, {}, []
    runs = out["runs"]
    failed = check_runs(runs, expected)
    totals, updates, setup = scaled_runs(out)
    # per draw: the medians over its runs; a deterministic program makes
    # the same matcher calls in every run of a draw
    run_s, busy, setup_s = [], [], []
    for draw in range(DRAWS):
        mine = [k for k, r in enumerate(runs) if r["draw"] == draw]
        flags = runs[mine[0]]["busy"]
        if any(runs[k]["busy"] != flags for k in mine):
            print(f"runs of draw {draw} made different matcher calls")
            return len(runs), len(runs), {}, []
        run_s.append(statistics.median(totals[k] for k in mine))
        setup_s.append(statistics.median(setup[k] for k in mine))
        busy += [statistics.median(times) * 1e3 for times, is_busy
                 in zip(zip(*(updates[k] for k in mine)), flags) if is_busy]
    metrics = {
        "run_s": (statistics.mean(run_s), "s"),
        "update_p50_ms": (statistics.median(busy), "ms"),
        "update_p90_ms": (statistics.quantiles(busy, n=10)[8], "ms"),
        "setup_s": (statistics.mean(setup_s), "s"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB"),
        "service_rate_pct": (statistics.mean(
            runs[d]["service_rate_pct"] for d in range(DRAWS)), "%"),
    }
    print(f"workload {args.workload} seed {args.seed}: {len(runs)} runs of "
          f"{DRAWS} draws in one fresh process; times scaled by the host "
          f"probe, medians over a draw's runs, means over draws")
    for name, (value, unit) in metrics.items():
        print(f"  {name:18} {value:12.4f} {unit}")
    print(f"  update percentiles are over {len(busy)} busy updates "
          f"(pending non-empty at entry) of the {DRAWS} draws, each call "
          f"the median over its draw's runs")
    print(f"  scaled run_s per draw  "
          f"{' '.join(f'{v:.4f}' for v in run_s)} s")
    whole = [wall_s(r) for r in runs]
    print(f"  unscaled run_s   {statistics.median(whole):12.4f} s  "
          f"{quartiles(whole)}")
    print(f"  unscaled setup_s {statistics.median(out['setup_s']):12.4f} s  "
          f"{quartiles(out['setup_s'])}")
    print(f"  {'failed_run_share':18} {failed / len(runs):12.4f} ratio "
          f"({failed} of {len(runs)})")
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in metrics.items()}
    return len(runs), failed, metrics, first_hashes(runs)


def traced(args, expected: list[str] | None):
    plain = run_worker(args.workload, args.seed, "--min-runs", "1")
    runs = [run_worker(args.workload, args.seed, "--trace")
            for _ in range(2)]
    if plain is None or not all(runs):
        return 3, 3 - sum(1 for r in runs if r), {}, []
    failed = check_runs([*plain["runs"], *({"draw": 0, **r} for r in runs)],
                        expected)
    counted = {name for name, (unit, _) in LAYER_METRICS.items()
               if unit != "s"}
    drift = sorted(name for name in counted
                   if runs[0]["layers"][name] != runs[1]["layers"][name])
    if runs[0]["service_rate_pct"] != runs[1]["service_rate_pct"]:
        drift.append("service_rate_pct")
    if drift:
        print(f"per-layer counts differ between traced runs: {drift}")
        failed += 1
    metrics = {}
    print(f"workload {args.workload} seed {args.seed}, draw 0: per-layer "
          f"metrics of two traced runs (times are medians)")
    for name, (unit, _) in LAYER_METRICS.items():
        values = [r["layers"][name] for r in runs]
        value = (None if values[0] is None else
                 statistics.median(values) if unit == "s" else values[0])
        metrics[name] = {"value": value, "unit": unit}
        shown = "missing" if value is None else f"{value:14.4f}"
        print(f"  {name:38} {shown} {unit}")
    plain_s = wall_s(plain["runs"][0])
    overhead = statistics.median(r["run_s"] for r in runs) - plain_s
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    print(f"  {'trace.overhead_s':38} {overhead:14.4f} s  (traced "
          f"minus untraced run_s {plain_s:.4f} s)")
    if runs[0]["missing_hooks"]:
        print(f"  hooks whose target is gone: {runs[0]['missing_hooks']}")
    return 3, failed, metrics, [runs[0]["trip_log_sha256"]]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this seed's trip-log SHA-256s as the "
                         "expected ones")
    args = ap.parse_args()
    if not (ROOT / "src" / "ridematch" / "__init__.py").is_file():
        sys.exit(f"no ridematch source tree under {ROOT / 'src'}")

    expected = None if args.record else recorded_hashes(args.workload,
                                                        args.seed)
    measure = traced if args.trace else end_to_end
    attempted, failed, metrics, shas = measure(args, expected)
    for draw, sha in enumerate(shas):
        if not expected:
            verdict = "no hash recorded for this seed"
        elif sha == expected[draw]:
            verdict = "matches the recorded hash"
        else:
            verdict = f"DIFFERS from the recorded {expected[draw]}"
        print(f"  draw {draw} trip_log_sha256 {sha} ({verdict})")
    print(f"  env: {environment()}")
    if args.record and len(shas) == DRAWS and not failed:
        record_hashes(args.workload, args.seed, shas)
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()

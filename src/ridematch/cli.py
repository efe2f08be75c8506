"""Command-line front end: run scenarios, sweeps, and paired comparisons.

Every command takes a JSON config (``--config``); ``run`` also accepts a
previously written manifest, which re-runs the exact recorded scenario.
Artifacts are CSV files plus a JSON manifest in ``--out-dir``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import __version__
from .engine import MATCHERS
from .metrics import (MetricsReport, compute_metrics, format_summary,
                      metrics_header, metrics_row)
from .network import Field, NetworkFormatError, check_fields, read_json
from .sim import (DEMAND_SCALE, ConfigError, ScenarioConfig, build_network,
                  check_demand_bounds, check_demand_reachability,
                  run_scenario, write_trip_log)

MANIFEST_SCHEMA_VERSION = 1

# the field tables of a sweep spec and of its axes, which mirror the
# sensitivity analysis dimensions; an axis lists the values it takes
SWEEP_TABLE = {
    "base": Field(dict),
    "axes": Field(dict, default={}),
    "seeds": Field(list, 1, None),  # default: the base config's seed
    "max_runs": Field(int, 1, 1000),
}
AXES_TABLE = {axis: Field(list, 1, None)
              for axis in ("fleet_size", "demand_scale", "capacity",
                           "flexibility_s", "update_interval_s", "matcher")}
MAX_SWEEP_RUNS = 10_000  # the largest max_runs a sweep spec may set


def _load_config(path: str | Path) -> ScenarioConfig:
    """Read a scenario config, accepting run manifests transparently."""
    doc = read_json(path, ConfigError, "config file")
    if isinstance(doc, dict) and "config" in doc and "artifact" in doc:
        doc = doc["config"]
    return ScenarioConfig.from_dict(doc)


def _config_digest(config: ScenarioConfig) -> str:
    canon = json.dumps(config.to_dict(), sort_keys=True,
                       separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _apply_overrides(config: ScenarioConfig,
                     args: argparse.Namespace) -> ScenarioConfig:
    changes = {}
    if getattr(args, "seed", None) is not None:
        changes["seed"] = args.seed
    if getattr(args, "matcher", None) is not None:
        changes["matcher"] = args.matcher
    return config.replace(**changes) if changes else config


def _write_csv(path: Path, header: list, rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_manifest(path: Path, config: ScenarioConfig,
                    outputs: dict[str, str]) -> None:
    doc = {
        "artifact": "ridematch",
        "version": __version__,
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "seed": config.seed,
        "config_sha256": _config_digest(config),
        "config": config.to_dict(),
        "outputs": outputs,
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _execute(config: ScenarioConfig) -> tuple[MetricsReport, list[dict]]:
    result = run_scenario(config)
    report = compute_metrics(result.trip_records, result.state.vehicles,
                             result.update_records)
    return report, result.trip_records


def cmd_run(args: argparse.Namespace) -> int:
    config = _apply_overrides(_load_config(args.config), args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report, trips = _execute(config)
    write_trip_log(out_dir / "trip_log.csv", trips)
    _write_csv(out_dir / "metrics.csv", metrics_header(),
               [metrics_row(report)])
    _write_manifest(out_dir / "manifest.json", config,
                    {"trip_log": "trip_log.csv", "metrics": "metrics.csv"})
    print(format_summary(report))
    print(f"artifacts written to {out_dir}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    net = build_network(config)
    check_demand_reachability(config, net)
    check_demand_bounds(config, net)
    print(f"{args.config}: ok "
          f"({len(net.nodes)} nodes, {len(net.links)} links, "
          f"matcher={config.matcher})")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    base = _apply_overrides(_load_config(args.config), args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = {}
    for matcher in ("gmomatch", "baseline"):
        config = base.replace(matcher=matcher)
        report, trips = _execute(config)
        reports[matcher] = report
        write_trip_log(out_dir / f"trip_log_{matcher}.csv", trips)
    rows = []
    for name in metrics_header()[1:]:
        g = getattr(reports["gmomatch"], name)
        b = getattr(reports["baseline"], name)
        delta = (g - b if isinstance(g, (int, float))
                 and isinstance(b, (int, float)) else "")
        rows.append(["" if _is_nan(v) else v for v in (g, b, delta)])
        rows[-1].insert(0, name)
    _write_csv(out_dir / "comparison.csv",
               ["metric", "gmomatch", "baseline", "delta"], rows)
    _write_manifest(out_dir / "manifest.json", base,
                    {"comparison": "comparison.csv",
                     "trip_log_gmomatch": "trip_log_gmomatch.csv",
                     "trip_log_baseline": "trip_log_baseline.csv"})
    for matcher, report in reports.items():
        print(f"--- {matcher} ---")
        print(format_summary(report))
    sr_delta = (reports["gmomatch"].service_rate
                - reports["baseline"].service_rate)
    if not math.isnan(sr_delta):
        print(f"service rate delta (gmomatch - baseline): {sr_delta:+.2f}%")
    print(f"artifacts written to {out_dir}")
    return 0


def _is_nan(v) -> bool:
    return isinstance(v, float) and math.isnan(v)


def _load_sweep_spec(path: str | Path) -> tuple[ScenarioConfig, dict, list, int]:
    doc = check_fields(read_json(path, ConfigError, "sweep spec"),
                       SWEEP_TABLE, "sweep spec", ConfigError)
    base = ScenarioConfig.from_dict(doc["base"])
    axes = check_fields(doc.get("axes", SWEEP_TABLE["axes"].default),
                        AXES_TABLE, "sweep axes", ConfigError)
    max_runs = doc.get("max_runs", SWEEP_TABLE["max_runs"].default)
    if max_runs > MAX_SWEEP_RUNS:
        raise ConfigError(f"max_runs must be at most {MAX_SWEEP_RUNS}, "
                          f"got {max_runs}")
    # each seed and axis value is checked with the config it goes into
    return base, axes, doc.get("seeds", [base.seed]), max_runs


def _sweep_combos(base: ScenarioConfig, axes: dict,
                  seeds: list[int]) -> list[dict]:
    """Cross product of axis values x seeds, each as a full config dict."""
    combos: list[dict] = [{}]
    for key in AXES_TABLE:
        if key not in axes:
            continue
        combos = [dict(c, **{key: v}) for c in combos for v in axes[key]]
    out = []
    for combo in combos:
        for seed in seeds:
            doc = base.to_dict()
            doc["demand"] = dict(doc["demand"])
            for key, value in combo.items():
                if key == "demand_scale":
                    doc["demand"]["scale"] = value
                else:
                    doc[key] = value
            doc["seed"] = seed
            ScenarioConfig.from_dict(doc)  # every combination must validate
            out.append(doc)
    return out


def _sweep_worker(doc: dict) -> dict:
    """Run one sweep combination; never raises."""
    try:
        config = ScenarioConfig.from_dict(doc)
        report, _ = _execute(config)
        return {"status": "ok", "row": metrics_row(report)}
    except Exception as exc:  # failures become rows, the sweep continues
        return {"status": "failed", "error": f"{type(exc).__name__}: {exc}"}


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    base, axes, seeds, max_runs = _load_sweep_spec(args.config)
    # counted before any combination is built
    runs = math.prod(map(len, axes.values())) * len(seeds)
    if runs > max_runs:
        raise ConfigError(f"sweep would launch {runs} runs, "
                          f"above the max_runs cap of {max_runs}")
    build_network(base)  # every run has this network: a bad one exits 2
    combos = _sweep_combos(base, axes, seeds)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.jobs > 1:  # the pool forks all its workers at once
        workers = min(args.jobs, len(combos), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_worker, combos))
    else:
        results = [_sweep_worker(doc) for doc in combos]
    config_cols = ["fleet_size", "demand_scale", "capacity", "flexibility_s",
                   "update_interval_s", "matcher", "seed"]
    header = ["run_index", *config_cols, "status", "error", *metrics_header()]
    rows = []
    failures = 0
    for idx, (doc, res) in enumerate(zip(combos, results)):
        cfg_vals = [doc["fleet_size"],
                    doc["demand"].get("scale", DEMAND_SCALE.default),
                    doc["capacity"], doc["flexibility_s"],
                    doc["update_interval_s"], doc["matcher"], doc["seed"]]
        if res["status"] == "ok":
            rows.append([idx, *cfg_vals, "ok", "", *res["row"]])
        else:
            failures += 1
            rows.append([idx, *cfg_vals, "failed", res["error"],
                         *[""] * len(metrics_header())])
    _write_csv(out_dir / "sweep.csv", header, rows)
    print(f"{len(combos)} runs ({failures} failed) -> {out_dir / 'sweep.csv'}")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ridematch",
        description="Ride-matching fleet simulator: two-step many-to-one "
                    "matching vs a one-to-one baseline.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario")
    p_run.add_argument("--config", required=True,
                       help="scenario config JSON (or a run manifest)")
    p_run.add_argument("--out-dir", default="out",
                       help="artifact directory (default: out)")
    p_run.add_argument("--seed", type=int, help="override the config seed")
    p_run.add_argument("--matcher", choices=tuple(MATCHERS),
                       help="override the config matcher")
    p_run.set_defaults(handler=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    p_sweep.add_argument("--config", required=True, help="sweep spec JSON")
    p_sweep.add_argument("--out-dir", default="out")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="parallel scenario workers (default: 1)")
    p_sweep.set_defaults(handler=cmd_sweep)

    p_cmp = sub.add_parser("compare",
                           help="run both matchers on the same draws")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--out-dir", default="out")
    p_cmp.add_argument("--seed", type=int, help="override the config seed")
    p_cmp.set_defaults(handler=cmd_compare)

    p_val = sub.add_parser("validate", help="check a scenario config")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(handler=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, NetworkFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

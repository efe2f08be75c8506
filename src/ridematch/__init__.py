"""Dynamic ride-matching: a two-step many-to-one matcher, a one-to-one
baseline, and a rolling-horizon fleet simulator to compare them."""

__version__ = "0.1.0"

from .assignment import (BipartiteGraph, Edge, build_bipartite,
                         feasible_vehicles, solve_assignment)
from .engine import (MATCHERS, UpdateOutcome, baseline_update,
                     gmomatch_update)
from .metrics import MetricsReport, compute_metrics, format_summary
from .model import (ASSIGNED, DROPOFF, EXPIRED, ONBOARD, PENDING, PICKUP,
                    SERVED, Request, Stop, Vehicle, make_request)
from .network import (Link, NetworkFormatError, RoadNetwork, grid_network,
                      load_network)
from .scheduling import (PlanResult, evaluate_tour, path_cost,
                         split_merge_cost, split_tour)
from .sim import (ConfigError, RunResult, ScenarioConfig, SimulationState,
                  advance, build_network, commuter_config, example_config,
                  generate_demand, initialize_fleet, run_scenario,
                  write_trip_log)
from .vehicle_graph import (MergeEdge, Step2Stats, VehicleGraph,
                            apply_merges, build_vehicle_graph,
                            donor_eligible, select_merges, step2_loop)

__all__ = [
    "__version__",
    "ASSIGNED", "DROPOFF", "EXPIRED", "ONBOARD", "PENDING", "PICKUP",
    "SERVED",
    "BipartiteGraph", "ConfigError", "Edge", "Link", "MATCHERS",
    "MergeEdge", "MetricsReport", "NetworkFormatError", "PlanResult",
    "Request", "RoadNetwork", "RunResult", "ScenarioConfig",
    "SimulationState", "Step2Stats", "Stop", "UpdateOutcome", "Vehicle",
    "VehicleGraph", "advance", "apply_merges", "baseline_update",
    "build_bipartite", "build_network", "build_vehicle_graph",
    "commuter_config", "compute_metrics", "donor_eligible", "evaluate_tour",
    "example_config",
    "feasible_vehicles", "format_summary", "generate_demand",
    "gmomatch_update", "grid_network", "initialize_fleet", "load_network",
    "make_request", "path_cost", "run_scenario", "select_merges",
    "solve_assignment", "split_merge_cost", "split_tour", "step2_loop",
    "write_trip_log",
]

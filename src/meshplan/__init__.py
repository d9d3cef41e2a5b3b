"""Wireless mesh backbone planner on grid candidate sites.

Plans multi-radio multi-channel mesh deployments: which sites become access
points, relays and gateways, how links are channelized, and how client
demand routes to the gateways. A mutation-driven multi-objective particle
swarm explores the feasible space against cost, coverage, link load balance
and gateway load balance; an exhaustive oracle validates tiny instances.
"""

from .instance import (
    InstanceError,
    PlanningInstance,
    RadioParams,
    build_grid_instance,
    connectivity_matrix,
    coverage_matrix,
    default_gateway_count,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
)
from .model import (
    Solution,
    VARIANTS,
    check_constraints,
    dominates,
    evaluate,
    evaluate_cost,
    evaluate_coverage,
    evaluate_gateway_balance,
    evaluate_link_balance,
    load_solution,
    parse_variant,
    save_solution,
    solution_from_dict,
    solution_metrics,
    solution_to_dict,
)
from .flow import (
    RoutingInfeasibleError,
    RoutingTrace,
    gateway_throughputs,
    hop_distances,
    route_flows,
)
from .construct import (
    ChannelAssignmentError,
    ConstructionInfeasibleError,
    assign_channels,
    connect_backbone,
    construct_feasible,
    place_access_points,
    place_relays,
    select_gateways,
)
from .mopso import (
    MopsoConfig,
    MopsoResult,
    ParetoArchive,
    cheapest_solution,
    crowding_distance,
    mutate_solution,
    run,
)
from .oracle import (
    EnumerationLimitError,
    GuardError,
    enumerate_feasible,
    true_pareto_front,
    verify_archive,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelAssignmentError",
    "ConstructionInfeasibleError",
    "EnumerationLimitError",
    "GuardError",
    "InstanceError",
    "MopsoConfig",
    "MopsoResult",
    "ParetoArchive",
    "PlanningInstance",
    "RadioParams",
    "RoutingInfeasibleError",
    "RoutingTrace",
    "Solution",
    "VARIANTS",
    "assign_channels",
    "build_grid_instance",
    "cheapest_solution",
    "check_constraints",
    "connect_backbone",
    "connectivity_matrix",
    "construct_feasible",
    "coverage_matrix",
    "crowding_distance",
    "default_gateway_count",
    "dominates",
    "enumerate_feasible",
    "evaluate",
    "evaluate_cost",
    "evaluate_coverage",
    "evaluate_gateway_balance",
    "evaluate_link_balance",
    "gateway_throughputs",
    "hop_distances",
    "instance_from_dict",
    "instance_to_dict",
    "load_instance",
    "load_solution",
    "mutate_solution",
    "parse_variant",
    "place_access_points",
    "place_relays",
    "route_flows",
    "run",
    "save_instance",
    "save_solution",
    "select_gateways",
    "solution_from_dict",
    "solution_metrics",
    "solution_to_dict",
    "true_pareto_front",
    "verify_archive",
]

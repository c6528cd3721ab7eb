"""Planar paired-egress switching networks.

Three layouts (triangular, chevron, brickwork) pair N inputs behind N/2
two-port analyzers with the minimum number of 2x2 switch elements,
N*(N-2)/4, plus routing algorithms, a propagation simulator, and
verification harnesses for the non-blocking and minimality claims.
"""
from .errors import (
    BoundExceeded,
    IncompleteStates,
    InvalidDemand,
    InvalidInput,
    InvalidPorts,
    PairSwitchError,
)
from .metrics import (
    count_table,
    depth_formulas,
    depth_stats,
    emit_csv,
    series_rows,
)
from .render import RenderOptions, render_ascii, render_svg
from .routing import (
    OpCounter,
    PairList,
    RoutingPlan,
    plan_from_json,
    plan_to_json,
    route,
    route_brickwork,
    route_chevron,
    route_triangular,
)
from .simulation import (
    brute_force_route,
    check_pairing,
    estimate_loss,
    propagate,
    simulate,
    traversal_depths,
)
from .topology import (
    MAX_PORTS,
    Design,
    Network,
    State,
    SwitchPoint,
    build_network,
    network_from_json,
    network_to_json,
    optimal_switch_count,
    reverse_network,
    validate_network,
)
from .verification import (
    double_factorial,
    enumerate_pair_lists,
    random_pair_list,
    verify_design,
    verify_minimality,
    worst_case_pair_list,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_PORTS",
    "BoundExceeded",
    "Design",
    "IncompleteStates",
    "InvalidDemand",
    "InvalidInput",
    "InvalidPorts",
    "Network",
    "OpCounter",
    "PairList",
    "PairSwitchError",
    "RenderOptions",
    "RoutingPlan",
    "State",
    "SwitchPoint",
    "brute_force_route",
    "build_network",
    "check_pairing",
    "count_table",
    "depth_formulas",
    "depth_stats",
    "double_factorial",
    "emit_csv",
    "enumerate_pair_lists",
    "estimate_loss",
    "network_from_json",
    "network_to_json",
    "optimal_switch_count",
    "plan_from_json",
    "plan_to_json",
    "propagate",
    "random_pair_list",
    "render_ascii",
    "render_svg",
    "reverse_network",
    "route",
    "route_brickwork",
    "route_chevron",
    "route_triangular",
    "series_rows",
    "simulate",
    "traversal_depths",
    "validate_network",
    "verify_design",
    "verify_minimality",
    "worst_case_pair_list",
]

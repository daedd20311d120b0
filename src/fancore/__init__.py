"""Multigraph edge-colouring analysis toolkit.

Core value types (Multigraph, SubgraphSelection), t-core extraction,
B-queues, fan and corefan invariants with witnesses, an exact chromatic
index oracle, a constructive fan-recolouring engine, and the builder for
graphs with a prescribed t-core and provably large fan number.
"""

from .bqueue import BQueue, greedy_full_bqueue, validate_bqueue
from .colouring import EdgeColouring, chromatic_index_exact, fan_colouring, verify_colouring
from .core import CoreReport, bqueue_core_condition, core_report, edges_above, forest_core_condition, t_core
from .errors import GraphError, ParseError, ResourceLimitError
from .fanmetrics import (
    FanReport,
    cfan_degree,
    constant_multiplicity_lift,
    corefan,
    corefan_bruteforce,
    degree_preserving_set,
    fan_bound,
    fan_degree,
    fan_number,
    fan_pair_exceeds,
    full_multiplicity_criterion,
    has_qualifying_edge,
)
from .multigraph import Multigraph, SubgraphSelection, dump, load, parse, serialize
from .witness import (
    ConstructionPlan,
    choose_params,
    construct_witness,
    plan_from_text,
    plan_to_text,
    verify_witness,
)

__version__ = "0.1.0"

__all__ = [
    "BQueue",
    "ConstructionPlan",
    "CoreReport",
    "EdgeColouring",
    "FanReport",
    "GraphError",
    "Multigraph",
    "ParseError",
    "ResourceLimitError",
    "SubgraphSelection",
    "bqueue_core_condition",
    "cfan_degree",
    "chromatic_index_exact",
    "choose_params",
    "constant_multiplicity_lift",
    "construct_witness",
    "core_report",
    "corefan",
    "corefan_bruteforce",
    "degree_preserving_set",
    "dump",
    "edges_above",
    "fan_bound",
    "fan_colouring",
    "fan_degree",
    "fan_number",
    "fan_pair_exceeds",
    "forest_core_condition",
    "full_multiplicity_criterion",
    "greedy_full_bqueue",
    "has_qualifying_edge",
    "load",
    "parse",
    "plan_from_text",
    "plan_to_text",
    "serialize",
    "t_core",
    "validate_bqueue",
    "verify_colouring",
    "verify_witness",
]

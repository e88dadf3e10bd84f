"""repro.analysis — CFG, dominance, loop, alias and memory-dependence
analyses (the NOELLE/PDG stand-in that WARio's transformations consume)."""

from .alias import AFFINE, ALIAS_MODES, CONSERVATIVE, PRECISE, AliasAnalysis, PointerInfo
from .cfg import reachability, reverse_postorder
from .dominators import DominatorTree, dominance_frontiers, dominator_tree
from .loops import Loop, LoopInfo, find_induction_variables, loop_info
from .memdep import (
    BACKWARD,
    FORWARD,
    WARIndex,
    WARViolation,
    access_size,
    find_wars,
    summary_sets_intersect,
)
from .pointsto import (
    MAX_GEP_DEPTH,
    TopCause,
    compute_points_to,
    report_top_causes,
)
from .redundancy import (
    DEFAULT_ELISION_BUDGET,
    ElisionDecision,
    RedundancyAnalysis,
)
from .static_war import verify_function_war, verify_module_war
from .summaries import (
    AndersenPointsTo,
    FunctionSummary,
    SummaryTable,
    compute_summaries,
)

__all__ = [
    "AliasAnalysis", "PointerInfo", "PRECISE", "CONSERVATIVE", "AFFINE",
    "ALIAS_MODES",
    "reverse_postorder", "reachability",
    "DominatorTree", "dominator_tree", "dominance_frontiers",
    "Loop", "LoopInfo", "loop_info", "find_induction_variables",
    "WARIndex", "WARViolation", "find_wars", "access_size",
    "FORWARD", "BACKWARD", "summary_sets_intersect",
    "MAX_GEP_DEPTH", "TopCause", "compute_points_to", "report_top_causes",
    "AndersenPointsTo", "FunctionSummary", "SummaryTable", "compute_summaries",
    "DEFAULT_ELISION_BUDGET", "ElisionDecision", "RedundancyAnalysis",
    "verify_function_war", "verify_module_war",
]

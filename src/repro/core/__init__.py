"""repro.core — WARio itself: the paper's compiler transformations and
the ``iclang`` driver that orchestrates them (paper §3/§4)."""

from .checkpoint_elim import (
    ElisionReport,
    audit_elisions,
    elide_redundant_checkpoints,
)
from .checkpoint_inserter import (
    insert_checkpoints,
    insert_function_checkpoints,
    war_candidate_positions,
)
from .expander import expand
from .hitting_set import greedy_hitting_set
from .loop_write_clusterer import (
    DEFAULT_UNROLL_FACTOR,
    ClusterReport,
    cluster_loop_writes,
    is_candidate,
)
from .lint import (
    LintResult,
    certify,
    lint_benchmarks,
    lint_sources,
    strip_checkpoints,
)
from .profiling import collect_call_profile, iclang_pgo, profile_guided_expand
from .region_bound import bound_region_sizes
from .pipeline import (
    ENVIRONMENTS,
    Build,
    EnvironmentConfig,
    build,
    environment,
    iclang,
    lower,
    run_middle_end,
)
from .write_clusterer import cluster_writes

__all__ = [
    "ElisionReport", "audit_elisions", "elide_redundant_checkpoints",
    "insert_checkpoints", "insert_function_checkpoints",
    "war_candidate_positions",
    "expand",
    "greedy_hitting_set",
    "cluster_loop_writes", "ClusterReport", "is_candidate",
    "DEFAULT_UNROLL_FACTOR",
    "cluster_writes",
    "collect_call_profile", "iclang_pgo", "profile_guided_expand",
    "bound_region_sizes",
    "iclang", "build", "lower", "Build", "run_middle_end",
    "ENVIRONMENTS", "EnvironmentConfig", "environment",
    "LintResult", "certify", "lint_sources", "lint_benchmarks",
    "strip_checkpoints",
]

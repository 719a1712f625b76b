"""Partition posets, edge-labeling axioms, and Whitney dual constructions.

The package builds the weighted and pointed partition posets, the rooted
spanning forest poset, and the pointed/bicolored Lyndon forest posets;
verifies the ER/EL/EW edge-labeling axioms with counterexample witnesses;
and constructs Whitney duals both generically (label-word sorting) and
directly (forest merges), reproducing every desk-scale count exactly.
"""

from .config import DEFAULT_LIMITS, Limits
from .errors import (
    BudgetExhaustedError,
    ElementNotFoundError,
    InternalGuardError,
    InvalidForestError,
    InvalidMergeError,
    LimitExceededError,
    NotGradedError,
    PreconditionError,
    TimeBudgetExceededError,
    WhitneyDualError,
)
from .isomorphism import are_isomorphic, tag_walk
from .labeling import (
    EdgeLabeling,
    LabelPoset,
    Ordering,
    Report,
    check_EL,
    check_EL_dual,
    check_ER,
    check_EW,
    check_ascent_free_injectivity,
    check_rank_two_switching,
    lex_compare,
    stanley_mobius_check,
)
from .lyndon import (
    POINTED,
    WEIGHTED,
    BicoloredForest,
    Leaf,
    Node,
    build_flyn,
    flyn_to_sorting_dual,
    is_valid,
    phi_reader,
    u_merge,
)
from .operads import pbw_com2_basis, pbw_perm_basis, theta, tlyn_trees
from .partitions import (
    PairLabel,
    PointedPartition,
    RootedForest,
    SetPartition,
    WeightedPartition,
    build_partition_lattice,
    build_pointed,
    build_spanning_forest_poset,
    build_weighted,
    label_lambda_bullet,
    label_lambda_bullet2,
    label_lambda_tilde,
    label_lambda_w,
)
from .poset import GradedPoset, is_whitney_dual, is_whitney_twin
from .whitney_dual import (
    DualElement,
    ascent_free_zero_chains,
    construct_R,
    sort_word,
)

__version__ = "0.1.0"

"""Exact-arithmetic toolkit for pebbling distributions on grid and torus
graphs: reachability and coverage, weight/excess accounting, exact-rational
linear programs, parametric construction families, and exhaustive optimal
pebbling search."""

from .grid import (
    PLANE,
    TORUS,
    ContinuousDistribution,
    Distribution,
    GridError,
    GridSpec,
    ParseError,
    Vertex,
    parse_distribution,
    serialize_distribution,
)
from .reach import (
    BudgetExceeded,
    CoverageReport,
    apply_move,
    can_move_k,
    coverage,
    is_solvable,
    marginal_covering_ratio,
)
from .weights import (
    PEBBLE_TOTAL_WEIGHT,
    UNIT_EXCESS_LOWER_BOUND,
    IFCOV_UPPER_BOUND,
    WeightReport,
    ceiling_infinite,
    covering_ratio_ceiling,
    excess,
    fractional_solvable,
    marginal_covering_ratio_ceiling,
    single_pebble_weight_total,
    weight,
    weight_report,
)
from .lp import (
    LpProblem,
    LpSolution,
    fractional_optimal_pebbling,
    solve,
    unit_excess_problem,
    verify_certificate,
)
from .constructions import (
    PatternSpec,
    banded_rows_augmentation,
    find_density7_pattern,
    gen_banded_rows,
    gen_block_composition,
    gen_cascade_ones,
    gen_diag7,
    gen_row_ones,
    gen_uniform_frac,
)
from .optimal import (
    OptimalResult,
    composition_upper_bound,
    optimal_pebbling_number,
)

__version__ = "1.0.0"

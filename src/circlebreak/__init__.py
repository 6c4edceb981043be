"""Numerics for circle homeomorphisms with break points.

Builds the standard objects of rotation theory (continued fractions,
dynamical partitions, invariant-measure values along orbits) for
piecewise-smooth circle maps with one or two derivative jumps, and runs
the cross-ratio distortion experiments that separate singular invariant
measures from absolutely continuous ones.
"""

from .errors import (
    BreakCollision,
    BreakNotInStatedInterval,
    CircleBreakError,
    ConfigError,
    DegenerateQuadruple,
    HypothesisNotCertified,
    InfeasibleDerivatives,
    InvalidGeometry,
    InvariantFailure,
    NotBracketed,
    NotClassP,
    OrderViolation,
    PrecisionBudgetExceeded,
    RankTooShallow,
    RefinementViolation,
    TolUnreachable,
)
from .maps import (
    BreakPoint,
    CircleMap,
    MapStats,
    advance,
    evaluate,
    invert,
    iterate,
    make_pl_two_break,
    make_pq_two_break,
    make_rotation,
    map_stats,
    one_sided_derivatives,
    retreat,
)
from .rotation import (
    ContinuedFraction,
    RotationEstimate,
    TuneResult,
    cf_expand_convergents,
    rho_farey,
    rho_iterate_estimate,
    tune_translation,
)
from .partition import (
    CircleInterval,
    DynamicalPartition,
    build_partition,
    check_refinement,
    denjoy_product,
    is_qn_small,
    max_element_decay,
)
from .crossratio import (
    Quadruple,
    cross_ratio,
    distortion,
    distortion_chain,
    distortion_rounding,
    distortion_row,
    distortion_rows,
    f_func,
    g_func,
    normalized_coords,
    single_break_closed_form,
    smooth_distortion_bound,
)
from .measure import (
    OrbitMeasure,
    conjugacy_values,
    convergent_masses,
    mass_identity_residual,
    partition_masses,
)
from .singularity import (
    CoverTriple,
    ExperimentConfig,
    LorenzCurve,
    RegularCoverParams,
    SingularityReport,
    gf_gap,
    make_cover_params,
    mass_length_curve,
    mirror_params,
    qn_distortion_experiment,
    regular_cover_triple,
    singularity_report,
    solve_same_orbit,
)

__version__ = "0.1.0"

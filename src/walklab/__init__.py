"""walklab: a numerical laboratory for walks driven by site tail sequences.

The package computes exact sojourn/hitting/position laws by certified pmf
convolution, simulates both the walk and the equivalent piecewise-linear
extended dynamics, samples quenched environments from mixing parameter
processes, and evaluates law-of-large-numbers, central-limit, and pointwise
(local) predictions with explicit truncation deficits throughout.
"""

from .environment import (
    DEFAULT_N_CAP,
    DEFAULT_TAIL_TOL,
    Environment,
    EnvDiagnostics,
    LsvParams,
    TailSequence,
    cumulative_hitting_moments,
    diagnostics,
    env_from_lsv,
    env_from_powerlaw,
    env_geometric,
    env_json_text,
    geometric_tail_sequence,
    load_env_file,
    lsv_tail_sequence,
    powerlaw_tail_sequence,
    write_env_file,
)
from .errors import (
    DeficitBudgetError,
    HypothesisError,
    NonConvergentVarianceError,
    RootFindError,
    TailTruncationError,
    ValidationError,
)
from .walk import (
    DiscreteDistribution,
    McConfig,
    WalkSample,
    hitting_time_distribution,
    mc_tv_tolerance,
    position_distribution,
    position_scan,
    simulate_paths,
    sojourn_pmf,
    tv_distance,
)
from .dynsys import (
    TrajectoryConfig,
    TrajectorySample,
    simulate_trajectories,
)
from .limits import (
    CltReport,
    LimitFit,
    LimitParams,
    LltReport,
    SllnReport,
    clt_report,
    fit_limit_params,
    kolmogorov_distance_to_normal,
    llt_predictor,
    llt_report,
    llt_report_json,
    normal_density,
    slln_report,
)
from .random_env import (
    MarkovChainSpec,
    QuenchedSample,
    RandomEnvModel,
    sample_environment,
)
from .streams import stream

__version__ = "0.1.0"

"""The public API is the names ``walklab`` exports; a name added or removed
shows up as a diff of this list."""

import importlib
import pkgutil
import types

import pytest

import walklab

MODULES = [importlib.import_module(f"walklab.{info.name}")
           for info in pkgutil.iter_modules(walklab.__path__)]

PUBLIC = [
    "CltReport",
    "DEFAULT_N_CAP",
    "DEFAULT_TAIL_TOL",
    "DeficitBudgetError",
    "DiscreteDistribution",
    "EnvDiagnostics",
    "Environment",
    "HypothesisError",
    "LimitFit",
    "LimitParams",
    "LltReport",
    "LsvParams",
    "MarkovChainSpec",
    "McConfig",
    "MomentReport",
    "NonConvergentVarianceError",
    "QuenchedSample",
    "RandomEnvModel",
    "RootFindError",
    "SllnReport",
    "TailSequence",
    "TailTruncationError",
    "TrajectoryConfig",
    "TrajectorySample",
    "ValidationError",
    "WalkSample",
    "clt_report",
    "cumulative_hitting_moments",
    "diagnostics",
    "env_from_lsv",
    "env_from_powerlaw",
    "env_geometric",
    "env_json_text",
    "fit_limit_params",
    "geometric_tail_sequence",
    "hitting_density_sup_gap",
    "hitting_time_distribution",
    "kolmogorov_distance_to_normal",
    "llt_predictor",
    "llt_report",
    "llt_report_json",
    "load_env_file",
    "lsv_tail_sequence",
    "mc_tv_tolerance",
    "moment_report",
    "normal_density",
    "position_distribution",
    "position_scan",
    "powerlaw_tail_sequence",
    "sample_environment",
    "simulate_paths",
    "simulate_trajectories",
    "slln_report",
    "sojourn_pmf",
    "stream",
    "tv_distance",
    "window_fluctuation",
    "write_env_file",
]


def test_exported_names():
    exported = sorted(name for name, value in vars(walklab).items()
                      if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert PUBLIC == sorted(PUBLIC) and len(PUBLIC) == 58
    assert exported == PUBLIC


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda module: module.__name__)
def test_module_all_names_exist(module):
    # a stale entry breaks ``from module import *``
    assert [name for name in module.__all__ if not hasattr(module, name)] == []

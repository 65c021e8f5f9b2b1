"""The public API is the names ``walklab`` exports and the parameters of its
functions; a name or parameter added or removed shows up as a diff here.  A
module imports only names it reads."""

import ast
import importlib
import inspect
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
    "hitting_time_distribution",
    "kolmogorov_distance_to_normal",
    "llt_predictor",
    "llt_report",
    "llt_report_json",
    "load_env_file",
    "lsv_tail_sequence",
    "mc_tv_tolerance",
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
    "write_env_file",
]


def test_exported_names():
    exported = sorted(name for name, value in vars(walklab).items()
                      if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert PUBLIC == sorted(PUBLIC) and len(PUBLIC) == 54
    assert exported == PUBLIC


# The parameters of each exported function, in order: a parameter added,
# removed or renamed shows up as a diff of this table.
PARAMETERS = {
    "clt_report": ("env", "params", "n_grid", "trunc_tol", "deficit_budget"),
    "cumulative_hitting_moments": ("env", "x"),
    "diagnostics": ("env", "beta"),
    "env_from_lsv": ("params", "x_max", "n_cap", "tail_tol"),
    "env_from_powerlaw": ("beta", "x_max", "n_cap", "tail_tol"),
    "env_geometric": ("r", "x_max", "n_cap", "tail_tol"),
    "env_json_text": ("env",),
    "fit_limit_params": ("diag",),
    "geometric_tail_sequence": ("r", "n_cap", "tail_tol"),
    "hitting_time_distribution": ("env", "x", "trunc_tol", "deficit_budget"),
    "kolmogorov_distance_to_normal": ("dist", "center", "scale"),
    "llt_predictor": ("env", "params", "diag", "n", "x_values"),
    "llt_report": ("env", "params", "diag", "n", "trunc_tol", "deficit_budget"),
    "llt_report_json": ("report",),
    "load_env_file": ("path",),
    "lsv_tail_sequence": ("params", "n_cap", "tail_tol"),
    "mc_tv_tolerance": ("atoms", "paths"),
    "normal_density": ("mean", "variance", "z"),
    "position_distribution": ("env", "n", "trunc_tol", "deficit_budget"),
    "position_scan": ("env", "n", "trunc_tol", "deficit_budget"),
    "powerlaw_tail_sequence": ("beta", "n_cap", "tail_tol"),
    "sample_environment": ("model", "x_max", "n_cap", "tail_tol"),
    "simulate_paths": ("env", "cfg", "method", "times"),
    "simulate_trajectories": ("env", "cfg", "times", "levels", "keep_positions_at"),
    "slln_report": ("env", "params", "sample", "tol"),
    "sojourn_pmf": ("site",),
    "stream": ("seed", "component", "index"),
    "tv_distance": ("dist", "counts", "paths"),
    "write_env_file": ("env", "path", "force"),
}


def test_exported_function_parameters():
    functions = {name: value for name, value in vars(walklab).items()
                 if name in PUBLIC and inspect.isfunction(value)}
    assert {name: tuple(inspect.signature(value).parameters)
            for name, value in functions.items()} == PARAMETERS


# The constructor parameters of each exported class other than the errors, in
# order: a field added, removed or renamed shows up as a diff of this table.
CONSTRUCTORS = {
    "CltReport": ("n", "dist_position", "hitting_x", "dist_hitting", "params"),
    "DiscreteDistribution": ("offset", "probs", "deficit", "beyond"),
    "EnvDiagnostics": ("x", "beta", "beta_star", "A", "A_prime", "K", "m", "m_tail_bound", "m2",
                       "m2_alt", "s2", "s2_tail_bound", "mu", "mu_upper", "sigma2", "M",
                       "A_truncation_flagged", "A_prime_truncation_flagged", "cap_reached",
                       "variance_converged"),
    "Environment": ("sites", "model", "factory"),
    "LimitFit": ("params", "x", "theta1", "theta2", "scaled_theta1", "scaled_theta2"),
    "LimitParams": ("mu", "sigma2", "source"),
    "LltReport": ("n", "x", "exact", "pred_lo", "pred_hi", "e1", "e2", "e3", "sup_err_scaled",
                  "max_halfwidth_scaled", "exact_deficit"),
    "LsvParams": ("alpha", "c", "kappa"),
    "MarkovChainSpec": ("states", "transition"),
    "McConfig": ("paths", "horizon", "seed", "record"),
    "QuenchedSample": ("environment", "parameter_trace"),
    "RandomEnvModel": ("kind", "family", "seed", "low", "high", "choices", "window", "chain",
                       "lsv_c", "beta_diag"),
    "SllnReport": ("times", "mean_ratio", "frac_within", "tol", "speed", "max_tail_deviation",
                   "final_frac_within"),
    "TailSequence": ("values", "deficit", "cap_reached"),
    "TrajectoryConfig": ("paths", "horizon", "seed"),
    "TrajectorySample": ("paths", "seed", "times", "cell_counts", "level_counts", "positions",
                         "contributing", "flagged"),
    "WalkSample": ("method", "record", "paths", "seed", "times", "x_final", "y_final",
                   "x_at_times", "full_x", "full_y", "hitting", "truncated_draws"),
}


def test_exported_class_parameters():
    classes = {name: value for name, value in vars(walklab).items()
               if name in PUBLIC and inspect.isclass(value) and not issubclass(value, Exception)}
    assert {name: tuple(inspect.signature(value).parameters)
            for name, value in classes.items()} == CONSTRUCTORS


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda module: module.__name__)
def test_module_all_names_exist(module):
    # a stale entry breaks ``from module import *``
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


# Imports a module keeps unused, each with its reason.  bench/spans.py wraps
# these module attributes by name, so a run that traces them finds them there.
KEPT_UNUSED = {
    ("walklab.limits", "hitting_time_scan"): "wrapped by bench/spans.py by name",
    ("walklab.random_env", "diagnostics"): "wrapped by bench/spans.py by name",
    ("walklab.random_env", "lsv_tail_sequence"): "wrapped by bench/spans.py by name",
    ("walklab.random_env", "stream"): "wrapped by bench/spans.py by name",
}


def unused_imports(module) -> set:
    """Names the module's source imports and never reads: not as a name (in
    code or annotations), not as an attribute base, not in ``__all__``."""
    with open(module.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(getattr(module, "__all__", ()))
    return imported - used


def test_no_dead_imports():
    found = {(module.__name__, name) for module in MODULES
             if module.__name__ != "walklab" for name in unused_imports(module)}
    assert found == set(KEPT_UNUSED)

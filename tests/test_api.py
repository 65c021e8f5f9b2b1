"""The public API is the names ``walklab`` exports; a name added or removed
shows up as a diff of this list.  A module imports only names it reads."""

import ast
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
    "window_fluctuation",
    "write_env_file",
]


def test_exported_names():
    exported = sorted(name for name, value in vars(walklab).items()
                      if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert PUBLIC == sorted(PUBLIC) and len(PUBLIC) == 55
    assert exported == PUBLIC


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

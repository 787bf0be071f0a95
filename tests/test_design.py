"""Design guards: one production path, the names the benchmark tracer patches,
and no stale export.

The scalar reference ``run_protocol``, its per-trial lanes and the allocating
noise map ``noise_from_uniforms`` are test references for the batch kernel;
the production modules call none of them. They draw with ``lane_uniforms``
and map noise only through ``channels._noise_in_place``. The package root
re-exports nothing, so each name has one import path and importing
``skwiretap.infotheory`` loads neither numpy nor scipy. The benchmark's
tracer (``perfbench/layers.py``) swaps package attributes for timing
wrappers, so a refactor that drops one of those names breaks the traced run.
A deletion that leaves its name in a module's ``__all__`` breaks
``from module import *``. ``harness.worker_pool`` builds every worker pool,
so no pool can skip its start method.
"""

import ast
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import skwiretap
from skwiretap import acceptance, cli
from skwiretap.channels import EveTap, NoiseModel
from skwiretap.harness import ExperimentConfig, ExperimentReport

REPO = Path(__file__).resolve().parents[1]

PRODUCTION_MODULES = ("__init__", "harness", "cli", "acceptance")

ORACLE_NAMES = frozenset({"run_protocol", "TrialLanes", "RngLane", "noise_from_uniforms"})


def _referenced_names(source: str) -> set:
    """Every name, attribute and imported name the source refers to."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_reference_scan_sees_imports_attributes_and_names():
    source = "from .protocol import run_protocol as rp\nimport skwiretap.channels\nchannels.RngLane\nnoise_from_uniforms()\n"
    assert ORACLE_NAMES & _referenced_names(source) == {"run_protocol", "RngLane", "noise_from_uniforms"}


@pytest.mark.parametrize("module", PRODUCTION_MODULES)
def test_production_modules_reference_no_oracle(module):
    source = (Path(skwiretap.__file__).parent / f"{module}.py").read_text()
    assert not ORACLE_NAMES & _referenced_names(source)


def test_no_criterion_reads_the_report_cache():
    # criteria 3-7 and 10 take their report sets from run_all, whose two calls are the cache's only readers
    tree = ast.parse(Path(acceptance.__file__).read_text())
    criteria = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name.startswith("criterion_")]
    assert len(criteria) == len(acceptance.CRITERIA)
    assert [f.name for f in criteria if "shared_reports" in _referenced_names(ast.unparse(f))] == []


def _imported_modules(source: str) -> set:
    """Every module the source imports, and every name imported from a module as ``module.name``."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module)
            modules.update(f"{node.module}.{alias.name}" for alias in node.names)
    return modules


def test_channels_alone_maps_uniforms_to_noise():
    # the tap lane too: its draws go through the tap's noise model, not a map of their own
    package = Path(skwiretap.__file__).parent
    importers = [p.stem for p in sorted(package.glob("*.py")) if "scipy.special" in _imported_modules(p.read_text())]
    assert importers == ["channels"]
    assert EveTap(0.37).noise == NoiseModel("gaussian", 0.37)
    # a derived attribute, not a field: the config echo and equality see the variance alone
    assert [f.name for f in dataclasses.fields(EveTap)] == ["variance"]


def test_infotheory_loads_without_numpy_or_scipy():
    # the closed-form bounds import only math, and the package root imports none of the array modules
    loaded = "sorted({m.partition('.')[0] for m in sys.modules} & {'numpy', 'scipy'})"
    code = f"import sys, skwiretap.infotheory; print({loaded})"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
    # one import path per name: the package root holds its docstring and __version__, nothing else
    root = ast.parse(Path(skwiretap.__file__).read_text())
    assert len(root.body) == 2 and isinstance(root.body[1], ast.Assign)
    assert [ast.unparse(target) for target in root.body[1].targets] == ["__version__"]


def test_benchmark_tracer_patch_targets_exist(monkeypatch):
    # the tracer wraps every acceptance attribute named criterion_* and names its span
    # from the .index of the result: those must be one function per criterion, nothing else
    criteria = {name: f for name, f in vars(acceptance).items() if name.startswith("criterion_")}
    assert all(inspect.isfunction(f) for f in criteria.values()), criteria
    indices = sorted(int(f.__doc__.split(":")[0]) for f in criteria.values())
    assert indices == list(range(1, len(acceptance.CRITERIA) + 1))

    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    fresh = {"layers", "workloads"} - set(sys.modules)
    try:
        layers = importlib.import_module("layers")
        owners = (cli, acceptance, ExperimentConfig, ExperimentReport)
        before = [dict(vars(owner)) for owner in owners]
        # entering looks up every patch target; a missing one raises KeyError here
        with layers.Tracer().patched():
            assert cli.run_experiment is not before[0]["run_experiment"]
        assert [dict(vars(owner)) for owner in owners] == before
    finally:
        for name in fresh:
            sys.modules.pop(name, None)


def _pool_constructions(source: str) -> list:
    """The innermost function around each ``ProcessPoolExecutor(...)`` call, ``None`` at module level."""
    owners = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "ProcessPoolExecutor":
                    owners.append(owner)
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)

    visit(ast.parse(source), None)
    return owners


def test_pool_scan_sees_calls_in_functions_and_at_module_level():
    source = (
        "def f():\n    def g():\n        futures.ProcessPoolExecutor(2)\n    ProcessPoolExecutor()\n"
        "ProcessPoolExecutor\nProcessPoolExecutor(1)\n"
    )
    assert _pool_constructions(source) == ["g", "f", None]


def test_worker_pool_builds_every_pool():
    # a pool built anywhere else would run on the interpreter's default start method
    package = Path(skwiretap.__file__).parent
    sites = [(p.stem, owner) for p in sorted(package.glob("*.py")) for owner in _pool_constructions(p.read_text())]
    assert sites == [("harness", "worker_pool")]


@pytest.mark.parametrize("module", ("channels", "protocol", "infotheory", "harness", "acceptance"))
def test_every_exported_name_exists(module):
    mod = importlib.import_module(f"skwiretap.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []

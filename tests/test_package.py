"""Package structure: exported names and start-up imports."""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wavelqg
from wavelqg import analysis, oracle, simulator, synthesis
from wavelqg.params import NondimParams

MODULES = sorted(m.name for m in pkgutil.iter_modules(wavelqg.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    mod = importlib.import_module(f"wavelqg.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"wavelqg.{name}.__all__ names {missing}"


# dense references that live in tests/dense.py, not in the package
DENSE_REFERENCES = ("plant_matrices", "build_closed_loop",
                    "laplacian_circulant", "circulant_dense",
                    "noise_covariance", "spectral_abscissa")


@pytest.mark.parametrize("name", ["", *MODULES])
def test_no_module_defines_a_dense_reference(name):
    mod = importlib.import_module(f"wavelqg.{name}" if name else "wavelqg")
    found = [n for n in DENSE_REFERENCES if hasattr(mod, n)]
    assert not found, f"{mod.__name__} defines {found}"


def _imported_after(statement: str, prefixes) -> str:
    """Modules named with one of ``prefixes`` that a fresh interpreter has
    loaded after running ``statement``."""
    code = (f"import sys; {statement}; print(sorted(m for m in sys.modules "
            f"if m.startswith({tuple(prefixes)!r})))")
    src = os.path.dirname(os.path.dirname(wavelqg.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env).stdout.strip()


CLI_START_UP = "import wavelqg.cli; wavelqg.cli.build_parser()"


def test_cli_start_up_does_not_import_scipy():
    assert _imported_after(CLI_START_UP, ["scipy"]) == "[]"


def test_cli_start_up_does_not_import_the_oracle():
    # only ``verify`` needs the oracle, and it imports it on demand
    assert _imported_after(CLI_START_UP,
                           ["wavelqg.verify", "wavelqg.oracle"]) == "[]"


def test_cli_start_up_does_not_import_concurrent_futures():
    # only simulate's helper thread needs it, and it imports it on demand
    assert _imported_after(CLI_START_UP, ["concurrent"]) == "[]"


# the package's exports, by the module that defines each
EXPORTS = {
    "params": ("DimensionalParams", "NondimParams", "locality_residuals",
               "nondimensionalize"),
    "spectral": ("offdiag_masses", "rfft_half"),
    "synthesis": ("DesignSpectra", "GainKind", "GainSet", "design_spectra",
                  "optimal_gains", "ring_design"),
    "analysis": ("CostLocalityReport", "SweepGrid", "curve_reports",
                 "kf_cost", "lqg_cost_dual", "report", "sweep"),
    "simulator": ("SimConfig", "SimSummary", "Trajectory", "simulate"),
}
EXPORTED = [(module, name) for module, names in EXPORTS.items()
            for name in names]


def test_the_package_exports_its_names_in_all():
    assert sorted(wavelqg.__all__) == sorted(name for _, name in EXPORTED)
    assert len(wavelqg.__all__) == 23


@pytest.mark.parametrize("module, name", EXPORTED,
                         ids=[name for _, name in EXPORTED])
def test_an_export_is_its_module_object(module, name):
    obj = getattr(importlib.import_module(f"wavelqg.{module}"), name)
    assert getattr(wavelqg, name) is obj
    namespace = {}
    exec(f"from wavelqg import {name}", namespace)
    assert namespace[name] is obj
    assert name in wavelqg.__all__ and name in dir(wavelqg)


def test_an_unknown_package_attribute_is_named():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        wavelqg.no_such_name


def test_importing_the_package_loads_what_every_command_runs():
    # analysis and simulator load on first use of one of their exports
    assert _imported_after("import wavelqg", ["wavelqg."]) == str(
        ["wavelqg.params", "wavelqg.spectral", "wavelqg.synthesis"])


DECENTRAL = ["--pi1", "0.5", "--pi2", "1", "--pi3", "4", "--pi4", "4",
             "--n", "4"]
SYNTH = ["synth", *DECENTRAL, "--out", "g"]
START_UP = {"cli", "params", "spectral", "synthesis"}

# each command's command lines, run in order in one fresh interpreter, and
# the wavelqg modules loaded after them: start-up loads what every command
# runs, and each command adds only its own modules
COMMAND_IMPORTS = {
    "start-up": ([], START_UP),
    "synth": ([SYNTH], START_UP),
    "report": ([["report", *DECENTRAL]], START_UP | {"analysis"}),
    "sweep-heatmap": ([["sweep", "--pi1-count", "3", "--pi34-count", "3",
                        "--n", "4", "--out", "s.csv", "--heatmap", "s.svg"]],
                      START_UP | {"analysis", "svgplot"}),
    "sweep-curve-only": ([["sweep", "--curve-only", "--pi1-count", "3",
                           "--n", "4", "--out", "c.csv",
                           "--lineplot", "c.svg"]],
                         START_UP | {"analysis", "svgplot"}),
    "verify": ([["verify", *DECENTRAL]],
               START_UP | {"analysis", "verify", "oracle"}),
    "verify-check-file": ([SYNTH, ["verify", "--check-file", "g_lqr.json"]],
                          START_UP | {"analysis", "verify", "oracle"}),
    "simulate": ([["simulate", *DECENTRAL, "--t-final", "1"]],
                 START_UP | {"analysis", "simulator", "_kernels"}),
}

_RUN_COMMANDS = """\
import json, sys
from wavelqg import cli
cli.build_parser()
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(m for m in sys.modules
                               if m.split(".")[0] in {prefixes})]))
"""


@pytest.mark.parametrize("command", COMMAND_IMPORTS)
def test_each_command_imports_only_its_own_modules(tmp_path, command):
    commands, expected = COMMAND_IMPORTS[command]
    prefixes = {"wavelqg", "scipy", "concurrent"}
    src = os.path.dirname(os.path.dirname(wavelqg.__file__))
    run = subprocess.run(
        [sys.executable, "-c", _RUN_COMMANDS.format(prefixes=prefixes),
         json.dumps(commands)], capture_output=True, text=True, check=True,
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": src})
    codes, loaded = json.loads(run.stdout.splitlines()[-1])
    assert codes == [0] * len(commands)
    assert {m.removeprefix("wavelqg.") for m in loaded
            if m.startswith("wavelqg.")} == expected
    assert not [m for m in loaded if m.startswith("scipy")]
    if command != "simulate":  # only simulate's helper thread needs it
        assert not [m for m in loaded if m.startswith("concurrent")]


def test_package_does_not_import_scipy():
    # scipy is a test dependency: no module of the package may import it
    every_module = ("import importlib, pkgutil, wavelqg; "
                    "[importlib.import_module('wavelqg.' + m.name) "
                    "for m in pkgutil.iter_modules(wavelqg.__path__)]")
    assert _imported_after(every_module, ["scipy"]) == "[]"


def test_oracle_shares_only_the_laplacian_with_the_package():
    # the oracle checks the closed forms, so of the package it may use the
    # parameters only; it is given the Laplacian eigenvalues it solves at
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(alias.name, None) for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported |= {(module, alias.name) for alias in node.names}
    assert {m for m, _ in imported} <= {"__future__", "numpy", ".params"}


@pytest.mark.parametrize("function", [
    simulator.frequency_blocks, analysis.loop_poles, analysis.costs,
    analysis.dual_lqg_cost])
def test_per_bin_functions_take_the_design_alone(function):
    # a design carries its point, so none is passed beside it
    params = set(inspect.signature(function).parameters)
    assert not params & {"p", "pi1", "pi2", "pi3", "pi4"}


def test_a_monte_carlo_run_is_its_config():
    # every run starts from rest; no initial state is passed beside cfg
    assert list(inspect.signature(simulator.simulate).parameters) == ["cfg"]


def test_the_ring_design_is_the_source_of_its_point():
    p = NondimParams(pi1=0.3, pi2=1.2, pi3=2.5, pi4=1.7, n=8)
    s = synthesis.ring_design(p)
    assert [getattr(s, f"pi{i}").tolist() for i in range(1, 5)] == [
        [p.pi1], [p.pi2], [p.pi3], [p.pi4]]
    # another pi4 moves the filter poles only: loop_poles reads the record
    poles = analysis.loop_poles(s)
    moved = analysis.loop_poles(dataclasses.replace(s, pi4=2.0 * p.pi4))
    np.testing.assert_array_equal(moved[0], poles[0])
    assert np.abs(moved[1] - poles[1]).min() > 0.1


@pytest.mark.parametrize("module, name", [
    ("wavelqg", "lqr_cost"), ("wavelqg", "lqg_cost"),
    ("wavelqg.analysis", "lqr_cost"), ("wavelqg.analysis", "lqg_cost"),
    ("wavelqg.spectral", "circulant_rows"),
    ("wavelqg.spectral", "SymmetryError"),
    ("wavelqg", "rfft_multiplicities"),
    ("wavelqg.spectral", "rfft_multiplicities"),
    ("wavelqg.simulator", "_to_bins"),
])
def test_removed_names_are_gone(module, name):
    # costs come from analysis.costs or report; gain rows from the rfft
    # half by numpy.fft.irfft, which needs no symmetry check; the half and
    # its multiplicities from spectral.rfft_half
    assert not hasattr(importlib.import_module(module), name)

"""LQG control of the discretized wave equation on a ring.

The dynamics, costs and noise model are all circulant, so the optimal
regulator and filter reduce to closed-form per-frequency Riccati roots.
This package implements those closed forms, an independent batched
per-frequency Newton-Kleinman solver to validate them, locality/performance
analysis over the dimensionless parameter groups, and a Monte Carlo
simulator for end-to-end checks.

Importing the package loads the modules every command runs: ``params``,
``spectral`` and ``synthesis``.  The names exported from ``analysis`` and
``simulator`` load their module on first access (PEP 562).
"""

import importlib

from .params import DimensionalParams, NondimParams, locality_residuals, nondimensionalize
from .spectral import offdiag_masses, rfft_half
from .synthesis import (DesignSpectra, GainKind, GainSet, design_spectra,
                        optimal_gains, ring_design)

__version__ = "0.1.0"

# exported name -> the module that defines it, imported on first access
_LAZY = {
    **dict.fromkeys(("CostLocalityReport", "SweepGrid", "curve_reports",
                     "kf_cost", "lqg_cost_dual", "report", "sweep"),
                    "analysis"),
    **dict.fromkeys(("SimConfig", "SimSummary", "Trajectory", "simulate"),
                    "simulator"),
}

__all__ = ["DimensionalParams", "NondimParams", "locality_residuals",
           "nondimensionalize", "offdiag_masses", "rfft_half",
           "DesignSpectra", "GainKind", "GainSet", "design_spectra",
           "optimal_gains", "ring_design", *_LAZY]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

"""LQG control of the discretized wave equation on a ring.

The dynamics, costs and noise model are all circulant, so the optimal
regulator and filter reduce to closed-form per-frequency Riccati roots.
This package implements those closed forms, an independent batched
per-frequency Newton-Kleinman solver to validate them, locality/performance
analysis over the dimensionless parameter groups, and a Monte Carlo
simulator for end-to-end checks.
"""

from .params import DimensionalParams, NondimParams, locality_residuals, nondimensionalize
from .spectral import offdiag_masses, rfft_half
from .synthesis import (DesignSpectra, GainKind, GainSet, design_spectra,
                        optimal_gains, ring_design)
from .analysis import (CostLocalityReport, SweepGrid, curve_reports, kf_cost,
                       lqg_cost_dual, report, sweep)
from .simulator import SimConfig, SimSummary, Trajectory, simulate

__version__ = "0.1.0"

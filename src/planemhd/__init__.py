"""One-dimensional plane-MHD solver and vanishing-shear-viscosity
experiment harness."""

from .core import (BoundaryData, FlowState, GridSpec, InvalidStateError,
                   PhysParams, Trajectory, interpolate_to_nodes,
                   make_initial_state)
from .solver import (ForcingSpec, RunAborted, StepFailure, TimeConfig, run,
                     run_lockstep, step, tridiag_solve)
from .diagnostics import (DIAGNOSTICS_DTYPE, ErrorNorms,
                          energy_balance_residual, entropy_monotonicity,
                          error_norms, interior_sup_deviation, record)
from .sweep import (BLThickness, PowerLawFit, SweepPlan, SweepResult,
                    bl_thickness, fit_power_law, run_sweep,
                    thickness_scaling_report)

__version__ = "0.1.0"

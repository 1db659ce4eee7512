"""Grids, field states, physical parameters, and trajectory containers.

Staggered layout on the unit interval: density and temperature live at
cell centers, velocities and the magnetic field at nodes. States are
immutable once constructed, so a state can be kept or passed on without
a copy; a FlowState with a leading member axis holds the rows of a
lockstep batch.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Mapping, Sequence, Union

import numpy as np


class InvalidStateError(ValueError):
    """Raised when field data violates positivity or boundary constraints."""


def _frozen(a: np.ndarray, dtype=float) -> np.ndarray:
    # C order, so that the rows of a batch are contiguous and their
    # reductions round as those of one state (a broadcast input would
    # otherwise keep its member axis innermost)
    out = np.array(a, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


def check_field_types(obj) -> None:
    """Raise InvalidStateError, naming the field first, if a float field
    of the dataclass obj is not finite or an int field not an integer."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type in ("float", float) and not np.isfinite(value):
            raise InvalidStateError(f"{f.name} must be finite")
        if f.type in ("int", int) and not isinstance(value,
                                                     (int, np.integer)):
            raise InvalidStateError(f"{f.name} must be an integer")


@dataclass(frozen=True)
class GridSpec:
    """Uniform cell grid on [0, 1] with n_cells cells and n_cells+1 nodes."""

    n_cells: int

    def __post_init__(self):
        check_field_types(self)
        if self.n_cells < 8:
            raise InvalidStateError(f"n_cells must be >= 8, got {self.n_cells}")

    @property
    def dx(self) -> float:
        return 1.0 / self.n_cells

    # built once per grid, read-only
    @cached_property
    def cell_centers(self) -> np.ndarray:
        return _frozen((np.arange(self.n_cells) + 0.5) * self.dx)

    @cached_property
    def node_positions(self) -> np.ndarray:
        return _frozen(np.arange(self.n_cells + 1) * self.dx)


@dataclass(frozen=True)
class PhysParams:
    """Viscosities, diffusivity, adiabatic constant and conductivity.

    lam is the bulk viscosity, mu the shear viscosity (mu = 0 selects the
    limit system), nu the magnetic diffusivity. The heat conductivity is
    kappa(rho, theta) = kappa1*(1 + theta**q) + kappa2*rho; kappa2 >= 0
    keeps kappa >= kappa1*(1 + theta**q), with kappa1 > 0 and q > 0.
    """

    lam: float = 1.0
    mu: float = 0.1
    nu: float = 1.0
    gamma: float = 1.4
    c_v: float = 1.0
    kappa1: float = 1.0
    kappa2: float = 0.0
    q: float = 2.0

    def __post_init__(self):
        check_field_types(self)
        for name in ("lam", "nu", "gamma", "c_v", "kappa1", "q"):
            if not getattr(self, name) > 0:     # NaN fails too
                raise InvalidStateError(f"{name} must be positive")
        for name in ("mu", "kappa2"):
            if not getattr(self, name) >= 0:
                raise InvalidStateError(f"{name} must be nonnegative")


BOUNDARY_PRESETS = ("zero", "constant", "cosine-ramp")


@dataclass(frozen=True)
class BoundaryData:
    """Transverse velocity data at the walls, as plain data.

    Both walls carry at(t) = (g(t), 0): g is zero for "zero", amplitude
    for "constant", and for "cosine-ramp" a smooth ramp from 0 to
    amplitude over ramp_period, then held. The ramp vanishes with zero
    slope at t = 0, so it is compatible with transverse fields that
    start from rest. u, b and theta_x are homogeneous at the walls and
    carry no free data.
    """

    preset: str = "zero"
    amplitude: float = 1.0
    ramp_period: float = 0.25

    def __post_init__(self):
        if self.preset not in BOUNDARY_PRESETS:
            raise InvalidStateError(f"preset must be one of "
                                    f"{BOUNDARY_PRESETS}")
        check_field_types(self)
        if not self.ramp_period > 0:            # NaN fails too
            raise InvalidStateError("ramp_period must be positive")

    def at(self, t: float) -> np.ndarray:
        """The wall value of w at time t, the same at both walls."""
        if self.preset == "zero":
            return np.zeros(2)
        if self.preset == "constant":
            return np.array([self.amplitude, 0.0])
        s = min(max(t / self.ramp_period, 0.0), 1.0)
        return np.array([0.5 * self.amplitude * (1.0 - np.cos(np.pi * s)),
                         0.0])


STATE_FIELDS = ("rho", "u", "w", "b", "theta")


@dataclass(frozen=True)
class FlowState:
    """Field arrays at one time instant.

    rho and theta are cell-centered (n_cells,), u is node-centered
    (n_cells+1,), w and b are node-centered 2-vectors (n_cells+1, 2).
    A leading member axis stacks the states of a lockstep batch at one
    shared time t: rho (R, n_cells), u (R, n_cells+1), w (R, n_cells+1, 2).
    """

    t: float
    rho: np.ndarray
    u: np.ndarray
    w: np.ndarray
    b: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        for name in STATE_FIELDS:
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        lead, n = self.rho.shape[:-1], self.rho.shape[-1]
        if self.theta.shape != self.rho.shape:
            raise InvalidStateError("rho and theta must have equal length")
        if self.u.shape != lead + (n + 1,):
            raise InvalidStateError("u must be node-centered (n_cells+1,)")
        if self.w.shape != lead + (n + 1, 2) or self.b.shape != self.w.shape:
            raise InvalidStateError("w and b must have shape (n_cells+1, 2)")
        for name in ("rho", "theta"):
            vals = getattr(self, name)
            if not (vals > 0).all():
                idx = np.unravel_index(np.argmin(vals), vals.shape)
                raise InvalidStateError(
                    f"{name} must be positive everywhere; "
                    f"{name}[{', '.join(map(str, idx))}] = {vals[idx]}")
        walls = slice(None, None, n)            # the nodes 0 and n
        if (self.u[..., walls] != 0.0).any():
            raise InvalidStateError("u must vanish at the boundary nodes")
        if (self.b[..., walls, :] != 0.0).any():
            raise InvalidStateError("b must vanish at the boundary nodes")

    @property
    def n_cells(self) -> int:
        return self.rho.shape[-1]


@dataclass(frozen=True, init=False)
class Trajectory:
    """Snapshots stacked along a leading time axis, plus per-step
    diagnostics.

    With S snapshots on an N-cell grid, snapshot_times is (S,), rho and
    theta are (S, N), u is (S, N+1), w and b are (S, N+1, 2). The
    constructor stacks validated FlowStates once, takes each snapshot
    time from its state's t, and makes the stacks read-only. diagnostics
    is the structured table of diagnostics.DIAGNOSTICS_DTYPE rows, kept
    as a read-only copy.
    """

    snapshot_times: np.ndarray
    rho: np.ndarray
    u: np.ndarray
    w: np.ndarray
    b: np.ndarray
    theta: np.ndarray
    diagnostics: np.ndarray

    def __init__(self, states: Sequence[FlowState], diagnostics):
        if not states:
            raise InvalidStateError("a trajectory needs at least one state")
        t = _frozen([s.t for s in states])
        if t[0] != 0.0 or np.any(np.diff(t) <= 0):
            raise InvalidStateError(
                "snapshot times must start at 0 and be strictly increasing")
        object.__setattr__(self, "snapshot_times", t)
        for name in STATE_FIELDS:
            stack = np.stack([getattr(s, name) for s in states])
            stack.setflags(write=False)
            object.__setattr__(self, name, stack)
        object.__setattr__(self, "diagnostics", _frozen(diagnostics, None))


def interpolate_to_nodes(cell_values: np.ndarray) -> np.ndarray:
    """Average adjacent cells onto interior nodes, copy at the walls.

    Works along the last axis: (N,) gives (N+1,), and a trajectory's
    stacked (S, N) gives (S, N+1).
    """
    c = np.asarray(cell_values, dtype=float)
    out = np.empty(c.shape[:-1] + (c.shape[-1] + 1,))
    out[..., 1:-1] = 0.5 * (c[..., :-1] + c[..., 1:])
    out[..., 0] = c[..., 0]
    out[..., -1] = c[..., -1]
    return out


_Profiles = Union[str, Mapping[str, np.ndarray]]


def _uniform(grid: GridSpec) -> dict:
    return {"rho": np.ones(grid.n_cells), "theta": np.ones(grid.n_cells)}


def _bump(grid: GridSpec) -> dict:
    bump = np.exp(-50.0 * (grid.cell_centers - 0.5) ** 2)
    return {"rho": 1.0 + 0.2 * bump, "theta": 1.0 + 0.1 * bump}


# the profiles of each preset on a grid; the fields left out are zero
_PRESET_PROFILES = {"uniform": _uniform, "bump": _bump,
                    "transverse-rest": _uniform}
PRESETS = tuple(_PRESET_PROFILES)


def make_initial_state(grid: GridSpec, profiles: _Profiles = "uniform",
                       bdry: BoundaryData = None) -> FlowState:
    """Build a validated t=0 state from a named preset or tabulated fields.

    Presets: "uniform" (rho=theta=1, all velocities and fields zero),
    "bump" (smooth Gaussian bump in density and temperature), and
    "transverse-rest" (uniform with w = b identically zero, the starting
    configuration for boundary-layer experiments). Tabulated profiles are
    given as a mapping with keys rho, theta and optionally u, w, b; a
    preset name stands for its table.
    """
    n = grid.n_cells
    if isinstance(profiles, str):
        if profiles not in PRESETS:
            raise InvalidStateError(f"unknown preset {profiles!r}; "
                                    f"choose one of {PRESETS}")
        profiles = _PRESET_PROFILES[profiles](grid)
    rho = np.asarray(profiles["rho"], dtype=float)
    theta = np.asarray(profiles["theta"], dtype=float)
    u = np.asarray(profiles.get("u", np.zeros(n + 1)), dtype=float)
    w = np.asarray(profiles.get("w", np.zeros((n + 1, 2))), dtype=float)
    b = np.asarray(profiles.get("b", np.zeros((n + 1, 2))), dtype=float)
    if bdry is not None:
        w = np.array(w)
        w[0] = w[-1] = bdry.at(0.0)
    return FlowState(t=0.0, rho=rho, u=u, w=w, b=b, theta=theta)

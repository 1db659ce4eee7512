"""Pointwise constitutive evaluations shared by the solver and diagnostics.

All functions accept scalars or numpy arrays and are pure.
"""

from __future__ import annotations

import numpy as np

from .core import InvalidStateError, PhysParams


def kappa(rho, theta, params: PhysParams):
    """Heat conductivity kappa1*(1 + theta**q) + kappa2*rho.

    Bounded below by kappa1*(1 + theta**q) for all admissible states.
    """
    rho = np.asarray(rho)
    theta = np.asarray(theta)
    if np.any(rho <= 0) or np.any(theta <= 0):
        raise InvalidStateError("kappa requires positive rho and theta")
    return params.kappa1 * (1.0 + theta ** params.q) + params.kappa2 * rho


def sq_norm(v):
    """|v|^2 of the 2-vectors along the last axis of v.

    v0*v0 + v1*v1 is the value (v * v).sum(axis=-1) takes, to the bit,
    without numpy's reduction machinery, which is about ten times slower
    over a last axis of length 2.
    """
    sq = np.asarray(v) * v
    return sq[..., 0] + sq[..., 1]


def total_energy_density(rho, u, w, b, theta, c_v: float = 1.0):
    """rho*(c_v*theta + |u|^2/2 + |w|^2/2) + |b|^2/2.

    w and b are 2-vectors along the last axis.
    """
    kinetic = 0.5 * np.asarray(u) ** 2 + 0.5 * sq_norm(w)
    return np.asarray(rho) * (c_v * np.asarray(theta) + kinetic) \
        + 0.5 * sq_norm(b)


def entropy_density(rho, theta, gamma: float):
    """Specific entropy ln(theta) - gamma * ln(rho)."""
    rho = np.asarray(rho)
    theta = np.asarray(theta)
    if np.any(rho <= 0) or np.any(theta <= 0):
        raise InvalidStateError("entropy requires positive rho and theta")
    return np.log(theta) - gamma * np.log(rho)


def dissipation_q(u_x, w_x, b_x, params: PhysParams):
    """Viscous and resistive heating lam*u_x^2 + mu*|w_x|^2 + nu*|b_x|^2."""
    return (params.lam * np.asarray(u_x) ** 2 + params.mu * sq_norm(w_x)
            + params.nu * sq_norm(b_x))

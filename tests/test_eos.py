import numpy as np
import pytest
from hypothesis import given, strategies as st

from planemhd.core import InvalidStateError, PhysParams
from planemhd.eos import (dissipation_q, entropy_density, kappa,
                          total_energy_density)

pos = st.floats(min_value=1e-3, max_value=1e3)


@given(pos, pos)
def test_kappa_lower_bound(rho, theta):
    params = PhysParams(kappa1=0.7, kappa2=0.3, q=2.0)
    val = kappa(rho, theta, params)
    assert val >= 0.7 * (1.0 + theta ** 2)


def test_kappa_rejects_nonpositive():
    with pytest.raises(InvalidStateError):
        kappa(1.0, 0.0, PhysParams())


def test_total_energy_density_value():
    # rho*(c_v*theta + (u^2 + |w|^2)/2) + |b|^2/2
    val = total_energy_density(2.0, 1.0, np.array([3.0, 0.0]),
                               np.array([0.0, 2.0]), 0.5, c_v=1.0)
    assert val == pytest.approx(2.0 * (0.5 + 0.5 + 4.5) + 2.0)


def test_entropy_density_reference_state():
    assert entropy_density(1.0, 1.0, 1.4) == pytest.approx(0.0)
    assert entropy_density(1.0, np.e, 1.4) == pytest.approx(1.0)


@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5))
def test_dissipation_nonnegative(ux, wx, bx):
    params = PhysParams(lam=0.3, mu=0.2, nu=0.1)
    q = dissipation_q(ux, np.array([wx, -wx]), np.array([bx, 0.0]), params)
    assert q >= 0.0


def test_dissipation_value():
    params = PhysParams(lam=1.0, mu=2.0, nu=3.0)
    q = dissipation_q(1.0, np.array([1.0, 1.0]), np.array([0.0, 2.0]),
                      params)
    assert q == pytest.approx(1.0 + 2.0 * 2.0 + 3.0 * 4.0)

"""Manufactured fields and compensating sources for PARAMS, printed by
sympy's numpy printer. Generated by

    PYTHONPATH=src python -m planemhd.mms_derive

from the root of a source checkout; do not edit.
"""

from numpy import cos, pi, sin

from .core import PhysParams

PARAMS = PhysParams(lam=1.0, mu=0.05, nu=1.0, gamma=1.4, c_v=1.0, kappa1=1.0, kappa2=0.0, q=2.0)


def steady_rho(x, t):
    return (3/10)*cos(2*pi*x) + 1


def steady_u(x, t):
    return 0


def steady_w1(x, t):
    return (1/2)*sin(pi*x)


def steady_w2(x, t):
    return -3/10*sin(2*pi*x)


def steady_b1(x, t):
    return (2/5)*sin(pi*x)


def steady_b2(x, t):
    return (1/5)*sin(2*pi*x)


def steady_theta(x, t):
    return (1/5)*cos(pi*x) + 1


def steady_f_rho(x, t):
    return 0


def steady_f_u(x, t):
    return -0.84*pi*((1/5)*cos(pi*x) + 1)*sin(2*pi*x) - 1/5*pi*(0.42*cos(2*pi*x) + 1.4)*sin(pi*x) + (4/25)*pi*sin(pi*x)*cos(pi*x) + (2/25)*pi*sin(2*pi*x)*cos(2*pi*x)


def steady_f_w1(x, t):
    return 0.025*pi**2*sin(pi*x) - 2/5*pi*cos(pi*x)


def steady_f_w2(x, t):
    return -0.06*pi**2*sin(2*pi*x) - 2/5*pi*cos(2*pi*x)


def steady_f_b1(x, t):
    return 0.4*pi**2*sin(pi*x) - 1/2*pi*cos(pi*x)


def steady_f_b2(x, t):
    return 0.8*pi**2*sin(2*pi*x) + (3/5)*pi*cos(2*pi*x)


def steady_f_theta(x, t):
    return (1/5)*pi**2*(1.0*((1/5)*cos(pi*x) + 1)**2 + 1.0)*cos(pi*x) - 0.08*pi**2*((1/5)*cos(pi*x) + 1)*sin(pi*x)**2 - 0.1725*pi**2*cos(pi*x)**2 - 0.178*pi**2*cos(2*pi*x)**2


def advecting_rho(x, t):
    return (3/10)*cos(2*pi*x) + 1


def advecting_u(x, t):
    return (1/10)*sin(pi*x)


def advecting_w1(x, t):
    return (1/2)*sin(pi*x)


def advecting_w2(x, t):
    return -3/10*sin(2*pi*x)


def advecting_b1(x, t):
    return (2/5)*sin(pi*x)


def advecting_b2(x, t):
    return (1/5)*sin(2*pi*x)


def advecting_theta(x, t):
    return (1/5)*cos(pi*x) + 1


def advecting_f_rho(x, t):
    return (1/10)*pi*((3/10)*cos(2*pi*x) + 1)*cos(pi*x) - 3/50*pi*sin(pi*x)*sin(2*pi*x)


def advecting_f_u(x, t):
    return -1/10*((1/10)*pi*((3/10)*cos(2*pi*x) + 1)*cos(pi*x) - 3/50*pi*sin(pi*x)*sin(2*pi*x))*sin(pi*x) - 0.84*pi*((1/5)*cos(pi*x) + 1)*sin(2*pi*x) + (1/50)*pi*((3/10)*cos(2*pi*x) + 1)*sin(pi*x)*cos(pi*x) - 1/5*pi*(0.42*cos(2*pi*x) + 1.4)*sin(pi*x) - 3/500*pi*sin(pi*x)**2*sin(2*pi*x) + (4/25)*pi*sin(pi*x)*cos(pi*x) + 0.1*pi**2*sin(pi*x) + (2/25)*pi*sin(2*pi*x)*cos(2*pi*x)


def advecting_f_w1(x, t):
    return -1/2*((1/10)*pi*((3/10)*cos(2*pi*x) + 1)*cos(pi*x) - 3/50*pi*sin(pi*x)*sin(2*pi*x))*sin(pi*x) + (1/10)*pi*((3/10)*cos(2*pi*x) + 1)*sin(pi*x)*cos(pi*x) - 3/100*pi*sin(pi*x)**2*sin(2*pi*x) + 0.025*pi**2*sin(pi*x) - 2/5*pi*cos(pi*x)


def advecting_f_w2(x, t):
    return (3/10)*((1/10)*pi*((3/10)*cos(2*pi*x) + 1)*cos(pi*x) - 3/50*pi*sin(pi*x)*sin(2*pi*x))*sin(2*pi*x) - 3/50*pi*((3/10)*cos(2*pi*x) + 1)*sin(pi*x)*cos(2*pi*x) - 3/100*pi*((3/10)*cos(2*pi*x) + 1)*sin(2*pi*x)*cos(pi*x) + (9/500)*pi*sin(pi*x)*sin(2*pi*x)**2 - 0.06*pi**2*sin(2*pi*x) - 2/5*pi*cos(2*pi*x)


def advecting_f_b1(x, t):
    return (2/25)*pi*sin(pi*x)*cos(pi*x) + 0.4*pi**2*sin(pi*x) - 1/2*pi*cos(pi*x)


def advecting_f_b2(x, t):
    return (1/25)*pi*sin(pi*x)*cos(2*pi*x) + (1/50)*pi*sin(2*pi*x)*cos(pi*x) + 0.8*pi**2*sin(2*pi*x) + (3/5)*pi*cos(2*pi*x)


def advecting_f_theta(x, t):
    return (1/5)*pi**2*(1.0*((1/5)*cos(pi*x) + 1)**2 + 1.0)*cos(pi*x) + 0.1*pi*((1/5)*cos(pi*x) + 1)*((3/10)*cos(2*pi*x) + 1)*cos(pi*x) + (1/10)*pi*((1/5)*cos(pi*x) + 1)*(0.42*cos(2*pi*x) + 1.4)*cos(pi*x) - 0.08*pi**2*((1/5)*cos(pi*x) + 1)*sin(pi*x)**2 - 0.06*pi*((1/5)*cos(pi*x) + 1)*sin(pi*x)*sin(2*pi*x) - 0.02*pi*((3/10)*cos(2*pi*x) + 1)*sin(pi*x)**2 - 0.1825*pi**2*cos(pi*x)**2 - 0.178*pi**2*cos(2*pi*x)**2


def transient_rho(x, t):
    return (1/5)*cos(2*pi*x) + 1


def transient_u(x, t):
    return 0


def transient_w1(x, t):
    return (1/2)*sin(pi*x)*cos(3*t)


def transient_w2(x, t):
    return (1/4)*sin(2*t)*sin(2*pi*x)


def transient_b1(x, t):
    return (2/5)*sin(2*t)*sin(pi*x)


def transient_b2(x, t):
    return (1/5)*sin(2*pi*x)*cos(3*t)


def transient_theta(x, t):
    return (1/5)*cos(2*t)*cos(pi*x) + 1


def transient_f_rho(x, t):
    return 0


def transient_f_u(x, t):
    return -0.56*pi*((1/5)*cos(2*t)*cos(pi*x) + 1)*sin(2*pi*x) - 1/5*pi*(0.28*cos(2*pi*x) + 1.4)*sin(pi*x)*cos(2*t) + (4/25)*pi*sin(2*t)**2*sin(pi*x)*cos(pi*x) + (2/25)*pi*sin(2*pi*x)*cos(3*t)**2*cos(2*pi*x)


def transient_f_w1(x, t):
    return -3/2*((1/5)*cos(2*pi*x) + 1)*sin(3*t)*sin(pi*x) - 2/5*pi*sin(2*t)*cos(pi*x) + 0.025*pi**2*sin(pi*x)*cos(3*t)


def transient_f_w2(x, t):
    return (1/2)*((1/5)*cos(2*pi*x) + 1)*sin(2*pi*x)*cos(2*t) + 0.05*pi**2*sin(2*t)*sin(2*pi*x) - 2/5*pi*cos(3*t)*cos(2*pi*x)


def transient_f_b1(x, t):
    return 0.4*pi**2*sin(2*t)*sin(pi*x) + (4/5)*sin(pi*x)*cos(2*t) - 1/2*pi*cos(3*t)*cos(pi*x)


def transient_f_b2(x, t):
    return -1/2*pi*sin(2*t)*cos(2*pi*x) - 3/5*sin(3*t)*sin(2*pi*x) + 0.8*pi**2*sin(2*pi*x)*cos(3*t)


def transient_f_theta(x, t):
    return -0.08*pi**2*((1/5)*cos(2*t)*cos(pi*x) + 1)*sin(pi*x)**2*cos(2*t)**2 + (1/5)*pi**2*(1.0*((1/5)*cos(2*t)*cos(pi*x) + 1)**2 + 1.0)*cos(2*t)*cos(pi*x) - 2/5*(0.2*cos(2*pi*x) + 1.0)*sin(2*t)*cos(pi*x) - 0.16*pi**2*sin(2*t)**2*cos(pi*x)**2 - 0.0125*pi**2*sin(2*t)**2*cos(2*pi*x)**2 - 0.0125*pi**2*cos(3*t)**2*cos(pi*x)**2 - 0.16*pi**2*cos(3*t)**2*cos(2*pi*x)**2

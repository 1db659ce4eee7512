"""Derive the compensating sources of the manufactured solutions with
sympy, and print them with the fields into mms_sources.py.

From the root of a source checkout, regenerate the module with

    PYTHONPATH=src python -m planemhd.mms_derive

This module is the only one of the package that imports sympy; no
planemhd command imports it, so sympy is needed only to regenerate the
sources and to run the tests that check them against a fresh
derivation.
"""

from __future__ import annotations

from pathlib import Path

import sympy as sp
from sympy.printing.numpy import NumPyPrinter

from .core import PhysParams

# the parameters the sources are derived for; mms_sources.PARAMS
PARAMS = PhysParams(mu=0.05)

x, t = sp.symbols("x t", real=True)


def _build(params: PhysParams, rho, u, w1, w2, b1, b2, theta) -> dict:
    """The fields and the compensating sources, derived symbolically
    from the field expressions, by name."""
    lam, mu, nu = params.lam, params.mu, params.nu
    gamma, c_v = params.gamma, params.c_v
    p = gamma * rho * theta
    bsq = b1 ** 2 + b2 ** 2
    # an exact exponent: with the float q the derivative keeps
    # theta**1.0 beside theta, sympy orders the two by their hashes, and
    # the printed sum changed from one process to the next
    kap = (params.kappa1 * (1 + theta ** sp.Rational(params.q))
           + params.kappa2 * rho)
    heat = (lam * sp.diff(u, x) ** 2
            + mu * (sp.diff(w1, x) ** 2 + sp.diff(w2, x) ** 2)
            + nu * (sp.diff(b1, x) ** 2 + sp.diff(b2, x) ** 2))
    f_rho = sp.diff(rho, t) + sp.diff(rho * u, x)
    # the scheme advances rho (u_t + u u_x), which is the conservative
    # (rho u)t + (rho u^2)x less u times the continuity residual f_rho
    f_u = (sp.diff(rho * u, t)
           + sp.diff(rho * u ** 2 + p + bsq / 2, x)
           - lam * sp.diff(u, x, 2) - u * f_rho)
    f_w = [sp.diff(rho * wk, t) + sp.diff(rho * u * wk - bk, x)
           - mu * sp.diff(wk, x, 2) - wk * f_rho
           for wk, bk in ((w1, b1), (w2, b2))]
    f_b = [sp.diff(bk, t) + sp.diff(u * bk - wk, x)
           - nu * sp.diff(bk, x, 2)
           for wk, bk in ((w1, b1), (w2, b2))]
    f_th = (sp.diff(rho * c_v * theta, t)
            + sp.diff(rho * u * c_v * theta, x)
            + p * sp.diff(u, x)
            - sp.diff(kap * sp.diff(theta, x), x)
            - heat)
    return {"rho": rho, "u": u, "w1": w1, "w2": w2, "b1": b1, "b2": b2,
            "theta": theta, "f_rho": f_rho, "f_u": f_u, "f_w1": f_w[0],
            "f_w2": f_w[1], "f_b1": f_b[0], "f_b2": f_b[1],
            "f_theta": f_th}


def _steady_fields(u) -> tuple:
    """The steady (rho, u, w1, w2, b1, b2, theta) with the given u."""
    pi = sp.pi
    rho = 1 + sp.Rational(3, 10) * sp.cos(2 * pi * x)
    w1 = sp.Rational(1, 2) * sp.sin(pi * x)
    w2 = -sp.Rational(3, 10) * sp.sin(2 * pi * x)
    b1 = sp.Rational(2, 5) * sp.sin(pi * x)
    b2 = sp.Rational(1, 5) * sp.sin(2 * pi * x)
    theta = 1 + sp.Rational(1, 5) * sp.cos(pi * x)
    return rho, u, w1, w2, b1, b2, theta


def _transient_fields() -> tuple:
    """Time-dependent (rho, u, w1, w2, b1, b2, theta) at fixed spatial
    profiles, with u = 0."""
    pi = sp.pi
    rho = 1 + sp.Rational(1, 5) * sp.cos(2 * pi * x)
    u = sp.Integer(0)
    g = sp.cos(3 * t)
    h = sp.sin(2 * t)
    w1 = sp.Rational(1, 2) * sp.sin(pi * x) * g
    w2 = sp.Rational(1, 4) * sp.sin(2 * pi * x) * h
    b1 = sp.Rational(2, 5) * sp.sin(pi * x) * h
    b2 = sp.Rational(1, 5) * sp.sin(2 * pi * x) * g
    theta = 1 + sp.Rational(1, 5) * sp.cos(pi * x) * sp.cos(2 * t)
    return rho, u, w1, w2, b1, b2, theta


# the field expressions of each solution, by the prefix of its functions
# in mms_sources
SOLUTIONS = {
    "steady": lambda: _steady_fields(0),
    "advecting": lambda: _steady_fields(sp.sin(sp.pi * x) / 10),
    "transient": _transient_fields,
}


def derive(solution: str) -> dict:
    """The fields and sources of one solution for PARAMS, as sympy
    expressions."""
    return _build(PARAMS, *SOLUTIONS[solution]())


def source() -> str:
    """The text of mms_sources.py: every field and source of every
    solution as `<solution>_<name>(x, t)`, printed with the numpy printer
    and settings that sympy's lambdify uses for modules="numpy"."""
    printer = NumPyPrinter({"fully_qualified_modules": False,
                            "inline": True,
                            "allow_unknown_functions": True,
                            "user_functions": {}})
    functions, numpy_names = [], set()
    for solution in SOLUTIONS:
        for name, expr in derive(solution).items():
            code = printer.doprint(expr)
            numpy_names |= set(compile(code, name, "eval").co_names)
            functions.append(f"\n\ndef {solution}_{name}(x, t):\n"
                             f"    return {code}\n")
    numpy_names -= {"x", "t"}
    header = ('"""Manufactured fields and compensating sources for PARAMS, '
              'printed by\nsympy\'s numpy printer. Generated by\n\n'
              '    PYTHONPATH=src python -m planemhd.mms_derive\n\n'
              'from the root of a source checkout; do not edit.\n"""\n\n'
              f"from numpy import {', '.join(sorted(numpy_names))}\n\n"
              "from .core import PhysParams\n\n")
    return header + f"PARAMS = {PARAMS!r}\n" + "".join(functions)


if __name__ == "__main__":
    path = Path(__file__).with_name("mms_sources.py")
    path.write_text(source())
    print(f"wrote {path}")

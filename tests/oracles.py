"""Independent numerical oracles the tests check the library against.

Everything here is deliberately built from different machinery than the
code under test: direct quadrature of closed forms, finite-difference
residuals of the governing equations, a pointwise collinearity measure,
and a Crank-Nicolson propagator for the temporal linear system.
"""

import numpy as np
from scipy.integrate import quad

from mtmlab.errors import DegenerateVectorError
from mtmlab.fields import Grid, SpinorField, d_dx
from mtmlab.lax import LaxOperatorSample, assemble_A, assemble_L
from mtmlab.solitons import sample_spinor, stationary_soliton_evaluator


def soliton_charge_quadrature(gamma: float) -> float:
    """Adaptive quadrature of the soliton modulus profile over the line."""
    s = np.sin(gamma)

    def integrand(x):
        y = 2.0 * x * s
        if abs(y) > 700.0:
            return 0.0
        return 2.0 * s ** 2 * 2.0 / (np.cosh(y) + np.cos(gamma))

    val, _ = quad(integrand, -np.inf, np.inf, limit=400)
    return val


def mtm_residual(gamma: float, n: int, t: float = 0.0) -> float:
    """Discrete residual of the governing system on the exact soliton.

    One-sided time derivative from two closed-form snapshots with the
    algebraic terms evaluated at the field midpoint; centered second-order
    space derivative.  O(dt^2 + dx^2) for the exact solution.
    """
    g = Grid.symmetric(30.0, n)
    dt = g.dx
    ev = stationary_soliton_evaluator(gamma)
    f0 = sample_spinor(ev, t, g)
    fp = sample_spinor(ev, t + dt, g)
    ut = (fp.u - f0.u) / dt
    vt = (fp.v - f0.v) / dt
    um = 0.5 * (fp.u + f0.u)
    vm = 0.5 * (fp.v + f0.v)
    ux = 0.5 * (d_dx(f0.u, g, 2) + d_dx(fp.u, g, 2))
    vx = 0.5 * (d_dx(f0.v, g, 2) + d_dx(fp.v, g, 2))
    r1 = 1j * (ut + ux) + vm + um * np.abs(vm) ** 2
    r2 = 1j * (vt - vx) + um + vm * np.abs(um) ** 2
    return float(np.sqrt(g.dx * np.sum(np.abs(r1) ** 2 + np.abs(r2) ** 2)))


def zero_curvature_residual(gamma: float, lam: complex, n: int) -> float:
    """|| dA/dx - dL/dt + [A, L] || on the exact soliton, centered stencils."""
    g = Grid.symmetric(30.0, n)
    dt = g.dx
    ev = stationary_soliton_evaluator(gamma)
    keys = ("a11", "a12", "a21", "a22")
    fm = sample_spinor(ev, -dt, g)
    f0 = sample_spinor(ev, 0.0, g)
    fp = sample_spinor(ev, dt, g)
    lm, l0, lp = (assemble_L(f, lam) for f in (fm, f0, fp))
    a0 = assemble_A(f0, lam)
    da_dx = [d_dx(getattr(a0, k), g, 2) for k in keys]
    dl_dt = [(getattr(lp, k) - getattr(lm, k)) / (2 * dt) for k in keys]
    a11, a12, a21, a22 = (getattr(a0, k) for k in keys)
    l11, l12, l21, l22 = (getattr(l0, k) for k in keys)
    comm = (a11 * l11 + a12 * l21 - (l11 * a11 + l12 * a21),
            a11 * l12 + a12 * l22 - (l11 * a12 + l12 * a22),
            a21 * l11 + a22 * l21 - (l21 * a11 + l22 * a21),
            a21 * l12 + a22 * l22 - (l21 * a12 + l22 * a22))
    tot = 0.0
    for da, dl, c in zip(da_dx, dl_dt, comm):
        r = da - dl + c
        tot += g.dx * np.sum(np.abs(r[2:-2]) ** 2)
    return float(np.sqrt(tot))


def propagate_lax_in_time(phi0: np.ndarray, fields: list[SpinorField],
                          lam: complex, dt: float) -> np.ndarray:
    """Crank-Nicolson propagation of d/dt phi = A(p(t), q(t), lam) phi.

    `fields` holds the background at every step (len = steps + 1); the
    coefficient matrix is evaluated at the field midpoint of each step.
    Returns phi at the final time, shape (n, 2).
    """
    phi = phi0.copy()
    for k in range(len(fields) - 1):
        um = 0.5 * (fields[k].u + fields[k + 1].u)
        vm = 0.5 * (fields[k].v + fields[k + 1].v)
        a = assemble_A(SpinorField(fields[k].grid, um, vm), lam)
        b1 = phi[:, 0] + 0.5 * dt * (a.a11 * phi[:, 0] + a.a12 * phi[:, 1])
        b2 = phi[:, 1] + 0.5 * dt * (a.a21 * phi[:, 0] + a.a22 * phi[:, 1])
        m11 = 1.0 - 0.5 * dt * a.a11
        m12 = -0.5 * dt * a.a12
        m21 = -0.5 * dt * a.a21
        m22 = 1.0 - 0.5 * dt * a.a22
        det = m11 * m22 - m12 * m21
        phi = np.stack([(m22 * b1 - m12 * b2) / det,
                        (-m21 * b1 + m11 * b2) / det], axis=-1)
    return phi


def spatial_residual(op: LaxOperatorSample, vec: SpinorField, trim: int = 2) -> float:
    """L2 norm of (d/dx - op) vec, centered 4th-order stencil, edges trimmed."""
    r1 = d_dx(vec.u, vec.grid, accuracy=4) - (op.a11 * vec.u + op.a12 * vec.v)
    r2 = d_dx(vec.v, vec.grid, accuracy=4) - (op.a21 * vec.u + op.a22 * vec.v)
    if trim:
        r1 = r1[trim:-trim]
        r2 = r2[trim:-trim]
    return float(np.sqrt(op.grid.dx * np.sum(np.abs(r1) ** 2 + np.abs(r2) ** 2)))


def collinearity_defect(a: SpinorField, b: SpinorField) -> float:
    """Magnitude-weighted L2 defect of pointwise collinearity of two vectors.

    ||a x b||_L2 / || |a| |b| ||_L2: zero iff the vectors are proportional;
    the |a||b| weight concentrates the measure where both carry mass, so
    noise in exponentially small tails does not dominate.
    """
    cross = a.u * b.v - a.v * b.u
    mags = (np.sqrt(np.abs(a.u) ** 2 + np.abs(a.v) ** 2)
            * np.sqrt(np.abs(b.u) ** 2 + np.abs(b.v) ** 2))
    denom = np.sqrt(np.sum(mags ** 2))
    if denom == 0:
        raise DegenerateVectorError("both vectors vanish everywhere")
    return float(np.sqrt(np.sum(np.abs(cross) ** 2)) / denom)

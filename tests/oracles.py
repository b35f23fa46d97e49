"""Independent numerical oracles the tests check the library against.

Everything here is deliberately built from different machinery than the
code under test: direct quadrature of closed forms, finite-difference
residuals of the governing equations, a pointwise collinearity measure,
a Crank-Nicolson propagator for the temporal linear system, and the
cell-by-cell Jost kernel (stacked np.matmul RK4 transfers, sequential
propagation) that the log-depth running product replaced, and the
derivative-free Nelder-Mead reconstruction fit that the dogleg fit replaced.
It also holds the perturbed-soliton family the property tests draw from.
"""

import numpy as np
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize

from mtmlab.backlund import up_map
from mtmlab.errors import DegenerateVectorError, IntegrationError, MtmError
from mtmlab.fields import Grid, SpinorField, combined_l2_distance, d_dx
from mtmlab.lax import LaxOperatorSample, assemble_A, assemble_L
from mtmlab.solitons import (
    SpectralParameter,
    sample_spinor,
    stationary_soliton,
    stationary_soliton_evaluator,
)


def bumped_soliton(grid, amp, center, width, k, v_weight):
    """The gamma = pi/2 soliton plus a Gaussian bump in u and v_weight times it in v."""
    sol = stationary_soliton(np.pi / 2, 0.0, 0.0, 0.0, grid)
    bump = amp * np.exp(-(grid.x - center) ** 2 / width) * np.exp(1j * k * grid.x)
    return SpinorField(grid, sol.u + bump, sol.v + v_weight * bump)


# small perturbations (amp <= 0.1) as bumped_soliton arguments
perturbations = st.tuples(st.floats(0.0, 0.1), st.floats(-3.0, 3.0), st.floats(1.0, 8.0),
                          st.floats(-1.0, 1.0), st.complex_numbers(max_magnitude=1.0))


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


def sup_norm(f: SpinorField) -> float:
    """The largest modulus of either component over the grid."""
    return float(max(np.abs(f.u).max(), np.abs(f.v).max()))


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


def rk4_transfer_matmul(ma, mm, mb, h):
    """Stacked 2x2 RK4 transfer matrices for w' = M(x) w over one cell."""
    k1 = ma
    k2 = mm + (0.5 * h) * np.matmul(mm, k1)
    k3 = mm + (0.5 * h) * np.matmul(mm, k2)
    k4 = mb + h * np.matmul(mb, k3)
    eye = np.eye(2, dtype=np.complex128)
    return eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def propagate_sequential(transfers: np.ndarray, w0, forward: bool) -> np.ndarray:
    """Apply per-cell transfer matrices one cell at a time; returns (ncell+1, 2)."""
    ncell = transfers.shape[0]
    s00 = transfers[:, 0, 0].tolist()
    s01 = transfers[:, 0, 1].tolist()
    s10 = transfers[:, 1, 0].tolist()
    s11 = transfers[:, 1, 1].tolist()
    out = np.empty((ncell + 1, 2), dtype=np.complex128)
    a, b = complex(w0[0]), complex(w0[1])
    if forward:
        out[0] = (a, b)
        for j in range(ncell):
            a, b = s00[j] * a + s01[j] * b, s10[j] * a + s11[j] * b
            out[j + 1] = (a, b)
    else:
        out[ncell] = (a, b)
        for j in range(ncell - 1, -1, -1):
            a, b = s00[j] * a + s01[j] * b, s10[j] * a + s11[j] * b
            out[j] = (a, b)
    if not np.all(np.isfinite(out.view(np.float64))):
        raise IntegrationError("Jost integration produced non-finite values")
    return out


def sequential_reduced(ws, lam: complex, side: str) -> np.ndarray:
    """Drop-in for `_JostWorkspace.reduced` on the cell-by-cell kernel.

    Builds the (ncell, 3, 2, 2) gauge-frame matrices at the RK nodes from the
    workspace's field samples and gauge factors, then runs
    `rk4_transfer_matmul` and `propagate_sequential`; returns (2, n).
    """
    k1 = SpectralParameter(lam).k1
    forward = side == "left"
    e = (ws.e_left if forward else ws.e_right).T
    u, v = ws.u_nodes.T, ws.v_nodes.T
    m = np.zeros((u.shape[0], 3, 2, 2), dtype=np.complex128)
    m[..., 0, 1] = 0.5j * (np.conj(u) / lam - np.conj(v) * lam) * e
    m[..., 1, 0] = 0.5j * (u / lam - v * lam) / e
    if forward != (k1.real > 0):
        m[..., 0, 0] = 2.0 * k1        # envelope e^{-x k1}
        init = (0.0, 1.0)
    else:
        m[..., 1, 1] = -2.0 * k1       # envelope e^{+x k1}
        init = (1.0, 0.0)
    if forward:
        transfers = rk4_transfer_matmul(m[:, 0], m[:, 1], m[:, 2], ws.grid.dx)
    else:
        transfers = rk4_transfer_matmul(m[:, 2], m[:, 1], m[:, 0], -ws.grid.dx)
    return propagate_sequential(transfers, init, forward).T


def nelder_mead_fit(pq_t, jost, lam: complex, target: SpinorField, seed):
    """(distance, a, theta, success) of a Nelder-Mead fit of up_map to target.

    Minimizes combined_l2_distance(up_map(pq_t, jost, lam, a, theta), target)
    with a 1e6 penalty where up_map raises, restarting once from where an
    unconverged first run stopped.
    """
    def objective(params):
        try:
            rec = up_map(pq_t, jost, lam, *params)
        except MtmError:
            return 1e6
        return combined_l2_distance(rec, target)

    options = {"xatol": 1e-9, "fatol": 1e-13, "maxiter": 200}
    opt = minimize(objective, x0=seed, method="Nelder-Mead", options=options)
    if not opt.success:
        opt = minimize(objective, x0=opt.x, method="Nelder-Mead", options=options)
    return float(opt.fun), *opt.x, opt.success

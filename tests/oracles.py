"""Independent numerical oracles the tests check the library against.

Everything here is deliberately built from different machinery than the
code under test: direct quadrature of closed forms, finite-difference
residuals of the governing equations, a pointwise collinearity measure,
a Crank-Nicolson propagator for the temporal linear system, the per-cell
cubic sampler (a weight tensor for every cell, product-form Lagrange
weights) that the shared cell stencil replaced, the cell-by-cell Jost
kernel (stacked np.matmul RK4 transfers, sequential propagation) that the
tree scan replaced, the whole-line Evans function and eigenvector splice
(both Jost solutions on the whole line from `solve_jost`) that the
half-line scans replaced, the derivative-free Nelder-Mead reconstruction fit
that the dogleg fit replaced, SciPy's dogleg and bounded Brent minimizers
that the package's numpy ports of them replaced, the allocating local update
and Strang segment (np.roll transport) that the in-place segment replaced,
the per-row CSV formatter that the one-pass writer replaced (adapted to
emit the grid line the snapshots gained later), and the three-exponential
soliton evaluator (a csech each for u and v, the phase from np.exp) that
the one-csech evaluator replaced.
It also holds the perturbed-soliton family the property tests draw from.
"""

import functools
import math

import numpy as np
from numpy.polynomial import polynomial as P
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize, minimize_scalar

from mtmlab import stability
from mtmlab.backlund import up_map, up_map_tangents
from mtmlab.errors import DegenerateVectorError, IntegrationError, MtmError
from mtmlab.fields import Grid, SpinorField, combined_l2_distance, d_dx, l2_norm
from mtmlab.lax import LaxOperatorSample, assemble_A, assemble_L, solve_jost
from mtmlab.solitons import (
    SpectralParameter,
    sample_spinor,
    soliton_evaluator,
    soliton_field,
)

from helpers import polar


def bumped_soliton(grid, amp, center, width, k, v_weight):
    """The gamma = pi/2 soliton plus a Gaussian bump in u and v_weight times it in v."""
    sol = soliton_field(polar(np.pi / 2), 0.0, grid)
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


def centered_difference(arr: np.ndarray, grid: Grid) -> np.ndarray:
    """First derivative by second-order periodic centered differences."""
    return (np.roll(arr, -1) - np.roll(arr, 1)) / (2 * grid.dx)


def mtm_residual(gamma: float, n: int, t: float = 0.0) -> float:
    """Discrete residual of the governing system on the exact soliton.

    One-sided time derivative from two closed-form snapshots with the
    algebraic terms evaluated at the field midpoint; centered second-order
    space derivative.  O(dt^2 + dx^2) for the exact solution.
    """
    g = Grid.symmetric(30.0, n)
    dt = g.dx
    ev = soliton_evaluator(polar(gamma))
    f0 = sample_spinor(ev, t, g)
    fp = sample_spinor(ev, t + dt, g)
    ut = (fp.u - f0.u) / dt
    vt = (fp.v - f0.v) / dt
    um = 0.5 * (fp.u + f0.u)
    vm = 0.5 * (fp.v + f0.v)
    ux = 0.5 * (centered_difference(f0.u, g) + centered_difference(fp.u, g))
    vx = 0.5 * (centered_difference(f0.v, g) + centered_difference(fp.v, g))
    r1 = 1j * (ut + ux) + vm + um * np.abs(vm) ** 2
    r2 = 1j * (vt - vx) + um + vm * np.abs(um) ** 2
    return float(np.sqrt(g.dx * np.sum(np.abs(r1) ** 2 + np.abs(r2) ** 2)))


def zero_curvature_residual(gamma: float, lam: complex, n: int) -> float:
    """|| dA/dx - dL/dt + [A, L] || on the exact soliton, centered stencils."""
    g = Grid.symmetric(30.0, n)
    dt = g.dx
    ev = soliton_evaluator(polar(gamma))
    keys = ("a11", "a12", "a21", "a22")
    fm = sample_spinor(ev, -dt, g)
    f0 = sample_spinor(ev, 0.0, g)
    fp = sample_spinor(ev, dt, g)
    lm, l0, lp = (assemble_L(f, lam) for f in (fm, f0, fp))
    a0 = assemble_A(f0, lam)
    da_dx = [centered_difference(getattr(a0, k), g) for k in keys]
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
    r1 = d_dx(vec.u, vec.grid) - (op.a11 * vec.u + op.a12 * vec.v)
    r2 = d_dx(vec.v, vec.grid) - (op.a21 * vec.u + op.a22 * vec.v)
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


def _lagrange_weights(xi: np.ndarray) -> np.ndarray:
    """Cubic Lagrange weights on the nodes 0..3 in product form; xi.shape + (4,)."""
    nodes = range(4)
    return np.stack([np.prod([(xi - m) / (k - m) for m in nodes if m != k], axis=0)
                     for k in nodes], axis=-1)


def _lagrange_integrals(xi: np.ndarray) -> np.ndarray:
    """int_0^xi of each cubic Lagrange basis polynomial; xi.shape + (4,)."""
    out = []
    for k in range(4):
        others = [m for m in range(4) if m != k]
        coef = P.polyfromroots(others) / np.prod([k - m for m in others])
        out.append(P.polyval(xi, P.polyint(coef)))
    return np.stack(out, axis=-1)


class EinsumCellSampler:
    """The per-cell cubic sampler: one stencil and one weight row per cell.

    Cell j uses the grid points s..s+3 with s = clip(j-1, 0, n-4) and the
    local coordinate xi = j - s + tau; the (n-1, m, 4) weight tensor is
    contracted with the gathered samples by np.einsum.  Same interface as
    `fields.CellSampler`.
    """

    def __init__(self, grid: Grid):
        n = grid.n
        self.grid = grid
        j = np.arange(n - 1)
        s = np.clip(j - 1, 0, n - 4)
        self._gather = s[:, None] + np.arange(4)[None, :]
        self._xi0 = (j - s).astype(float)

    def values(self, f, taus):
        xi = self._xi0[:, None] + np.atleast_1d(np.asarray(taus, dtype=float))[None, :]
        return np.einsum("jmk,jk->jm", _lagrange_weights(xi), f[self._gather])

    def cell_integrals(self, f, taus):
        xi = self._xi0[:, None] + np.atleast_1d(np.asarray(taus, dtype=float))[None, :]
        w = _lagrange_integrals(xi) - _lagrange_integrals(self._xi0)[:, None, :]
        return self.grid.dx * np.einsum("jmk,jk->jm", w, f[self._gather])

    def running_integral(self, f):
        cell = self.cell_integrals(f, (1.0,))[:, 0]
        return np.concatenate([[0.0], np.cumsum(cell)])


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


def sequential_reduced(ws, lam: complex):
    """Drop-in for `_JostWorkspace.reduced` on the cell-by-cell kernel.

    Builds each side's (ncell, 3, 2, 2) gauge-frame matrices at the RK nodes
    from the workspace's field samples and gauge factors, then runs
    `rk4_transfer_matmul` and `propagate_sequential`; returns the left and
    the right reduced trajectories, (2, n) each.
    """
    k1 = SpectralParameter(lam).k1
    u, v = ws.u_nodes.T, ws.v_nodes.T
    out = []
    for forward, e in ((True, ws.e_left.T), (False, ws.e_right.T)):
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
        out.append(propagate_sequential(transfers, init, forward).T)
    return tuple(out)


def full_line_evans(f: SpinorField, lam: complex, _workspace=None) -> complex:
    """The Evans function read off both whole-line Jost solutions at j0.

    Same signature as `lax.evans_function`, so it can be patched in for it;
    the workspace is ignored.
    """
    pair = solve_jost(f, lam)
    j0 = int(np.argmin(np.abs(f.grid.x)))
    l1, l2_ = pair.left.u[j0], pair.left.v[j0]
    r1, r2 = pair.right.u[j0], pair.right.v[j0]
    nl = np.sqrt(abs(l1) ** 2 + abs(l2_) ** 2)
    nr = np.sqrt(abs(r1) ** 2 + abs(r2) ** 2)
    if nl == 0 or nr == 0:
        raise DegenerateVectorError("Jost solution vanished at the matching point")
    return complex((l1 * r2 - l2_ * r1) / (nl * nr))


def full_line_eigenvector(f: SpinorField, lam: complex) -> SpinorField:
    """Left Jost solution on x <= 0 spliced to the rescaled right one, normalized.

    Both solutions come from `solve_jost` on the whole line.
    """
    pair = solve_jost(f, lam)
    grid = f.grid
    j0 = int(np.argmin(np.abs(grid.x)))
    l1, l2_ = pair.left.u[j0], pair.left.v[j0]
    r1, r2 = pair.right.u[j0], pair.right.v[j0]
    denom = abs(r1) ** 2 + abs(r2) ** 2
    if denom == 0:
        raise DegenerateVectorError("right Jost solution vanished at the matching point")
    c = (l1 * np.conj(r1) + l2_ * np.conj(r2)) / denom
    phi1 = np.concatenate([pair.left.u[: j0 + 1], c * pair.right.u[j0 + 1:]])
    phi2 = np.concatenate([pair.left.v[: j0 + 1], c * pair.right.v[j0 + 1:]])
    nrm = l2_norm(SpinorField(grid, phi1, phi2))
    if nrm == 0:
        raise DegenerateVectorError("eigenvector is identically zero")
    mag = np.abs(phi1) ** 2 + np.abs(phi2) ** 2
    jp = int(np.argmax(mag))
    comp = phi1[jp] if abs(phi1[jp]) >= abs(phi2[jp]) else phi2[jp]
    rot = np.conj(comp) / abs(comp)
    return SpinorField(grid, phi1 * rot / nrm, phi2 * rot / nrm)


def nelder_mead_fit(pq_t, jost, target: SpinorField, seed):
    """(distance, a, theta, success) of a Nelder-Mead fit of up_map to target.

    Minimizes combined_l2_distance(up_map(pq_t, jost, a, theta), target)
    with a 1e6 penalty where up_map raises, restarting once from where an
    unconverged first run stopped.
    """
    def objective(params):
        try:
            rec = up_map(pq_t, jost, *params)
        except MtmError:
            return 1e6
        return combined_l2_distance(rec, target)

    options = {"xatol": 1e-9, "fatol": 1e-13, "maxiter": 200}
    opt = minimize(objective, x0=seed, method="Nelder-Mead", options=options)
    if not opt.success:
        opt = minimize(objective, x0=opt.x, method="Nelder-Mead", options=options)
    return float(opt.fun), *opt.x, opt.success


def scipy_dogleg_fit(pq_t, jost, target: SpinorField, seed):
    """(distance, a, theta, converged, nfev) of SciPy's dogleg on the package's fit objective.

    The objective, its gradient and its Gauss-Newton Hessian are those of
    `stability._FitPoint`, with the FIT_PENALTY point where up_map raises;
    only the solver differs from `stability._fit_reconstruction`.  The fit
    converges as the package defines it: SciPy reports success, or the
    Gauss-Newton step at the returned point is at most FIT_STEP_TOL, never on
    the penalty.  An unconverged fit is restarted once from where it stopped.
    nfev sums SciPy's evaluation counts over both runs.
    """
    @functools.cache
    def evaluate(key: bytes):
        try:
            rec, tangents = up_map_tangents(pq_t, jost, *np.frombuffer(key))
        except MtmError:
            return None
        return stability._FitPoint(rec, target, tangents)

    def point(x):
        return evaluate(np.asarray(x, dtype=float).tobytes())

    def fun(x):
        p = point(x)
        return stability.FIT_PENALTY if p is None else p.fun

    def jac(x):
        p = point(x)
        return np.zeros(2) if p is None else p.derivatives[0]

    def hess(x):
        p = point(x)
        return np.eye(2) if p is None else p.derivatives[1]

    def converged(opt):
        p = point(opt.x)
        if p is None:
            return False
        if opt.success:
            return True
        try:
            step = np.linalg.solve(p.derivatives[1], p.derivatives[0])
        except np.linalg.LinAlgError:
            return False
        return bool(np.hypot(*step) <= stability.FIT_STEP_TOL)

    def fit(x0):
        return minimize(fun, x0=x0, method="dogleg", jac=jac, hess=hess,
                        options={"gtol": stability.FIT_GTOL})

    opt = fit(seed)
    ok, nfev = converged(opt), opt.nfev
    if not ok:
        opt = fit(opt.x)
        ok, nfev = converged(opt), nfev + opt.nfev
    return float(opt.fun), *opt.x, ok, nfev


def scipy_bounded_brent(fun, lo: float, hi: float, xatol: float) -> float:
    """SciPy's bounded Brent minimizer of fun on [lo, hi]."""
    return minimize_scalar(fun, bounds=(lo, hi), method="bounded",
                           options={"xatol": xatol}).x


def allocating_local_update(u, v, tau):
    """M(tau/2) N(tau) M(tau/2) as array expressions; returns new arrays."""
    a, s = 2.0 * math.sin(0.25 * tau) ** 2, 1j * math.sin(0.5 * tau)
    u, v = u + (s * v - a * u), v + (s * u - a * v)
    u, v = u * _phase_factor(v, tau), v * _phase_factor(u, tau)
    return u + (s * v - a * u), v + (s * u - a * v)


def _phase_factor(w, tau):
    phase = tau * np.abs(w) ** 2
    e = np.empty(phase.shape, dtype=np.complex128)
    np.cos(phase, out=e.real)
    np.sin(phase, out=e.imag)
    return e


def allocating_segment(u, v, dt, s):
    """L(dt/2) T [L(dt) T]^(s-1) L(dt/2) with np.roll as the transport T."""
    shift = 1 if dt > 0 else -1
    u, v = allocating_local_update(u, v, 0.5 * dt)
    for _ in range(s - 1):
        u, v = allocating_local_update(np.roll(u, shift), np.roll(v, -shift), dt)
    return allocating_local_update(np.roll(u, shift), np.roll(v, -shift), 0.5 * dt)


def allocating_trajectory(f0: SpinorField, dt: float, n_steps: int, stride: int):
    """The (u, v) arrays at t = 0 and after every stride steps, one segment per span."""
    out = [(f0.u, f0.v)]
    u, v = f0.u, f0.v
    for k in range(0, n_steps, stride):
        u, v = allocating_segment(u, v, dt, min(stride, n_steps - k))
        out.append((u, v))
    return out


def format_rows_per_row(grid: Grid, c1, c2, header: str) -> str:
    """The snapshot CSV text, one % per row on numpy scalars, below the grid line."""
    x = grid.x
    lines = [header, "# x_min=%.17g x_max=%.17g n=%d" % (grid.x_min, grid.x_max, grid.n)]
    for j in range(len(x)):
        lines.append("%.17g,%.17g,%.17g,%.17g,%.17g"
                     % (x[j], c1[j].real, c1[j].imag, c2[j].real, c2[j].imag))
    return "\n".join(lines) + "\n"


def _csech_three_temporaries(z):
    """Complex sech with its exponent built as three array expressions."""
    z = np.asarray(z, dtype=np.complex128)
    s = np.where(z.real >= 0, 1.0, -1.0)
    ez = np.exp(-np.abs(z.real) - 1j * s * z.imag)
    return 2.0 * ez / (1.0 + ez * ez)


def three_exponential_soliton_evaluator(p: SpectralParameter, a: float = 0.0,
                                        theta: float = 0.0):
    """The one-soliton family with a csech of its own for each of u and v and
    the phase from np.exp: three complex exponentials per evaluation."""
    s, d, al, be, nu, g = np.sin(p.gamma), p.delta, p.alpha, p.beta, p.nu, p.gamma

    def ev(x, t):
        x = np.asarray(x, dtype=float)
        arg = al * (x + a + nu * t)
        phase = np.exp(1j * theta - 1j * be * (t + nu * x))
        u = 1j / d * s * _csech_three_temporaries(arg - 0.5j * g) * phase
        v = -1j * d * s * _csech_three_temporaries(arg + 0.5j * g) * phase
        return u, v

    return ev

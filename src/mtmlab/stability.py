"""Orbital-stability experiments: perturb, evolve, and measure orbit distances.

The pipeline mirrors the three-arrow diagram: map a perturbed soliton down
to a small field at t = 0 through its Lax eigenvector, ride the conserved
L2 norm of the small field through time, and map back up into the soliton
neighborhood at each sample time.  `run_experiment` walks the sample times
once, in order, and measures the fields as it reaches each of them.  The
measured quantity is the modulated distance
||u - e^{-i theta*} u_lam(.-a*)|| + ||v - e^{-i theta*} v_lam(.-a*)||,
where a* minimizes this norm-sum over the shift and theta* =
arg(<u, u_lam(.-a*)> + <v, v_lam(.-a*)>) is the phase that minimizes the
squared sum ||du||^2 + ||dv||^2 at that shift.  It is recorded alongside
charge, the fitted (a*, theta*), the eigenvalue, and the small-field norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .backlund import down_map, up_map, up_map_tangents
from .errors import MtmError, ParameterError
from .evolution import charge, evolve, step_count
from .fields import (
    Grid,
    SpinorField,
    integrate,
    l2_norm,
)
from .lax import find_eigenvalue, solve_time_bvp
from .solitons import (
    SpectralParameter,
    require_gamma,
    soliton_evaluator,
    stationary_soliton,
)

PERTURBATION_SHAPES = ("gaussian_bump", "random_fourier")
PIPELINES = ("direct", "backlund", "both")
#: the modulated-distance shift scan covers |a| <= SCAN_HALFWIDTH
SCAN_HALFWIDTH = 10.0


@dataclass(frozen=True)
class ExperimentConfig:
    """One stability experiment: gamma0-soliton plus an epsilon-perturbation."""

    gamma0: float
    epsilon: float
    perturbation_seed: int = 0
    perturbation_shape: str = "gaussian_bump"
    grid: Grid = field(default_factory=Grid.symmetric)
    t_end: float = 20.0
    times: tuple[float, ...] | None = None   # nondecreasing, <= t_end; default 0, 2, 4, ...
    pipeline: str = "both"

    def __post_init__(self):
        require_gamma(self.gamma0)
        if not math.isfinite(self.epsilon) or self.epsilon < 0:
            raise ParameterError(f"epsilon must be finite and nonnegative, got {self.epsilon}")
        if self.perturbation_shape not in PERTURBATION_SHAPES:
            raise ParameterError(f"unknown perturbation shape {self.perturbation_shape!r}")
        if self.pipeline not in PIPELINES:
            raise ParameterError(f"unknown pipeline {self.pipeline!r}")
        if not math.isfinite(self.t_end) or self.t_end <= 0:
            raise ParameterError(f"t_end must be finite and positive, got {self.t_end}")
        if self.times is not None:
            if not self.times:
                raise ParameterError("sample times must not be empty")
            if not all(math.isfinite(t) and t >= 0 for t in self.times):
                raise ParameterError(
                    f"sample times must be finite and nonnegative, got {self.times}")
            if any(b < a for a, b in zip(self.times, self.times[1:])):
                raise ParameterError(f"sample times must not decrease, got {self.times}")
            if max(self.times) > self.t_end:
                raise ParameterError(
                    f"sample times must not exceed t_end = {self.t_end}, got {self.times}")

    def sample_times(self) -> tuple[float, ...]:
        if self.times is not None:
            return tuple(self.times)
        k = int(math.floor(self.t_end / 2.0 + 1e-12))
        return tuple(2.0 * i for i in range(k + 1))


@dataclass(frozen=True)
class ExperimentRecord:
    """One time sample: conserved charge, orbit distance, and fit parameters."""

    t: float
    charge: float
    dist: float
    a_star: float
    theta_star: float
    lam: complex
    small_norm: float


@dataclass(frozen=True)
class ModulationFit:
    dist: float
    a_star: float
    theta_star: float


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    lam: complex
    records: tuple[ExperimentRecord, ...]
    cross_l2: tuple[float, ...]      # reconstruction-vs-direct distance (nan if n/a)
    pq0_norm: float
    fits_not_converged: int          # reconstruction fits that stopped unconverged
    fit_evaluations: int             # objective evaluations over the reconstruction fits
    eigen_iterations: int            # secant iterations of the eigenvalue search
    evans_residual: float            # |E| at the eigenvalue found


# ---------------------------------------------------------------------------
# modulated distance
# ---------------------------------------------------------------------------

def _orbit_distance(f: SpinorField, ev, t: float, a: float) -> tuple[float, float]:
    """(distance, theta*) against the orbit point at shift a, optimal phase."""
    us, vs = ev(f.grid.x - a, t)
    corr = complex(integrate(np.conj(f.u) * us + np.conj(f.v) * vs, f.grid))
    th = math.atan2(corr.imag, corr.real)
    ph = np.exp(-1j * th)
    du = np.sqrt(integrate(np.abs(f.u - ph * us) ** 2, f.grid))
    dv = np.sqrt(integrate(np.abs(f.v - ph * vs) ** 2, f.grid))
    return float(du + dv), th


def _shift_scan(f: SpinorField, ev, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Shifts a_m = m*dx, |a_m| <= SCAN_HALFWIDTH, and the distance at each.

    Equals _orbit_distance(f, ev, t, a_m)[0] for every m, from one sampling of
    the soliton on the grid extended by M cells per side: the inner products
    <u, u_lam(.-a_m)> come from one zero-padded (linear, so nothing wraps
    around) FFT correlation per component, ||u_lam(.-a_m)||^2 from a running
    window sum, and the phase from the closed form theta*(a_m).
    """
    g = f.grid
    n, dx = g.n, g.dx
    m_max = int(math.floor(SCAN_HALFWIDTH / dx))
    width = n + 2 * m_max
    us, vs = ev(g.x_min + dx * np.arange(-m_max, n + m_max), t)
    # corr[r] = sum_j conj(u_j) us[j + r]; shift a_m reads window r = m_max - m
    r = slice(2 * m_max, None, -1)
    cu = np.fft.ifft(np.conj(np.fft.fft(f.u, width)) * np.fft.fft(us))[r]
    cv = np.fft.ifft(np.conj(np.fft.fft(f.v, width)) * np.fft.fft(vs))[r]

    def window_sq(w: np.ndarray) -> np.ndarray:
        run = np.concatenate(([0.0], np.cumsum(np.abs(w) ** 2)))
        return (run[n:] - run[:-n])[r]

    corr = cu + cv
    ph = np.exp(-1j * np.angle(corr))
    du2 = np.sum(np.abs(f.u) ** 2) + window_sq(us) - 2.0 * (ph * cu).real
    dv2 = np.sum(np.abs(f.v) ** 2) + window_sq(vs) - 2.0 * (ph * cv).real
    # du2, dv2 can cancel to slightly below 0 at an orbit point
    dists = np.sqrt(dx * np.maximum(du2, 0.0)) + np.sqrt(dx * np.maximum(dv2, 0.0))
    return dx * np.arange(-m_max, m_max + 1), dists


def _bounded_brent(fun, lo: float, hi: float, xatol: float) -> float:
    """A minimizer of fun on [lo, hi] by Brent's method (golden sections and parabolas).

    Stops when both ends of the bracket lie within tol2 = 2 (1.5e-8 |x| +
    xatol / 3) of the best point x.  Each evaluation lies at least tol2 / 2
    from x and narrows the bracket, so the loop needs no evaluation cap:
    SciPy's cap (500) is far above the 6-11 evaluations a modulated
    distance takes.
    """
    # follows scipy.optimize._optimize._minimize_scalar_bounded (BSD-3)
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    # xf is the best point, nfc the second best, fulc the previous second best
    xf = nfc = fulc = a + golden_mean * (b - a)
    fx = fnfc = ffulc = fun(xf)
    rat = e = 0.0
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # the parabola through the three points, accepted if it moves
            # less than half the step before last and stays in the bracket
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        step = max(abs(rat), tol1)
        x = xf - step if rat < 0 else xf + step
        fu = fun(x)
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
    return xf


def modulated_distance(f: SpinorField, p: SpectralParameter, t: float) -> ModulationFit:
    """The norm-sum distance to the soliton orbit, minimized over the shift.

    Returns dist = ||u - e^{-i theta*} u_lam(.-a*,t)|| + ||v - e^{-i theta*} v_lam(.-a*,t)||.
    The shift a* minimizes this norm-sum: an FFT correlation gives it at
    every grid shift |a| <= SCAN_HALFWIDTH, and Brent's bounded minimizer
    on dist^2 between the best one's neighbours refines it.  At each shift
    the phase is the closed form theta* =
    arg(<u, u_lam(.-a,t)> + <v, v_lam(.-a,t)>), which minimizes
    ||du||^2 + ||dv||^2; it is not re-optimized for the norm-sum.  The
    soliton is shifted analytically, so no field interpolation enters.
    """
    ev = soliton_evaluator(p)
    shifts, dists = _shift_scan(f, ev, t)
    j = int(np.argmin(dists))
    a0 = shifts[j]
    # Brent on dist^2 (smooth at an orbit point, where dist has a corner) in
    # the offset from a0: the bounded method's tolerance grows with |x|.
    # dist^2 is flat to rounding within ~1e-8 * dist of its minimum, and a
    # tolerance below that only adds golden-section steps.
    offset = _bounded_brent(lambda d: _orbit_distance(f, ev, t, a0 + d)[0] ** 2,
                            float(shifts[max(j - 1, 0)] - a0),
                            float(shifts[min(j + 1, len(shifts) - 1)] - a0),
                            xatol=1e-10 + 3e-7 * float(dists[j]))
    a_star = a0 + offset
    dist, theta = _orbit_distance(f, ev, t, a_star)
    return ModulationFit(dist, float(a_star), float(theta))


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

def _perturbation_direction(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """Unit-size (combined L2) perturbation shape; independent of epsilon."""
    rng = np.random.default_rng(cfg.perturbation_seed)
    x = cfg.grid.x
    if cfg.perturbation_shape == "gaussian_bump":
        # sigma = 1.5 and centers in [-3, 3]: envelope < 2e-14 beyond |x| = 15
        cu, cv = rng.uniform(-3.0, 3.0, size=2)
        wu, wv = rng.uniform(0.5, 1.0, size=2)
        pu, pv = rng.uniform(0.0, 2.0 * np.pi, size=2)
        du = wu * np.exp(1j * pu) * np.exp(-((x - cu) ** 2) / 4.5)
        dv = wv * np.exp(1j * pv) * np.exp(-((x - cv) ** 2) / 4.5)
    else:
        half = 0.5 * (cfg.grid.x_max - cfg.grid.x_min)
        env = np.exp(-((x / 8.0) ** 2))
        du = np.zeros_like(x, dtype=np.complex128)
        dv = np.zeros_like(x, dtype=np.complex128)
        for k in range(1, 7):
            au, bu, av, bv = rng.normal(size=4) + 1j * rng.normal(size=4)
            du += au * np.cos(np.pi * k * x / half) + bu * np.sin(np.pi * k * x / half)
            dv += av * np.cos(np.pi * k * x / half) + bv * np.sin(np.pi * k * x / half)
        du *= env
        dv *= env
    total = (np.sqrt(integrate(np.abs(du) ** 2, cfg.grid))
             + np.sqrt(integrate(np.abs(dv) ** 2, cfg.grid)))
    return du / total, dv / total


def make_perturbed_initial(cfg: ExperimentConfig) -> SpinorField:
    """Soliton plus a seeded smooth perturbation of exact combined L2 size epsilon."""
    sol = stationary_soliton(cfg.gamma0, 0.0, 0.0, 0.0, cfg.grid)
    if cfg.epsilon == 0.0:
        return sol
    du, dv = _perturbation_direction(cfg)
    return SpinorField(cfg.grid, sol.u + cfg.epsilon * du, sol.v + cfg.epsilon * dv)


# ---------------------------------------------------------------------------
# experiment engine
# ---------------------------------------------------------------------------

#: the reconstruction fit stops when its gradient norm falls below FIT_GTOL; a
#: fit that stops otherwise still counts as converged when its Gauss-Newton
#: step is at most FIT_STEP_TOL
FIT_GTOL = 1e-8
FIT_STEP_TOL = 1e-9
#: objective value where the up map fails; no accepted step can reach it
FIT_PENALTY = 1e6


@dataclass(frozen=True)
class FitResult:
    """Where `minimize` stopped, the value there, its converged status and evaluations."""

    x: np.ndarray
    fun: float
    success: bool
    nfev: int


def _newton_step(g: np.ndarray, h: np.ndarray) -> np.ndarray | None:
    """-h^{-1} g through the Cholesky factor h = U^T U; None unless h is positive definite."""
    if not h[0, 0] > 0:
        return None
    u11 = math.sqrt(h[0, 0])
    u12 = h[0, 1] / u11
    c = h[1, 1] - u12 * u12
    if not c > 0:
        return None
    u22 = math.sqrt(c)
    y1 = g[0] / u11
    y2 = (g[1] - u12 * y1) / u22
    x2 = y2 / u22
    return -np.array([(y1 - u12 * x2) / u11, x2])


def _dogleg_step(g: np.ndarray, h: np.ndarray, radius: float):
    """(p, on_boundary): the dogleg minimizer of g.p + p.h p / 2 over |p| <= radius.

    p is None where h is not positive definite.
    """
    p_newton = _newton_step(g, h)
    if p_newton is None:
        return None, False
    if math.hypot(*p_newton) < radius:
        return p_newton, False
    p_cauchy = -(np.dot(g, g) / np.dot(g, np.dot(h, g))) * g
    cauchy_norm = math.hypot(*p_cauchy)
    if cauchy_norm >= radius:
        return p_cauchy * (radius / cauchy_norm), True
    # the larger root t of |p_cauchy + t d| = radius, in the cancellation-free form
    d = p_newton - p_cauchy
    a = np.dot(d, d)
    b = 2 * np.dot(p_cauchy, d)
    c = np.dot(p_cauchy, p_cauchy) - radius ** 2
    aux = b + math.copysign(math.sqrt(b * b - 4 * a * c), b)
    return p_cauchy + max(-aux / (2 * a), -2 * c / aux) * d, True


def minimize(evaluate, x0) -> FitResult:
    """Minimize the reconstruction-fit objective from x0 by Powell's dogleg method.

    evaluate(x) gives the objective point at x: its value `fun` and its
    `derivatives`, the gradient and a positive definite Hessian model, which
    are asked for only at the points the trust region accepts.  The radius
    starts at 1, is capped at 1000, shrinks 4x where a step gains less than
    a quarter of its predicted decrease, and doubles where a boundary step
    gains more than three quarters; a step is accepted where it gains more
    than 0.15 of its prediction (Nocedal & Wright, Numerical Optimization,
    section 4.1).  The iteration stops when the gradient norm falls below
    FIT_GTOL, when the model predicts no decrease (the rounding floor), at a
    Hessian that is not positive definite, or after 200 iterations per
    parameter.  `success` is the fit's converged rule: the gradient is below
    FIT_GTOL or the Gauss-Newton step is at most FIT_STEP_TOL, at a point
    off the FIT_PENALTY.  nfev counts the calls of evaluate.
    """
    # follows scipy.optimize._trustregion._minimize_trust_region with its
    # dogleg subproblem (BSD-3)
    x = np.array(x0, dtype=float)
    point = evaluate(x)
    g, h = point.derivatives
    x_trial, trial = x, point       # the last point evaluated
    nfev, radius = 1, 1.0
    for _ in range(200 * len(x)):
        if math.hypot(*g) < FIT_GTOL:
            break
        p, on_boundary = _dogleg_step(g, h, radius)
        if p is None:
            break
        x_new = x + p
        # near the rounding floor a shrunken step can round to the same point
        if not np.array_equal(x_new, x_trial):
            x_trial, trial = x_new, evaluate(x_new)
            nfev += 1
        f = point.fun
        predicted = f - (f + np.dot(g, p) + 0.5 * np.dot(p, np.dot(h, p)))
        if predicted <= 0:
            break
        rho = (f - trial.fun) / predicted
        if rho < 0.25:
            radius *= 0.25
        elif rho > 0.75 and on_boundary:
            radius = min(2 * radius, 1000.0)
        if rho > 0.15:
            x, point = x_new, trial
            g, h = point.derivatives
    return FitResult(x, point.fun, point.fun < FIT_PENALTY and _converged(g, h), nfev)


def _converged(g: np.ndarray, h: np.ndarray) -> bool:
    """The gradient is below FIT_GTOL or the Gauss-Newton step is at most FIT_STEP_TOL."""
    if math.hypot(*g) < FIT_GTOL:
        return True
    # the Gauss-Newton Hessian is positive semidefinite, so no step means
    # a singular one, as at r = 0
    step = _newton_step(g, h)
    return step is not None and math.hypot(*step) <= FIT_STEP_TOL


class _FitPoint:
    """The reconstruction-fit objective at one (a, theta).

    `fun` is ||r_u|| + ||r_v|| with r = up_map(a, theta) - target, computed as
    combined_l2_distance does.  With J_c the tangents of up_map, the gradient
    is g = sum_c g_c, g_c = Re<r_c, J_c>/||r_c||, and the Gauss-Newton Hessian
    is sum_c (Re J_c^H J_c - g_c g_c^T)/||r_c||; a component with r_c = 0
    adds nothing.  They are computed on first use: dogleg asks for them only
    at the points it accepts.
    """

    def __init__(self, rec: SpinorField, target: SpinorField, tangents):
        self.dx = target.grid.dx
        self.residuals = (rec.u - target.u, rec.v - target.v)
        self.norms = tuple(np.sqrt(integrate(np.abs(r) ** 2, target.grid))
                           for r in self.residuals)
        self.fun = float(self.norms[0] + self.norms[1])
        self.tangents = tangents

    @cached_property
    def derivatives(self) -> tuple[np.ndarray, np.ndarray]:
        """(gradient, Gauss-Newton Hessian) in (a, theta)."""
        grad, hess = np.zeros(2), np.zeros((2, 2))
        for r, norm, jac in zip(self.residuals, self.norms, self.tangents()):
            if norm > 0:
                cj = np.conj(jac)
                g = self.dx * (cj @ r).real / norm
                grad += g
                hess += (self.dx * (cj @ jac.T).real - np.outer(g, g)) / norm
        return grad, hess


#: the objective point where up_map raises: zero gradient and unit Hessian,
#: at a value that no accepted step can reach
_PENALTY_POINT = SimpleNamespace(fun=FIT_PENALTY, derivatives=(np.zeros(2), np.eye(2)))


def _fit_reconstruction(pq_t: SpinorField, jost, target: SpinorField, seed: tuple[float, float]):
    """Choose (a, theta) for the up map of pq_t under jost to best match target.

    Minimizes the _FitPoint objective, the norm-sum that cross_l2 reports,
    with `minimize`, the package's numpy port of the dogleg trust-region
    method.  Where up_map raises, evaluate returns _PENALTY_POINT, so a
    trial step there is rejected.

    Returns (distance, a, theta, converged, evaluations), evaluations being
    the number of up map calls: the sum of `nfev` over the runs, a restart
    evaluating its start point once more.  `converged` is the status `minimize`
    reports: the gradient fell below FIT_GTOL or, since dogleg can stop at
    the rounding floor with a model that no longer predicts a decrease, the
    Gauss-Newton step at the returned point is at most FIT_STEP_TOL; a fit
    that ends on the penalty never converges.  An unconverged fit is
    restarted once from where it stopped.
    """
    def evaluate(x) -> _FitPoint:
        try:
            rec, tangents = up_map_tangents(pq_t, jost, *x)
        except MtmError:
            return _PENALTY_POINT
        return _FitPoint(rec, target, tangents)

    opt = minimize(evaluate, seed)
    evaluations = opt.nfev
    if not opt.success:
        opt = minimize(evaluate, opt.x)
        evaluations += opt.nfev
    return float(opt.fun), *opt.x, opt.success, evaluations


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the configured pipeline(s), measuring each sample time as it is reached.

    Sample times snap to steps k*dx.  Each field crosses the gap to the next
    sample step in one `evolve` call, one merged Strang segment; a repeated
    step measures the same fields again.
    """
    dx = cfg.grid.dx
    f0 = make_perturbed_initial(cfg)

    eig = find_eigenvalue(f0, np.exp(0.5j * cfg.gamma0))
    lam = eig.lam
    p = SpectralParameter(lam)

    do_direct = cfg.pipeline in ("direct", "both")
    do_back = cfg.pipeline in ("backlund", "both")

    f_t, pq_t, pq0_norm = f0, None, float("nan")
    if do_back:
        pq_t = down_map(f0, eig)
        pq0_norm = l2_norm(pq_t)

    records: list[ExperimentRecord] = []
    crosses: list[float] = []
    not_converged = 0
    fit_evaluations = 0
    k_prev = 0
    for k in (step_count(t, dx) for t in cfg.sample_times()):
        if k > k_prev:
            if do_direct:
                f_t = evolve(f_t, k - k_prev)
            if do_back:
                pq_t = evolve(pq_t, k - k_prev)
            k_prev = k
        t = k * dx
        chg = small = cross = float("nan")
        if do_direct:
            chg = charge(f_t)
            fit = modulated_distance(f_t, p, t)
        if do_back:
            small = l2_norm(pq_t)
            jost = solve_time_bvp(pq_t, lam, t)
            if do_direct:
                # place the reconstruction at the direct field's orbit point,
                # then refine (a, theta) against the direct field itself
                seed_a = p.alpha * fit.a_star
                seed_th = fit.theta_star - p.beta * p.nu * fit.a_star
                cross, _, _, converged, evaluations = _fit_reconstruction(
                    pq_t, jost, f_t, (seed_a, seed_th))
                not_converged += not converged
                fit_evaluations += evaluations
            else:
                rec0 = up_map(pq_t, jost, 0.0, 0.0)
                chg = charge(rec0)
                fit = modulated_distance(rec0, p, t)
        records.append(ExperimentRecord(t, chg, fit.dist, fit.a_star,
                                        fit.theta_star, lam, small))
        crosses.append(cross)

    return ExperimentResult(cfg, lam, tuple(records), tuple(crosses),
                            pq0_norm, not_converged, fit_evaluations,
                            eig.iterations, eig.evans_residual)


# ---------------------------------------------------------------------------
# epsilon sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    status: str                     # "ok" or the failure message
    lambda_err: float
    pq0_norm: float
    max_dist: float
    fitted_c: float
    max_cross_l2: float
    fits_not_converged: int         # reconstruction fits that stopped unconverged


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    slopes: dict
    results: tuple[ExperimentResult | None, ...]

    def row(self, epsilon: float) -> SweepRow:
        for r in self.rows:
            if r.epsilon == epsilon:
                return r
        raise KeyError(epsilon)


def sweep(cfg: ExperimentConfig, epsilons) -> SweepResult:
    """Run the experiment per epsilon (shared seed) and fit log-log slopes.

    Individual run failures are recorded in the row status and the sweep
    continues; slopes are fitted over the successful epsilon > 0 rows.
    """
    lam0 = np.exp(0.5j * cfg.gamma0)
    rows: list[SweepRow] = []
    results: list[ExperimentResult | None] = []
    for eps in epsilons:
        try:
            res = run_experiment(replace(cfg, epsilon=float(eps)))
        except MtmError as exc:
            rows.append(SweepRow(float(eps), f"failed: {exc}", float("nan"),
                                 float("nan"), float("nan"), float("nan"), float("nan"), 0))
            results.append(None)
            continue
        max_dist = max(r.dist for r in res.records)
        finite_cross = [c for c in res.cross_l2 if not math.isnan(c)]
        rows.append(SweepRow(
            float(eps), "ok",
            abs(res.lam - lam0),
            res.pq0_norm,
            max_dist,
            max_dist / eps if eps > 0 else float("nan"),
            max(finite_cross) if finite_cross else float("nan"),
            res.fits_not_converged,
        ))
        results.append(res)

    good = [r for r in rows if r.status == "ok" and r.epsilon > 0]
    slopes: dict = {}
    if len(good) >= 2:
        le = np.log([r.epsilon for r in good])
        for name, vals in (("lambda_err", [r.lambda_err for r in good]),
                           ("pq0_norm", [r.pq0_norm for r in good]),
                           ("max_dist", [r.max_dist for r in good])):
            v = np.asarray(vals)
            if np.all(v > 0):
                slopes[name] = float(np.polyfit(le, np.log(v), 1)[0])
            else:
                slopes[name] = float("nan")
    return SweepResult(tuple(rows), slopes, tuple(results))


# ---------------------------------------------------------------------------
# CSV emission (records and sweep summaries)
# ---------------------------------------------------------------------------

RECORDS_HEADER = "t,charge,dist,a_star,theta_star,lambda_re,lambda_im,small_norm"
SUMMARY_HEADER = ("epsilon,status,lambda_err,pq0_norm,max_dist,fitted_c,max_cross_l2,"
                  "slope_lambda,slope_pq,slope_dist,fits_not_converged")


def format_records_csv(records) -> str:
    lines = [RECORDS_HEADER]
    for r in records:
        lines.append("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g" % (
            r.t, r.charge, r.dist, r.a_star, r.theta_star,
            r.lam.real, r.lam.imag, r.small_norm))
    return "\n".join(lines) + "\n"


def format_summary_csv(sw: SweepResult) -> str:
    sl = sw.slopes
    slam = sl.get("lambda_err", float("nan"))
    spq = sl.get("pq0_norm", float("nan"))
    sd = sl.get("max_dist", float("nan"))
    lines = [SUMMARY_HEADER]
    for r in sw.rows:
        status = r.status.replace(",", ";")
        lines.append("%.17g,%s,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%d" % (
            r.epsilon, status, r.lambda_err, r.pq0_norm, r.max_dist,
            r.fitted_c, r.max_cross_l2, slam, spq, sd, r.fits_not_converged))
    return "\n".join(lines) + "\n"

"""Orbital-stability experiments: perturb, evolve, and measure orbit distances.

The pipeline mirrors the three-arrow diagram: map a perturbed soliton down
to a small field at t = 0 through its Lax eigenvector, ride the conserved
L2 norm of the small field through time, and map back up into the soliton
neighborhood at each sample time.  The measured quantity is the modulated
distance ||u - e^{-i theta*} u_lam(.-a*)|| + ||v - e^{-i theta*} v_lam(.-a*)||,
where a* minimizes this norm-sum over the shift and theta* =
arg(<u, u_lam(.-a*)> + <v, v_lam(.-a*)>) is the phase that minimizes the
squared sum ||du||^2 + ||dv||^2 at that shift.  It is recorded alongside
charge, the fitted (a*, theta*), the eigenvalue, and the small-field norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np

from .backlund import down_map, up_map, up_map_tangents
from .errors import MtmError, ParameterError
from .evolution import EvolutionConfig, charge, evolve
from .fields import (
    Grid,
    SpinorField,
    combined_l2_distance,
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
    times: tuple[float, ...] | None = None   # defaults to every 2 time units
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
    initial_distance: float
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
    from scipy.optimize import minimize_scalar

    ev = soliton_evaluator(p)
    shifts, dists = _shift_scan(f, ev, t)
    j = int(np.argmin(dists))
    a0 = shifts[j]
    # Brent on dist^2 (smooth at an orbit point, where dist has a corner) in
    # the offset from a0: the bounded method's tolerance grows with |x|.
    # dist^2 is flat to rounding within ~1e-8 * dist of its minimum, and a
    # tolerance below that only adds golden-section steps.
    opt = minimize_scalar(lambda d: _orbit_distance(f, ev, t, a0 + d)[0] ** 2,
                          bounds=(shifts[max(j - 1, 0)] - a0,
                                  shifts[min(j + 1, len(shifts) - 1)] - a0),
                          method="bounded", options={"xatol": 1e-10 + 3e-7 * dists[j]})
    a_star = a0 + opt.x
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

def _capture_samples(f0: SpinorField, step_indices: set[int]) -> dict[int, SpinorField]:
    """Evolve f0 and keep snapshots at the requested step indices (f0 itself at 0).

    Each gap between consecutive indices is one `evolve` call, so one merged
    Strang segment.
    """
    dx = f0.grid.dx
    captured: dict[int, SpinorField] = {}
    k_prev, f = 0, f0
    for k in sorted(step_indices):
        if k > k_prev:
            f = evolve(f, EvolutionConfig(dt=dx, t_end=(k - k_prev) * dx))
            k_prev = k
        captured[k] = f
    return captured


#: the reconstruction fit stops when its gradient norm falls below FIT_GTOL; a
#: fit that stops otherwise still counts as converged when its Gauss-Newton
#: step is at most FIT_STEP_TOL
FIT_GTOL = 1e-8
FIT_STEP_TOL = 1e-9
#: objective value where the up map fails; no accepted step can reach it
FIT_PENALTY = 1e6


def minimize(fun, x0, **kwargs):
    """scipy.optimize.minimize, imported on first use.

    SciPy's optimize package takes longer to import than a whole eigen or
    evolve command, so only the fits and the modulated distance load it.
    The result is scipy's OptimizeResult, unchanged.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kwargs)


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


def _fit_reconstruction(pq_t: SpinorField, jost, lam: complex, target: SpinorField,
                        seed: tuple[float, float], evaluations: list[int] | None = None):
    """Choose (a, theta) for the up map to best match the target field.

    Minimizes the _FitPoint objective, the norm-sum that cross_l2 reports,
    by Powell's dogleg trust-region method.  Where up_map raises, the
    objective is FIT_PENALTY with zero gradient and unit Hessian, so a trial
    step there is rejected.

    Returns (distance, a, theta, converged).  A fit converges when scipy
    reports success or, since dogleg can stop at the rounding floor with a
    model that no longer predicts a decrease, when the Gauss-Newton step at
    the returned point is at most FIT_STEP_TOL.  An unconverged fit is
    restarted once from where it stopped; a fit that ends on the penalty
    never converges.  The number of up map evaluations is appended to
    `evaluations` when it is given.
    """
    # only two points are kept: each holds several field-sized arrays, and
    # dogleg asks for derivatives right after a point's value
    @lru_cache(maxsize=2)
    def evaluate(key: bytes) -> _FitPoint | None:
        try:
            rec, tangents = up_map_tangents(pq_t, jost, lam, *np.frombuffer(key))
        except MtmError:
            return None
        return _FitPoint(rec, target, tangents)

    def point(x) -> _FitPoint | None:
        return evaluate(np.asarray(x, dtype=float).tobytes())

    def fun(x) -> float:
        p = point(x)
        return FIT_PENALTY if p is None else p.fun

    def jac(x) -> np.ndarray:
        p = point(x)
        return np.zeros(2) if p is None else p.derivatives[0]

    def hess(x) -> np.ndarray:
        p = point(x)
        return np.eye(2) if p is None else p.derivatives[1]

    def converged(opt) -> bool:
        p = point(opt.x)
        if p is None:
            return False
        if opt.success:
            return True
        try:
            step = np.linalg.solve(p.derivatives[1], p.derivatives[0])
        except np.linalg.LinAlgError:      # no Newton step, e.g. at r = 0
            return False
        return bool(np.hypot(*step) <= FIT_STEP_TOL)

    def fit(x0):
        return minimize(fun, x0=x0, method="dogleg", jac=jac, hess=hess,
                        options={"gtol": FIT_GTOL})

    opt = fit(seed)
    ok = converged(opt)
    if not ok:
        opt = fit(opt.x)
        ok = converged(opt)
    if evaluations is not None:
        evaluations.append(evaluate.cache_info().misses)
    return float(opt.fun), *opt.x, ok


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the configured pipeline(s) and collect one record per sample time."""
    grid = cfg.grid
    dx = grid.dx
    f0 = make_perturbed_initial(cfg)
    sol0 = stationary_soliton(cfg.gamma0, 0.0, 0.0, 0.0, grid)
    eps_measured = combined_l2_distance(f0, sol0)

    eig = find_eigenvalue(f0, np.exp(0.5j * cfg.gamma0))
    lam = eig.lam
    p = SpectralParameter(lam)

    times = cfg.sample_times()
    idx = [int(round(t / dx)) for t in times]
    snapped = [k * dx for k in idx]
    want = set(idx)

    do_direct = cfg.pipeline in ("direct", "both")
    do_back = cfg.pipeline in ("backlund", "both")

    direct_fields = _capture_samples(f0, want) if do_direct else {}

    pq_fields: dict[int, SpinorField] = {}
    pq0_norm = float("nan")
    if do_back:
        pq0 = down_map(f0, eig)
        pq0_norm = l2_norm(pq0)
        pq_fields = _capture_samples(pq0, want)

    records: list[ExperimentRecord] = []
    crosses: list[float] = []
    not_converged = 0
    fit_evaluations: list[int] = []
    for k, t in zip(idx, snapped):
        fit = None
        chg = float("nan")
        small = float("nan")
        cross = float("nan")
        if do_direct:
            f_t = direct_fields[k]
            chg = charge(f_t)
            fit = modulated_distance(f_t, p, t)
        if do_back:
            pq_t = pq_fields[k]
            small = l2_norm(pq_t)
            jost = solve_time_bvp(pq_t, lam, t)
            if do_direct:
                # place the reconstruction at the direct field's orbit point,
                # then refine (a, theta) against the direct field itself
                seed_a = p.alpha * fit.a_star
                seed_th = fit.theta_star - p.beta * p.nu * fit.a_star
                cross, _, _, converged = _fit_reconstruction(
                    pq_t, jost, lam, f_t, (seed_a, seed_th), fit_evaluations)
                not_converged += not converged
            else:
                rec0 = up_map(pq_t, jost, lam, 0.0, 0.0)
                chg = charge(rec0)
                fit = modulated_distance(rec0, p, t)
        records.append(ExperimentRecord(t, chg, fit.dist, fit.a_star,
                                        fit.theta_star, lam, small))
        crosses.append(cross)

    return ExperimentResult(cfg, lam, tuple(records), tuple(crosses),
                            pq0_norm, eps_measured, not_converged, sum(fit_evaluations),
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

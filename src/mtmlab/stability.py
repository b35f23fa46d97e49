"""Orbital-stability experiments: perturb, evolve, and measure orbit distances.

The pipeline mirrors the three-arrow diagram: map a perturbed soliton down
to a small field at t = 0 through its Lax eigenvector, ride the conserved
L2 norm of the small field through time, and map back up into the soliton
neighborhood at each sample time.  The measured quantity is the modulated
distance inf_{a,theta} (||u(.+a) - e^{-i theta} u_lam|| + ||v(.+a) - e^{-i theta} v_lam||),
recorded alongside charge, the fitted (a*, theta*), the eigenvalue, and the
small-field norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import minimize

from .backlund import down_map, up_map
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


def modulated_distance(f: SpinorField, p: SpectralParameter, t: float) -> ModulationFit:
    """Minimize the combined L2 distance to the soliton orbit over (a, theta).

    For each shift a the optimal phase has the closed form theta* =
    arg(<u, u_lam(.-a,t)> + <v, v_lam(.-a,t)>); the shift is located by a
    coarse scan (step 8*dx) followed by golden-section refinement to
    |da| < 1e-6.  The soliton is shifted analytically, so no field
    interpolation enters.
    """
    ev = soliton_evaluator(p)
    dx = f.grid.dx
    step = 8.0 * dx
    coarse = np.arange(-SCAN_HALFWIDTH, SCAN_HALFWIDTH + 0.5 * step, step)
    dists = [_orbit_distance(f, ev, t, a)[0] for a in coarse]
    j = int(np.argmin(dists))
    lo = coarse[max(j - 1, 0)]
    hi = coarse[min(j + 1, len(coarse) - 1)]

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc = _orbit_distance(f, ev, t, c)[0]
    fd = _orbit_distance(f, ev, t, d)[0]
    while hi - lo > 1e-6:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = _orbit_distance(f, ev, t, c)[0]
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = _orbit_distance(f, ev, t, d)[0]
    a_star = 0.5 * (lo + hi)
    dist, theta = _orbit_distance(f, ev, t, a_star)
    # final parabolic polish on dist^2 (exactly quadratic at an orbit point,
    # where the golden bracket alone would leave an O(|da|) distance floor)
    hp = max(hi - lo, 1e-6)
    dm = _orbit_distance(f, ev, t, a_star - hp)[0] ** 2
    dp = _orbit_distance(f, ev, t, a_star + hp)[0] ** 2
    curv = dp - 2.0 * dist ** 2 + dm
    if curv > 0:
        a_v = a_star - 0.5 * hp * (dp - dm) / curv
        d_v, th_v = _orbit_distance(f, ev, t, a_v)
        if d_v < dist:
            a_star, dist, theta = a_v, d_v, th_v
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

def _capture_samples(f0: SpinorField, t_end: float, step_indices: set[int]) -> dict[int, SpinorField]:
    """Evolve f0 and keep snapshots at the requested step indices (f0 itself at 0)."""
    if t_end <= 0:
        return {0: f0}
    cfg = EvolutionConfig(dt=f0.grid.dx, t_end=t_end)
    captured: dict[int, SpinorField] = {}

    def obs(t: float, f: SpinorField) -> None:
        k = int(round(t / f0.grid.dx))
        if k in step_indices:
            captured[k] = f

    evolve(f0, cfg, observer=obs)
    return captured


def _fit_reconstruction(pq_t: SpinorField, jost, lam: complex, target: SpinorField,
                        seed: tuple[float, float]):
    """Choose (a, theta) for the up map to best match the target field."""
    def objective(params):
        a, th = params
        try:
            rec = up_map(pq_t, jost, lam, a, th)
        except MtmError:
            return 1e6
        return combined_l2_distance(rec, target)

    a0, th0 = seed
    best = (objective((a0, th0)), a0, th0)
    opt = minimize(objective, x0=[a0, th0], method="Nelder-Mead",
                   options={"xatol": 1e-9, "fatol": 1e-13, "maxiter": 200})
    if opt.fun < best[0]:
        best = (float(opt.fun), float(opt.x[0]), float(opt.x[1]))
    return best


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
    t_max = max(snapped)

    do_direct = cfg.pipeline in ("direct", "both")
    do_back = cfg.pipeline in ("backlund", "both")

    direct_fields = _capture_samples(f0, t_max, want) if do_direct else {}

    pq_fields: dict[int, SpinorField] = {}
    pq0_norm = float("nan")
    if do_back:
        pq0 = down_map(f0, eig)
        pq0_norm = l2_norm(pq0)
        pq_fields = _capture_samples(pq0, t_max, want)

    records: list[ExperimentRecord] = []
    crosses: list[float] = []
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
                cross, a_fit, th_fit = _fit_reconstruction(
                    pq_t, jost, lam, f_t, (seed_a, seed_th))
            else:
                rec0 = up_map(pq_t, jost, lam, 0.0, 0.0)
                chg = charge(rec0)
                fit = modulated_distance(rec0, p, t)
        records.append(ExperimentRecord(t, chg, fit.dist, fit.a_star,
                                        fit.theta_star, lam, small))
        crosses.append(cross)

    return ExperimentResult(cfg, lam, tuple(records), tuple(crosses),
                            pq0_norm, eps_measured)


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
                                 float("nan"), float("nan"), float("nan"), float("nan")))
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
                  "slope_lambda,slope_pq,slope_dist")


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
        lines.append("%.17g,%s,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g" % (
            r.epsilon, status, r.lambda_err, r.pq0_norm, r.max_dist,
            r.fitted_c, r.max_cross_l2, slam, spq, sd))
    return "\n".join(lines) + "\n"

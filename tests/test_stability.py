import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtmlab import stability
from mtmlab.backlund import (
    down_map,
    pushforward_eigenvector,
    superposition_parameters,
    up_map,
)
from mtmlab.cli import main
from mtmlab.errors import ParameterError
from mtmlab.fields import Grid, SpinorField, combined_l2_distance, inner_product
from mtmlab.lax import (
    EVANS_TOL,
    MAX_SECANT_ITERATIONS,
    JostPair,
    find_eigenvalue,
    solve_time_bvp,
)
from mtmlab.solitons import (
    SpectralParameter,
    soliton_evaluator,
    soliton_field,
)
from mtmlab.stability import (
    SCAN_HALFWIDTH,
    ExperimentConfig,
    FitResult,
    _orbit_distance,
    _shift_scan,
    format_records_csv,
    format_summary_csv,
    make_perturbed_initial,
    modulated_distance,
    run_experiment,
    sweep,
)

from oracles import nelder_mead_fit, scipy_bounded_brent, scipy_dogleg_fit
from helpers import load_bench_module, polar

GAMMA0 = np.pi / 2
P0 = polar(GAMMA0)
MAX_ROLL = int(5.0 / Grid.symmetric().dx)   # rolls of the default grid with |m dx| <= 5


def short_config(**kw):
    base = dict(gamma0=GAMMA0, epsilon=0.01, perturbation_seed=7, t_end=4.0)
    base.update(kw)
    return ExperimentConfig(**base)


# -- modulated distance ---------------------------------------------------------

def test_self_distance_vanishes(grid):
    sol = soliton_field(P0, 0.0, grid)
    fit = modulated_distance(sol, P0, 0.0)
    assert fit.dist < 1e-8
    assert abs(fit.a_star) < 1e-4
    assert abs(fit.theta_star) < 1e-4


def test_recovers_shift_and_phase(grid):
    a0, th0 = 0.7, 1.1
    ev = soliton_evaluator(P0)
    u, v = ev(grid.x - a0, 0.0)
    f = SpinorField(grid, np.exp(-1j * th0) * u, np.exp(-1j * th0) * v)
    fit = modulated_distance(f, P0, 0.0)
    assert fit.dist < 1e-8
    assert fit.a_star == pytest.approx(a0, abs=1e-4)
    assert fit.theta_star == pytest.approx(th0, abs=1e-4)


def test_distance_bounded_by_unmodulated(grid):
    cfg = short_config(epsilon=0.01)
    f = make_perturbed_initial(cfg)
    sol = soliton_field(P0, 0.0, grid)
    raw = combined_l2_distance(f, sol)
    fit = modulated_distance(f, P0, 0.0)
    assert 0.0 < fit.dist <= raw <= 0.02


@pytest.mark.parametrize("gamma", [np.pi / 8, np.pi / 2])
def test_shift_scan_matches_direct_evaluation(grid_small, gamma):
    # pi/8 has the widest tails: a correlation that wraps around the domain
    # instead of shifting the soliton analytically fails near |a| = SCAN_HALFWIDTH
    cfg = short_config(gamma0=gamma, epsilon=0.01, grid=grid_small)
    f = make_perturbed_initial(cfg)
    ev = soliton_evaluator(polar(gamma))
    shifts, dists = _shift_scan(f, ev, 0.7)
    dx = grid_small.dx
    assert np.diff(shifts) == pytest.approx(dx, rel=1e-12)
    assert -SCAN_HALFWIDTH <= shifts[0] < -SCAN_HALFWIDTH + dx
    assert SCAN_HALFWIDTH - dx < shifts[-1] <= SCAN_HALFWIDTH
    direct = np.array([_orbit_distance(f, ev, 0.7, a)[0] for a in shifts])
    assert np.abs(dists - direct).max() < 1e-10


def test_phase_convention(grid):
    # a* minimizes the norm-sum; theta* is the closed-form phase at a*,
    # which minimizes the squared sum ||du||^2 + ||dv||^2 there
    f = make_perturbed_initial(short_config(epsilon=0.1))
    t = 0.5
    fit = modulated_distance(f, P0, t)
    us, vs = soliton_evaluator(P0)(grid.x - fit.a_star, t)
    corr = inner_product(f, SpinorField(grid, us, vs))
    assert abs(np.angle(np.exp(1j * (fit.theta_star - np.angle(corr))))) < 1e-12

    def orbit_point(th):
        return SpinorField(grid, np.exp(-1j * th) * us, np.exp(-1j * th) * vs)

    def squared_sum(th):
        g = orbit_point(th)
        return np.sum(np.abs(f.u - g.u) ** 2) + np.sum(np.abs(f.v - g.v) ** 2)

    assert fit.dist == pytest.approx(combined_l2_distance(f, orbit_point(fit.theta_star)),
                                     rel=1e-12)
    for dth in (-1e-3, 1e-3):
        assert squared_sum(fit.theta_star + dth) > squared_sum(fit.theta_star)


def _shifted_soliton(grid):
    ev = soliton_evaluator(P0)
    u, v = ev(grid.x - 0.7, 0.0)
    return SpinorField(grid, np.exp(-1.1j) * u, np.exp(-1.1j) * v), 0.0


def _phase_convention_field(grid):
    return make_perturbed_initial(short_config(epsilon=0.1)), 0.5


@pytest.mark.parametrize("case", [_phase_convention_field, _shifted_soliton])
def test_shift_is_a_local_minimum(grid, case):
    f, t = case(grid)
    fit = modulated_distance(f, P0, t)
    ev = soliton_evaluator(P0)
    for h in (1e-3 * grid.dx, 0.1 * grid.dx, grid.dx):
        for a in (fit.a_star - h, fit.a_star + h):
            assert _orbit_distance(f, ev, t, a)[0] >= fit.dist


@pytest.mark.parametrize("case", [_phase_convention_field, _shifted_soliton])
def test_orbit_distance_evaluations_per_call(monkeypatch, grid, case):
    """One orbit evaluation per Brent evaluation: the refined shift's is kept, not redone."""
    f, t = case(grid)
    calls, brent_evals = [], []
    brent = stability._bounded_brent

    def counted(*args):
        calls.append(args)
        return _orbit_distance(*args)

    def counted_brent(fun, lo, hi, xatol):
        def counted_fun(x):
            brent_evals.append(x)
            return fun(x)
        return brent(counted_fun, lo, hi, xatol)

    monkeypatch.setattr(stability, "_orbit_distance", counted)
    monkeypatch.setattr(stability, "_bounded_brent", counted_brent)
    modulated_distance(f, P0, t)
    assert 0 < len(calls) <= 20
    assert len(calls) == len(brent_evals)


@pytest.fixture(scope="module")
def perturbed_fit(grid):
    f = make_perturbed_initial(short_config(epsilon=0.01))
    return f, modulated_distance(f, P0, 0.0)


@settings(max_examples=15)
@given(m=st.integers(-MAX_ROLL, MAX_ROLL), th0=st.floats(-np.pi, np.pi))
@example(m=48, th0=0.8)
def test_orbit_invariance(grid, perturbed_fit, m, th0):
    f, fit0 = perturbed_fit
    g = SpinorField(grid, np.exp(-1j * th0) * np.roll(f.u, m),
                    np.exp(-1j * th0) * np.roll(f.v, m))
    fit1 = modulated_distance(g, P0, 0.0)
    assert abs(fit1.dist - fit0.dist) < 1e-8
    assert fit1.a_star - fit0.a_star == pytest.approx(m * grid.dx, abs=1e-5)
    wrapped = (fit1.theta_star - fit0.theta_star - th0) % (2 * np.pi)
    assert min(wrapped, 2 * np.pi - wrapped) < 1e-5


# -- initial data ----------------------------------------------------------------

def test_epsilon_zero_gives_exact_soliton(grid):
    f = make_perturbed_initial(short_config(epsilon=0.0))
    sol = soliton_field(P0, 0.0, grid)
    assert np.abs(f.u - sol.u).max() == 0.0


@pytest.mark.parametrize("shape", ["gaussian_bump", "random_fourier"])
def test_perturbation_scaled_exactly(grid, shape):
    cfg = short_config(epsilon=0.037, perturbation_shape=shape)
    f = make_perturbed_initial(cfg)
    sol = soliton_field(P0, 0.0, grid)
    assert combined_l2_distance(f, sol) == pytest.approx(0.037, abs=1e-12)


def test_gaussian_support_decays(grid):
    cfg = short_config(epsilon=1.0)
    f = make_perturbed_initial(cfg)
    sol = soliton_field(P0, 0.0, grid)
    far = np.abs(grid.x) > 15.0
    assert np.abs(f.u - sol.u)[far].max() < 1e-10
    assert np.abs(f.v - sol.v)[far].max() < 1e-10


def test_seed_determinism(grid):
    a = make_perturbed_initial(short_config(epsilon=0.01))
    b = make_perturbed_initial(short_config(epsilon=0.01))
    c = make_perturbed_initial(short_config(epsilon=0.01, perturbation_seed=8))
    assert np.array_equal(a.u, b.u)
    assert not np.array_equal(a.u, c.u)


def test_config_validation(grid):
    with pytest.raises(ParameterError):
        ExperimentConfig(gamma0=0.0, epsilon=0.01)
    with pytest.raises(ParameterError):
        ExperimentConfig(gamma0=GAMMA0, epsilon=-1.0)
    with pytest.raises(ParameterError):
        ExperimentConfig(gamma0=GAMMA0, epsilon=0.1, pipeline="sideways")
    with pytest.raises(ParameterError):
        ExperimentConfig(gamma0=GAMMA0, epsilon=0.1, perturbation_shape="square")
    with pytest.raises(ParameterError):
        ExperimentConfig(gamma0=GAMMA0, epsilon=0.1, t_end=float("inf"))
    with pytest.raises(ParameterError):
        ExperimentConfig(gamma0=GAMMA0, epsilon=float("nan"))
    for times in ((), (0.0, -2.0), (0.0, float("nan")), (0.0, 2.0, 1.0)):
        with pytest.raises(ParameterError):
            ExperimentConfig(gamma0=GAMMA0, epsilon=0.1, times=times)
    with pytest.raises(ParameterError, match="must not exceed t_end"):
        ExperimentConfig(gamma0=GAMMA0, epsilon=0.1, t_end=1.0, times=(0.0, 5.0))


# -- pipelines --------------------------------------------------------------------

@pytest.fixture(scope="module")
def both_result():
    return run_experiment(short_config(pipeline="both"))


def test_direct_records(both_result):
    recs = both_result.records
    assert [r.t for r in recs] == pytest.approx([0.0, 2.0, 4.0], abs=0.02)
    charges = [r.charge for r in recs]
    assert max(charges) - min(charges) < 1e-6 * charges[0]
    assert all(r.dist <= 0.1 for r in recs)
    assert abs(both_result.lam - P0.lam) < 0.01


def test_backlund_leg(both_result):
    recs = both_result.records
    smalls = [r.small_norm for r in recs]
    assert smalls[0] == pytest.approx(both_result.pq0_norm, rel=1e-12)
    # the pair norm of the small field is conserved by the flow
    assert max(smalls) - min(smalls) < 1e-6 * smalls[0]
    assert all(np.isfinite(c) for c in both_result.cross_l2)
    assert both_result.cross_l2[0] < 1e-5
    assert max(both_result.cross_l2) < 5e-3
    assert both_result.fits_not_converged == 0
    assert len(recs) <= both_result.fit_evaluations <= 10 * len(recs)
    assert 1 <= both_result.eigen_iterations <= MAX_SECANT_ITERATIONS
    assert both_result.evans_residual < EVANS_TOL


def test_direct_only_pipeline():
    res = run_experiment(short_config(t_end=2.0, pipeline="direct"))
    assert len(res.records) == 2
    assert all(math.isnan(r.small_norm) for r in res.records)
    assert all(math.isnan(x) for x in (*res.backlund_parameters, res.theta_drift))


def test_backlund_only_pipeline():
    res = run_experiment(short_config(t_end=2.0, pipeline="backlund"))
    assert len(res.records) == 2
    assert all(np.isfinite(r.small_norm) for r in res.records)
    assert all(r.dist < 0.1 for r in res.records)
    assert all(np.isfinite(res.backlund_parameters)) and math.isnan(res.theta_drift)


def test_repeated_sample_time_repeats_its_record():
    res = run_experiment(short_config(grid=Grid.symmetric(30.0, 512), times=(0.0, 0.5, 0.5)))
    assert res.records[1] == res.records[2] and res.cross_l2[1] == res.cross_l2[2]
    assert res.records[0] != res.records[1]


def test_epsilon_zero_reference():
    res = run_experiment(short_config(epsilon=0.0, t_end=2.0))
    # pure scheme error: small at t = 0, bounded by the dt^2 floor after
    assert res.records[0].dist < 1e-6
    assert all(r.dist < 2e-3 for r in res.records)
    assert res.pq0_norm < 1e-6


def test_sweep_slopes_and_failure_recording():
    cfg = short_config(t_end=2.0)
    sw = sweep(cfg, [1e-3, 1e-2, -1.0])
    ok = [r for r in sw.rows if r.status == "ok"]
    bad = [r for r in sw.rows if r.status != "ok"]
    assert len(ok) == 2 and len(bad) == 1
    assert bad[0].epsilon == -1.0
    assert math.isnan(bad[0].lambda_err)
    assert 0.8 <= sw.slopes["lambda_err"] <= 1.2
    assert 0.8 <= sw.slopes["pq0_norm"] <= 1.2


def test_records_csv_format(both_result):
    text = format_records_csv(both_result.records)
    lines = text.strip().split("\n")
    assert lines[0] == "t,charge,dist,a_star,theta_star,lambda_re,lambda_im,small_norm"
    assert len(lines) == len(both_result.records) + 1
    row = [float(tok) for tok in lines[1].split(",")]
    assert row[0] == both_result.records[0].t
    assert row[5] == both_result.records[0].lam.real


def test_summary_csv_format():
    sw = sweep(short_config(t_end=2.0), [1e-2, 1e-1])
    text = format_summary_csv(sw)
    lines = text.strip().split("\n")
    assert lines[0].startswith("epsilon,status,lambda_err")
    assert len(lines) == 3


# -- reconstruction-fit status ------------------------------------------------------

def _unconverged_minimize(evaluate, x0):
    return FitResult(x=np.asarray(x0, dtype=float), fun=evaluate(x0).fun, success=False, nfev=1)


@pytest.mark.parametrize("statuses, converged", (([False, True], True),
                                                  ([False, False], False)))
def test_unconverged_fit_is_restarted_once(monkeypatch, grid_small, statuses, converged):
    starts = []

    def fake_minimize(evaluate, x0):
        starts.append(np.asarray(x0, dtype=float))
        x = starts[-1] + 0.25
        return FitResult(x=x, fun=evaluate(x).fun, success=statuses[len(starts) - 1], nfev=1)

    monkeypatch.setattr(stability, "minimize", fake_minimize)
    zero = SpinorField.zero(grid_small)
    jost = solve_time_bvp(zero, P0.lam, 0.0)
    target = up_map(zero, jost, 0.5, 0.5)
    dist, a, th, ok, _ = stability._fit_reconstruction(zero, jost, target, (0.0, 0.0))
    assert ok is converged
    assert len(starts) == 2
    assert np.array_equal(starts[1], starts[0] + 0.25)   # restarted where it stopped
    assert (a, th) == (0.5, 0.5) and dist < 1e-12


def test_cli_reports_unconverged_fits(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(stability, "minimize", _unconverged_minimize)
    out_dir = tmp_path / "exp"
    code = main(["stability", "--gamma0", str(GAMMA0), "--epsilon", "0.01",
                 "--seed", "3", "--t-end", "2", "--grid-n", "2048",
                 "--out-dir", str(out_dir)])
    assert code == 0
    err = capsys.readouterr().err.strip().split("\n")
    assert err == ["stability: eps=0.01 2 of 2 reconstruction fits did not converge"]
    header = (out_dir / "records.csv").read_text().split("\n")[0]
    assert header == "t,charge,dist,a_star,theta_star,lambda_re,lambda_im,small_norm"
    summary = (out_dir / "summary.csv").read_text().split("\n")
    assert summary[0].endswith(",fits_not_converged")
    assert summary[1].split(",")[-1] == "2"


# -- reconstruction fit against the Nelder-Mead oracle --------------------------------

@pytest.fixture(scope="module")
def reconstruction_fits():
    """The inputs of the fits run_experiment makes at t = 0 and t = 0.5.

    One run perturbs by a Gaussian bump (eps = 0.1), one by a random Fourier
    field (eps = 0.01), both on n = 2048: four fits in all.
    """
    fits = []
    fit = stability._fit_reconstruction

    def spy(*args):
        fits.append(args[:4])
        return fit(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stability, "_fit_reconstruction", spy)
        for shape, eps in (("gaussian_bump", 0.1), ("random_fourier", 0.01)):
            run_experiment(short_config(epsilon=eps, perturbation_shape=shape,
                                        grid=Grid.symmetric(30.0, 2048), times=(0.0, 0.5)))
    return fits


@pytest.mark.parametrize("k", range(4))
def test_fit_matches_nelder_mead_oracle(reconstruction_fits, k):
    # measured on 159 fits: 6.9e-14 to 5.4e-6 relative below the oracle, with
    # (a, theta) within 6e-10 of it
    pq_t, jost, target, seed = reconstruction_fits[k]
    dist, a, th, ok, _ = stability._fit_reconstruction(pq_t, jost, target, seed)
    ref_dist, ref_a, ref_th, ref_ok = nelder_mead_fit(pq_t, jost, target, seed)
    assert ok and ref_ok
    assert dist <= ref_dist * (1 + 1e-12)
    assert abs(a - ref_a) <= 1e-8 and abs(th - ref_th) <= 1e-8
    assert dist == combined_l2_distance(up_map(pq_t, jost, a, th), target)


def test_fit_reaches_an_exact_target(grid_small):
    # the norm-sum has a corner at r = 0; the 1/||r|| terms must not divide 0 by 0
    zero = SpinorField.zero(grid_small)
    jost = solve_time_bvp(zero, P0.lam, 0.7)
    target = up_map(zero, jost, -1.0, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dist, a, th, ok, evaluations = stability._fit_reconstruction(zero, jost, target,
                                                                     (0.3, 1.5))
    assert dist < 1e-12 and ok
    assert abs(a + 1.0) < 1e-12 and abs(th - 2.0) < 1e-12
    assert evaluations > 1


def test_fit_on_the_penalty_is_unconverged(grid_small):
    # a vanishing Jost pair makes every up_map raise DegenerateVectorError
    zero = SpinorField.zero(grid_small)
    target = up_map(zero, solve_time_bvp(zero, P0.lam, 0.0), 0.0, 0.0)
    dist, a, th, ok, evaluations = stability._fit_reconstruction(
        zero, JostPair(P0.lam, zero, zero), target, (0.2, 0.1))
    assert ok is False
    assert dist == stability.FIT_PENALTY and (a, th) == (0.2, 0.1)
    # the unconverged fit is restarted, and the restart evaluates its start again
    assert evaluations == 2


# -- the closed-form Backlund parameters ---------------------------------------------

@pytest.mark.parametrize("eps", [1e-3, 1e-1])
@pytest.mark.parametrize("shape", stability.PERTURBATION_SHAPES)
@pytest.mark.parametrize("gamma0", [np.pi / 8, np.pi / 2, 7 * np.pi / 8])
def test_superposition_parameters_match_the_cold_fit(grid, gamma0, shape, eps):
    # the t = 0 fit seeded at the direct field's orbit point, as run_experiment
    # seeded it before the closed form; measured: they agree to 4.8e-8
    cfg = short_config(gamma0=gamma0, epsilon=eps, perturbation_shape=shape)
    f0 = make_perturbed_initial(cfg)
    eig = find_eigenvalue(f0, np.exp(0.5j * gamma0))
    p = SpectralParameter(eig.lam)
    pq0 = down_map(f0, eig)
    jost = solve_time_bvp(pq0, eig.lam, 0.0)
    a0, th0 = superposition_parameters(pushforward_eigenvector(eig.eigenvector, p.gamma), jost)
    orbit = modulated_distance(f0, p, 0.0)
    seed = (p.alpha * orbit.a_star, orbit.theta_star - p.beta * p.nu * orbit.a_star)
    _, a, th, ok, _ = stability._fit_reconstruction(pq0, jost, f0, seed)
    assert ok
    assert abs(a - a0) <= 1e-6 and abs(th - th0) <= 1e-6


def test_theta_drift_is_second_order_in_dx():
    # stated before the run: the fitted theta drifts from theta0 by the
    # evolver's O(dx^2) phase error, so each doubling of n divides the drift
    # by 3 to 5; measured at t = 2: 5.97e-3, 1.49e-3, 3.69e-4 (ratios 4.02, 4.03)
    drifts = [run_experiment(short_config(perturbation_seed=0, t_end=2.0, times=(0.0, 2.0),
                                          grid=Grid.symmetric(30.0, n))).theta_drift
              for n in (512, 1024, 2048)]
    for coarse, fine in zip(drifts, drifts[1:]):
        assert 3.0 <= coarse / fine <= 5.0


# -- the numpy solvers against SciPy's ----------------------------------------------

def _recording(fn, calls: list):
    """fn, appending (args, kwargs, result) of each call to calls."""
    def wrapped(*args, **kwargs):
        result = fn(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result
    return wrapped


@pytest.fixture(scope="module")
def solver_calls():
    """Every fit and every shift refinement of the acceptance runs and orbit_dense items.

    The acceptance runs are the reference run (eps = 0) and the sweep over
    eps = 1e-3, 1e-2, 1e-1 at n = 4096 to t = 20; the orbit_dense items are
    the benchmark's two seed-0 runs at n = 2048 with 21 sample times.
    Returns {run: (fits, refinements)}, each a list of (args, kwargs, result).
    """
    configs = {"eps=0": ExperimentConfig(gamma0=GAMMA0, epsilon=0.0, t_end=20.0)}
    for eps in (1e-3, 1e-2, 1e-1):
        configs[f"eps={eps:g}"] = ExperimentConfig(gamma0=GAMMA0, epsilon=eps,
                                                    perturbation_seed=0, t_end=20.0)
    for k, cfg in enumerate(load_bench_module("workloads").OrbitDense(0, "").items):
        configs[f"orbit_dense[{k}]"] = cfg
    calls = {}
    for name, cfg in configs.items():
        fits, refinements = calls[name] = ([], [])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stability, "_fit_reconstruction",
                       _recording(stability._fit_reconstruction, fits))
            mp.setattr(stability, "_bounded_brent",
                       _recording(stability._bounded_brent, refinements))
            run_experiment(cfg)
    return calls


RUNS = ("eps=0", "eps=0.001", "eps=0.01", "eps=0.1", "orbit_dense[0]", "orbit_dense[1]")


@pytest.mark.parametrize("run", RUNS)
def test_fits_match_scipy_dogleg(solver_calls, run):
    # measured on these 86 fits: (dist, a, theta) bit-identical to SciPy's on 76,
    # dist at or below it on 10; 437 evaluations in both solvers
    fits, _ = solver_calls[run]
    assert fits
    for args, _, (dist, _, _, ok, _) in fits:
        ref_dist, _, _, ref_ok, _ = scipy_dogleg_fit(*args)
        assert ok is ref_ok is True
        assert dist <= ref_dist * (1 + 1e-12)


@pytest.mark.parametrize("run", RUNS)
def test_shift_refinement_matches_scipy_bounded_brent(solver_calls, run):
    _, refinements = solver_calls[run]
    assert refinements
    for (fun, lo, hi), kwargs, x in refinements:
        assert x == scipy_bounded_brent(fun, lo, hi, kwargs["xatol"])


@settings(max_examples=200, deadline=None)
@given(st.floats(-5.0, 5.0), st.floats(0.0, 3.0), st.floats(0.0, 2.0), st.floats(0.5, 6.0),
       st.floats(-math.pi, math.pi), st.floats(-6.0, 6.0), st.floats(1e-3, 8.0),
       st.floats(1e-12, 1e-2))
def test_bounded_brent_matches_scipy(center, quad, wave, k, phase, lo, width, xatol):
    # smooth functions with one or several minima in the bracket, and monotone ones
    def fun(x):
        return quad * (x - center) ** 2 + wave * math.sin(k * x + phase) + 0.1 * x

    hi = lo + width
    assert stability._bounded_brent(fun, lo, hi, xatol) == scipy_bounded_brent(fun, lo, hi, xatol)

import math

import numpy as np
import pytest

from mtmlab.errors import ParameterError
from mtmlab.fields import SpinorField, combined_l2_distance
from mtmlab.solitons import SpectralParameter, stationary_soliton, stationary_soliton_evaluator
from mtmlab.stability import (
    ExperimentConfig,
    format_records_csv,
    format_summary_csv,
    make_perturbed_initial,
    modulated_distance,
    run_experiment,
    sweep,
)

GAMMA0 = np.pi / 2
P0 = SpectralParameter.from_polar(GAMMA0)


def short_config(**kw):
    base = dict(gamma0=GAMMA0, epsilon=0.01, perturbation_seed=7, t_end=4.0)
    base.update(kw)
    return ExperimentConfig(**base)


# -- modulated distance ---------------------------------------------------------

def test_self_distance_vanishes(grid):
    sol = stationary_soliton(GAMMA0, 0.0, 0.0, 0.0, grid)
    fit = modulated_distance(sol, P0, 0.0)
    assert fit.dist < 1e-8
    assert abs(fit.a_star) < 1e-4
    assert abs(fit.theta_star) < 1e-4


def test_recovers_shift_and_phase(grid):
    a0, th0 = 0.7, 1.1
    ev = stationary_soliton_evaluator(GAMMA0)
    u, v = ev(grid.x - a0, 0.0)
    f = SpinorField(grid, np.exp(-1j * th0) * u, np.exp(-1j * th0) * v)
    fit = modulated_distance(f, P0, 0.0)
    assert fit.dist < 1e-8
    assert fit.a_star == pytest.approx(a0, abs=1e-4)
    assert fit.theta_star == pytest.approx(th0, abs=1e-4)


def test_distance_bounded_by_unmodulated(grid):
    cfg = short_config(epsilon=0.01)
    f = make_perturbed_initial(cfg)
    sol = stationary_soliton(GAMMA0, 0.0, 0.0, 0.0, grid)
    raw = combined_l2_distance(f, sol)
    fit = modulated_distance(f, P0, 0.0)
    assert 0.0 < fit.dist <= raw <= 0.02


def test_orbit_invariance(grid):
    cfg = short_config(epsilon=0.01)
    f = make_perturbed_initial(cfg)
    fit0 = modulated_distance(f, P0, 0.0)
    shift_cells = 48
    a0 = shift_cells * grid.dx
    th0 = 0.8
    g = SpinorField(grid, np.exp(-1j * th0) * np.roll(f.u, shift_cells),
                    np.exp(-1j * th0) * np.roll(f.v, shift_cells))
    fit1 = modulated_distance(g, P0, 0.0)
    assert abs(fit1.dist - fit0.dist) < 1e-8
    assert fit1.a_star - fit0.a_star == pytest.approx(a0, abs=1e-5)
    wrapped = (fit1.theta_star - fit0.theta_star - th0) % (2 * np.pi)
    assert min(wrapped, 2 * np.pi - wrapped) < 1e-5


# -- initial data ----------------------------------------------------------------

def test_epsilon_zero_gives_exact_soliton(grid):
    f = make_perturbed_initial(short_config(epsilon=0.0))
    sol = stationary_soliton(GAMMA0, 0.0, 0.0, 0.0, grid)
    assert np.abs(f.u - sol.u).max() == 0.0


@pytest.mark.parametrize("shape", ["gaussian_bump", "random_fourier"])
def test_perturbation_scaled_exactly(grid, shape):
    cfg = short_config(epsilon=0.037, perturbation_shape=shape)
    f = make_perturbed_initial(cfg)
    sol = stationary_soliton(GAMMA0, 0.0, 0.0, 0.0, grid)
    assert combined_l2_distance(f, sol) == pytest.approx(0.037, abs=1e-12)


def test_gaussian_support_decays(grid):
    cfg = short_config(epsilon=1.0)
    f = make_perturbed_initial(cfg)
    sol = stationary_soliton(GAMMA0, 0.0, 0.0, 0.0, grid)
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


def test_direct_only_pipeline():
    recs = run_experiment(short_config(t_end=2.0, pipeline="direct")).records
    assert len(recs) == 2
    assert all(math.isnan(r.small_norm) for r in recs)


def test_backlund_only_pipeline():
    recs = run_experiment(short_config(t_end=2.0, pipeline="backlund")).records
    assert len(recs) == 2
    assert all(np.isfinite(r.small_norm) for r in recs)
    assert all(r.dist < 0.1 for r in recs)


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

import numpy as np
import pytest

from mtmlab.errors import ParameterError, StepError
from mtmlab.evolution import EvolutionConfig, charge, evolve, step
from mtmlab.fields import Grid, SpinorField, combined_l2_distance, sup_norm
from mtmlab.solitons import stationary_soliton


@pytest.fixture(scope="module")
def perturbed(grid):
    sol = stationary_soliton(np.pi / 2, 0.0, 0.0, 0.0, grid)
    bump = 0.05 * np.exp(-(grid.x - 1) ** 2 / 4) * np.exp(0.3j * grid.x)
    return SpinorField(grid, sol.u + bump, sol.v + 0.5 * bump)


def test_zero_field_fixed_point(grid):
    z = SpinorField.zero(grid)
    out = step(z, EvolutionConfig(dt=grid.dx, t_end=grid.dx))
    assert np.abs(out.u).max() == 0.0
    assert np.abs(out.v).max() == 0.0


def test_uniform_state_exact_solution():
    # u = v = c0 real stays uniform and rotates at rate 1 + c0^2
    g = Grid(0.0, 0.008, 8)
    c0 = 0.5
    f = SpinorField(g, np.full(8, c0 + 0j), np.full(8, c0 + 0j))
    out = evolve(f, EvolutionConfig(dt=1e-3, t_end=1.0))
    exact = c0 * np.exp(1j * (1 + c0 ** 2) * 1.0)
    assert np.abs(out.u - exact).max() < 1e-6
    assert np.abs(out.v - exact).max() < 1e-6


def test_soliton_tracking_second_order():
    errs = []
    for n in (2048, 4096, 8192):
        g = Grid.symmetric(30.0, n)
        f0 = stationary_soliton(np.pi / 2, 0.0, 0.0, 0.0, g)
        out = evolve(f0, EvolutionConfig(dt=g.dx, t_end=1.0))
        t_n = round(1.0 / g.dx) * g.dx
        ref = stationary_soliton(np.pi / 2, 0.0, 0.0, t_n, g)
        errs.append(combined_l2_distance(out, ref))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(1.8 <= o <= 2.2 for o in orders)


def test_charge_conserved_long_run(grid, perturbed):
    c0 = charge(perturbed)
    drifts = []
    evolve(perturbed, EvolutionConfig(dt=grid.dx, t_end=20.0, output_stride=64),
           observer=lambda t, f: drifts.append(abs(charge(f) - c0) / c0))
    assert max(drifts) < 1e-6


def test_charge_conserved_per_step(grid, perturbed):
    c0 = charge(perturbed)
    out = step(perturbed, EvolutionConfig(dt=grid.dx, t_end=grid.dx))
    assert abs(charge(out) - c0) / c0 < 1e-12


def test_time_reversal(grid, perturbed):
    fwd = evolve(perturbed, EvolutionConfig(dt=grid.dx, t_end=5.0))
    back = evolve(fwd, EvolutionConfig(dt=-grid.dx, t_end=5.0))
    assert combined_l2_distance(back, perturbed) < 1e-5


def test_translation_equivariance(grid, perturbed):
    cfg = EvolutionConfig(dt=grid.dx, t_end=2.0)
    rolled = SpinorField(grid, np.roll(perturbed.u, 13), np.roll(perturbed.v, 13))
    a = evolve(rolled, cfg)
    b = evolve(perturbed, cfg)
    assert np.abs(a.u - np.roll(b.u, 13)).max() < 1e-13
    assert np.abs(a.v - np.roll(b.v, 13)).max() < 1e-13


def test_gauge_equivariance(grid, perturbed):
    cfg = EvolutionConfig(dt=grid.dx, t_end=2.0)
    theta = 0.93
    rotated = SpinorField(grid, np.exp(1j * theta) * perturbed.u,
                          np.exp(1j * theta) * perturbed.v)
    a = evolve(rotated, cfg)
    b = evolve(perturbed, cfg)
    assert np.abs(a.u - np.exp(1j * theta) * b.u).max() < 1e-12


def test_small_data_sup_norm_stays_bounded(grid):
    u = 0.04 * np.exp(-grid.x ** 2 / 8) * np.exp(0.4j * grid.x)
    v = 0.03 * np.exp(-(grid.x - 2) ** 2 / 6) + 0j
    f0 = SpinorField(grid, u, v)
    s0 = sup_norm(f0)
    peak = [0.0]
    evolve(f0, EvolutionConfig(dt=grid.dx, t_end=20.0, output_stride=32),
           observer=lambda t, f: peak.__setitem__(0, max(peak[0], sup_norm(f))))
    assert peak[0] <= 2 * s0


def test_observer_cadence(grid, perturbed):
    seen = []
    evolve(perturbed, EvolutionConfig(dt=grid.dx, t_end=16 * grid.dx, output_stride=4),
           observer=lambda t, f: seen.append(t))
    assert len(seen) == 5   # t = 0 and every 4 steps
    assert seen[0] == 0.0
    assert seen[-1] == pytest.approx(16 * grid.dx)


def test_dt_must_match_dx(grid, perturbed):
    with pytest.raises(ParameterError):
        step(perturbed, EvolutionConfig(dt=0.5, t_end=1.0))


def test_midpoint_divergence_raises(grid):
    huge = SpinorField(grid, np.full(grid.n, 40.0 + 0j), np.full(grid.n, 40.0 + 0j))
    with pytest.raises(StepError):
        step(huge, EvolutionConfig(dt=grid.dx, t_end=grid.dx))


def test_config_validation():
    with pytest.raises(ParameterError):
        EvolutionConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ParameterError):
        EvolutionConfig(dt=0.1, t_end=-1.0)
    with pytest.raises(ParameterError):
        EvolutionConfig(dt=0.1, t_end=1.0, output_stride=0)
    for bad in (dict(dt=float("nan"), t_end=1.0), dict(dt=0.1, t_end=float("inf")),
                dict(dt=float("inf"), t_end=1.0), dict(dt=0.1, t_end=1.0, output_stride=2.5)):
        with pytest.raises(ParameterError):
            EvolutionConfig(**bad)

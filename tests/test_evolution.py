import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mtmlab.errors import MtmError, ParameterError
from mtmlab.evolution import EvolutionConfig, _local_update, charge, evolve, step
from mtmlab.fields import Grid, SpinorField, combined_l2_distance
from mtmlab.solitons import stationary_soliton

from oracles import bumped_soliton, perturbations, sup_norm


GRID = Grid.symmetric()


@pytest.fixture(scope="module")
def perturbed(grid):
    return bumped_soliton(grid, 0.05, 1.0, 4.0, 0.3, 0.5)


def test_zero_field_fixed_point(grid):
    z = SpinorField.zero(grid)
    out = step(z, EvolutionConfig(dt=grid.dx, t_end=grid.dx))
    assert np.abs(out.u).max() == 0.0
    assert np.abs(out.v).max() == 0.0


@pytest.mark.parametrize("c0", (0.5, 40.0))
def test_uniform_state_exact_solution(c0):
    # u = v = c0 real stays uniform and rotates at rate 1 + c0^2; the two
    # subflows commute on this state, so even c0 = 40 is solved to rounding
    g = Grid(0.0, 0.008, 8)
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


@settings(max_examples=5)
@given(pert=perturbations, stride=st.integers(1, 1365))
@example(pert=(0.05, 1.0, 4.0, 0.3, 0.5), stride=64)
def test_charge_conserved_long_run(pert, stride):
    f0 = bumped_soliton(GRID, *pert)
    c0 = charge(f0)
    drifts = []
    evolve(f0, EvolutionConfig(dt=GRID.dx, t_end=20.0, output_stride=stride),
           observer=lambda t, f: drifts.append(abs(charge(f) - c0) / c0))
    assert max(drifts) < 1e-6


def test_charge_conserved_per_step(grid, perturbed):
    c0 = charge(perturbed)
    out = step(perturbed, EvolutionConfig(dt=grid.dx, t_end=grid.dx))
    assert abs(charge(out) - c0) / c0 < 1e-12


@settings(max_examples=8)
@given(pert=perturbations, stride=st.integers(1, 341))
@example(pert=(0.05, 1.0, 4.0, 0.3, 0.5), stride=341)
def test_time_reversal(pert, stride):
    # a whole number of segments near t = 5, so the backward run's segments
    # mirror the forward run's and retrace them
    f0 = bumped_soliton(GRID, *pert)
    t_end = stride * (341 // stride) * GRID.dx
    obs = lambda t, f: None  # noqa: E731
    fwd = evolve(f0, EvolutionConfig(dt=GRID.dx, t_end=t_end, output_stride=stride), obs)
    back = evolve(fwd, EvolutionConfig(dt=-GRID.dx, t_end=t_end, output_stride=stride), obs)
    assert combined_l2_distance(back, f0) < 1e-5


def test_evolve_at_stride_one_chains_steps(grid, perturbed):
    cfg = EvolutionConfig(dt=grid.dx, t_end=6 * grid.dx, output_stride=1)
    snaps = []
    out = evolve(perturbed, cfg, observer=lambda t, f: snaps.append(f))
    assert len(snaps) == 7
    f = perturbed
    for snap in snaps[1:]:
        f = step(f, cfg)
        assert np.array_equal(snap.u, f.u) and np.array_equal(snap.v, f.v)
    assert np.array_equal(out.u, f.u) and np.array_equal(out.v, f.v)


@pytest.mark.parametrize("dt_sign", (1, -1))
def test_snapshot_restarts_reproduce_the_run(grid, perturbed, dt_sign):
    # each observation closes one merged segment, so evolving a snapshot over
    # the next gap gives the next snapshot bit for bit (the last gap is short)
    stride = 5
    dt = dt_sign * grid.dx
    snaps = []
    evolve(perturbed, EvolutionConfig(dt=dt, t_end=23 * grid.dx, output_stride=stride),
           observer=lambda t, f: snaps.append((t, f)))
    assert len(snaps) == 6
    for (t0, a), (t1, b) in zip(snaps, snaps[1:]):
        c = evolve(a, EvolutionConfig(dt=dt, t_end=abs(t1 - t0)))
        assert np.array_equal(c.u, b.u) and np.array_equal(c.v, b.v)


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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_overflowing_field_raises_typed_error(grid):
    # |v|^2 overflows, and the field built at the segment end rejects the
    # non-finite samples before any observer sees them
    huge = SpinorField(grid, np.full(grid.n, 1e200 + 0j), np.full(grid.n, 1e200 + 0j))
    seen = []
    with pytest.raises(MtmError):
        evolve(huge, EvolutionConfig(dt=grid.dx, t_end=4 * grid.dx, output_stride=2),
               observer=lambda t, f: seen.append(f))
    assert len(seen) == 1
    assert all(np.isfinite(f.u).all() and np.isfinite(f.v).all() for f in seen)


_amplitudes = arrays(np.complex128, 64,
                     elements=st.complex_numbers(max_magnitude=40.0, allow_nan=False,
                                                 allow_infinity=False))


@settings(max_examples=50)
@given(u=_amplitudes, v=_amplitudes, tau=st.floats(-2 * GRID.dx, 2 * GRID.dx))
def test_local_update_unitary_and_reversible(u, v, tau):
    # both subflows are exact and pointwise unitary, so the charge density is
    # kept to rounding and the update with -tau undoes the update with tau.
    # The phase tau |v|^2 is rounded relative to its size, so the reversal
    # error grows with it: measured <= 2 eps (1 + |tau| rho), 2.5e-14 at 40.
    rho = np.abs(u) ** 2 + np.abs(v) ** 2
    u1, v1 = _local_update(u, v, tau)
    assert np.all(np.abs(np.abs(u1) ** 2 + np.abs(v1) ** 2 - rho) <= 1e-14 * rho)
    u2, v2 = _local_update(u1, v1, -tau)
    tol = 8 * np.finfo(float).eps * (1 + abs(tau) * rho) * np.sqrt(rho)
    assert np.all(np.abs(u2 - u) <= tol)
    assert np.all(np.abs(v2 - v) <= tol)


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

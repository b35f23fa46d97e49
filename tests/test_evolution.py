import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mtmlab.cli import main
from mtmlab.errors import MtmError, ParameterError
from mtmlab.evolution import (
    _local_update,
    _scratch,
    charge,
    evolve,
    step,
    step_count,
)
from mtmlab.fields import Grid, SpinorField, combined_l2_distance, read_field_csv, write_field_csv
from mtmlab.solitons import soliton_field
from mtmlab.stability import ExperimentConfig, make_perturbed_initial, run_experiment

from helpers import evolve_spans, polar
from oracles import allocating_trajectory, bumped_soliton, perturbations, sup_norm


GRID = Grid.symmetric()


@pytest.fixture(scope="module")
def perturbed(grid):
    return bumped_soliton(grid, 0.05, 1.0, 4.0, 0.3, 0.5)


def test_zero_field_fixed_point(grid):
    z = SpinorField.zero(grid)
    out = step(z)
    assert np.abs(out.u).max() == 0.0
    assert np.abs(out.v).max() == 0.0


@pytest.mark.parametrize("c0", (0.5, 40.0))
def test_uniform_state_exact_solution(c0):
    # u = v = c0 real stays uniform and rotates at rate 1 + c0^2; the two
    # subflows commute on this state, so even c0 = 40 is solved to rounding
    g = Grid(0.0, 0.008, 8)
    f = SpinorField(g, np.full(8, c0 + 0j), np.full(8, c0 + 0j))
    out = evolve(f, 1000)
    exact = c0 * np.exp(1j * (1 + c0 ** 2) * 1.0)
    assert np.abs(out.u - exact).max() < 1e-6
    assert np.abs(out.v - exact).max() < 1e-6


def test_soliton_tracking_second_order():
    errs = []
    for n in (2048, 4096, 8192):
        g = Grid.symmetric(30.0, n)
        f0 = soliton_field(polar(np.pi / 2), 0.0, g)
        out = evolve(f0, step_count(1.0, g.dx))
        t_n = round(1.0 / g.dx) * g.dx
        ref = soliton_field(polar(np.pi / 2), t_n, g)
        errs.append(combined_l2_distance(out, ref))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(1.8 <= o <= 2.2 for o in orders)


@settings(max_examples=5)
@given(pert=perturbations, stride=st.integers(1, 1365))
@example(pert=(0.05, 1.0, 4.0, 0.3, 0.5), stride=64)
def test_charge_conserved_long_run(pert, stride):
    f0 = bumped_soliton(GRID, *pert)
    c0 = charge(f0)
    drifts = [abs(charge(f) - c0) / c0
              for _, f in evolve_spans(f0, step_count(20.0, GRID.dx), stride)]
    assert max(drifts) < 1e-6


def test_charge_conserved_per_step(grid, perturbed):
    c0 = charge(perturbed)
    out = step(perturbed)
    assert abs(charge(out) - c0) / c0 < 1e-12


@settings(max_examples=8)
@given(pert=perturbations, stride=st.integers(1, 341))
@example(pert=(0.05, 1.0, 4.0, 0.3, 0.5), stride=341)
def test_time_reversal(pert, stride):
    # a whole number of segments near t = 5, so the backward run's segments
    # mirror the forward run's and retrace them
    f0 = bumped_soliton(GRID, *pert)
    steps = stride * (341 // stride)
    for _, fwd in evolve_spans(f0, steps, stride):
        pass
    for _, back in evolve_spans(fwd, -steps, stride):
        pass
    assert combined_l2_distance(back, f0) < 1e-5


def test_evolve_at_stride_one_chains_steps(perturbed):
    snaps = [f for _, f in evolve_spans(perturbed, 6, 1)]
    out = snaps[-1]
    assert len(snaps) == 7
    f = perturbed
    for snap in snaps[1:]:
        f = step(f)
        assert np.array_equal(snap.u, f.u) and np.array_equal(snap.v, f.v)
    assert np.array_equal(out.u, f.u) and np.array_equal(out.v, f.v)


@pytest.mark.parametrize("dt_sign", (1, -1))
def test_snapshot_restarts_reproduce_the_run(tmp_path, grid, perturbed, dt_sign):
    # `mtmlab evolve` runs each span as one merged segment, so evolving a
    # snapshot read back over the next span gives the next snapshot bit for
    # bit (the last span is short)
    stride = 5
    dt = dt_sign * grid.dx
    write_field_csv(perturbed, str(tmp_path / "f0.csv"))
    assert main(["evolve", "--field", str(tmp_path / "f0.csv"), "--dt", repr(dt),
                 "--t-end", repr(23 * grid.dx), "--stride", str(stride),
                 "--out-prefix", str(tmp_path / "run_")]) == 0
    rows = (tmp_path / "run_series.csv").read_text().split("\n")[1:-1]
    snaps = [(float(row.split(",")[0]), read_field_csv(str(tmp_path / f"run_{i:04d}.csv")))
             for i, row in enumerate(rows)]
    assert len(snaps) == 6
    for (t0, a), (t1, b) in zip(snaps, snaps[1:]):
        c = evolve(a, dt_sign * step_count(abs(t1 - t0), dt))
        assert np.array_equal(c.u, b.u) and np.array_equal(c.v, b.v)


@pytest.mark.parametrize("k", (2, 3))
@pytest.mark.parametrize("nudge", (-1e-9, 0.0, 1e-9))
def test_callers_snap_a_horizon_to_the_same_step_count(tmp_path, k, nudge):
    # at (k + 1/2) dx the rounding tie goes to the even count, a nudge either side
    # decides it; `mtmlab evolve` and run_experiment both take step_count's
    g = Grid.symmetric(30.0, 256)
    horizon = (k + 0.5 + nudge) * g.dx
    want = step_count(horizon, g.dx)
    assert want == (k if nudge < 0 or (nudge == 0 and k % 2 == 0) else k + 1)
    f0 = soliton_field(polar(np.pi / 2), 0.0, g)
    write_field_csv(f0, str(tmp_path / "f0.csv"))
    assert main(["evolve", "--field", str(tmp_path / "f0.csv"), "--dt", repr(-g.dx),
                 "--t-end", repr(horizon), "--out-prefix", str(tmp_path / "run_")]) == 0
    rows = (tmp_path / "run_series.csv").read_text().split("\n")[1:-1]
    assert float(rows[-1].split(",")[0]) == -want * g.dx

    res = run_experiment(ExperimentConfig(gamma0=np.pi / 2, epsilon=0.0, grid=g,
                                          t_end=horizon, times=(horizon,), pipeline="direct"))
    assert res.records[0].t == want * g.dx


def test_translation_equivariance(grid, perturbed):
    steps = step_count(2.0, grid.dx)
    rolled = SpinorField(grid, np.roll(perturbed.u, 13), np.roll(perturbed.v, 13))
    a = evolve(rolled, steps)
    b = evolve(perturbed, steps)
    assert np.abs(a.u - np.roll(b.u, 13)).max() < 1e-13
    assert np.abs(a.v - np.roll(b.v, 13)).max() < 1e-13


def test_gauge_equivariance(grid, perturbed):
    steps = step_count(2.0, grid.dx)
    theta = 0.93
    rotated = SpinorField(grid, np.exp(1j * theta) * perturbed.u,
                          np.exp(1j * theta) * perturbed.v)
    a = evolve(rotated, steps)
    b = evolve(perturbed, steps)
    assert np.abs(a.u - np.exp(1j * theta) * b.u).max() < 1e-12


def test_small_data_sup_norm_stays_bounded(grid):
    u = 0.04 * np.exp(-grid.x ** 2 / 8) * np.exp(0.4j * grid.x)
    v = 0.03 * np.exp(-(grid.x - 2) ** 2 / 6) + 0j
    f0 = SpinorField(grid, u, v)
    s0 = sup_norm(f0)
    peak = max(sup_norm(f) for _, f in evolve_spans(f0, step_count(20.0, grid.dx), 32))
    assert peak <= 2 * s0


def test_zero_steps_return_the_input(grid_small):
    f = SpinorField.zero(grid_small)
    assert evolve(f, 0) is f


@pytest.mark.parametrize("steps", (1.0, 2.5, "1", None))
def test_step_count_must_be_an_integer(grid_small, steps):
    with pytest.raises(ParameterError, match="steps must be an integer"):
        evolve(SpinorField.zero(grid_small), steps)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_overflowing_field_raises_typed_error(grid):
    # |v|^2 overflows, and the field built at the segment end rejects the
    # non-finite samples before any caller sees them
    huge = SpinorField(grid, np.full(grid.n, 1e200 + 0j), np.full(grid.n, 1e200 + 0j))
    seen = []
    with pytest.raises(MtmError):
        for _, f in evolve_spans(huge, 4, 2):
            seen.append(f)
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
    # The update works in place, so it runs on copies and u, v stay the
    # untouched reference.  sqrt(rho) is taken as a hypot, because rho
    # underflows to 0 below |u|, |v| ~ 1e-162 while the rounding does not.
    rho = np.abs(u) ** 2 + np.abs(v) ** 2
    u1, v1 = u.copy(), v.copy()
    _local_update(u1, v1, tau, _scratch(len(u)))
    assert np.all(np.abs(np.abs(u1) ** 2 + np.abs(v1) ** 2 - rho) <= 1e-14 * rho)
    u2, v2 = u1.copy(), v1.copy()
    _local_update(u2, v2, -tau, _scratch(len(u)))
    tol = 8 * np.finfo(float).eps * (1 + abs(tau) * rho) * np.hypot(np.abs(u), np.abs(v))
    assert np.all(np.abs(u2 - u) <= tol)
    assert np.all(np.abs(v2 - v) <= tol)


_TRAJECTORY_GRID = Grid.symmetric(30.0, 512)
_TRAJECTORY_STEPS = 111


def _trajectory_field(gamma, shape):
    if shape == "zero":
        return SpinorField.zero(_TRAJECTORY_GRID)
    return make_perturbed_initial(ExperimentConfig(
        gamma0=gamma, epsilon=0.05, perturbation_shape=shape, grid=_TRAJECTORY_GRID))


@pytest.mark.parametrize("stride", (1, 37))
@pytest.mark.parametrize("dt_sign", (1, -1))
@pytest.mark.parametrize("gamma,shape", [
    *((g, s) for g in (np.pi / 8, np.pi / 2, 3 * np.pi / 4)
      for s in ("gaussian_bump", "random_fourier")),
    (np.pi / 2, "zero"),
])
def test_evolve_is_bit_identical_to_the_allocating_segment(gamma, shape, dt_sign, stride):
    # the in-place segment runs the oracle's ufuncs in the oracle's order, so
    # every snapshot matches to the bit, signed zeros of the zero field included
    f0 = _trajectory_field(gamma, shape)
    snaps = [(f.u, f.v) for _, f in evolve_spans(f0, dt_sign * _TRAJECTORY_STEPS, stride)]
    want = allocating_trajectory(f0, dt_sign * _TRAJECTORY_GRID.dx, _TRAJECTORY_STEPS, stride)
    assert len(snaps) == len(want)
    for (u, v), (wu, wv) in zip(snaps, want):
        assert u.tobytes() == wu.tobytes() and v.tobytes() == wv.tobytes()


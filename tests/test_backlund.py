import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtmlab.backlund import (
    _riccati_variable,
    backlund_transform,
    down_map,
    pushforward_eigenvector,
    riccati_residual,
    up_map,
    up_map_tangents,
)
from mtmlab.errors import DegenerateVectorError, GridMismatchError, ParameterError
from mtmlab.fields import SpinorField, combined_l2_distance, l2_norm, l2_norm_sq
from mtmlab.lax import JostPair, assemble_L, find_eigenvalue, solve_jost, solve_time_bvp
from mtmlab.evolution import charge, step_count
from mtmlab.solitons import (
    csech,
    free_lax_vector,
    soliton_eigenvector,
    soliton_field,
    stationary_soliton,
)

from oracles import bumped_soliton, collinearity_defect, perturbations, spatial_residual
from helpers import evolve_spans, polar

LAM0 = np.exp(0.25j * np.pi)


@pytest.fixture(scope="module")
def perturbed(grid):
    sol = stationary_soliton(np.pi / 2, 0.0, 0.0, 0.0, grid)
    bump = np.exp(-(grid.x - 1.0) ** 2 / 4) * np.exp(0.3j * grid.x)
    bump /= 2 * np.sqrt(np.trapezoid(np.abs(bump) ** 2, grid.x))

    def make(eps):
        return SpinorField(grid, sol.u + eps * bump, sol.v + eps * bump)

    return make


@pytest.mark.parametrize("gamma", [np.pi / 8, np.pi / 2, 3 * np.pi / 4])
@pytest.mark.parametrize("delta", [1.0, 2.0])
def test_zero_to_soliton(grid, gamma, delta):
    p = polar(gamma, delta)
    phi = free_lax_vector(p, 0.3, grid)
    out = backlund_transform(SpinorField.zero(grid), phi, p.lam)
    ref = soliton_field(p, 0.3, grid)
    assert np.abs(out.u - ref.u).max() < 1e-10
    assert np.abs(out.v - ref.v).max() < 1e-10


def test_soliton_to_zero(grid):
    sol = stationary_soliton(np.pi / 2, 0.0, 0.0, 0.0, grid)
    psi = soliton_eigenvector(np.pi / 2, 0.0, grid)
    out = backlund_transform(sol, psi, LAM0)
    assert l2_norm(out) < 1e-6


def test_prefactor_unit_modulus_when_cross_term_vanishes(grid):
    # phi = (1, 0): the cross term is zero, so |output| = |input| pointwise
    sol = stationary_soliton(np.pi / 3, 0.0, 0.0, 0.0, grid)
    phi = SpinorField(grid, np.ones(grid.n), np.zeros(grid.n))
    out = backlund_transform(sol, phi, np.exp(np.pi / 6 * 1j))
    assert np.abs(np.abs(out.u) - np.abs(sol.u)).max() < 1e-12
    assert np.abs(np.abs(out.v) - np.abs(sol.v)).max() < 1e-12


def test_backlund_charge_of_created_soliton(grid):
    for gamma in (np.pi / 4, np.pi / 2):
        p = polar(gamma)
        out = backlund_transform(SpinorField.zero(grid), free_lax_vector(p, 0.0, grid), p.lam)
        assert l2_norm_sq(out) == pytest.approx(4 * gamma, abs=1e-6)


def test_backlund_rejects_bad_parameters(grid):
    zero_vec = SpinorField(grid, np.zeros(grid.n), np.zeros(grid.n))
    with pytest.raises(DegenerateVectorError):
        backlund_transform(SpinorField.zero(grid), zero_vec, LAM0)
    phi = free_lax_vector(polar(np.pi / 2), 0.0, grid)
    with pytest.raises(ParameterError):
        backlund_transform(SpinorField.zero(grid), phi, -1.0 + 0j)   # gamma = 2 pi


@pytest.mark.parametrize("call", [
    lambda f, phi: backlund_transform(f, phi, LAM0),
    lambda f, phi: riccati_residual(phi, f, LAM0),
    lambda f, phi: up_map(f, JostPair(LAM0, phi, phi), 0.0, 0.0),
], ids=["backlund_transform", "riccati_residual", "up_map"])
def test_grid_mismatch_is_typed(grid, grid_small, call):
    phi = SpinorField(grid_small, np.ones(grid_small.n, complex), np.ones(grid_small.n, complex))
    with pytest.raises(GridMismatchError):
        call(SpinorField.zero(grid), phi)


def test_pushforward_pointwise(grid):
    phi = SpinorField(grid, np.ones(grid.n), np.ones(grid.n))
    psi = pushforward_eigenvector(phi, np.pi / 2)
    assert np.abs(psi.u - 1 / np.sqrt(2)).max() < 1e-13
    assert np.abs(psi.v - 1 / np.sqrt(2)).max() < 1e-13


def test_pushforward_of_free_vector_is_soliton_eigenvector(grid):
    p = polar(np.pi / 2)
    psi = pushforward_eigenvector(free_lax_vector(p, 0.0, grid), p.gamma)
    ref = soliton_eigenvector(np.pi / 2, 0.0, grid)
    assert collinearity_defect(psi, ref) < 1e-8


def test_pushforward_solves_transformed_system(grid):
    p = polar(np.pi / 2)
    phi = free_lax_vector(p, 0.0, grid)
    out = backlund_transform(SpinorField.zero(grid), phi, p.lam)
    psi = pushforward_eigenvector(phi, p.gamma)
    assert spatial_residual(assemble_L(out, p.lam), psi) < 1e-4


def test_pushforward_norm_identity(grid, rng):
    env = np.exp(-grid.x ** 2 / 50) + 0.2
    phi = SpinorField(grid, env * (rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)),
                    env * (rng.normal(size=grid.n) - 1j * rng.normal(size=grid.n)))
    gamma = np.pi / 3
    psi = pushforward_eigenvector(phi, gamma)
    d = np.abs(np.exp(0.5j * gamma) * np.abs(phi.u) ** 2
               + np.exp(-0.5j * gamma) * np.abs(phi.v) ** 2)
    lhs = np.abs(psi.u) ** 2 + np.abs(psi.v) ** 2
    rhs = (np.abs(phi.u) ** 2 + np.abs(phi.v) ** 2) / d ** 2
    assert np.abs(lhs - rhs).max() < 1e-12


# -- Riccati checks ------------------------------------------------------------

def test_riccati_exact_free_solution(grid):
    p = polar(np.pi / 2)
    phi = free_lax_vector(p, 0.0, grid)
    assert (~_riccati_variable(phi)[1]).sum() == 0
    assert riccati_residual(phi, SpinorField.zero(grid), p.lam) < 1e-6


def test_riccati_invariance_under_backlund(grid):
    p = polar(np.pi / 2)
    phi = free_lax_vector(p, 0.0, grid)
    out = backlund_transform(SpinorField.zero(grid), phi, p.lam)
    assert riccati_residual(pushforward_eigenvector(phi, p.gamma), out, p.lam) < 1e-4


@settings(max_examples=40)
@given(r=st.floats(0.7, 1.4), arg=st.floats(np.pi / 4 + 0.1, np.pi / 2 - 1e-9),
       pert=perturbations)
@example(r=1.03, arg=np.pi / 4 + 0.1, pert=(0.1, -1.0, 4.3, -0.68, 0.35 - 0.86j))
def test_riccati_residual_of_jost_solutions(grid, r, arg, pert):
    """Both Jost solutions satisfy the spatial Riccati equation above arg pi/4 + 0.1.

    The left solution is tested in Gamma = phi1/phi2.  The right one is
    tested in phi2/phi1, the Riccati variable of the mirrored problem
    (u, v, lam) -> (-conj(v), -conj(u), 1/lam), so the mirror symmetry of the
    spatial problem is checked too.  The rest of the quadrant, where the
    left solution's Gamma passes near a pole and the residual is taken on
    1/Gamma, is `test_riccati_residual_below_the_eigenvalue_argument`; these
    perturbations move the eigenvalue's argument off pi/4 by up to 0.063
    (the example's field, at |lam| = 1.03), so the split at pi/4 + 0.1
    leaves it on that side.
    """
    f = bumped_soliton(grid, *pert)
    lam = r * np.exp(1j * arg)
    pair = solve_jost(f, lam)
    mirrored = SpinorField(grid, -np.conj(f.v), -np.conj(f.u))
    right_flipped = SpinorField(grid, pair.right.v, pair.right.u)
    assert riccati_residual(pair.left, f, lam) < 1e-6
    assert riccati_residual(right_flipped, mirrored, 1.0 / lam) < 1e-6


@settings(max_examples=40)
@given(r=st.floats(0.7, 1.4), arg=st.floats(0.001, np.pi / 4 + 0.1), pert=perturbations)
@example(r=1.0, arg=0.001, pert=(0.0, 0.0, 1.0, 0.0, 0j))
@example(r=1.0, arg=np.pi / 4, pert=(0.0, 0.0, 1.0, 0.0, 0j))
def test_riccati_residual_below_the_eigenvalue_argument(grid, r, arg, pert):
    """Both Jost solutions pass the Riccati check at arguments up to pi/4 + 0.1.

    There the left solution's phi2 nearly vanishes near the unit circle, so
    Gamma has a near-pole, and the residual is taken on 1/Gamma where
    |Gamma| > 1.  A stencil on Gamma alone reads 2.66 at the first example.
    Measured: at most 4.3e-7 over 300 random draws of this strategy, and
    1.39e-6 at the second example, the soliton's own eigenvalue.
    """
    f = bumped_soliton(grid, *pert)
    lam = r * np.exp(1j * arg)
    pair = solve_jost(f, lam)
    for phi in (pair.left, pair.right):
        assert riccati_residual(phi, f, lam) < 3e-6


def test_riccati_rejects_random_data(grid, rng):
    sol = stationary_soliton(np.pi / 2, 0.0, 0.0, 0.0, grid)
    phi = SpinorField(grid, rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n),
                      np.ones(grid.n, complex))
    assert riccati_residual(phi, sol, LAM0) > 0.1


def test_riccati_invalid_samples_are_counted(grid):
    phi1 = np.ones(grid.n, complex)
    phi2 = np.ones(grid.n, complex)
    phi2[5] = 0.0
    assert (~_riccati_variable(SpinorField(grid, phi1, phi2))[1]).sum() == 1


def test_riccati_residual_skips_the_stencil_of_an_invalid_sample(grid):
    # measured: 1.09e-9, as without the zero; a stencil that reads the zeroed
    # sample would see Gamma jump from 1 in modulus to 0 there
    p = polar(np.pi / 2)
    phi = free_lax_vector(p, 0.0, grid)
    phi2 = phi.v.copy()
    phi2[grid.n // 3] = 0.0
    assert riccati_residual(SpinorField(grid, phi.u, phi2), SpinorField.zero(grid), p.lam) < 1e-6


# -- down map -------------------------------------------------------------------

def test_down_map_exact_soliton(grid):
    sol = stationary_soliton(np.pi / 2, 0.0, 0.0, 0.0, grid)
    res = find_eigenvalue(sol, LAM0)
    assert l2_norm(down_map(sol, res)) < 1e-6


def test_down_map_smallness_slope(grid, perturbed):
    norms = []
    for eps in (1e-3, 1e-2, 1e-1):
        f = perturbed(eps)
        res = find_eigenvalue(f, LAM0)
        norms.append(l2_norm(down_map(f, res)))
    slope = np.polyfit(np.log([1e-3, 1e-2, 1e-1]), np.log(norms), 1)[0]
    assert 0.8 <= slope <= 1.2


def test_down_map_output_charge_conserved_under_evolution(grid, perturbed):
    f = perturbed(1e-2)
    res = find_eigenvalue(f, LAM0)
    pq0 = down_map(f, res)
    c0 = charge(pq0)
    drifts = [abs(charge(g) - c0) / c0
              for _, g in evolve_spans(pq0, step_count(5.0, grid.dx), 32)]
    assert max(drifts) < 1e-6


# -- up map ---------------------------------------------------------------------

def test_up_map_reconstructs_translated_soliton(grid):
    """The up map of the zero field is the soliton of the pair's own lambda.

    u = i e^{-i theta} delta^{-1} sin g sech(alpha(x + nu t) - a - i g/2) e^{-i beta(t + nu x)},
    and v the same with -i delta and + i g/2: the soliton moves where
    delta != 1.  Measured: at most 1.4e-15 off at delta = 0.8 and 1.25.
    """
    zero = SpinorField.zero(grid)
    for delta, a, theta, t in ((1.0, 0.0, 0.0, 0.0), (1.0, 1.0, np.pi / 3, 0.0),
                               (1.0, -0.6, 2.0, 1.5), (0.8, 0.3, 0.4, 0.7),
                               (0.8, -0.6, 2.0, 1.5), (1.25, 0.3, 0.4, 0.7),
                               (1.25, -0.6, 2.0, 1.5)):
        p = polar(np.pi / 2, delta)
        rec = up_map(zero, solve_time_bvp(zero, p.lam, t), a, theta)
        arg = p.alpha * (grid.x + p.nu * t) - a
        phase = 1j * np.sin(p.gamma) * np.exp(-1j * theta - 1j * p.beta * (t + p.nu * grid.x))
        assert np.abs(rec.u - phase / delta * csech(arg - 0.5j * p.gamma)).max() < 1e-10
        assert np.abs(rec.v + phase * delta * csech(arg + 0.5j * p.gamma)).max() < 1e-10


@pytest.fixture(scope="module")
def small_field_at_t(grid_small):
    """A down-mapped perturbed soliton and its time-BVP Jost pair at t = 0.7."""
    f0 = bumped_soliton(grid_small, 0.05, 0.5, 3.0, 0.4, 0.3 - 0.5j)
    res = find_eigenvalue(f0, LAM0)
    pq0 = down_map(f0, res)
    return pq0, solve_time_bvp(pq0, res.lam, 0.7)


@settings(max_examples=30)
@given(a=st.floats(-3.0, 3.0), theta=st.floats(-np.pi, np.pi))
def test_up_map_tangents_match_central_differences(small_field_at_t, a, theta):
    # measured: central differences with h = 1e-5 agree to 2.4e-10 of the
    # tangent's largest sample
    pq, jost = small_field_at_t
    out, tangents = up_map_tangents(pq, jost, a, theta)
    ref = up_map(pq, jost, a, theta)
    assert np.array_equal(out.u, ref.u) and np.array_equal(out.v, ref.v)
    du, dv = tangents()
    h = 1e-5
    for k, (da, dth) in enumerate(((h, 0.0), (0.0, h))):
        plus = up_map(pq, jost, a + da, theta + dth)
        minus = up_map(pq, jost, a - da, theta - dth)
        for d, p, m in ((du[k], plus.u, minus.u), (dv[k], plus.v, minus.v)):
            assert np.abs((p - m) / (2 * h) - d).max() <= 1e-8 * np.abs(d).max()


def test_round_trip_recovers_input(grid, perturbed):
    # down then up with optimally fitted (a, theta) returns to the input
    f0 = perturbed(1e-2)
    res = find_eigenvalue(f0, LAM0)
    pq0 = down_map(f0, res)
    small = l2_norm(pq0)
    jost = solve_time_bvp(pq0, res.lam, 0.0)
    from mtmlab.stability import _fit_reconstruction
    dist, a_fit, th_fit, _, _ = _fit_reconstruction(pq0, jost, f0, (0.0, 0.0))
    assert dist <= 2 * small
    rec = up_map(pq0, jost, a_fit, th_fit)
    assert combined_l2_distance(rec, f0) <= 2 * small

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtmlab.errors import ParameterError
from mtmlab.fields import Grid, combined_l2_distance, l2_norm_sq
from mtmlab.solitons import (
    SpectralParameter,
    csech,
    free_lax_vector,
    lorentz_boost,
    sample_spinor,
    soliton_eigenvector,
    soliton_evaluator,
    soliton_field,
)
from mtmlab.lax import assemble_L

from oracles import mtm_residual, spatial_residual, three_exponential_soliton_evaluator
from helpers import polar


def test_csech_matches_reference():
    z = np.array([0.3 + 0.2j, -0.25j * np.pi, 5.0 - 1.0j])
    ref = 1.0 / np.cosh(z)
    assert np.abs(csech(z) - ref).max() < 1e-14
    # argument reduction: no overflow far out, clean decay
    assert csech(np.array([800.0 + 0.3j]))[0] == 0.0
    assert abs(csech(np.array([-400.0]))[0]) < 1e-170


@given(x=st.lists(st.floats(-800.0, 800.0), min_size=1, max_size=32),
       gamma=st.floats(0.05, 3.09))
@example(x=[0.0, -0.0, 1e-300, 760.0, -760.0], gamma=np.pi / 2)
def test_csech_is_conjugation_symmetric(x, gamma):
    # the soliton evaluator takes v's sech as the conjugate of u's
    x = np.array(x)
    for z in (x - 0.5j * gamma, x + 0.5j * gamma):
        assert np.array_equal(csech(np.conj(z)), np.conj(csech(z)))


@settings(max_examples=60)
@given(gamma=st.floats(0.05, 3.09, exclude_min=True, exclude_max=True),
       delta=st.one_of(st.just(1.0), st.floats(0.5, 2.0)),
       a=st.floats(-5.0, 5.0), theta=st.floats(-7.0, 7.0), t=st.floats(-3.0, 3.0),
       seed=st.integers(0, 2 ** 16))
@example(gamma=np.pi / 2, delta=1.0, a=0.0, theta=-0.0, t=0.0, seed=0)
@example(gamma=1.2, delta=1.0, a=0.0, theta=-0.0, t=0.0, seed=1)
@example(gamma=2.5, delta=1.7, a=0.0, theta=0.0, t=0.0, seed=2)
def test_soliton_evaluator_equals_three_exponential_form(gamma, delta, a, theta, t, seed):
    """One csech and a unit phase give the three-exponential form's bytes.

    The points cover x < 0 and x > 0, both zeros (arg = 0 at a = t = 0),
    and |x| far enough out for sech to underflow to 0.
    """
    p = polar(gamma, delta)
    rng = np.random.default_rng(seed)
    x = np.concatenate([np.sort(rng.uniform(-40.0, 40.0, 24)), [0.0, -0.0],
                        Grid.symmetric(30.0, 64).x, np.linspace(-900.0, 900.0, 7)])
    got = soliton_evaluator(p, a, theta)(x, t)
    want = three_exponential_soliton_evaluator(p, a, theta)(x, t)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
        assert g.tobytes() == w.tobytes()


def test_spectral_parameter_derived_quantities():
    p = polar(np.pi / 2, 2.0)
    assert p.delta == pytest.approx(2.0)
    assert p.gamma == pytest.approx(np.pi / 2)
    assert p.nu == pytest.approx(15.0 / 17.0)
    assert abs(p.nu) < 1.0
    assert p.alpha ** 2 + p.beta ** 2 == pytest.approx(((p.delta ** 2 + p.delta ** -2) / 2) ** 2)
    # unit-circle parameter is stationary
    q = polar(np.pi / 4)
    assert q.nu == pytest.approx(0.0)
    assert q.alpha == pytest.approx(np.sin(np.pi / 4))
    assert q.beta == pytest.approx(np.cos(np.pi / 4))


def test_spectral_parameter_rejects_zero():
    with pytest.raises(ParameterError):
        SpectralParameter(0.0)


def test_soliton_point_values(grid):
    p = polar(np.pi / 2)
    f = soliton_field(p, 0.0, grid)
    j0 = int(np.argmin(np.abs(grid.x)))
    assert f.u[j0] == pytest.approx(1j * np.sqrt(2), abs=1e-13)
    assert f.v[j0] == pytest.approx(-1j * np.sqrt(2), abs=1e-13)


def test_soliton_gamma_range(grid):
    with pytest.raises(ParameterError):
        soliton_field(polar(np.pi, 1.5), 0.0, grid)  # gamma = pi
    with pytest.raises(ParameterError):
        soliton_field(SpectralParameter(1.0 + 0j), 0.0, grid)  # gamma = 0


def test_theta_pi_negates_field(grid):
    a = soliton_field(polar(np.pi / 3), 0.0, grid)
    b = soliton_field(polar(np.pi / 3), 0.0, grid, 0.0, np.pi)
    assert np.abs(a.u + b.u).max() < 1e-14


def test_shift_and_phase_parameter_roles(grid):
    gamma, a0, th0, t = np.pi / 2, 1.3, 0.7, 0.9
    shifted = soliton_field(polar(gamma), t, grid, a0, th0)
    base = soliton_evaluator(polar(gamma))
    u, v = base(grid.x + a0, t)
    assert np.abs(shifted.u - np.exp(1j * th0) * u).max() < 1e-14
    assert np.abs(shifted.v - np.exp(1j * th0) * v).max() < 1e-14


@pytest.mark.parametrize("gamma", [np.pi / 8, np.pi / 2])
@pytest.mark.parametrize("delta", [1.0, 2.0])
def test_soliton_charge_is_4gamma(grid, gamma, delta):
    p = polar(gamma, delta)
    for t in (0.0, 1.7):
        f = soliton_field(p, t, grid)
        assert l2_norm_sq(f) == pytest.approx(4 * gamma, abs=1e-6)
    f = soliton_field(p, 0.0, grid, 0.8, 2.1)
    assert l2_norm_sq(f) == pytest.approx(4 * gamma, abs=1e-6)


def test_lorentz_identity(grid):
    ev = soliton_evaluator(polar(np.pi / 3))
    boosted = lorentz_boost(ev, 1.0)
    a = sample_spinor(ev, 0.4, grid)
    b = sample_spinor(boosted, 0.4, grid)
    assert np.abs(a.u - b.u).max() == 0.0


#: |boosted - family| bound, fixed before measuring; the largest deviation
#: over 2,000 uniform draws from the ranges below was 1.9e-14
BOOST_TOL = 1e-12


@given(gamma=st.floats(0.05, 3.09), delta=st.floats(0.5, 2.0), a=st.floats(-5.0, 5.0),
       theta=st.floats(-np.pi, np.pi), t=st.floats(-3.0, 3.0))
def test_lorentz_boost_maps_family_to_family(gamma, delta, a, theta, t):
    """Boosting the delta = 1 orbit point (b1 a, theta) gives the delta member's (a, theta)."""
    b1 = 0.5 * (delta ** 2 + delta ** -2)
    x = np.linspace(-20.0, 20.0, 401)
    u, v = lorentz_boost(soliton_evaluator(polar(gamma), b1 * a, theta), delta)(x, t)
    ue, ve = soliton_evaluator(polar(gamma, delta), a, theta)(x, t)
    assert max(np.abs(u - ue).max(), np.abs(v - ve).max()) < BOOST_TOL


def test_lorentz_boost_composition(grid):
    ev = soliton_evaluator(polar(np.pi / 2))
    once = lorentz_boost(lorentz_boost(ev, 1.5), 1.2)
    direct = lorentz_boost(ev, 1.8)
    a = sample_spinor(once, 0.3, grid)
    b = sample_spinor(direct, 0.3, grid)
    assert combined_l2_distance(a, b) < 1e-10


def test_lorentz_boost_rejects_nonpositive():
    with pytest.raises(ParameterError):
        lorentz_boost(soliton_evaluator(polar(np.pi / 2)), 0.0)


def test_free_lax_vector(grid):
    p = polar(np.pi / 2)
    vec = free_lax_vector(p, 0.0, grid)
    j0 = int(np.argmin(np.abs(grid.x)))
    assert vec.u[j0] == pytest.approx(1.0, abs=1e-14)
    assert vec.v[j0] == pytest.approx(1.0, abs=1e-14)
    # gamma = pi/2: exponent (i/4)(lam^2 - lam^-2) = -1/2
    assert np.abs(vec.u - np.exp(-grid.x / 2)).max() < 1e-8
    assert np.abs(vec.u * vec.v - 1.0).max() < 1e-13


def test_soliton_eigenvector(grid):
    psi = soliton_eigenvector(np.pi / 2, 0.0, grid)
    j0 = int(np.argmin(np.abs(grid.x)))
    assert psi.u[j0] == pytest.approx(np.sqrt(2), abs=1e-13)
    assert psi.v[j0] == pytest.approx(np.sqrt(2), abs=1e-13)
    # decays in both directions
    edge = max(abs(psi.u[0]), abs(psi.u[-1]), abs(psi.v[0]), abs(psi.v[-1]))
    assert edge < 1e-6
    # solves the spatial problem on the soliton background
    sol = soliton_field(polar(np.pi / 2), 0.0, grid)
    op = assemble_L(sol, np.exp(0.25j * np.pi))
    assert spatial_residual(op, psi) < 1e-6


def test_boosted_eigenvector_solves_boosted_system(grid):
    # the boost resampling sends the unit-circle eigenvector to one for the
    # boosted soliton at lambda = delta e^{i gamma/2}
    from mtmlab.solitons import lorentz_boost_lax, soliton_eigenvector_evaluator

    gamma, delta = np.pi / 2, 1.3
    p = polar(gamma, delta)
    psi = sample_spinor(lorentz_boost_lax(soliton_eigenvector_evaluator(gamma), delta), 0.0, grid)
    background = soliton_field(p, 0.0, grid)
    assert spatial_residual(assemble_L(background, p.lam), psi) < 1e-4


def test_soliton_satisfies_mtm_at_second_order():
    r1 = mtm_residual(np.pi / 4, 2048)
    r2 = mtm_residual(np.pi / 4, 4096)
    order = np.log2(r1 / r2)
    assert 1.5 < order < 2.5

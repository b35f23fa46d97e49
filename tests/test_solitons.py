import numpy as np
import pytest

from mtmlab.errors import ParameterError
from mtmlab.fields import combined_l2_distance, l2_norm_sq
from mtmlab.solitons import (
    SpectralParameter,
    csech,
    free_lax_vector,
    lorentz_boost,
    sample_spinor,
    soliton_eigenvector,
    soliton_field,
    stationary_soliton,
    stationary_soliton_evaluator,
)
from mtmlab.lax import assemble_L

from oracles import mtm_residual, spatial_residual


def test_csech_matches_reference():
    z = np.array([0.3 + 0.2j, -0.25j * np.pi, 5.0 - 1.0j])
    ref = 1.0 / np.cosh(z)
    assert np.abs(csech(z) - ref).max() < 1e-14
    # argument reduction: no overflow far out, clean decay
    assert csech(np.array([800.0 + 0.3j]))[0] == 0.0
    assert abs(csech(np.array([-400.0]))[0]) < 1e-170


def test_spectral_parameter_derived_quantities():
    p = SpectralParameter.from_polar(np.pi / 2, 2.0)
    assert p.delta == pytest.approx(2.0)
    assert p.gamma == pytest.approx(np.pi / 2)
    assert p.nu == pytest.approx(15.0 / 17.0)
    assert abs(p.nu) < 1.0
    assert p.alpha ** 2 + p.beta ** 2 == pytest.approx(((p.delta ** 2 + p.delta ** -2) / 2) ** 2)
    # unit-circle parameter is stationary
    q = SpectralParameter.from_polar(np.pi / 4)
    assert q.nu == pytest.approx(0.0)
    assert q.alpha == pytest.approx(np.sin(np.pi / 4))
    assert q.beta == pytest.approx(np.cos(np.pi / 4))


def test_spectral_parameter_rejects_zero():
    with pytest.raises(ParameterError):
        SpectralParameter(0.0)


def test_soliton_point_values(grid):
    p = SpectralParameter.from_polar(np.pi / 2)
    f = soliton_field(p, 0.0, grid)
    j0 = int(np.argmin(np.abs(grid.x)))
    assert f.u[j0] == pytest.approx(1j * np.sqrt(2), abs=1e-13)
    assert f.v[j0] == pytest.approx(-1j * np.sqrt(2), abs=1e-13)


def test_soliton_gamma_range(grid):
    with pytest.raises(ParameterError):
        stationary_soliton(0.0, 0.0, 0.0, 0.0, grid)
    with pytest.raises(ParameterError):
        soliton_field(SpectralParameter(1.0 + 0j), 0.0, grid)  # gamma = 0


@pytest.mark.parametrize("gamma", [np.pi / 8, np.pi / 2, 3 * np.pi / 4])
def test_stationary_matches_general_family(grid, gamma):
    p = SpectralParameter.from_polar(gamma)
    a = soliton_field(p, 0.0, grid)
    b = stationary_soliton(gamma, 0.0, 0.0, 0.0, grid)
    assert np.abs(a.u - b.u).max() < 1e-14
    assert np.abs(a.v - b.v).max() < 1e-14


def test_theta_pi_negates_field(grid):
    a = stationary_soliton(np.pi / 3, 0.0, 0.0, 0.0, grid)
    b = stationary_soliton(np.pi / 3, 0.0, np.pi, 0.0, grid)
    assert np.abs(a.u + b.u).max() < 1e-14


def test_shift_and_phase_parameter_roles(grid):
    gamma, a0, th0, t = np.pi / 2, 1.3, 0.7, 0.9
    shifted = stationary_soliton(gamma, a0, th0, t, grid)
    base = stationary_soliton_evaluator(gamma)
    u, v = base(grid.x + a0, t)
    assert np.abs(shifted.u - np.exp(1j * th0) * u).max() < 1e-14
    assert np.abs(shifted.v - np.exp(1j * th0) * v).max() < 1e-14


@pytest.mark.parametrize("gamma", [np.pi / 8, np.pi / 2])
@pytest.mark.parametrize("delta", [1.0, 2.0])
def test_soliton_charge_is_4gamma(grid, gamma, delta):
    p = SpectralParameter.from_polar(gamma, delta)
    for t in (0.0, 1.7):
        f = soliton_field(p, t, grid)
        assert l2_norm_sq(f) == pytest.approx(4 * gamma, abs=1e-6)
    f = stationary_soliton(gamma, 0.8, 2.1, 0.0, grid)
    assert l2_norm_sq(f) == pytest.approx(4 * gamma, abs=1e-6)


def test_lorentz_identity(grid):
    ev = stationary_soliton_evaluator(np.pi / 3)
    boosted = lorentz_boost(ev, 1.0)
    a = sample_spinor(ev, 0.4, grid)
    b = sample_spinor(boosted, 0.4, grid)
    assert np.abs(a.u - b.u).max() == 0.0


def test_lorentz_boost_equals_general_soliton(grid):
    boosted = lorentz_boost(stationary_soliton_evaluator(np.pi / 2), 2.0)
    for t in (0.0, 0.7):
        a = sample_spinor(boosted, t, grid)
        b = soliton_field(SpectralParameter.from_polar(np.pi / 2, 2.0), t, grid)
        assert np.abs(a.u - b.u).max() < 1e-10
        assert np.abs(a.v - b.v).max() < 1e-10


def test_lorentz_boost_composition(grid):
    ev = stationary_soliton_evaluator(np.pi / 2)
    once = lorentz_boost(lorentz_boost(ev, 1.5), 1.2)
    direct = lorentz_boost(ev, 1.8)
    a = sample_spinor(once, 0.3, grid)
    b = sample_spinor(direct, 0.3, grid)
    assert combined_l2_distance(a, b) < 1e-10


def test_lorentz_boost_rejects_nonpositive():
    with pytest.raises(ParameterError):
        lorentz_boost(stationary_soliton_evaluator(np.pi / 2), 0.0)


def test_free_lax_vector(grid):
    p = SpectralParameter.from_polar(np.pi / 2)
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
    sol = stationary_soliton(np.pi / 2, 0.0, 0.0, 0.0, grid)
    op = assemble_L(sol, np.exp(0.25j * np.pi))
    assert spatial_residual(op, psi) < 1e-6


def test_boosted_eigenvector_solves_boosted_system(grid):
    # the boost resampling sends the unit-circle eigenvector to one for the
    # boosted soliton at lambda = delta e^{i gamma/2}
    from mtmlab.solitons import lorentz_boost_lax, soliton_eigenvector_evaluator

    gamma, delta = np.pi / 2, 1.3
    p = SpectralParameter.from_polar(gamma, delta)
    psi = sample_spinor(lorentz_boost_lax(soliton_eigenvector_evaluator(gamma), delta), 0.0, grid)
    background = soliton_field(p, 0.0, grid)
    assert spatial_residual(assemble_L(background, p.lam), psi) < 1e-4


def test_soliton_satisfies_mtm_at_second_order():
    r1 = mtm_residual(np.pi / 4, 2048)
    r2 = mtm_residual(np.pi / 4, 4096)
    order = np.log2(r1 / r2)
    assert 1.5 < order < 2.5

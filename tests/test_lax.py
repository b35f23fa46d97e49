import numpy as np
import pytest

from mtmlab.errors import (
    DegenerateExponentError,
    NoEigenvalueError,
    OrthogonalityError,
    ParameterError,
)
from mtmlab.fields import (
    SpinorField,
    d_dx,
    inner_product,
    integrate,
    l2_norm,
)
from mtmlab.lax import (
    assemble_A,
    assemble_L,
    eigenvector_remainder,
    evans_function,
    find_eigenvalue,
    gauge_transform,
    null_vectors,
    project_P,
    project_P_hat,
    resolvent_solve,
    s_constant,
    solve_jost,
    solve_time_bvp,
)
from mtmlab.evolution import EvolutionConfig, evolve
from mtmlab.solitons import SpectralParameter, soliton_eigenvector, stationary_soliton

from oracles import (
    collinearity_defect,
    propagate_lax_in_time,
    spatial_residual,
    zero_curvature_residual,
)

LAM0 = np.exp(0.25j * np.pi)     # e^{i gamma/2} for gamma = pi/2
P0 = SpectralParameter(LAM0)


def gauge_phases(f):
    """The gauges (m1, m2) based at the left and right edges."""
    acc = gauge_transform(f)
    return np.exp(1j * acc), np.exp(1j * (acc[-1] - acc))


@pytest.fixture(scope="module")
def soliton(grid):
    return stationary_soliton(np.pi / 2, 0.0, 0.0, 0.0, grid)


@pytest.fixture(scope="module")
def bump_family(grid):
    """Fixed-shape perturbed solitons for the epsilon scaling tests."""
    sol = stationary_soliton(np.pi / 2, 0.0, 0.0, 0.0, grid)
    bump = np.exp(-(grid.x - 1.0) ** 2 / 4) * np.exp(0.3j * grid.x)
    bump /= 2 * np.sqrt(np.trapezoid(np.abs(bump) ** 2, grid.x))
    out = {}
    for eps in (1e-3, 1e-2, 1e-1):
        f = SpinorField(grid, sol.u + eps * bump, sol.v + eps * bump)
        out[eps] = find_eigenvalue(f, LAM0), f
    return out


# -- operators ---------------------------------------------------------------

def test_assemble_L_zero_field(grid):
    op = assemble_L(SpinorField.zero(grid), LAM0)
    assert np.abs(op.a11 + 0.5).max() < 1e-14
    assert np.abs(op.a22 - 0.5).max() < 1e-14
    assert np.abs(op.a12).max() == 0.0


def test_assemble_L_traceless(grid, rng):
    f = SpinorField(grid, rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n),
                    rng.normal(size=grid.n) - 0.5j * rng.normal(size=grid.n))
    op = assemble_L(f, 0.3 + 1.1j)
    assert np.abs(op.a11 + op.a22).max() < 1e-14


def test_assemble_L_offdiagonal_value(grid):
    u = np.full(grid.n, 1j)
    f = SpinorField(grid, u, np.zeros(grid.n))
    op = assemble_L(f, 1.0 + 0j)
    assert op.a12[0] == pytest.approx(0.5, abs=1e-15)


def test_assemble_A_zero_field(grid):
    op = assemble_A(SpinorField.zero(grid), LAM0)
    # (i/4)(lam^2 + lam^-2) = (i/2) cos(gamma) = 0 at gamma = pi/2
    assert np.abs(op.a11).max() < 1e-15
    op2 = assemble_A(SpinorField.zero(grid), np.exp(0.125j * np.pi))
    assert np.abs(op2.a11 - 0.5j * np.cos(np.pi / 4)).max() < 1e-14
    assert np.abs(op2.a11 + op2.a22).max() == 0.0


def test_zero_curvature_second_order():
    lam = np.exp(0.125j * np.pi) * 1.1
    r1 = zero_curvature_residual(np.pi / 4, lam, 2048)
    r2 = zero_curvature_residual(np.pi / 4, lam, 4096)
    order = np.log2(r1 / r2)
    assert 1.5 < order < 2.5


def test_lambda_zero_rejected(grid):
    with pytest.raises(ParameterError):
        assemble_L(SpinorField.zero(grid), 0.0)


# -- gauge transform ---------------------------------------------------------

def test_gauge_on_soliton_is_identity(grid, soliton):
    m1, m2 = gauge_phases(soliton)               # |u| = |v| pointwise
    assert np.abs(m1 - 1.0).max() < 1e-12
    assert np.abs(m2 - 1.0).max() < 1e-12


def test_gauge_on_zero_field(grid):
    m1, _ = gauge_phases(SpinorField.zero(grid))
    assert np.abs(m1 - 1.0).max() == 0.0


def test_gauge_total_phase(grid):
    # ||u||^2 = 4 pi with v = 0: total phase e^{i pi}
    width = 2.0
    amp = np.sqrt(4 * np.pi / (width * np.sqrt(2 * np.pi)))
    u = amp * np.exp(-grid.x ** 2 / (4 * width ** 2))
    f = SpinorField(grid, u.astype(complex), np.zeros(grid.n))
    assert integrate(np.abs(f.u) ** 2, grid) == pytest.approx(4 * np.pi, rel=1e-10)
    m1, m2 = gauge_phases(f)
    total_phase = m1[-1] * m2[-1]
    assert total_phase == pytest.approx(np.exp(1j * np.pi), abs=1e-8)
    assert np.abs(np.abs(m1) - 1.0).max() < 1e-12
    assert np.abs(m1 * m2 - total_phase).max() < 1e-12


# -- Jost solutions and the Evans function -----------------------------------

def test_jost_zero_field_exact(grid):
    pair = solve_jost(SpinorField.zero(grid), LAM0)
    k1 = P0.k1
    assert np.abs(pair.left.u).max() == 0.0
    assert np.abs(pair.left.v - np.exp(-k1 * grid.x)).max() < 1e-8
    assert np.abs(pair.right.v).max() == 0.0
    assert np.abs(pair.right.u - np.exp(k1 * grid.x)).max() < 1e-8


def test_jost_edge_normalization(grid, soliton):
    pair = solve_jost(soliton, LAM0)
    k1 = P0.k1
    assert pair.left.u[0] == 0.0
    assert pair.left.v[0] == pytest.approx(np.exp(-k1 * grid.x[0]), rel=1e-12)
    assert pair.right.u[-1] == pytest.approx(np.exp(k1 * grid.x[-1]), rel=1e-12)
    assert pair.right.v[-1] == 0.0


def test_jost_collinear_at_eigenvalue(grid, soliton):
    pair = solve_jost(soliton, LAM0)
    assert collinearity_defect(pair.left, pair.right) < 1e-6


def test_jost_small_background_correction(grid, rng):
    env = np.exp(-grid.x ** 2 / 30)
    u = env * (rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n))
    v = env * (rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n))
    scale = 0.05 / (np.sqrt(integrate(np.abs(u) ** 2, grid))
                    + np.sqrt(integrate(np.abs(v) ** 2, grid)))
    f = SpinorField(grid, scale * u, scale * v)
    pair = solve_jost(f, LAM0)
    k1 = P0.k1
    # the reduced right solution stays within O(||field||/sin g) of its
    # unit asymptote (divide out the envelope and the right-edge gauge)
    reduced = pair.right.u * np.exp(-k1 * grid.x) * gauge_phases(f)[1]
    assert np.abs(reduced - 1.0).max() < 0.05 * 5


def test_jost_degenerate_exponent(grid):
    with pytest.raises(DegenerateExponentError):
        solve_jost(SpinorField.zero(grid), 1.0 + 0j)


def test_evans_zero_field_unit_modulus(grid):
    assert abs(evans_function(SpinorField.zero(grid), LAM0)) == pytest.approx(1.0, abs=1e-12)


def test_evans_vanishes_at_eigenvalue(grid, soliton):
    assert abs(evans_function(soliton, LAM0)) < 1e-6


def test_evans_away_from_root(grid, soliton):
    assert abs(evans_function(soliton, LAM0 * 1.1)) > 1e-3


def test_find_eigenvalue_recovers_soliton_parameter(grid, soliton):
    res = find_eigenvalue(soliton, LAM0 * (1 + 0.05j))
    assert abs(res.lam - LAM0) < 1e-8
    assert res.evans_residual < 1e-10
    assert res.iterations <= 10
    assert l2_norm(res.eigenvector) == pytest.approx(1.0, rel=1e-12)
    # phase convention: dominant component real positive at the modulus peak
    mag = np.abs(res.eigenvector.u) ** 2 + np.abs(res.eigenvector.v) ** 2
    jp = int(np.argmax(mag))
    comp = max(res.eigenvector.u[jp], res.eigenvector.v[jp], key=abs)
    assert comp.imag == pytest.approx(0.0, abs=1e-12)
    assert comp.real > 0
    # matches the closed-form eigenvector up to normalization
    psi = soliton_eigenvector(np.pi / 2, 0.0, grid)
    assert collinearity_defect(res.eigenvector, psi) < 1e-7


def test_eigenvalue_shift_linear_in_eps(bump_family):
    errs = [abs(bump_family[eps][0].lam - LAM0) for eps in (1e-3, 1e-2, 1e-1)]
    slope = np.polyfit(np.log([1e-3, 1e-2, 1e-1]), np.log(errs), 1)[0]
    assert 0.8 <= slope <= 1.2


def test_find_eigenvalue_zero_field_fails(grid):
    with pytest.raises(NoEigenvalueError):
        find_eigenvalue(SpinorField.zero(grid), LAM0)


# -- explicit kernel machinery ------------------------------------------------

def test_null_vector_point_values(grid):
    phi, eta, _ = null_vectors(np.pi / 2, grid)
    j0 = int(np.argmin(np.abs(grid.x)))
    root2 = np.sqrt(2)
    assert phi.u[j0] == pytest.approx(root2, abs=1e-13)
    assert phi.v[j0] == pytest.approx(root2, abs=1e-13)
    assert eta.u[j0] == pytest.approx(root2, abs=1e-13)
    assert eta.v[j0] == pytest.approx(-root2, abs=1e-13)


def test_null_vectors_solve_their_systems(grid):
    phi, eta, xi = null_vectors(np.pi / 2, grid)
    assert abs(inner_product(eta, phi)) < 1e-8
    op = assemble_L(stationary_soliton(np.pi / 2, 0.0, 0.0, 0.0, grid), LAM0)
    assert spatial_residual(op, phi) < 1e-5
    # xi solves the same system; trim the exponentially growing edges
    assert spatial_residual(op, xi, trim=512) < 1e-3


def test_projector(grid, rng):
    gamma = np.pi / 2
    phi, eta, _ = null_vectors(gamma, grid)
    assert l2_norm(project_P(gamma, phi)) < 1e-10
    env = np.exp(-grid.x ** 2 / 40)
    v = SpinorField(grid, env * (rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)),
                  env * (rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)))
    pv = project_P(gamma, v)
    ppv = project_P(gamma, pv)
    assert np.abs(ppv.u - pv.u).max() < 1e-12
    assert np.abs(ppv.v - pv.v).max() < 1e-12
    s3eta = SpinorField(grid, eta.u, -eta.v)
    assert abs(inner_product(s3eta, pv)) < 1e-10


def test_resolvent_zero_rhs(grid):
    w = resolvent_solve(np.pi / 2, SpinorField(grid, np.zeros(grid.n), np.zeros(grid.n)))
    assert l2_norm(w) == 0.0


def test_resolvent_rejects_eta(grid):
    _, eta, _ = null_vectors(np.pi / 2, grid)
    with pytest.raises(OrthogonalityError):
        resolvent_solve(np.pi / 2, eta)


def test_resolvent_solves_the_ode(grid):
    gamma = np.pi / 2
    f = SpinorField(grid, np.exp(-(grid.x - 1) ** 2 / 6) * np.exp(0.2j * grid.x),
                  np.exp(-(grid.x + 2) ** 2 / 8).astype(complex))
    f = project_P_hat(gamma, f)
    w = resolvent_solve(gamma, f)
    op = assemble_L(stationary_soliton(gamma, 0.0, 0.0, 0.0, grid), np.exp(0.5j * gamma))
    r1 = d_dx(w.u, grid, 4) - (op.a11 * w.u + op.a12 * w.v) - f.u
    r2 = d_dx(w.v, grid, 4) - (op.a21 * w.u + op.a22 * w.v) - f.v
    res = np.sqrt(grid.dx * np.sum(np.abs(r1[2:-2]) ** 2 + np.abs(r2[2:-2]) ** 2))
    assert res < 1e-5
    _, eta, _ = null_vectors(gamma, grid)
    s3eta = SpinorField(grid, eta.u, -eta.v)
    assert abs(inner_product(s3eta, w)) < 1e-8


# -- bifurcation constant -----------------------------------------------------

def test_s_constant_closed_forms():
    val = s_constant(np.pi / 2)
    assert val == pytest.approx(2 * np.sqrt(2) * (1 + 1j), rel=1e-10)
    val = s_constant(np.pi / 4)
    assert val == pytest.approx(4 * np.sqrt(2) * 1j * np.exp(-0.125j * np.pi), rel=1e-10)


@pytest.mark.parametrize("gamma", [np.pi / 8, np.pi / 4, np.pi / 2, 3 * np.pi / 4])
def test_s_constant_quadrature_vs_closed_form(gamma):
    closed = 4j * np.exp(-0.5j * gamma) / np.sin(gamma)
    assert abs(s_constant(gamma) - closed) < 1e-8 * abs(closed)


# -- eigenvector remainder ----------------------------------------------------

def test_remainder_vanishes_on_exact_soliton(grid, soliton):
    res = find_eigenvalue(soliton, LAM0)
    rem = eigenvector_remainder(soliton, res)
    assert max(rem.norms.values()) < 1e-6


def test_remainder_scales_linearly(bump_family):
    tots = []
    for eps in (1e-3, 1e-2, 1e-1):
        res, f = bump_family[eps]
        rem = eigenvector_remainder(f, res)
        tots.append(rem.norms["r11_sup"] + rem.norms["r12_sup"]
                    + rem.norms["r21_sup"] + rem.norms["r22_sup"])
    slope = np.polyfit(np.log([1e-3, 1e-2, 1e-1]), np.log(tots), 1)[0]
    assert 0.8 <= slope <= 1.2


def test_remainder_roundtrip(grid, bump_family):
    res, f = bump_family[1e-2]
    rem = eigenvector_remainder(f, res)
    rec = rem.reconstruct()
    assert np.abs(rec.u - res.eigenvector.u).max() < 1e-12
    assert np.abs(rec.v - res.eigenvector.v).max() < 1e-12


# -- time boundary-value problem ----------------------------------------------

def test_time_bvp_zero_background_phases(grid):
    k1, k2 = P0.k1, P0.k2
    for t in (0.0, 3.7):
        pair = solve_time_bvp(SpinorField.zero(grid), LAM0, t)
        assert np.abs(pair.right.u - np.exp(k1 * grid.x + 1j * t * k2)).max() < 1e-10
        assert np.abs(pair.right.v).max() == 0.0
        assert np.abs(pair.left.v - np.exp(-k1 * grid.x - 1j * t * k2)).max() < 1e-10
        assert np.abs(pair.left.u).max() == 0.0


@pytest.fixture(scope="module")
def small_field(grid):
    """A fixed small field (pair norm ~ 0.037) for the time-BVP tests."""
    rng = np.random.default_rng(4)
    env = np.exp(-grid.x ** 2 / 18)
    u = env * np.exp(1j * rng.uniform(0, 2 * np.pi)) * 0.04
    v = env * np.exp(1j * rng.uniform(0, 2 * np.pi)) * 0.03 * np.exp(0.2j * grid.x)
    return SpinorField(grid, u, v)


def test_time_bvp_matches_time_propagation(grid, small_field):
    # two independent constructions of the same Lax solution at t = 5
    lam = LAM0
    fields = []
    evolve(small_field, EvolutionConfig(dt=grid.dx, t_end=5.0),
           observer=lambda t, f: fields.append(f))
    t_n = (len(fields) - 1) * grid.dx
    pair0 = solve_time_bvp(small_field, lam, 0.0)
    pair_n = solve_time_bvp(fields[-1], lam, t_n)
    phi0 = np.stack([pair0.right.u, pair0.right.v], axis=-1)
    phi_n = propagate_lax_in_time(phi0, fields, lam, grid.dx)
    k1 = P0.k1
    m1, _ = gauge_phases(fields[-1])
    env = np.exp(-k1 * grid.x)
    red_prop = np.stack([np.conj(m1) * env * phi_n[:, 0], m1 * env * phi_n[:, 1]], axis=-1)
    red_bvp = np.stack([np.conj(m1) * env * pair_n.right.u,
                        m1 * env * pair_n.right.v], axis=-1)
    disc = np.sqrt(grid.dx * np.sum(np.abs(red_prop - red_bvp) ** 2))
    assert disc < 1e-4


def test_time_bvp_boundary_amplitude_bound(grid, small_field):
    # ||varphi1 - e^{i t cos(g)/2}||_inf controlled by the small-field size
    lam = LAM0
    fields = []
    evolve(small_field, EvolutionConfig(dt=grid.dx, t_end=10.0),
           observer=lambda t, f: fields.append(f))
    t_n = (len(fields) - 1) * grid.dx
    pair = solve_time_bvp(fields[-1], lam, t_n)
    m1, _ = gauge_phases(fields[-1])
    varphi1 = np.conj(m1) * np.exp(-P0.k1 * grid.x) * pair.right.u
    size = np.sqrt(integrate(np.abs(small_field.u) ** 2 + np.abs(small_field.v) ** 2, grid))
    assert np.abs(varphi1 - np.exp(1j * t_n * P0.k2)).max() < 5 * size

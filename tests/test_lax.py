import tracemalloc

import numpy as np
import pytest

from mtmlab.errors import (
    DegenerateExponentError,
    IntegrationError,
    NoEigenvalueError,
    OrthogonalityError,
    ParameterError,
)
from mtmlab.fields import (
    Grid,
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
from mtmlab import lax
from mtmlab.solitons import SpectralParameter, soliton_eigenvector, soliton_field
from mtmlab.evolution import step_count
from mtmlab.stability import ExperimentConfig, make_perturbed_initial

from helpers import evolve_spans, polar, reconstruct
from oracles import (
    collinearity_defect,
    full_line_eigenvector,
    full_line_evans,
    propagate_lax_in_time,
    propagate_sequential,
    sequential_reduced,
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
    return soliton_field(polar(np.pi / 2), 0.0, grid)


@pytest.fixture(scope="module")
def bump_family(grid):
    """Fixed-shape perturbed solitons for the epsilon scaling tests."""
    sol = soliton_field(polar(np.pi / 2), 0.0, grid)
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
    assert pair.left.v[0] == np.exp(-k1 * grid.x[0])
    assert pair.right.u[-1] == np.exp(k1 * grid.x[-1])


@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("gamma", [np.pi / 8, np.pi / 2, 3 * np.pi / 4])
def test_jost_matches_sequential_oracle(gamma, eps, monkeypatch):
    """The tree-scan kernel agrees with the cell-by-cell kernel.

    Each solution is compared on its stable half-line (left on x <= 0,
    right on x >= 0); beyond it both methods carry amplified rounding.
    """
    f = make_perturbed_initial(ExperimentConfig(gamma0=gamma, epsilon=eps,
                                                perturbation_seed=1))
    lam0 = np.exp(0.5j * gamma)          # the eigenvalue itself at eps = 0
    lams = [0.8 * lam0, lam0, 1.25 * lam0, 1.1 * np.exp(0.5j * (np.pi + gamma))]
    assert SpectralParameter(lams[-1]).k1.real > 0      # swapped orientation
    pairs = [solve_jost(f, lam) for lam in lams]
    monkeypatch.setattr(lax._JostWorkspace, "reduced", sequential_reduced)
    x = f.grid.x
    for lam, pair in zip(lams, pairs):
        ref = solve_jost(f, lam)
        for got, want, half in ((pair.left, ref.left, x <= 0),
                                (pair.right, ref.right, x >= 0)):
            scale = max(np.abs(want.u[half]).max(), np.abs(want.v[half]).max())
            dev = max(np.abs(got.u[half] - want.u[half]).max(),
                      np.abs(got.v[half] - want.v[half]).max())
            assert dev <= 1e-12 * scale


@pytest.mark.parametrize("n", [8, 1000, 4097])
def test_tree_scan_matches_sequential_propagation(n, monkeypatch):
    """The whole-line tree scan agrees with `propagate_sequential` on the kernel's own transfers.

    The up-sweep leaves a trailing incomplete block out of each level:
    n = 8 and n = 1000 give 7 and 999 cells, odd on most levels, and
    n = 4097 gives 4096, an exact power of two, whose last vector is the
    root block applied to w0.  The transfers each side's scan takes up
    (left forward, right backward, so already reversed) in both envelope
    orientations are recorded and replayed forward cell by cell, and the
    reduced trajectories are compared on the whole line.  The background
    does not vanish at the edges, so the last transfer moves the vector by
    O(dx) and a wrong far-edge sample shows.
    """
    grid = Grid.symmetric(30.0, n)
    f = SpinorField(grid, 0.5 * np.exp(0.3j * grid.x), 0.4 * np.exp(-0.2j * grid.x) + 0.2)
    lams = [0.8 * LAM0, LAM0, 1.1 * np.exp(0.75j * np.pi)]
    assert SpectralParameter(lams[-1]).k1.real > 0      # swapped orientation
    calls = []
    up_sweep = lax._up_sweep

    def recording(transfers):
        calls.append(transfers)
        return up_sweep(transfers)

    monkeypatch.setattr(lax, "_up_sweep", recording)
    ws = lax._JostWorkspace(f)
    for lam in lams:
        swapped = SpectralParameter(lam).k1.real > 0
        calls.clear()
        reduced = ws.reduced(lam)
        assert len(calls) == 2
        for side, got, transfers in zip(("left", "right"), reduced, calls):
            scan = got if side == "left" else got[:, ::-1]
            w0 = (0.0, 1.0) if (side == "left") != swapped else (1.0, 0.0)
            stacked = np.moveaxis(np.reshape(transfers, (2, 2, n - 1)), -1, 0)
            want = propagate_sequential(stacked, w0, forward=True).T
            assert np.abs(scan - want).max() <= 1e-12 * np.abs(want).max()


def test_scan_end_is_the_down_sweep_at_the_end():
    """The root-to-leaf path gives the down-sweep's last vector bit for bit, for 0 to 70 cells."""
    rng = np.random.default_rng(3)
    for ncell in range(71):
        t = [0.3 * (rng.normal(size=ncell) + 1j * rng.normal(size=ncell)) + (k in (0, 3))
             for k in range(4)]
        levels = lax._up_sweep(t)
        end = lax._scan_end(levels, (0.3 - 0.1j, 1.0))
        assert end.shape == (2, 1)
        assert end.tobytes() == lax._down_sweep(levels, (0.3 - 0.1j, 1.0))[:, -1:].tobytes()


def _assert_half_lines_match_full_line(f, lams):
    """Evans values and spliced eigenvectors equal the whole-line oracles bit for bit.

    lambda goes in as a Python complex, as every public entry point passes
    it on: numpy complex scalars round k1 differently.
    """
    ws = lax._JostWorkspace(f)
    for lam in map(complex, lams):
        assert evans_function(f, lam, ws) == full_line_evans(f, lam)
        got = lax._splice_eigenvector(f.grid, *ws.halves(lam))
        want = full_line_eigenvector(f, lam)
        assert got.u.tobytes() == want.u.tobytes()
        assert got.v.tobytes() == want.v.tobytes()


@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("gamma", [np.pi / 8, np.pi / 2, 3 * np.pi / 4])
def test_half_line_kernel_is_bit_identical_to_the_full_line(gamma, eps, monkeypatch):
    """Half-line scans reproduce the whole-line Jost solutions at j0 and on each half.

    The search itself matches too: the same lambda, iterations, |E| and
    eigenvector bytes as the secant run on the whole-line Evans function.
    """
    f = make_perturbed_initial(ExperimentConfig(gamma0=gamma, epsilon=eps,
                                                perturbation_seed=1))
    lam0 = np.exp(0.5j * gamma)
    lams = [0.8 * lam0, lam0, 1.25 * lam0, 1.1 * np.exp(0.5j * (np.pi + gamma))]
    assert SpectralParameter(lams[-1]).k1.real > 0      # swapped orientation
    _assert_half_lines_match_full_line(f, lams)
    got = find_eigenvalue(f, lam0)
    monkeypatch.setattr(lax, "evans_function", full_line_evans)
    want = find_eigenvalue(f, lam0)
    assert (got.lam, got.iterations, got.evans_residual) == (
        want.lam, want.iterations, want.evans_residual)
    vec = full_line_eigenvector(f, want.lam)
    assert got.eigenvector.u.tobytes() == vec.u.tobytes()
    assert got.eigenvector.v.tobytes() == vec.v.tobytes()


@pytest.mark.parametrize("grid", [Grid.symmetric(30.0, 8), Grid.symmetric(30.0, 1000),
                                  Grid.symmetric(30.0, 4097), Grid(0.0, 1.0, 8),
                                  Grid(-1.0, 0.0, 8), Grid(-0.3, 5.0, 37)],
                         ids=["n8", "n1000", "n4097", "j0_first", "j0_last", "j0_near_left"])
def test_half_line_kernel_on_odd_grids(grid):
    """Grid sizes at the power-of-two edges, and matching points with an empty half-line."""
    f = SpinorField(grid, 0.5 * np.exp(0.3j * grid.x), 0.4 * np.exp(-0.2j * grid.x) + 0.2)
    j0 = int(np.argmin(np.abs(grid.x)))
    assert lax._JostWorkspace(f).j0 == j0
    _assert_half_lines_match_full_line(f, [0.8 * LAM0, LAM0, 1.1 * np.exp(0.75j * np.pi)])


@pytest.mark.parametrize("cell", [0, -1])
@pytest.mark.parametrize("side", ["left", "right"])
def test_non_finite_transfer_raises_integration_error(grid, soliton, side, cell, monkeypatch):
    """A NaN transfer on one half-line fails the Evans value, the search and the eigenvector.

    It must surface as IntegrationError: neither a NaN Evans value nor a
    NoEigenvalueError from a secant run on garbage.  The NaN goes into the
    first or last cell of one side's transfers (the left side steps by +dx).
    """
    rk4 = lax._rk4_transfer

    def nan_transfer(ma, mm, mb, h):
        t = [e.copy() for e in rk4(ma, mm, mb, h)]
        if (h > 0) == (side == "left") and len(t[0]):
            t[0][cell] = np.nan
        return tuple(t)

    monkeypatch.setattr(lax, "_rk4_transfer", nan_transfer)
    with pytest.raises(IntegrationError):
        evans_function(soliton, LAM0)
    with pytest.raises(IntegrationError):
        find_eigenvalue(soliton, LAM0)
    with pytest.raises(IntegrationError):
        lax._JostWorkspace(soliton).halves(LAM0)


def test_transfers_are_built_once_per_side_and_lambda(soliton, monkeypatch):
    """Each Evans value builds each half-line's transfers once; the eigenvector none.

    The converged lambda's eigenvector reuses the last Evans value's trees,
    and `solve_jost` builds one whole-line scan per side.
    """
    builds, lams = [], []
    rk4, evans = lax._rk4_transfer, lax.evans_function

    def counting_rk4(ma, mm, mb, h):
        builds.append(h > 0)
        return rk4(ma, mm, mb, h)

    def counting_evans(f, lam, _workspace=None):
        lams.append(lam)
        return evans(f, lam, _workspace)

    monkeypatch.setattr(lax, "_rk4_transfer", counting_rk4)
    monkeypatch.setattr(lax, "evans_function", counting_evans)
    res = find_eigenvalue(soliton, 1.05 * LAM0)
    assert res.iterations > 2 and len(lams) == res.iterations + 1
    assert sorted(builds) == [False] * len(lams) + [True] * len(lams)
    builds.clear()
    solve_jost(soliton, res.lam)
    assert sorted(builds) == [False, True]


def test_solve_jost_holds_one_whole_line_tree_at_a_time(soliton):
    """Each side is carried down before the other side's tree is built.

    One n = 4096 solve peaks at 3.02 MB traced; with both whole-line trees
    alive at once it took 3.42 MB.
    """
    solve_jost(soliton, LAM0)
    tracemalloc.start()
    try:
        solve_jost(soliton, LAM0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.1e6


def test_shared_off_diagonal_is_keyed_on_lambda(monkeypatch):
    """One workspace at lambda1, lambda2, lambda1 gives what fresh workspaces give, bit for bit.

    Each scan pair forms L's off-diagonal once and both sides slice it: an
    Evans value builds one for its two half-lines, the eigenvector of the
    latest lambda none (the half-line scans are handed on), and `solve_jost`
    one for both whole-line sides.
    """
    grid = Grid.symmetric(30.0, 1024)
    f = make_perturbed_initial(ExperimentConfig(gamma0=np.pi / 2, epsilon=0.1,
                                                perturbation_seed=2, grid=grid))
    lam1, lam2 = complex(0.9 * LAM0), complex(1.1 * np.exp(0.3j))
    builds = []
    off_diagonal = lax._l_off_diagonal

    def counting(u, v, lam):
        builds.append(lam)
        return off_diagonal(u, v, lam)

    monkeypatch.setattr(lax, "_l_off_diagonal", counting)
    ws = lax._JostWorkspace(f)
    got = [evans_function(f, lam, ws) for lam in (lam1, lam2, lam1)]
    assert builds == [lam1, lam2, lam1]
    shared_halves = ws.halves(lam1)
    assert builds == [lam1, lam2, lam1]
    with monkeypatch.context() as m:
        m.setattr(lax, "_JostWorkspace", lambda _f: ws)
        shared_pair = solve_jost(f, lam1)
    assert builds == [lam1, lam2, lam1, lam1]

    want = [evans_function(f, lam, lax._JostWorkspace(f)) for lam in (lam1, lam2, lam1)]
    assert got == want
    fresh_halves = lax._JostWorkspace(f).halves(lam1)
    for side_got, side_want in zip(shared_halves, fresh_halves):
        for a, b in zip(side_got, side_want):
            assert np.array_equal(a, b) and a.tobytes() == b.tobytes()
    fresh_pair = solve_jost(f, lam1)
    for a, b in ((shared_pair.left, fresh_pair.left), (shared_pair.right, fresh_pair.right)):
        assert a.u.tobytes() == b.u.tobytes() and a.v.tobytes() == b.v.tobytes()


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


def test_find_eigenvalue_fails_when_the_secant_leaves_the_guess(grid_small):
    """A guess far from the gamma = pi/8 eigenvalue e^{i pi/16} sends the secant away."""
    f = soliton_field(polar(np.pi / 8), 0.0, grid_small)
    with pytest.raises(NoEigenvalueError, match="left the guess neighborhood"):
        find_eigenvalue(f, np.exp(0.375j * np.pi))


def test_find_eigenvalue_fails_without_convergence(grid_small, monkeypatch):
    monkeypatch.setattr(lax, "MAX_SECANT_ITERATIONS", 1)
    f = soliton_field(polar(np.pi / 2), 0.0, grid_small)
    with pytest.raises(NoEigenvalueError, match="no convergence in 1 iterations"):
        find_eigenvalue(f, 1.05 * LAM0)


def test_time_bvp_rejects_lambda_outside_the_first_quadrant(grid_small):
    f = soliton_field(polar(np.pi / 2), 0.0, grid_small)
    with pytest.raises(ParameterError, match="require arg"):
        solve_time_bvp(f, np.conj(LAM0), 0.0)


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
    op = assemble_L(soliton_field(polar(np.pi / 2), 0.0, grid), LAM0)
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
    op = assemble_L(soliton_field(polar(gamma), 0.0, grid), np.exp(0.5j * gamma))
    r1 = d_dx(w.u, grid) - (op.a11 * w.u + op.a12 * w.v) - f.u
    r2 = d_dx(w.v, grid) - (op.a21 * w.u + op.a22 * w.v) - f.v
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
    rec = reconstruct(rem)
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
    fields = [f for _, f in evolve_spans(small_field, step_count(5.0, grid.dx), 1)]
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
    fields = [f for _, f in evolve_spans(small_field, step_count(10.0, grid.dx), 1)]
    t_n = (len(fields) - 1) * grid.dx
    pair = solve_time_bvp(fields[-1], lam, t_n)
    m1, _ = gauge_phases(fields[-1])
    varphi1 = np.conj(m1) * np.exp(-P0.k1 * grid.x) * pair.right.u
    size = np.sqrt(integrate(np.abs(small_field.u) ** 2 + np.abs(small_field.v) ** 2, grid))
    assert np.abs(varphi1 - np.exp(1j * t_n * P0.k2)).max() < 5 * size

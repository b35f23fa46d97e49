import numpy as np
import pytest

from mtmlab.errors import FieldValidationError, GridMismatchError
from mtmlab.fields import (
    Grid,
    SpinorField,
    combined_l2_distance,
    inner_product,
    l2_norm_sq,
    read_field_csv,
    read_lax_csv,
    write_field_csv,
    write_lax_csv,
)
from mtmlab.lax import null_vectors
from mtmlab.solitons import soliton_eigenvector, stationary_soliton

from oracles import soliton_charge_quadrature


def test_grid_geometry(grid):
    assert grid.n == 4096
    assert grid.dx == pytest.approx(60.0 / 4096)
    assert grid.x[0] == -30.0
    assert grid.x[-1] == pytest.approx(30.0 - grid.dx)


def test_grid_validation():
    with pytest.raises(FieldValidationError):
        Grid(0.0, -1.0, 64)
    with pytest.raises(FieldValidationError):
        Grid(0.0, 1.0, 4)
    for bounds_and_n in ((np.nan, 1.0, 16), (0.0, np.inf, 16), (-np.inf, 0.0, 16),
                         (0.0, 1.0, 16.5)):
        with pytest.raises(FieldValidationError):
            Grid(*bounds_and_n)


def test_field_validation(grid):
    bad = np.zeros(grid.n, complex)
    bad[7] = np.nan
    with pytest.raises(FieldValidationError):
        SpinorField(grid, bad, np.zeros(grid.n))
    with pytest.raises(FieldValidationError):
        SpinorField(grid, np.zeros(10), np.zeros(10))


def test_fields_are_immutable(grid):
    f = SpinorField.zero(grid)
    with pytest.raises(ValueError):
        f.u[0] = 1.0


def test_charge_zero_field(grid):
    assert l2_norm_sq(SpinorField.zero(grid)) == 0.0


@pytest.mark.parametrize("gamma,expected", [(np.pi / 2, 2 * np.pi), (np.pi / 4, np.pi)])
def test_soliton_charge_values(grid, gamma, expected):
    # oracle: int dy/(cosh y + cos g) = 2g/sin g gives charge 4g
    assert soliton_charge_quadrature(gamma) == pytest.approx(4 * gamma, abs=1e-10)
    f = stationary_soliton(gamma, 0.0, 0.0, 0.0, grid)
    assert l2_norm_sq(f) == pytest.approx(expected, abs=1e-8)


def test_inner_product_is_a_norm(grid, rng):
    u = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
    v = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
    f = SpinorField(grid, u, v)
    ip = inner_product(f, f)
    assert ip.imag == pytest.approx(0.0, abs=1e-12 * abs(ip))
    assert ip.real > 0
    assert ip.real == pytest.approx(l2_norm_sq(f), rel=1e-13)


def test_inner_product_sesquilinear(grid, rng):
    def rand():
        env = np.exp(-grid.x ** 2 / 50)
        return SpinorField(grid, env * (rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)),
                         env * (rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)))

    f, g, h = rand(), rand(), rand()
    a = 0.7 - 1.3j
    lhs = inner_product(f, SpinorField(grid, a * g.u + h.u, a * g.v + h.v))
    rhs = a * inner_product(f, g) + inner_product(f, h)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    lhs2 = inner_product(SpinorField(grid, a * f.u, a * f.v), g)
    assert lhs2 == pytest.approx(np.conj(a) * inner_product(f, g), rel=1e-12)
    assert inner_product(f, g) == pytest.approx(np.conj(inner_product(g, f)), rel=1e-12)


def test_inner_product_grid_mismatch(grid, grid_small):
    with pytest.raises(GridMismatchError):
        inner_product(SpinorField.zero(grid), SpinorField.zero(grid_small))


def test_inner_product_null_vector_pairings(grid):
    # the kernel pair is pointwise orthogonal, but not under sigma3
    phi, eta, _ = null_vectors(np.pi / 2, grid)
    assert abs(inner_product(eta, phi)) < 1e-8
    s3eta = SpinorField(grid, eta.u, -eta.v)
    val = inner_product(s3eta, phi)
    assert abs(val) > 0.1
    assert val.real == pytest.approx(2 * np.pi, abs=1e-8)


def test_quadrature_domain_enlargement(grid):
    f = stationary_soliton(np.pi / 2, 0.0, 0.0, 0.0, grid)
    c30 = l2_norm_sq(f)
    n2 = int(round(80.0 / grid.dx))
    g2 = Grid(-40.0, -40.0 + n2 * grid.dx, n2)
    c40 = l2_norm_sq(stationary_soliton(np.pi / 2, 0.0, 0.0, 0.0, g2))
    assert abs(c40 - c30) / c30 < 1e-10


def test_charge_additivity_disjoint_supports(grid):
    b1 = np.exp(-(grid.x + 12.0) ** 2).astype(complex)
    b2 = 0.5j * np.exp(-(grid.x - 12.0) ** 2)
    zero = np.zeros(grid.n)
    c1 = l2_norm_sq(SpinorField(grid, b1, zero))
    c2 = l2_norm_sq(SpinorField(grid, b2, zero))
    both = l2_norm_sq(SpinorField(grid, b1 + b2, zero))
    assert both == pytest.approx(c1 + c2, rel=1e-12)


def test_field_csv_roundtrip(tmp_path, grid, rng):
    f = SpinorField(grid, rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n),
                    rng.normal(size=grid.n) - 1j * rng.normal(size=grid.n))
    path = tmp_path / "f.csv"
    write_field_csv(f, str(path))
    f2 = read_field_csv(str(path))
    assert f2.grid == grid
    assert np.array_equal(f2.u, f.u)
    assert np.array_equal(f2.v, f.v)


def test_lax_csv_roundtrip(tmp_path, grid):
    vec = soliton_eigenvector(np.pi / 3, 0.0, grid)
    path = tmp_path / "v.csv"
    write_lax_csv(vec, str(path))
    v2 = read_lax_csv(str(path))
    assert np.array_equal(v2.u, vec.u)
    assert np.array_equal(v2.v, vec.v)


def test_csv_header_check(tmp_path, grid):
    path = tmp_path / "v.csv"
    write_lax_csv(soliton_eigenvector(np.pi / 3, 0.0, grid), str(path))
    with pytest.raises(FieldValidationError):
        read_field_csv(str(path))


def test_combined_distance_sums_component_norms(grid):
    f = stationary_soliton(np.pi / 2, 0.0, 0.0, 0.0, grid)
    z = SpinorField.zero(grid)
    du = np.sqrt(l2_norm_sq(SpinorField(grid, f.u, np.zeros(grid.n))))
    dv = np.sqrt(l2_norm_sq(SpinorField(grid, f.v, np.zeros(grid.n))))
    assert combined_l2_distance(f, z) == pytest.approx(du + dv, rel=1e-12)

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtmlab.backlund import backlund_transform
from mtmlab.errors import FieldValidationError, GridMismatchError
from mtmlab.fields import (
    FIELD_CSV_HEADER,
    LAX_CSV_HEADER,
    CellSampler,
    Grid,
    SpinorField,
    combined_l2_distance,
    inner_product,
    l2_norm_sq,
    read_field_csv,
    read_lax_csv,
    unit_phase,
    write_field_csv,
    write_lax_csv,
)
from mtmlab.lax import _JostWorkspace, find_eigenvalue, gauge_transform, null_vectors
from mtmlab.solitons import soliton_eigenvector, soliton_field
from mtmlab.stability import PERTURBATION_SHAPES, ExperimentConfig, make_perturbed_initial

from oracles import EinsumCellSampler, format_rows_per_row, soliton_charge_quadrature
from helpers import polar


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
    f = soliton_field(polar(gamma), 0.0, grid)
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
    with pytest.raises(GridMismatchError):
        combined_l2_distance(SpinorField.zero(grid), SpinorField.zero(grid_small))


def test_inner_product_null_vector_pairings(grid):
    # the kernel pair is pointwise orthogonal, but not under sigma3
    phi, eta, _ = null_vectors(np.pi / 2, grid)
    assert abs(inner_product(eta, phi)) < 1e-8
    s3eta = SpinorField(grid, eta.u, -eta.v)
    val = inner_product(s3eta, phi)
    assert abs(val) > 0.1
    assert val.real == pytest.approx(2 * np.pi, abs=1e-8)


def test_quadrature_domain_enlargement(grid):
    f = soliton_field(polar(np.pi / 2), 0.0, grid)
    c30 = l2_norm_sq(f)
    n2 = int(round(80.0 / grid.dx))
    g2 = Grid(-40.0, -40.0 + n2 * grid.dx, n2)
    c40 = l2_norm_sq(soliton_field(polar(np.pi / 2), 0.0, g2))
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


#: computed half-widths; several neighbouring x_max write the same x column
_COMPUTED_HALF_WIDTHS = (10 * np.pi, 30 / np.sqrt(2), 16 / np.sin(0.3), 7 * np.e,
                         12.345678901234567)


@pytest.mark.parametrize("x_min,x_max,n", [(-30.0, 30.0, 1000), (-30.0, 30.0, 777),
                                           (-25.0, 25.0, 3000), (-7.0, 7.0, 100),
                                           (-33.3, 33.3, 5000), (-3.7, 1.85, 1000)]
                         + [(-h, h, n) for h in _COMPUTED_HALF_WIDTHS
                            for n in (100, 777, 1000, 3000, 4096)])
def test_csv_roundtrip_keeps_non_dyadic_grid(tmp_path, x_min, x_max, n):
    """A field read from its own file is on the grid it was written from.

    None of these grids can be told from its x column alone.  On the first
    three the first difference of the column gave x_max 2e-12 too small
    (29.99999999999872 at L = 30, n = 1000); on the next two the mean
    spacing misses x_max by an ulp or two.  On the last one and on many of
    the computed half-widths, neighbouring x_max write the same column
    (19.027972799213316 and 19.02797279921332 at 7e).  The grid line keeps
    the bounds.
    """
    grid = Grid(x_min, x_max, n)
    f = soliton_field(polar(np.pi / 2), 0.0, grid)
    path = tmp_path / "f.csv"
    write_field_csv(f, str(path))
    f2 = read_field_csv(str(path))
    assert f2.grid == grid
    assert np.array_equal(f2.grid.x, grid.x)
    assert np.array_equal(f2.u, f.u)


def test_lax_csv_roundtrip(tmp_path, grid):
    vec = soliton_eigenvector(np.pi / 3, 0.0, grid)
    path = tmp_path / "v.csv"
    write_lax_csv(vec, str(path))
    v2 = read_lax_csv(str(path))
    assert np.array_equal(v2.u, vec.u)
    assert np.array_equal(v2.v, vec.v)


def _finite_bit_patterns(seed: int, shape) -> np.ndarray:
    """Finite float64s of the given shape from raw 64-bit patterns, non-finite ones redrawn."""
    rng = np.random.default_rng(seed)
    vals = rng.bit_generator.random_raw(np.prod(shape)).view(np.float64).reshape(shape)
    while not np.isfinite(vals).all():
        bad = ~np.isfinite(vals)
        vals[bad] = rng.bit_generator.random_raw(np.count_nonzero(bad)).view(np.float64)
    return vals


#: signed zeros, the smallest subnormals, the largest finite and the smallest normal
_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324,
                1.7976931348623157e308, -1.7976931348623157e308, 2.2250738585072014e-308, -0.0]


@pytest.mark.parametrize("write,read", [(write_field_csv, read_field_csv),
                                        (write_lax_csv, read_lax_csv)])
def test_csv_roundtrip_keeps_the_sign_of_zero(tmp_path, write, read):
    # row j holds -0 in re u, im u, re v, im v where bits 0, 1, 2, 3 of j are
    # set: every sign pattern of the four slots once
    grid = Grid.symmetric(30.0, 16)
    j = np.arange(16)
    parts = [np.where(j & (1 << b), -0.0, 0.0) for b in range(4)]
    u, v = np.empty(16, dtype=np.complex128), np.empty(16, dtype=np.complex128)
    u.real, u.imag, v.real, v.imag = parts
    path = str(tmp_path / "zeros.csv")
    write(SpinorField(grid, u, v), path)
    back = read(path)
    assert back.u.tobytes() == u.tobytes()
    assert back.v.tobytes() == v.tobytes()


@given(w=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=64))
@example(w=[0.0, -0.0, 5e-324, -5e-324, 1e6, -1e6])
def test_unit_phase_equals_complex_exp(w):
    w = np.array(w)
    want = np.exp(1j * w)
    out = np.empty(len(w), dtype=np.complex128)
    assert unit_phase(w, out=out) is out
    for got in (unit_phase(w), out):
        assert np.array_equal(got, want)
        # bit for bit but at w = -0, where np.exp(1j * w) has imaginary part +0
        exact = ~((w == 0) & np.signbit(w))
        assert got[exact].tobytes() == want[exact].tobytes()


@settings(max_examples=30)
@given(n=st.sampled_from((8, 777, 4096)), x_min=st.floats(-1e6, 1e6),
       width=st.floats(1e-3, 1e6), seed=st.integers(0, 2 ** 32 - 1),
       head=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=24))
def test_csv_writers_match_the_per_row_formatter(tmp_path_factory, n, x_min, width, seed, head):
    """Both writers give the bytes of one %.17g per value, row by row.

    The bulk of the values are raw bit patterns from a seeded generator, so
    that Hypothesis draws a few numbers per example, not 4n; the edge values
    and the floats Hypothesis favours (short decimals, powers of two) lead.
    """
    vals = _finite_bit_patterns(seed, (n, 4))
    lead = [*_EDGE_VALUES, *head]       # at most 32: they fit the smallest array
    vals.ravel()[:len(lead)] = lead
    grid = Grid(x_min, x_min + width, n)
    # each row's (re u, im u, re v, im v) read as two complex numbers, so that
    # no arithmetic touches the signs of zeros
    uv = vals.view(np.complex128)
    f = SpinorField(grid, uv[:, 0], uv[:, 1])
    path = tmp_path_factory.mktemp("csv") / "f.csv"
    for write, read, header in ((write_field_csv, read_field_csv, FIELD_CSV_HEADER),
                                (write_lax_csv, read_lax_csv, LAX_CSV_HEADER)):
        write(f, str(path))
        want = format_rows_per_row(grid, f.u, f.v, header)
        assert path.read_bytes() == want.encode()
        back = read(str(path))
        assert back.grid == grid
        assert np.array_equal(back.u, f.u) and np.array_equal(back.v, f.v)


def test_csv_writers_match_the_per_row_formatter_on_pipeline_fields(tmp_path):
    """The n = 4096 fields of the snapshot pipeline (gamma = pi/2, eps = 0.01): the
    perturbed soliton, its eigenvector and the small field the down map leaves."""
    path = tmp_path / "f.csv"
    for shape in PERTURBATION_SHAPES:
        f = make_perturbed_initial(ExperimentConfig(
            gamma0=np.pi / 2, epsilon=0.01, perturbation_seed=7, perturbation_shape=shape,
            grid=Grid.symmetric(30.0, 4096)))
        res = find_eigenvalue(f, np.exp(0.25j * np.pi))
        for g in (f, res.eigenvector, backlund_transform(f, res.eigenvector, res.lam)):
            for write, header in ((write_field_csv, FIELD_CSV_HEADER),
                                  (write_lax_csv, LAX_CSV_HEADER)):
                write(g, str(path))
                assert path.read_bytes() == format_rows_per_row(g.grid, g.u, g.v, header).encode()


def test_csv_writer_takes_the_longest_file_name(tmp_path, grid_small):
    """The temporary file's name does not grow with the target's: a 255-byte name works."""
    f = SpinorField.zero(grid_small)
    path = tmp_path / ("a" * 251 + ".csv")
    write_field_csv(f, str(path))
    assert read_field_csv(str(path)).grid == grid_small
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_csv_writer_redraws_a_taken_temporary_name(tmp_path, grid_small, monkeypatch):
    taken = tmp_path / "tmp00000000.tmp"
    taken.write_bytes(b"kept")
    draws = iter([b"\0" * 4, b"\1" * 4])
    monkeypatch.setattr("os.urandom", lambda n: next(draws))
    write_field_csv(SpinorField.zero(grid_small), str(tmp_path / "f.csv"))
    assert taken.read_bytes() == b"kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.csv", "tmp00000000.tmp"]


def test_csv_writer_gives_up_when_every_temporary_name_is_taken(tmp_path, grid_small,
                                                                 monkeypatch):
    taken = tmp_path / "tmp00000000.tmp"
    taken.write_bytes(b"kept")
    draws = []
    monkeypatch.setattr("os.urandom", lambda n: draws.append(n) or b"\0" * n)
    with pytest.raises(FileExistsError, match="no free temporary file name in"):
        write_field_csv(SpinorField.zero(grid_small), str(tmp_path / "f.csv"))
    assert len(draws) == 16
    assert taken.read_bytes() == b"kept"
    assert [p.name for p in tmp_path.iterdir()] == ["tmp00000000.tmp"]


def test_failed_write_removes_its_temporary_file(tmp_path, grid_small):
    """The rename onto a directory fails; the temporary file beside it is removed."""
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(OSError):
        write_field_csv(SpinorField.zero(grid_small), str(target))
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert not any(target.iterdir())


def test_csv_header_check(tmp_path, grid):
    path = tmp_path / "v.csv"
    write_lax_csv(soliton_eigenvector(np.pi / 3, 0.0, grid), str(path))
    with pytest.raises(FieldValidationError):
        read_field_csv(str(path))


def _set_cell(row, col, text):
    def edit(lines):
        cells = lines[row].split(",")
        cells[col] = text
        return lines[:row] + [",".join(cells)] + lines[row + 1:]
    return edit


#: edits of a valid n = 16 snapshot's lines, and a phrase of the error each must raise
_MALFORMED = {
    "old-format": (lambda lines: lines[:1] + lines[2:], "grid line"),
    "header-only": (lambda lines: lines[:1], "grid line"),
    "no-rows": (lambda lines: lines[:2], "expected 16 rows, got 0"),
    "row-missing": (lambda lines: lines[:-1], "expected 16 rows, got 15"),
    "row-extra": (lambda lines: lines + lines[-1:], "expected 16 rows, got 17"),
    "other-grid": (lambda lines: [lines[0], "# x_min=-30 x_max=30.5 n=16"] + lines[2:],
                   "x column"),
    "x-off-grid": (_set_cell(2, 0, "-29.5"), "x column"),
    "non-numeric": (_set_cell(5, 3, "abc"), "abc"),
    "short-row": (lambda lines: lines[:7] + ["1,2,3"] + lines[8:], "columns"),
    "long-row": (lambda lines: lines[:7] + [lines[7] + ",0"] + lines[8:], "columns"),
    "invalid-grid": (lambda lines: [lines[0], "# x_min=1 x_max=0 n=8"] + lines[2:],
                     "invalid grid line .* grid requires x_max > x_min"),
    "four-columns": (lambda lines: lines[:2] + [row.rsplit(",", 1)[0] for row in lines[2:]],
                     "expected 5 columns, got 4"),
}


@pytest.mark.parametrize("edit,reason", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_csv_reader_rejects_malformed_files(tmp_path, edit, reason):
    """Each malformed snapshot raises FieldValidationError naming the file, with no warning.

    The old format without the grid line is among them: its x column alone
    does not fix the grid.
    """
    path = tmp_path / "f.csv"
    write_field_csv(soliton_field(polar(np.pi / 2), 0.0, Grid.symmetric(30.0, 16)),
                    str(path))
    path.write_text("".join(line + "\n" for line in edit(path.read_text().splitlines())))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FieldValidationError, match=reason) as exc:
            read_field_csv(str(path))
    assert str(exc.value).startswith(f"{path}: ")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("col", [1, 2, 3, 4])
@pytest.mark.parametrize("writer,reader,header", [
    (write_field_csv, read_field_csv, FIELD_CSV_HEADER),
    (write_lax_csv, read_lax_csv, LAX_CSV_HEADER)], ids=["field", "lax"])
def test_csv_reader_names_a_non_finite_cell(tmp_path, writer, reader, header, col, value):
    """A non-finite value cell is rejected with the file, its line and its column's name."""
    path = tmp_path / "f.csv"
    writer(soliton_field(polar(np.pi / 2), 0.0, Grid.symmetric(30.0, 16)), str(path))
    path.write_text("".join(line + "\n" for line in _set_cell(6, col, value)(
        path.read_text().splitlines())))
    name = header.split(",")[col]
    with pytest.raises(FieldValidationError) as exc:
        reader(str(path))
    assert str(exc.value) == f"{path}: line 7, column {name!r}: non-finite value {float(value)}"


def test_combined_distance_sums_component_norms(grid):
    f = soliton_field(polar(np.pi / 2), 0.0, grid)
    z = SpinorField.zero(grid)
    du = np.sqrt(l2_norm_sq(SpinorField(grid, f.u, np.zeros(grid.n))))
    dv = np.sqrt(l2_norm_sq(SpinorField(grid, f.v, np.zeros(grid.n))))
    assert combined_l2_distance(f, z) == pytest.approx(du + dv, rel=1e-12)


def _cubic(rng):
    """A cubic in s = x/30 with coefficients in [-1, 1] + i[-1, 1], and its antiderivative in x."""
    c = rng.uniform(-1.0, 1.0, size=4) + 1j * rng.uniform(-1.0, 1.0, size=4)
    antiderivative = np.r_[0.0, c / [1, 2, 3, 4]]
    return (lambda x: np.polynomial.polynomial.polyval(x / 30.0, c),
            lambda x: 30.0 * np.polynomial.polynomial.polyval(x / 30.0, antiderivative))


@pytest.mark.parametrize("n", [8, 9, 1000, 4096])
def test_cell_rules_are_exact_on_cubics(rng, n):
    """Every cell class's midpoint, half-cell and whole-cell rule is exact on cubics.

    The stencils of the first and last cells are clamped, so each class has
    its own row; any wrong row shows as an O(dx) error at its cell.  The
    whole-cell integrals are the steps of the running integral, which also
    holds the cumulative sum's own rounding.
    """
    grid = Grid.symmetric(30.0, n)
    x, dx = grid.x, grid.dx
    p, antiderivative = _cubic(rng)
    cs = CellSampler(grid)
    for got, want in ((cs.midpoints(p(x)), p(x[:-1] + 0.5 * dx)),
                      (cs.half_cell_integrals(p(x)),
                       antiderivative(x[:-1] + 0.5 * dx) - antiderivative(x[:-1])),
                      (np.diff(cs.running_integral(p(x))), np.diff(antiderivative(x)))):
        assert got.shape == want.shape
        for row in (0, -1, slice(None)):
            assert np.abs(got[row] - want[row]).max() <= 1e-13
    running = cs.running_integral(p(x))
    assert np.abs(running - (antiderivative(x) - antiderivative(x[0]))).max() <= 2e-12


@pytest.mark.parametrize("n", [8, 9, 1000, 4096])
def test_cell_rules_match_per_cell_einsum(rng, n):
    """The exact cell rules agree with the per-cell Lagrange weights at tau = 1/2 and tau = 1.

    Checked normwise over all cells and separately on the first and last
    cells, whose clamped stencils use their own rows.  The samples lie in
    [1, 2] + i[1, 2], so no cell's sum cancels and each cell's relative
    difference measures its weights.  The last cell's whole-cell integral is
    read off the running integral of a field that vanishes but on the last
    stencil, so the sum it ends carries few terms.
    """
    grid = Grid.symmetric(30.0, n)
    f = rng.uniform(1.0, 2.0, size=n) + 1j * rng.uniform(1.0, 2.0, size=n)
    cs, ref = CellSampler(grid), EinsumCellSampler(grid)
    tail = np.where(np.arange(n) >= n - 4, f, 0.0)
    for got, want in ((cs.midpoints(f), ref.values(f, 0.5)[:, 0]),
                      (cs.half_cell_integrals(f), ref.cell_integrals(f, 0.5)[:, 0]),
                      (cs.running_integral(f), ref.running_integral(f)),
                      (cs.running_integral(f)[1:2], ref.cell_integrals(f, 1.0)[:1, 0]),
                      (np.diff(cs.running_integral(tail))[-1:],
                       ref.cell_integrals(tail, 1.0)[-1:, 0])):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        for row in (0, -1):
            assert abs(got[row] - want[row]) <= 1e-14 * abs(want[row])


def test_workspace_cell_ends_are_grid_samples(rng):
    """The Jost workspace's cell starts and ends are the field and gauge samples bit for bit."""
    grid = Grid.symmetric(30.0, 1000)
    f = SpinorField(grid, rng.normal(size=1000) + 1j * rng.normal(size=1000),
                    rng.normal(size=1000) + 1j * rng.normal(size=1000))
    ws = _JostWorkspace(f)
    acc = gauge_transform(f)
    for nodes, samples in ((ws.u_nodes, f.u), (ws.v_nodes, f.v),
                           (ws.e_left, unit_phase(-2.0 * acc)),
                           (ws.e_right, unit_phase(2.0 * (acc[-1] - acc)))):
        assert nodes[0].tobytes() == samples[:-1].tobytes()
        assert nodes[2].tobytes() == samples[1:].tobytes()

"""The vectorized %.17g kernel against CPython's per-value conversion."""

from fractions import Fraction

import numpy as np
import pytest

from mtmlab.g17 import _pow10_table, g17_cells, g17_csv_rows


def g17_strings(values) -> list[str]:
    """The kernel's text of each value."""
    text = g17_cells(np.asarray(values)).tobytes().translate(None, b"\0")
    return text.decode().split(",")[:-1]


def assert_matches_percent(values):
    values = np.asarray(values, dtype=np.float64)
    got = g17_strings(values)
    want = ["%.17g" % v for v in values.tolist()]
    wrong = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not wrong, wrong[:10]


def _ulps_around(centers, k=3):
    """centers and their k neighbouring floats on each side, with both signs."""
    out = [np.asarray(centers, dtype=np.float64)]
    for direction in (np.inf, 0.0):
        x = out[0]
        for _ in range(k):
            x = np.nextafter(x, direction)
            out.append(x)
    out = np.concatenate(out)
    return np.concatenate([out, -out])


_RNG = np.random.default_rng(20261019)

_EDGES = {
    "powers-of-ten": _ulps_around([float(f"1e{e}") for e in range(-323, 309)]),
    # 18 significant digits ending in 5: halfway between two 17-digit decimals
    "near-ties": [float(f"{m}5e{e}") for m, e in zip(
        _RNG.integers(10 ** 16, 10 ** 17, 2000).tolist(),
        _RNG.integers(-300, 290, 2000).tolist())],
    "fast-range": _ulps_around([1e-280, 1e280]),
    "subnormals-zeros-max": [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                             2.2250738585072014e-308, 1.7976931348623157e308,
                             -1.7976931348623157e308, 1.5e-310, -7.2e-320],
    "layout-switches": _ulps_around([1e-5, 1e-4, 1e16, 1e17, 9.99999999999999995e-5,
                                     9.9999999999999998e-13, 99999999999999999.0], 5),
    "three-digit-exponents": [1e100, -1e-100, 1.2345e-150, 6.02e250, 1.5e-279, 9.87654321e279],
    "positional": [100.0, 1.0, 10.0, 123.5, -30.0, 0.1, 2.5e15, 1234567.890625, 0.00012],
}


@pytest.mark.parametrize("values", _EDGES.values(), ids=_EDGES.keys())
def test_g17_matches_percent_on_edge_values(values):
    assert_matches_percent(values)


def test_g17_matches_percent_on_random_bit_patterns():
    bits = _RNG.integers(0, 2 ** 64, 100_000, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    assert_matches_percent(values[np.isfinite(values)])


def test_g17_matches_percent_on_scaled_normals():
    values = _RNG.normal(size=50_000) * 10.0 ** _RNG.integers(-30, 30, 50_000)
    assert_matches_percent(values)


def test_g17_csv_rows_lay_out_cells():
    values = np.array([[1.0, -0.0], [1e-7, 2.5], [-3.0, 1e300]])
    assert g17_cells(values).shape == (3, 2, 6)
    lead = g17_cells(np.array([0.5, 7.0, -1e-5]))
    assert g17_csv_rows(values, lead) == (b"0.5,1,-0\n7,9.9999999999999995e-08,2.5\n"
                                          b"-1.0000000000000001e-05,-3,1.0000000000000001e+300\n")


def test_g17_csv_rows_match_percent_across_blocks():
    """More rows than one kernel call takes: the blocks join seamlessly."""
    values = _RNG.normal(size=(5000, 4))
    want = "".join("%.17g,%.17g,%.17g,%.17g\n" % tuple(row) for row in values.tolist())
    assert g17_csv_rows(values[:, 1:], g17_cells(values[:, 0])) == want.encode()


def test_pow10_table_is_the_exact_double_double():
    for p, hi, lo in zip(range(-300, 301), *(part.tolist() for part in _pow10_table())):
        exact = Fraction(10) ** p
        assert hi == float(exact), p
        assert lo == float(exact - Fraction(hi)), p

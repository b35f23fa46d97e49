"""Lax operators, gauge transform, Jost solutions, Evans-function eigenvalue search.

The spatial spectral problem d/dx psi = L(u, v, lambda) psi is solved in a
gauge-transformed frame that removes the (i/4)(|u|^2-|v|^2) sigma3 term and
the constant diagonal exponent, so the reduced unknowns stay O(1) and each
one-sided solution is integrated in its numerically stable direction.  One
RK4 step crosses each cell; its start and end are grid samples and its
midpoint values come from the exact cubic rules of `CellSampler`.  The
gauge exponentials depend on the field alone and are computed once per
field, as unit phases from cos and sin.  Per lambda, one call forms L's
off-diagonal once and builds both sides' transfers from it on flat entry
arrays, in the order each side's scan meets them (the left side forward
from x_min, the right side backward from the right edge); the solution is
carried through the transfers by a tree scan: pairwise products up a
balanced tree, then the vector down it, about ncell 2x2 products and ncell
matrix-vector products per side.
An eigenvalue exists exactly when the two one-sided (Jost) solutions are
collinear; the Evans function measures that at the matching point j0 and
a complex secant iteration finds its roots.  The Evans function scans each
side over its own half-line only, from its edge to j0, and reads the
vector at j0 off one root-to-leaf path of that tree; the converged
lambda's eigenvector is carried down the same half-line trees.
`solve_jost` keeps the whole-line two-sided scan that the Backlund up map
and the time boundary-value problem need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateExponentError,
    DegenerateVectorError,
    IntegrationError,
    NoEigenvalueError,
    OrthogonalityError,
    ParameterError,
)
from .fields import (
    CellSampler,
    Grid,
    SpinorField,
    all_finite,
    inner_product,
    integrate,
    l2_norm,
    unit_phase,
)
from .solitons import (  # noqa: F401  (csech stays a module attribute bench/tracing.py counts)
    SpectralParameter,
    csech,
    require_finite,
    require_gamma,
    require_lambda,
    soliton_eigenvector,
)

EVANS_TOL = 1e-10
MAX_SECANT_ITERATIONS = 50
#: resolvent_solve projects away an eta part below this relative size
ORTHOGONALITY_RTOL = 1e-6


# ---------------------------------------------------------------------------
# Lax operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LaxOperatorSample:
    """A 2x2 matrix sampled at every grid point (entries a11, a12, a21, a22)."""

    grid: Grid
    a11: np.ndarray
    a12: np.ndarray
    a21: np.ndarray
    a22: np.ndarray


def _l_off_diagonal(u: np.ndarray, v: np.ndarray, lam: complex):
    """L's off-diagonal (a12, a21) = ((i/2)(conj(u)/lam - conj(v) lam), (i/2)(u/lam - v lam))."""
    return 0.5j * (np.conj(u) / lam - np.conj(v) * lam), 0.5j * (u / lam - v * lam)


def assemble_L(f: SpinorField, lam: complex) -> LaxOperatorSample:
    """Spatial Lax operator: traceless, diagonal (i/4)(|u|^2-|v|^2+lam^2-lam^-2)."""
    lam = require_lambda(lam)
    u, v = f.u, f.v
    diag = 0.25j * (np.abs(u) ** 2 - np.abs(v) ** 2 + lam ** 2 - lam ** -2)
    return LaxOperatorSample(f.grid, diag, *_l_off_diagonal(u, v, lam), -diag)


def assemble_A(f: SpinorField, lam: complex) -> LaxOperatorSample:
    """Temporal Lax operator: traceless, diagonal (i/4)(lam^2+lam^-2-|u|^2-|v|^2)."""
    lam = require_lambda(lam)
    u, v = f.u, f.v
    diag = 0.25j * (-(np.abs(u) ** 2 + np.abs(v) ** 2) + lam ** 2 + lam ** -2)
    a12 = -0.5j * (np.conj(u) / lam + np.conj(v) * lam)
    a21 = -0.5j * (u / lam + v * lam)
    return LaxOperatorSample(f.grid, diag, a12, a21, -diag)


# ---------------------------------------------------------------------------
# gauge transform
# ---------------------------------------------------------------------------

def _phase_density(f: SpinorField) -> np.ndarray:
    return 0.25 * (np.abs(f.u) ** 2 - np.abs(f.v) ** 2)


def gauge_transform(f: SpinorField) -> np.ndarray:
    """Gauge phase A(x) = (1/4) int_{x_min}^x (|u|^2 - |v|^2), zero at x_min.

    The running integral uses the cumulative cubic rule of `CellSampler`.
    The unit-modulus gauge that removes the |u|^2-|v|^2 term from L scales
    (phi1, phi2) by (m, conj(m)), with m1 = e^{iA} based at the left edge or
    m2 = e^{i(A(x_last) - A)} based at the right edge; m1 m2 is the constant
    total phase.
    """
    return CellSampler(f.grid).running_integral(_phase_density(f))


# ---------------------------------------------------------------------------
# Jost solutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class JostPair:
    """One-sided solutions of the spatial problem in the original variables.

    `left` is recessive as x -> -inf, `right` as x -> +inf.
    """

    lam: complex
    left: SpinorField
    right: SpinorField


def _mul2(a, b):
    """Entrywise 2x2 product of (m00, m01, m10, m11) tuples of arrays or scalars."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
            a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)


def _rk4_transfer(ma, mm, mb, h):
    """RK4 transfer matrices for w' = M(x) w over one cell, as entry tuples.

    ma, mm, mb are M at the cell's start, midpoint and end, each given as
    (m00, m01, m10, m11) with (ncell,) arrays or scalars as entries.
    """
    k1 = ma
    k2 = [m + (0.5 * h) * p for m, p in zip(mm, _mul2(mm, k1))]
    k3 = [m + (0.5 * h) * p for m, p in zip(mm, _mul2(mm, k2))]
    k4 = [m + h * p for m, p in zip(mb, _mul2(mb, k3))]
    return tuple(e + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
                 for e, a, b, c, d in zip((1.0, 0.0, 0.0, 1.0), k1, k2, k3, k4))


def _apply2(m, w):
    """Entrywise 2x2 matrix-vector product: (m00, m01, m10, m11) times (w0, w1)."""
    return (m[0] * w[0] + m[1] * w[1], m[2] * w[0] + m[3] * w[1])


def _up_sweep(transfers) -> list[tuple]:
    """The up-sweep of the tree scan over transfers given in scan order.

    Level k holds the products of the complete blocks of 2^k consecutive
    transfers, aligned at the first one, later times earlier; a trailing
    incomplete block is left out.  The levels stop at one block.
    """
    levels = [tuple(transfers)]
    while len(levels[-1][0]) > 1:
        lv = levels[-1]
        even = len(lv[0]) & ~1
        levels.append(_mul2([e[1:even:2] for e in lv], [e[0:even:2] for e in lv]))
    return levels


def _down_sweep(levels, w0) -> np.ndarray:
    """Carry w0 down the tree: the vector at every block start, (2, ncell+1).

    Splitting level k, the start of each block's second half is the block's
    first half applied to the block's start.  A start exists at every
    multiple of 2^k up to ncell, so every block applied is complete.
    """
    ncell = len(levels[0][0])
    w = np.array(w0, dtype=np.complex128)[:, None]
    for k in reversed(range(len(levels))):
        count = (ncell >> k) + 1
        starts = np.empty((2, count), dtype=np.complex128)
        starts[:, 0::2] = w
        starts[:, 1::2] = _apply2([e[0::2] for e in levels[k]], w[:, :count // 2])
        w = starts
    return w


def _scan_end(levels, w0) -> np.ndarray:
    """The down-sweep's last vector alone, (2, 1): one root-to-leaf path.

    It applies, from the top, the block that ends at ncell on each level
    where ncell has a set bit: one 2x2 matrix-vector product per set bit,
    on length-1 slices, so it rounds exactly as the down-sweep does.
    """
    ncell = len(levels[0][0])
    w = np.array(w0, dtype=np.complex128)[:, None]
    for k in reversed(range(len(levels))):
        b = ncell >> k
        if b & 1:
            w = np.array(_apply2([e[b - 1:b] for e in levels[k]], w))
    return w


def _require_finite(w: np.ndarray) -> np.ndarray:
    """w itself; IntegrationError if any entry is non-finite."""
    if not all_finite(w):
        raise IntegrationError("Jost integration produced non-finite values")
    return w


def _carry(scans, sweep=_down_sweep):
    """Both reduced vectors by sweep, in grid order; the right is drawn after the left's sweep."""
    scans = iter(scans)
    return _require_finite(sweep(*next(scans))), _require_finite(sweep(*next(scans)))[:, ::-1]


class _JostWorkspace:
    """Per-field precomputation shared by repeated lambda solves.

    Each cell is crossed by one RK4 step, so the field and the gauge
    exponentials are needed at the cell start, midpoint and end (node
    arrays of shape (3, ncell)).  j0 is the matching point, the grid point
    nearest x = 0.  The gauge phase density, its sampler and the four
    unit-modulus gauge arrays (from `unit_phase`) are formed once per field.
    `scans` is the one place a lambda's transfers are built: from one
    evaluation of L's off-diagonal at the cell nodes it builds both sides'
    scans, on the whole line for `reduced` or toward j0 for the Evans
    function, and multiplies them up the tree.  `_halves` hands the latest
    half-line scans of a search on to its eigenvector.
    """

    def __init__(self, f: SpinorField):
        self.grid = f.grid
        self.j0 = int(np.argmin(np.abs(f.grid.x)))
        cs = CellSampler(f.grid)
        self.u_nodes = np.stack((f.u[:-1], cs.midpoints(f.u), f.u[1:]))
        self.v_nodes = np.stack((f.v[:-1], cs.midpoints(f.v), f.v[1:]))
        self._halves: tuple | None = None
        density = _phase_density(f)
        acc = cs.running_integral(density)                 # gauge_transform(f), at grid nodes
        acc_nodes = np.stack((acc[:-1], acc[:-1] + cs.half_cell_integrals(density), acc[1:]))
        # left-edge gauge m1 = e^{iA} and right-edge gauge m2 = e^{i(A_last - A)}
        # at the grid; p carries e^{-2iA} (left) or e^{2i(A_last - A)} (right)
        self.m1 = unit_phase(acc)
        self.m2 = unit_phase(acc[-1] - acc)
        self.e_left = unit_phase(-2.0 * acc_nodes)
        self.e_right = unit_phase(2.0 * (acc[-1] - acc_nodes))

    def scans(self, lam: complex, toward_j0: bool):
        """Up-sweep levels and init of the left, then the right scan at lam.

        Both cross the whole line, or with toward_j0 the left one cells
        [0, j0) and the right one [j0, ncell).  L's (a12, a21) is formed once
        on the whole line and both sides slice it.  Each side's tree is built
        when the iterator reaches it, so a caller that sweeps one side before
        drawing the next holds one tree at a time.
        """
        k1 = SpectralParameter(lam).k1
        a12, a21 = _l_off_diagonal(self.u_nodes, self.v_nodes, lam)
        cells = (slice(0, self.j0), slice(self.j0, None)) if toward_j0 else (slice(None),) * 2
        return (self._scan(k1, a12[:, at], a21[:, at], e[:, at], forward)
                for forward, at, e in ((True, cells[0], self.e_left),
                                       (False, cells[1], self.e_right)))

    def _scan(self, k1: complex, a12, a21, e, forward: bool):
        """One side's (levels, init) from L's off-diagonal and the edge's node factor e.

        The left side factors exp(-x k1) off the solution recessive at -inf,
        takes the gauge from the left edge and init (0, 1), and runs forward;
        the right one factors exp(+x k1), takes the gauge from the right edge
        and init (1, 0), and runs backward, so its transfers are reversed.
        Re k1 > 0 swaps the envelopes.  The gauge frame's off-diagonal is
        p = a12 e, q = a21 / e.
        """
        p, q = a12 * e, a21 / e
        if forward != (k1.real > 0):
            # solution = envelope e^{-x k1} times w: w1' = 2 k1 w1 + p w2, w2' = q w1
            d0, d1, init = 2.0 * k1, 0.0, (0.0, 1.0)
        else:
            # solution = envelope e^{+x k1} times w: w1' = p w2, w2' = -2 k1 w2 + q w1
            d0, d1, init = 0.0, -2.0 * k1, (1.0, 0.0)
        nodes = [(d0, p[j], q[j], d1) for j in range(3)]
        if forward:
            transfers = _rk4_transfer(*nodes, self.grid.dx)
        else:
            transfers = [t[::-1] for t in _rk4_transfer(*nodes[::-1], -self.grid.dx)]
        return _up_sweep(transfers), init

    def _half_scans(self, lam: complex):
        """`scans(lam, toward_j0=True)`, kept for the latest lambda only."""
        if self._halves is None or self._halves[0] != lam:
            self._halves = (lam, tuple(self.scans(lam, toward_j0=True)))
        return self._halves[1]

    def reduced(self, lam: complex):
        """Both reduced Jost trajectories on the whole line, (2, n) each: left, right."""
        return _carry(self.scans(lam, toward_j0=False))

    def original(self, lam: complex, side: str, w: np.ndarray, at: slice):
        """The side's solution (phi1, phi2) on grid slice `at` from reduced w there.

        The envelope, exp(-k1 x) on the left and exp(+k1 x) on the right
        (swapped when Re k1 > 0), and the edge's gauge are multiplied back in.
        """
        k1 = SpectralParameter(lam).k1
        sign_left = +1 if k1.real > 0 else -1     # left envelope exp(sign * k1 * x)
        x = self.grid.x[at]
        if side == "left":
            env, m = np.exp(sign_left * k1 * x), self.m1[at]
            return m * env * w[0], np.conj(m) * env * w[1]
        env, m = np.exp(-sign_left * k1 * x), self.m2[at]
        return np.conj(m) * env * w[0], m * env * w[1]

    def matching_values(self, lam: complex):
        """Both solutions at j0 alone, ((phi1, phi2) left, (phi1, phi2) right).

        Each comes from its half-line's root-to-leaf path; the products stay
        length-1 arrays until the scalars are taken, so they round as the
        whole-line solutions do at j0.
        """
        at = slice(self.j0, self.j0 + 1)
        wl, wr = _carry(self._half_scans(lam), _scan_end)
        return ([c[0] for c in self.original(lam, "left", wl, at)],
                [c[0] for c in self.original(lam, "right", wr, at)])

    def halves(self, lam: complex):
        """The left solution on [0, j0] and the right one on [j0, n), as (phi1, phi2).

        Each side is carried down its own half-line tree only.
        """
        wl, wr = _carry(self._half_scans(lam))
        return (self.original(lam, "left", wl, slice(0, self.j0 + 1)),
                self.original(lam, "right", wr, slice(self.j0, None)))


def _require_split(lam) -> complex:
    """lam as a complex number; DegenerateExponentError if lam^2 is (numerically) real."""
    lam = require_lambda(lam)
    l2 = lam ** 2
    if abs(l2.imag) <= 1e-12 * abs(l2):
        raise DegenerateExponentError(
            "lambda^2 is (numerically) real: spatial exponents degenerate")
    return lam


def solve_jost(f: SpinorField, lam: complex) -> JostPair:
    """Integrate the spatial problem from each edge with free asymptotics.

    Returns both one-sided solutions in the original (ungauged) variables
    on the whole line: left(x_min) = (0, exp(-k1 x_min)) and
    right(x_last) = (exp(k1 x_last), 0) exactly, where x_last is the last
    grid sample.
    """
    lam = _require_split(lam)
    ws = _JostWorkspace(f)
    grid = ws.grid
    wl, wr = ws.reduced(lam)
    left = ws.original(lam, "left", wl, slice(None))
    right = ws.original(lam, "right", wr, slice(None))
    return JostPair(lam, SpinorField(grid, *left), SpinorField(grid, *right))


def evans_function(f: SpinorField, lam: complex,
                   _workspace: _JostWorkspace | None = None) -> complex:
    """Wronskian of the unit-rescaled Jost solutions at x ~ 0; zero iff eigenvalue.

    Each solution is scanned over its own half-line only, from its edge to
    the matching point j0, and only its value at j0 is formed.  So it
    raises IntegrationError when the scan toward j0 goes non-finite, but
    overflow in a solution beyond j0 is never computed and does not fail.
    """
    lam = _require_split(lam)
    ws = _workspace if _workspace is not None else _JostWorkspace(f)
    (l1, l2_), (r1, r2) = ws.matching_values(lam)
    nl = np.sqrt(abs(l1) ** 2 + abs(l2_) ** 2)
    nr = np.sqrt(abs(r1) ** 2 + abs(r2) ** 2)
    if nl == 0 or nr == 0:
        raise DegenerateVectorError("Jost solution vanished at the matching point")
    return complex((l1 * r2 - l2_ * r1) / (nl * nr))


@dataclass(frozen=True, eq=False)
class EigenResult:
    """Converged eigenvalue with its normalized decaying eigenvector."""

    lam: complex
    eigenvector: SpinorField
    evans_residual: float
    iterations: int


def _splice_eigenvector(grid: Grid, left, right) -> SpinorField:
    """Combine left (x <= 0) and rescaled right (x > 0) into one decaying vector.

    left holds (phi1, phi2) on [0, j0], right on [j0, n).
    """
    l1, l2_ = left[0][-1], left[1][-1]
    r1, r2 = right[0][0], right[1][0]
    denom = abs(r1) ** 2 + abs(r2) ** 2
    if denom == 0:
        raise DegenerateVectorError("right Jost solution vanished at the matching point")
    c = (l1 * np.conj(r1) + l2_ * np.conj(r2)) / denom
    phi1 = np.concatenate([left[0], c * right[0][1:]])
    phi2 = np.concatenate([left[1], c * right[1][1:]])
    # normalize and fix the phase at the modulus peak
    vec = SpinorField(grid, phi1, phi2)
    nrm = l2_norm(vec)
    if nrm == 0:
        raise DegenerateVectorError("eigenvector is identically zero")
    mag = np.abs(phi1) ** 2 + np.abs(phi2) ** 2
    jp = int(np.argmax(mag))
    comp = phi1[jp] if abs(phi1[jp]) >= abs(phi2[jp]) else phi2[jp]
    rot = np.conj(comp) / abs(comp)
    return SpinorField(grid, phi1 * rot / nrm, phi2 * rot / nrm)


def find_eigenvalue(f: SpinorField, lambda_guess: complex) -> EigenResult:
    """Secant iteration on the Evans function from a complex guess.

    Converges quadratically-ish near a simple root; raises NoEigenvalueError
    when the iteration stalls, leaves the guess neighborhood, or fails to
    reach |E| < EVANS_TOL within MAX_SECANT_ITERATIONS, and IntegrationError
    when a half-line scan goes non-finite.  No Jost solution is computed
    beyond j0, so overflow there does not fail the search.  The eigenvector
    is carried down the half-line trees of the converged lambda, the last
    one evaluated.
    """
    lambda_guess = require_lambda(lambda_guess)
    ws = _JostWorkspace(f)
    lam0 = complex(lambda_guess)
    lam1 = lam0 * (1.0 + 1e-3)
    e0 = evans_function(f, lam0, ws)
    e1 = evans_function(f, lam1, ws)
    best = (abs(e1), lam1)
    for it in range(1, MAX_SECANT_ITERATIONS + 1):
        if abs(e1) < EVANS_TOL:
            return EigenResult(lam1, _splice_eigenvector(ws.grid, *ws.halves(lam1)),
                               abs(e1), it)
        de = e1 - e0
        if abs(de) < 1e-300:
            raise NoEigenvalueError(
                "Evans function is stationary (no nearby simple root; "
                "free operators carry no discrete spectrum)")
        step = e1 * (lam1 - lam0) / de
        lam0, e0 = lam1, e1
        lam1 = lam1 - step
        if not np.isfinite(lam1.real) or not np.isfinite(lam1.imag):
            raise NoEigenvalueError("secant iteration diverged to non-finite lambda")
        if abs(lam1 - lambda_guess) > 0.5 * abs(lambda_guess):
            raise NoEigenvalueError(
                f"secant iterate left the guess neighborhood: {lam1}")
        e1 = evans_function(f, lam1, ws)
        if abs(e1) < best[0]:
            best = (abs(e1), lam1)
    raise NoEigenvalueError(
        f"no convergence in {MAX_SECANT_ITERATIONS} iterations; best |E| = {best[0]:.3e} "
        f"at lambda = {best[1]}")


# ---------------------------------------------------------------------------
# explicit kernel machinery at the soliton (unit-circle lambda)
# ---------------------------------------------------------------------------

def null_vectors(gamma: float, grid: Grid) -> tuple[SpinorField, SpinorField, SpinorField]:
    """Closed-form kernel vectors at the soliton: (phi, eta, xi).

    phi spans ker(d/dx - M_gamma) and is the soliton eigenvector at t = 0,
    eta the adjoint kernel, and xi is the second, exponentially growing
    solution of the same homogeneous system.
    """
    phi = soliton_eigenvector(gamma, 0.0, grid)
    x = grid.x
    grow = np.exp(2.0 * x * np.sin(gamma))
    sl = np.sin(2.0 * gamma) * x
    eta = SpinorField(grid, phi.v, -phi.u)
    xi = SpinorField(grid, phi.u * (1.0 / grow - sl),
                     -phi.v * (grow + 2.0 * np.cos(gamma) + sl))
    return phi, eta, xi


def _sigma3(vec: SpinorField) -> SpinorField:
    return SpinorField(vec.grid, vec.u, -vec.v)


def project_P(gamma: float, v: SpinorField) -> SpinorField:
    """Spectral projection P v = v - (<s3 eta, v>/<s3 eta, phi>) phi."""
    phi, eta, _ = null_vectors(gamma, v.grid)
    s3eta = _sigma3(eta)
    coef = inner_product(s3eta, v) / inner_product(s3eta, phi)
    return SpinorField(v.grid, v.u - coef * phi.u, v.v - coef * phi.v)


def project_P_hat(gamma: float, v: SpinorField) -> SpinorField:
    """Conjugated projection s3 P s3: removes the eta-component of v."""
    return _sigma3(project_P(gamma, _sigma3(v)))


def resolvent_solve(gamma: float, f: SpinorField) -> SpinorField:
    """Solve (d/dx - M_gamma) w = f subject to <s3 eta, w> = 0.

    Variation of parameters with the explicit fundamental system (phi, xi);
    the Wronskian of that pair is the constant -4.  Requires f orthogonal to
    eta (the adjoint kernel); violations below ORTHOGONALITY_RTOL (relative)
    are projected away, larger ones raise OrthogonalityError.
    """
    phi, eta, xi = null_vectors(gamma, f.grid)
    fn = l2_norm(f)
    if fn == 0.0:
        return SpinorField(f.grid, np.zeros(f.grid.n), np.zeros(f.grid.n))
    viol = abs(inner_product(eta, f)) / (l2_norm(eta) * fn)
    if viol > ORTHOGONALITY_RTOL:
        raise OrthogonalityError(
            f"f has an eta-component (relative size {viol:.3e} > {ORTHOGONALITY_RTOL:.1e}); "
            "the inhomogeneous equation is not solvable in L2")
    f = project_P_hat(gamma, f)

    grid = f.grid
    cs = CellSampler(grid)
    w_minus = cs.running_integral(-xi.v * f.u)
    cum_plus = cs.running_integral(-xi.u * f.v)
    w_plus = cum_plus[-1] - cum_plus
    eta_dot_f = eta.u * f.u + eta.v * f.v      # bilinear pairing (eta is real)
    j_acc = cs.running_integral(eta_dot_f)

    s3eta = _sigma3(eta)
    scale = inner_product(s3eta, phi)
    wsum = w_minus + w_plus
    num = (integrate(np.conj(s3eta.u) * (phi.u * wsum + xi.u * j_acc)
                     + np.conj(s3eta.v) * (phi.v * wsum + xi.v * j_acc), grid))
    k = -num / scale
    w1 = 0.25 * (phi.u * (k + wsum) + xi.u * j_acc)
    w2 = 0.25 * (phi.v * (k + wsum) + xi.v * j_acc)
    return SpinorField(grid, w1, w2)


def s_constant(gamma: float) -> complex:
    """Quadrature of the bifurcation derivative; equals 4i e^{-i gamma/2}/sin(gamma).

    Evaluated on a dedicated fine grid; disagreement with the closed form
    beyond 1e-6 relative raises IntegrationError.
    """
    require_gamma(gamma)
    s = np.sin(gamma)
    c = np.cos(gamma)
    half = max(30.0, 16.0 / s)
    x = np.linspace(-half, half, 16385)
    ch = np.cosh(2.0 * x * s)
    integrand = (1.0 + c * ch) / (ch + c) ** 2
    quad = 4j * np.exp(-0.5j * gamma) * np.trapezoid(integrand, x)
    closed = 4j * np.exp(-0.5j * gamma) / s
    if abs(quad - closed) > 1e-6 * abs(closed):
        raise IntegrationError(
            f"s-constant quadrature {quad} disagrees with closed form {closed}")
    return complex(quad)


# ---------------------------------------------------------------------------
# eigenvector remainder diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EigenvectorRemainder:
    """Remainders r_ij after dividing the soliton envelope out of an eigenvector.

    The gauge-frame eigenvector is written as
      phi1 = (e^{xs/2}(1+r11) + e^{-xs/2} r12) |sech(xs - i g/2)|
      phi2 = (e^{xs/2} r21 + e^{-xs/2}(1+r22)) |sech(xs - i g/2)|
    with the deviation attributed to the component whose envelope dominates
    on each half-line; reporting is restricted to |x sin g| <= 12.
    """

    grid: Grid
    gamma: float
    lam: complex
    window: np.ndarray
    r11: np.ndarray
    r12: np.ndarray
    r21: np.ndarray
    r22: np.ndarray
    norms: dict
    scale: complex
    gauge: np.ndarray
    eigenvector: SpinorField


def eigenvector_remainder(f: SpinorField, res: EigenResult) -> EigenvectorRemainder:
    """Extract the envelope remainders of a computed eigenvector.

    The eigenvector is moved to the gauge frame with the phase based at
    x = 0, rescaled so its phi-component matches the explicit kernel vector
    scaling, and the deviation from the exact envelopes is divided
    out on the window |x sin(gamma)| <= 12.
    """
    grid = f.grid
    lam = res.lam
    gamma = require_gamma(2.0 * np.angle(lam))
    x = grid.x

    acc = gauge_transform(f)
    j0 = int(np.argmin(np.abs(x)))
    gauge = np.exp(1j * (acc - acc[j0]))

    phi = SpinorField(grid, np.conj(gauge) * res.eigenvector.u, gauge * res.eigenvector.v)
    kern, eta, _ = null_vectors(gamma, grid)
    s3eta = _sigma3(eta)
    scale = inner_product(s3eta, kern) / inner_product(s3eta, phi)

    # the kernel vector is the envelope pair (e^{xs/2} q, e^{-xs/2} q)
    window = np.abs(x * np.sin(gamma)) <= 12.0
    dev1 = np.where(window, scale * phi.u - kern.u, 0.0)
    dev2 = np.where(window, scale * phi.v - kern.v, 0.0)
    pos = x >= 0
    r11 = np.where(pos, dev1 / kern.u, 0.0)
    r12 = np.where(pos, 0.0, dev1 / kern.v)
    r21 = np.where(pos, dev2 / kern.u, 0.0)
    r22 = np.where(pos, 0.0, dev2 / kern.v)

    norms: dict = {}
    for name, r in (("r11", r11), ("r12", r12), ("r21", r21), ("r22", r22)):
        norms[f"{name}_sup"] = float(np.abs(r).max(initial=0.0, where=window))
        norms[f"{name}_l2"] = float(np.sqrt(grid.dx * np.sum(np.abs(r[window]) ** 2)))
    return EigenvectorRemainder(grid, gamma, lam, window, r11, r12, r21, r22,
                                norms, complex(scale), gauge, res.eigenvector)


# ---------------------------------------------------------------------------
# time boundary-value problem
# ---------------------------------------------------------------------------

def solve_time_bvp(f_t: SpinorField, lam: complex, t: float) -> JostPair:
    """Jost pair at time t with the evolution boundary phases attached.

    The spatial systems are solved at time t and the solutions rescaled so
    that (in the gauge frame) the right-recessive solution carries amplitude
    e^{+i t k2} at the left edge and the left-recessive one e^{-i t k2} at
    the right edge.
    """
    p = SpectralParameter(complex(lam))
    require_finite("t", t)
    k1, k2 = p.k1, p.k2
    if k1.real >= 0:
        raise ParameterError("time BVP boundary phases require arg(lambda) in (0, pi/2)")
    pair = solve_jost(f_t, p.lam)
    grid = f_t.grid
    ph_r = np.exp(1j * t * k2)
    ph_l = np.exp(-1j * t * k2)
    r_edge = pair.right.u[0]
    l_edge = pair.left.v[-1]
    if r_edge == 0 or l_edge == 0:
        raise DegenerateVectorError("Jost solution vanished at its boundary-phase edge")
    cr = ph_r * np.exp(k1 * grid.x[0]) / r_edge
    cl = ph_l * np.exp(-k1 * grid.x[-1]) / l_edge
    left = SpinorField(grid, cl * pair.left.u, cl * pair.left.v)
    right = SpinorField(grid, cr * pair.right.u, cr * pair.right.v)
    return JostPair(p.lam, left, right)

"""The auto-Backlund transformation, eigenvector push-forward, Riccati checks.

One application of the transformation maps a solution (u, v) and a Lax
vector at spectral parameter lambda = delta e^{i gamma/2} to a new solution:
the zero solution maps to the one-soliton family under the free Lax vector,
and a perturbed soliton maps to a small field under its decaying
eigenvector (the "down" direction).  The "up" direction superposes the two
time-BVP Jost solutions with coefficients e^{+-(a + i theta)/2} and maps a
small field back into the soliton neighborhood.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVectorError, GridMismatchError
from .fields import Grid, SpinorField, d_dx, integrate
from .lax import EigenResult, JostPair
from .solitons import SpectralParameter, require_gamma, require_lambda

#: below this pointwise mass |phi1|^2+|phi2|^2 a Lax vector sample counts as
#: vanished (a true solution that vanishes anywhere vanishes identically)
DEGENERATE_FLOOR = 1e-280


def _squared_moduli(phi: SpinorField) -> tuple[np.ndarray, np.ndarray]:
    """|phi1|^2 and |phi2|^2, refusing a Lax vector that vanishes at a sample."""
    p1 = np.abs(phi.u) ** 2
    p2 = np.abs(phi.v) ** 2
    if (p1 + p2).min() < DEGENERATE_FLOOR:
        raise DegenerateVectorError(
            "Lax vector (numerically) vanishes at a grid sample; refusing to divide")
    return p1, p2


def _transform(f: SpinorField, phi: SpinorField, lam: complex):
    """backlund_transform's output and the intermediates its tangents reuse.

    Returns (out, half, dp, ku, kv): with dm = conj(dp) and cross =
    conj(phi1) phi2, u' = (-u dm + ku cross)/dp and v' = (-v dp + kv cross)/dm.
    """
    if f.grid != phi.grid:
        raise GridMismatchError("field and Lax vector live on different grids")
    p = SpectralParameter(complex(lam))
    delta, gamma = p.delta, require_gamma(p.gamma)
    p1, p2 = _squared_moduli(phi)
    half = np.exp(0.5j * gamma)
    dp = half * p1 + np.conj(half) * p2
    dm = np.conj(dp)
    cross = np.conj(phi.u) * phi.v
    s = np.sin(gamma)
    ku = 2j / delta * s
    kv = -2j * delta * s
    u_new = -f.u * dm / dp + ku * cross / dp
    v_new = -f.v * dp / dm + kv * cross / dm
    return SpinorField(f.grid, u_new, v_new), half, dp, ku, kv


def backlund_transform(f: SpinorField, phi: SpinorField, lam: complex) -> SpinorField:
    """Apply the transformation generated by the Lax vector phi.

    The denominators e^{+-i gamma/2}|phi1|^2 + e^{-+i gamma/2}|phi2|^2 have
    modulus >= cos(gamma/2)(|phi1|^2+|phi2|^2) > 0, so the output is finite
    wherever phi does not vanish.
    """
    return _transform(f, phi, lam)[0]


def pushforward_eigenvector(phi: SpinorField, gamma: float) -> SpinorField:
    """Lax vector attached to the transformed potential at the same lambda.

    psi = (conj(phi2), conj(phi1)) / |e^{i g/2}|phi1|^2 + e^{-i g/2}|phi2|^2|.
    """
    require_gamma(gamma)
    p1, p2 = _squared_moduli(phi)
    denom = np.abs(np.exp(0.5j * gamma) * p1 + np.exp(-0.5j * gamma) * p2)
    return SpinorField(phi.grid, np.conj(phi.v) / denom, np.conj(phi.u) / denom)


# ---------------------------------------------------------------------------
# Riccati variable
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RiccatiField:
    """Gamma = phi1/phi2 pointwise, with an invalid mask where phi2 underflows."""

    grid: Grid
    gamma_var: np.ndarray
    valid: np.ndarray

    @property
    def invalid_count(self) -> int:
        return int((~self.valid).sum())

    @classmethod
    def from_lax_vector(cls, phi: SpinorField) -> "RiccatiField":
        mod2 = np.abs(phi.v)
        valid = mod2 >= 1e-300
        ratio = np.divide(phi.u, phi.v,
                          out=np.zeros(phi.grid.n, dtype=np.complex128), where=valid)
        return cls(phi.grid, ratio, valid)

    def reciprocal_conjugate(self) -> "RiccatiField":
        """The Backlund-companion variable 1/conj(Gamma)."""
        mod = np.abs(self.gamma_var)
        valid = self.valid & (mod >= 1e-300)
        inv = np.divide(1.0, np.conj(self.gamma_var),
                        out=np.zeros(self.grid.n, dtype=np.complex128), where=valid)
        return RiccatiField(self.grid, inv, valid)


def riccati_residual(g: RiccatiField, f: SpinorField, lam: complex) -> float:
    """Scale-invariant L2 residual of the spatial Riccati equation.

    Gamma solves Gamma_x = A Gamma + B + C Gamma^2.  Where |Gamma| > 1 the
    stencil is taken on 1/Gamma instead, which solves (1/Gamma)_x =
    -A/Gamma - C - B/Gamma^2 and stays smooth through a pole of Gamma.  The
    raw residual of the variable used is divided by 1 + |variable|^2 (the
    chordal metric on the Riemann sphere), which makes the check meaningful
    on the exponentially large/small tails, gives the same value for either
    variable, and is invariant under the Backlund companion map Gamma ->
    1/conj(Gamma).  The two samples on each boundary (where no centered
    stencil exists) and invalid samples are excluded.
    """
    if g.grid != f.grid:
        raise GridMismatchError("Riccati field and background live on different grids")
    lam = require_lambda(lam)
    rho1 = 0.5 / lam
    rho2 = 0.5 * lam
    gam = g.gamma_var
    a = 2j * (rho2 ** 2 - rho1 ** 2) + 0.5j * (np.abs(f.u) ** 2 - np.abs(f.v) ** 2)
    b = -1j * (rho2 * np.conj(f.v) - rho1 * np.conj(f.u))
    c = 1j * (rho2 * f.v - rho1 * f.u)
    big = np.abs(gam) > 1.0
    inv = np.divide(1.0, gam, out=np.zeros_like(gam), where=gam != 0)
    w = np.where(big, inv, gam)
    dw = np.where(big, d_dx(inv, g.grid, accuracy=4), d_dx(gam, g.grid, accuracy=4))
    rhs = np.where(big, -(a * w + c + b * w ** 2), a * w + b + c * w ** 2)
    resid = np.abs(dw - rhs) / (1.0 + np.abs(w) ** 2)
    mask = g.valid.copy()
    mask[:2] = False
    mask[-2:] = False
    # a 4th-order stencil touching an invalid sample is itself invalid
    bad = ~g.valid
    for shift in (-2, -1, 1, 2):
        mask &= ~np.roll(bad, shift)
    return float(np.sqrt(integrate(np.where(mask, resid ** 2, 0.0), g.grid).real))


# ---------------------------------------------------------------------------
# the two directions of the stability pipeline
# ---------------------------------------------------------------------------

def down_map(f0: SpinorField, res: EigenResult) -> SpinorField:
    """Map a perturbed-soliton field to a small field via its eigenvector.

    ||(p0, q0)||_L2 is controlled by the distance of (u0, v0) from the
    soliton orbit; the exact soliton maps to zero.
    """
    return backlund_transform(f0, res.eigenvector, res.lam)


def _superpose(f_t: SpinorField, jost: JostPair, a: float, theta: float):
    """(c1, c2, c1 R + c2 L) with c1 = e^{(a + i theta)/2}, c2 = 1/c1."""
    if f_t.grid != jost.left.grid:
        raise GridMismatchError("field and Jost pair live on different grids")
    c1 = np.exp(0.5 * (a + 1j * theta))
    c2 = 1.0 / c1
    phi = SpinorField(f_t.grid,
                      c1 * jost.right.u + c2 * jost.left.u,
                      c1 * jost.right.v + c2 * jost.left.v)
    return c1, c2, phi


def up_map(f_t: SpinorField, jost: JostPair, lam: complex, a: float, theta: float) -> SpinorField:
    """Map a small field at time t into the soliton neighborhood.

    Superposes the time-BVP Jost pair with coefficients c1 = e^{(a+i theta)/2},
    c2 = 1/c1 and applies the Backlund transformation.  With (p, q) = 0 the
    output is exactly the soliton with argument shift a and gauge phase
    theta: u = i e^{-i theta} delta^{-1} sin(g) sech(alpha(x + nu t) - a - i g/2) e^{-i beta(t + nu x)}.
    """
    return backlund_transform(f_t, _superpose(f_t, jost, a, theta)[2], lam)


def up_map_tangents(f_t: SpinorField, jost: JostPair, lam: complex, a: float, theta: float
                    ) -> tuple[SpinorField, Callable[[], tuple[np.ndarray, np.ndarray]]]:
    """up_map's field (bit-identical) and a function that returns its tangents.

    The function returns (du, dv): rows 0 and 1 of the (2, n) arrays are the
    derivatives of out.u, out.v in a and in theta.  They are computed only
    when asked for, so the field alone costs what up_map does.

    phi = c1 R + c2 L is holomorphic in z = a + i theta, with dphi/dz =
    (c1 R - c2 L)/2, so d/da = d/dz + d/dzbar and d/dtheta = i(d/dz - d/dzbar).
    Along z, d|phi_k|^2 = conj(phi_k) dphi_k and dcross = conj(phi1) dphi2;
    along zbar they are the conjugates and conj(dphi1) phi2.  Through the
    transform, du' = (-u ddm + ku dcross - u' ddp)/dp and dv' = (-v ddp +
    kv dcross - v' ddm)/dm, with ddp = half d|phi1|^2 + conj(half) d|phi2|^2
    and ddm = conj(half) d|phi1|^2 + half d|phi2|^2.
    """
    c1, c2, phi = _superpose(f_t, jost, a, theta)
    out, half, dp, ku, kv = _transform(f_t, phi, lam)

    def tangents() -> tuple[np.ndarray, np.ndarray]:
        d1 = c1 * jost.right.u - c2 * jost.left.u      # 2 dphi/dz
        d2 = c1 * jost.right.v - c2 * jost.left.v
        cu = np.conj(phi.u)
        w1 = cu * d1                                    # 2 d|phi1|^2/dz
        w2 = np.conj(phi.v) * d2
        ez = cu * d2                                    # 2 dcross/dz
        ezbar = np.conj(d1) * phi.v                     # 2 dcross/dzbar
        h = 0.5 * half
        ddp = h * w1 + np.conj(h) * w2                  # ddp/dz = conj(ddm/dzbar)
        ddm = np.conj(h) * w1 + h * w2                  # ddm/dz = conj(ddp/dzbar)
        inv_dp = 1.0 / dp
        inv_dm = np.conj(inv_dp)
        ku2, kv2 = 0.5 * ku, 0.5 * kv
        u, v = f_t.u, f_t.v
        uz = (ku2 * ez - u * ddm - out.u * ddp) * inv_dp
        uzbar = (ku2 * ezbar - u * np.conj(ddp) - out.u * np.conj(ddm)) * inv_dp
        vz = (kv2 * ez - v * ddp - out.v * ddm) * inv_dm
        vzbar = (kv2 * ezbar - v * np.conj(ddm) - out.v * np.conj(ddp)) * inv_dm
        return (np.stack((uz + uzbar, 1j * (uz - uzbar))),
                np.stack((vz + vzbar, 1j * (vz - vzbar))))

    return out, tangents

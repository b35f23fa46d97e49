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

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVectorError, ParameterError
from .fields import Grid, SpinorField, d_dx, integrate
from .lax import EigenResult, JostPair
from .solitons import SpectralParameter, require_gamma, require_lambda

#: below this pointwise mass |phi1|^2+|phi2|^2 a Lax vector sample counts as
#: vanished (a true solution that vanishes anywhere vanishes identically)
DEGENERATE_FLOOR = 1e-280


def _check_nonvanishing(phi: SpinorField) -> np.ndarray:
    mass = np.abs(phi.u) ** 2 + np.abs(phi.v) ** 2
    if mass.min() < DEGENERATE_FLOOR:
        raise DegenerateVectorError(
            "Lax vector (numerically) vanishes at a grid sample; refusing to divide")
    return mass


def backlund_transform(f: SpinorField, phi: SpinorField, lam: complex) -> SpinorField:
    """Apply the transformation generated by the Lax vector phi.

    The denominators e^{+-i gamma/2}|phi1|^2 + e^{-+i gamma/2}|phi2|^2 have
    modulus >= cos(gamma/2)(|phi1|^2+|phi2|^2) > 0, so the output is finite
    wherever phi does not vanish.
    """
    if f.grid != phi.grid:
        raise ParameterError("field and Lax vector live on different grids")
    p = SpectralParameter(complex(lam))
    delta, gamma = p.delta, require_gamma(p.gamma)
    _check_nonvanishing(phi)
    p1 = np.abs(phi.u) ** 2
    p2 = np.abs(phi.v) ** 2
    half = np.exp(0.5j * gamma)
    dp = half * p1 + np.conj(half) * p2
    dm = np.conj(dp)
    cross = np.conj(phi.u) * phi.v
    s = np.sin(gamma)
    u_new = -f.u * dm / dp + 2j / delta * s * cross / dp
    v_new = -f.v * dp / dm - 2j * delta * s * cross / dm
    return SpinorField(f.grid, u_new, v_new)


def pushforward_eigenvector(phi: SpinorField, gamma: float) -> SpinorField:
    """Lax vector attached to the transformed potential at the same lambda.

    psi = (conj(phi2), conj(phi1)) / |e^{i g/2}|phi1|^2 + e^{-i g/2}|phi2|^2|.
    """
    require_gamma(gamma)
    _check_nonvanishing(phi)
    p1 = np.abs(phi.u) ** 2
    p2 = np.abs(phi.v) ** 2
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

    The raw residual Gamma_x - F(Gamma) is divided by 1 + |Gamma|^2 (the
    chordal metric on the Riemann sphere), which makes the check meaningful
    on the exponentially large/small tails and invariant under the Backlund
    companion map Gamma -> 1/conj(Gamma).  The two samples on each boundary
    (where no centered stencil exists) and invalid samples are excluded.
    """
    if g.grid != f.grid:
        raise ParameterError("Riccati field and background live on different grids")
    lam = require_lambda(lam)
    rho1 = 0.5 / lam
    rho2 = 0.5 * lam
    gam = g.gamma_var
    dgam = d_dx(gam, g.grid, accuracy=4)
    rhs = (2j * (rho2 ** 2 - rho1 ** 2) * gam
           + 0.5j * (np.abs(f.u) ** 2 - np.abs(f.v) ** 2) * gam
           + 1j * (rho2 * f.v - rho1 * f.u) * gam ** 2
           - 1j * (rho2 * np.conj(f.v) - rho1 * np.conj(f.u)))
    resid = np.abs(dgam - rhs) / (1.0 + np.abs(gam) ** 2)
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


def up_map(f_t: SpinorField, jost: JostPair, lam: complex, a: float, theta: float) -> SpinorField:
    """Map a small field at time t into the soliton neighborhood.

    Superposes the time-BVP Jost pair with coefficients c1 = e^{(a+i theta)/2},
    c2 = 1/c1 and applies the Backlund transformation.  With (p, q) = 0 the
    output is exactly the soliton with argument shift a and gauge phase
    theta: u = i e^{-i theta} delta^{-1} sin(g) sech(alpha(x + nu t) - a - i g/2) e^{-i beta(t + nu x)}.
    """
    if f_t.grid != jost.left.grid:
        raise ParameterError("field and Jost pair live on different grids")
    c1 = np.exp(0.5 * (a + 1j * theta))
    c2 = 1.0 / c1
    phi = SpinorField(f_t.grid,
                      c1 * jost.right.u + c2 * jost.left.u,
                      c1 * jost.right.v + c2 * jost.left.v)
    return backlund_transform(f_t, phi, lam)

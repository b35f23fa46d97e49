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

import math
from collections.abc import Callable

import numpy as np

from .errors import DegenerateVectorError, GridMismatchError
from .fields import SpinorField, d_dx, integrate
from .lax import EigenResult, JostPair, assemble_L
from .solitons import SpectralParameter, require_finite, require_gamma

#: below this pointwise mass |phi1|^2+|phi2|^2 a Lax vector sample counts as
#: vanished (a true solution that vanishes anywhere vanishes identically)
DEGENERATE_FLOOR = 1e-280
#: superposition_parameters takes a difference within this share of its terms as zero
CANCELLATION_RTOL = 64 * 2.0 ** -52


def _masses(phi: SpinorField) -> tuple[np.ndarray, np.ndarray]:
    """(|phi1|^2, |phi2|^2); DegenerateVectorError where their sum is below DEGENERATE_FLOOR."""
    p1 = np.abs(phi.u) ** 2
    p2 = np.abs(phi.v) ** 2
    if (p1 + p2).min() < DEGENERATE_FLOOR:
        raise DegenerateVectorError(
            "Lax vector (numerically) vanishes at a grid sample; refusing to divide")
    return p1, p2


def _denominator(phi: SpinorField, gamma: float) -> tuple[complex, np.ndarray]:
    """(half, dp) = (e^{i g/2}, half|phi1|^2 + conj(half)|phi2|^2) unless phi vanishes."""
    p1, p2 = _masses(phi)
    half = np.exp(0.5j * gamma)
    return half, half * p1 + np.conj(half) * p2


def _transform(f: SpinorField, phi: SpinorField, lam: complex):
    """backlund_transform's output and the intermediates its tangents reuse.

    Returns (out, half, dp, ku, kv): with dm = conj(dp) and cross =
    conj(phi1) phi2, u' = (-u dm + ku cross)/dp and v' = (-v dp + kv cross)/dm.
    """
    if f.grid != phi.grid:
        raise GridMismatchError("field and Lax vector live on different grids")
    p = SpectralParameter(complex(lam))
    delta, gamma = p.delta, require_gamma(p.gamma)
    half, dp = _denominator(phi, gamma)
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

    psi = (conj(phi2), conj(phi1)) / |e^{i g/2}|phi1|^2 + e^{-i g/2}|phi2|^2|,
    so its Riccati variable psi1/psi2 is the companion 1/conj(phi1/phi2).
    """
    denom = np.abs(_denominator(phi, require_gamma(gamma))[1])
    return SpinorField(phi.grid, np.conj(phi.v) / denom, np.conj(phi.u) / denom)


# ---------------------------------------------------------------------------
# Riccati check
# ---------------------------------------------------------------------------

def riccati_residual(phi: SpinorField, f: SpinorField, lam: complex) -> float:
    """Scale-invariant L2 residual of the spatial Riccati equation.

    The Riccati variable Gamma = phi1/phi2 solves Gamma_x = A Gamma + B +
    C Gamma^2, with A = 2 a11, B = a12 and C = -a21 from `assemble_L`.  Its
    residual over 1 + |Gamma|^2 (the chordal metric on the Riemann sphere)
    is |phi2 r1 - phi1 r2| / (|phi1|^2 + |phi2|^2) with r = phi_x - L phi,
    the form taken here: it has no pole where phi2 vanishes, and it is
    invariant under phi -> c(x) phi for nonvanishing c and under the
    companion map Gamma -> 1/conj(Gamma) of `pushforward_eigenvector`.  The
    two samples on each boundary (no centered stencil) are left out; a phi
    that (numerically) vanishes anywhere is a DegenerateVectorError.
    """
    if phi.grid != f.grid:
        raise GridMismatchError("Lax vector and background live on different grids")
    op = assemble_L(f, lam)
    p1, p2 = _masses(phi)
    r1 = d_dx(phi.u, phi.grid) - op.a11 * phi.u - op.a12 * phi.v
    r2 = d_dx(phi.v, phi.grid) - op.a21 * phi.u - op.a22 * phi.v
    resid = (np.abs(phi.v * r1 - phi.u * r2) / (p1 + p2))[2:-2]
    return float(np.sqrt(integrate(resid ** 2, phi.grid)))


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
    c1 = np.exp(0.5 * (require_finite("a", a) + 1j * require_finite("theta", theta)))
    c2 = 1.0 / c1
    phi = SpinorField(f_t.grid,
                      c1 * jost.right.u + c2 * jost.left.u,
                      c1 * jost.right.v + c2 * jost.left.v)
    return c1, c2, phi


def superposition_parameters(psi: SpinorField, jost: JostPair) -> tuple[float, float]:
    """(a, theta) with psi proportional to the _superpose vector of jost: its inverse.

    Fits psi ~ c1 R + c2 L by least squares over every sample, each row
    (one component at one sample) divided by its norm |(R_j, L_j)| so that
    the growing and decaying tails weigh alike; rows where |(R_j, L_j)|^2 is
    below DEGENERATE_FLOOR drop out.  Cramer's rule on the 2x2 normal
    equations gives c1/c2, their determinant cancelling, and e^{a + i theta}
    = c1/c2 because up_map does not change when its Lax vector is scaled.
    Raises DegenerateVectorError when the numerator or the denominator of
    c1/c2 cancels to within CANCELLATION_RTOL of its terms, as for a psi
    along one Jost solution.  That accepts |a| up to about 35.2, where a
    comes back to 1e-2 (1e-4 at |a| = 30, 4e-9 at 20, 2e-13 at 10).
    """
    if psi.grid != jost.left.grid:
        raise GridMismatchError("Lax vector and Jost pair live on different grids")
    r = np.concatenate((jost.right.u, jost.right.v))
    l_ = np.concatenate((jost.left.u, jost.left.v))
    b = np.concatenate((psi.u, psi.v))
    mass = np.abs(r) ** 2 + np.abs(l_) ** 2
    w = np.divide(1.0, mass, out=np.zeros_like(mass), where=mass > DEGENERATE_FLOOR)
    # the normal matrix [[g11, g12], [conj(g12), g22]] and right side (h1, h2)
    g11 = float(np.sum(w * np.abs(r) ** 2))
    g22 = float(np.sum(w * np.abs(l_) ** 2))
    g12 = complex(np.sum(w * np.conj(r) * l_))
    h1 = complex(np.sum(w * np.conj(r) * b))
    h2 = complex(np.sum(w * np.conj(l_) * b))
    num = g22 * h1 - g12 * h2
    den = g11 * h2 - g12.conjugate() * h1
    # along R alone den cancels to rounding, along L alone num
    if (abs(num) <= CANCELLATION_RTOL * (abs(g22 * h1) + abs(g12 * h2))
            or abs(den) <= CANCELLATION_RTOL * (abs(g11 * h2) + abs(g12 * h1))):
        raise DegenerateVectorError(
            "Lax vector is not a superposition of both Jost solutions")
    ratio = num / den
    return math.log(abs(ratio)), math.atan2(ratio.imag, ratio.real)


def up_map(f_t: SpinorField, jost: JostPair, a: float, theta: float) -> SpinorField:
    """Map a small field at time t into the soliton neighborhood.

    Superposes the time-BVP Jost pair with coefficients c1 = e^{(a+i theta)/2},
    c2 = 1/c1 and applies the Backlund transformation at the pair's lambda,
    jost.lam = delta e^{i g/2}.  With (p, q) = 0 the output is exactly the
    soliton with argument shift a and gauge phase
    theta: u = i e^{-i theta} delta^{-1} sin(g) sech(alpha(x + nu t) - a - i g/2) e^{-i beta(t + nu x)}.
    """
    return backlund_transform(f_t, _superpose(f_t, jost, a, theta)[2], jost.lam)


def up_map_tangents(f_t: SpinorField, jost: JostPair, a: float, theta: float
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
    out, half, dp, ku, kv = _transform(f_t, phi, jost.lam)

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

"""Closed-form soliton family, free Lax vectors, soliton eigenvectors, Lorentz boost.

The one-soliton family is parametrized by a nonzero complex spectral
parameter lambda = delta * exp(i*gamma/2); gamma in (0, pi) sets the width
and delta the velocity.  With its orbit of lab-frame shifts a and gauge
phases theta it is written once, in `soliton_evaluator`:

    u = i/delta sin(gamma) sech(alpha (x + a + nu t) - i gamma/2) e^{i theta - i beta (t + nu x)}
    v = -i delta sin(gamma) sech(alpha (x + a + nu t) + i gamma/2) e^{i theta - i beta (t + nu x)}

The arg alpha (x + a + nu t) is real, so v's sech is the conjugate of u's:
an evaluation forms one complex exponential (one `csech`) and takes the
phase as a `unit_phase`, with the bytes of the form written above.

delta = 1 is the stationary soliton.  Space-time evaluators (callables
(x, t) -> arrays) are provided alongside grid samplers so the Lorentz
boost, which mixes x and t, can act on exact solutions: it carries the
delta = 1 member to the delta member of the same gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError
from .fields import Grid, SpinorField, unit_phase


def csech(z: np.ndarray) -> np.ndarray:
    """Complex sech via 2/(e^z + e^-z), argument-reduced to avoid overflow.

    It is conjugation-symmetric, csech(conj z) = conj(csech z), bit for bit
    but in the sign of an exact zero: the exponent, e^z's factors and the
    Smith division round the same under conjugation, while a part that
    cancels or underflows to 0 (Im at Re z = 0, both parts for |Re z| past
    ~745) is +0 for z and for conj z alike.
    """
    z = np.asarray(z, dtype=np.complex128)
    # multiply through by e^{-s z}, s = +-1 the sign of Re z, so every
    # exponent -|Re z| - i s Im z has Re <= 0; it is formed in one complex
    # array, its imaginary part as 0 - s Im z, so that -0 reads +0
    ez = np.empty(z.shape, dtype=np.complex128)
    np.abs(z.real, out=ez.real)
    np.negative(ez.real, out=ez.real)
    np.multiply(np.where(z.real >= 0, 1.0, -1.0), z.imag, out=ez.imag)
    np.subtract(0.0, ez.imag, out=ez.imag)
    np.exp(ez, out=ez)
    den = ez * ez
    den += 1.0
    ez *= 2.0
    return ez / den


def require_lambda(lam) -> complex:
    """lam as a complex number; ParameterError unless it is finite and nonzero."""
    lam = complex(lam)
    if lam == 0 or not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
        raise ParameterError(f"spectral parameter lambda must be finite and nonzero, got {lam}")
    return lam


def require_gamma(gamma: float) -> float:
    """gamma itself; ParameterError unless 0 < gamma < pi (the soliton range)."""
    if not 0.0 < gamma < np.pi:
        raise ParameterError(f"gamma must lie in (0, pi), got {gamma}")
    return gamma


def require_finite(name: str, x: float) -> float:
    """x itself; ParameterError naming it unless it is finite."""
    if not math.isfinite(x):
        raise ParameterError(f"{name} must be finite, got {x}")
    return x


@dataclass(frozen=True)
class SpectralParameter:
    """lambda with its derived kinematic quantities."""

    lam: complex

    def __post_init__(self):
        require_lambda(self.lam)

    @cached_property
    def delta(self) -> float:
        return abs(self.lam)

    @cached_property
    def gamma(self) -> float:
        return 2.0 * np.angle(self.lam)

    @cached_property
    def nu(self) -> float:
        d2 = self.delta ** 2
        return (d2 - 1 / d2) / (d2 + 1 / d2)

    @cached_property
    def alpha(self) -> float:
        d2 = self.delta ** 2
        return 0.5 * (d2 + 1 / d2) * np.sin(self.gamma)

    @cached_property
    def beta(self) -> float:
        d2 = self.delta ** 2
        return 0.5 * (d2 + 1 / d2) * np.cos(self.gamma)

    @cached_property
    def k1(self) -> complex:
        """Spatial exponent (i/4)(lambda^2 - lambda^-2)."""
        l2 = self.lam ** 2
        return 0.25j * (l2 - 1 / l2)

    @cached_property
    def k2(self) -> complex:
        """Temporal exponent (1/4)(lambda^2 + lambda^-2)."""
        l2 = self.lam ** 2
        return 0.25 * (l2 + 1 / l2)


# ---------------------------------------------------------------------------
# space-time evaluators
# ---------------------------------------------------------------------------

def soliton_evaluator(p: SpectralParameter, a: float = 0.0, theta: float = 0.0):
    """Exact one-soliton solution, shifted by a and gauge-rotated by theta, as (x, t) -> (u, v)."""
    require_gamma(p.gamma)
    a, theta = require_finite("a", a), require_finite("theta", theta)
    s, d, al, be, nu, g = np.sin(p.gamma), p.delta, p.alpha, p.beta, p.nu, p.gamma

    def ev(x, t):
        x = np.asarray(x, dtype=float)
        arg = al * (x + a + nu * t)
        phase = unit_phase(theta - be * (t + nu * x))
        # sech(arg + i g/2) is the conjugate of sech(arg - i g/2), arg being
        # real; adding 0 gives its exact zeros (at arg = 0 and where sech
        # underflows) the sign +0 that csech's own rounding gives them
        sech = csech(arg - 0.5j * g)
        sech_v = np.conj(sech)
        sech_v += 0.0
        u = 1j / d * s * sech * phase
        v = -1j * d * s * sech_v * phase
        return u, v

    return ev


def free_lax_evaluator(p: SpectralParameter):
    """Lax vector for the zero potential: pure exponentials in x and t."""
    k1, k2 = p.k1, p.k2

    def ev(x, t):
        x = np.asarray(x, dtype=float)
        e = np.exp(k1 * x + 1j * k2 * t)
        return e, 1.0 / e

    return ev


def lorentz_boost_lax(evaluator, delta: float):
    """Boost a Lax-vector evaluator: both entries resample without delta weights.

    (phi1', phi2')(x, t) = (phi1, phi2)(k1 x + k2 t, k1 t + k2 x) with
    k1 = (delta^2 + delta^-2)/2, k2 = (delta^2 - delta^-2)/2.  delta = 1 is
    the identity.
    """
    if delta <= 0:
        raise ParameterError("boost requires delta > 0")
    d2 = delta ** 2
    b1 = 0.5 * (d2 + 1 / d2)
    b2 = 0.5 * (d2 - 1 / d2)

    def ev(x, t):
        return evaluator(b1 * x + b2 * t, b1 * t + b2 * x)

    return ev


def lorentz_boost(evaluator, delta: float):
    """Boost a space-time evaluator of (u, v): new solution of the same system.

    (u', v') is the `lorentz_boost_lax` resampling weighted by (1/delta, delta).
    """
    boosted = lorentz_boost_lax(evaluator, delta)

    def ev(x, t):
        u, v = boosted(x, t)
        return u / delta, delta * v

    return ev


# ---------------------------------------------------------------------------
# grid samplers
# ---------------------------------------------------------------------------

def sample_spinor(evaluator, t: float, grid: Grid) -> SpinorField:
    """Sample a space-time evaluator of either a field or a Lax vector at time t."""
    u, v = evaluator(grid.x, t)
    return SpinorField(grid, u, v)


def soliton_field(p: SpectralParameter, t: float, grid: Grid,
                  a: float = 0.0, theta: float = 0.0) -> SpinorField:
    """Sample the orbit point (a, theta) of the exact one-soliton solution at time t."""
    return sample_spinor(soliton_evaluator(p, a, theta), require_finite("t", t), grid)


def free_lax_vector(p: SpectralParameter, t: float, grid: Grid) -> SpinorField:
    """Sample the zero-potential Lax vector at time t."""
    return sample_spinor(free_lax_evaluator(p), t, grid)


def soliton_eigenvector_evaluator(gamma: float):
    """Decaying soliton eigenvector as a space-time evaluator (|lambda| = 1 case).

    psi1 = e^{x sin(g)/2 + i t cos(g)/2} |sech(x sin g - i g/2)| and psi2 its
    reciprocal-exponent partner.  At t = 0 this is the soliton envelope that
    the kernel vectors and eigenvector remainders in `mtmlab.lax` are built
    from.  The boosted eigenvector for delta != 1 is obtained by composing
    with `lorentz_boost_lax`.
    """
    require_gamma(gamma)
    s = np.sin(gamma)

    def ev(x, t):
        x = np.asarray(x, dtype=float)
        q = np.abs(csech(x * s - 0.5j * gamma))
        ph = np.exp(0.5 * x * s + 0.5j * t * np.cos(gamma))
        return ph * q, q / ph

    return ev


def soliton_eigenvector(gamma: float, t: float, grid: Grid) -> SpinorField:
    """Sample the decaying eigenvector attached to the delta = 1 soliton."""
    return sample_spinor(soliton_eigenvector_evaluator(gamma), t, grid)

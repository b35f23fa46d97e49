"""Closed-form soliton family, free Lax vectors, soliton eigenvectors, Lorentz boost.

The one-soliton family is parametrized by a nonzero complex spectral
parameter lambda = delta * exp(i*gamma/2); gamma in (0, pi) sets the width
and delta the velocity.  Space-time evaluators (callables (x, t) -> arrays)
are provided alongside grid samplers so the Lorentz boost, which mixes x
and t, can act on exact solutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError
from .fields import Grid, SpinorField


def csech(z: np.ndarray) -> np.ndarray:
    """Complex sech via 2/(e^z + e^-z), argument-reduced to avoid overflow."""
    z = np.asarray(z, dtype=np.complex128)
    s = np.where(z.real >= 0, 1.0, -1.0)
    # multiply through by e^{-s z} so every exponent has Re <= 0
    ez = np.exp(-np.abs(z.real) - 1j * s * z.imag)
    return 2.0 * ez / (1.0 + ez * ez)


def require_lambda(lam) -> complex:
    """lam as a complex number; ParameterError unless it is nonzero."""
    lam = complex(lam)
    if lam == 0:
        raise ParameterError("spectral parameter lambda must be nonzero")
    return lam


def require_gamma(gamma: float) -> float:
    """gamma itself; ParameterError unless 0 < gamma < pi (the soliton range)."""
    if not 0.0 < gamma < np.pi:
        raise ParameterError(f"gamma must lie in (0, pi), got {gamma}")
    return gamma


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

    @classmethod
    def from_polar(cls, gamma: float, delta: float = 1.0) -> "SpectralParameter":
        return cls(delta * np.exp(0.5j * gamma))


# ---------------------------------------------------------------------------
# space-time evaluators
# ---------------------------------------------------------------------------

def soliton_evaluator(p: SpectralParameter):
    """Exact one-soliton solution as a callable (x, t) -> (u, v)."""
    require_gamma(p.gamma)
    s, d, al, be, nu, g = np.sin(p.gamma), p.delta, p.alpha, p.beta, p.nu, p.gamma

    def ev(x, t):
        x = np.asarray(x, dtype=float)
        arg = al * (x + nu * t)
        phase = np.exp(-1j * be * (t + nu * x))
        u = 1j / d * s * csech(arg - 0.5j * g) * phase
        v = -1j * d * s * csech(arg + 0.5j * g) * phase
        return u, v

    return ev


def stationary_soliton_evaluator(gamma: float, a: float = 0.0, theta: float = 0.0):
    """Stationary soliton with spatial shift a and gauge phase theta.

    u(x,t) = e^{i theta - i t cos(gamma)} u_gamma(x + a), likewise for v.
    """
    require_gamma(gamma)
    s = np.sin(gamma)

    def ev(x, t):
        x = np.asarray(x, dtype=float)
        phase = np.exp(1j * theta - 1j * t * np.cos(gamma))
        u = 1j * s * csech((x + a) * s - 0.5j * gamma) * phase
        v = -1j * s * csech((x + a) * s + 0.5j * gamma) * phase
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


def soliton_field(p: SpectralParameter, t: float, grid: Grid) -> SpinorField:
    """Sample the exact one-soliton solution at time t."""
    return sample_spinor(soliton_evaluator(p), t, grid)


def stationary_soliton(gamma: float, a: float, theta: float, t: float, grid: Grid) -> SpinorField:
    """Sample the stationary soliton orbit point (gamma, a, theta) at time t."""
    return sample_spinor(stationary_soliton_evaluator(gamma, a, theta), t, grid)


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
    """Sample the decaying eigenvector attached to the stationary soliton."""
    return sample_spinor(soliton_eigenvector_evaluator(gamma), t, grid)

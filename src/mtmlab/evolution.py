"""Charge-conserving time integration on a characteristic-aligned grid.

The system is semilinear along light cones: with dt = dx the advection parts
are exact index rotations (u transports rightward, v leftward), and the
remaining local oscillator u' = i(v + u|v|^2), v' = i(u + v|u|^2) conserves
|u|^2 + |v|^2 pointwise.  The local update splits that oscillator into two
exactly solvable subflows, the linear mass rotation M and the nonlinear
phase rotation N, and composes them as M(tau/2) N(tau) M(tau/2).  Both are
pointwise unitary, so the update is explicit, exact per subflow, second
order and time-symmetric, and conserves the charge to rounding, with no
solver tolerance.

`step` is one Strang step L(dt/2) T L(dt/2), with L the local update and T
the transport.  `evolve` merges the adjacent half updates of consecutive
steps: between two observation times it runs the segment
L(dt/2) T [L(dt) T]^(s-1) L(dt/2) on raw arrays, which is again symmetric,
second order and charge-conserving, at about half the local updates; `step`
is that segment with s = 1.  The result depends on where the segments end
at the O(dt^2) level: they end at every `output_stride` steps when an
observer is given, and only at t_end otherwise.  Evolving a snapshot over
the next gap reproduces the next snapshot bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .fields import SpinorField, l2_norm_sq


@dataclass(frozen=True)
class EvolutionConfig:
    """Time-stepping parameters; dt must equal the grid spacing."""

    dt: float
    t_end: float
    output_stride: int = 1

    def __post_init__(self):
        if not math.isfinite(self.dt) or self.dt == 0:
            raise ParameterError(f"dt must be finite and nonzero, got {self.dt}")
        if not math.isfinite(self.t_end) or self.t_end <= 0:
            raise ParameterError(f"t_end must be finite and positive, got {self.t_end}")
        if not isinstance(self.output_stride, numbers.Integral) or self.output_stride < 1:
            raise ParameterError(f"output_stride must be an integer >= 1, got {self.output_stride!r}")


def _check_cfg(f: SpinorField, cfg: EvolutionConfig) -> None:
    if abs(abs(cfg.dt) - f.grid.dx) > 1e-12 * f.grid.dx:
        raise ParameterError(
            f"characteristic transport requires |dt| = dx ({f.grid.dx}), got {cfg.dt}")


def _local_update(u: np.ndarray, v: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """The local oscillator over time tau, split as M(tau/2) N(tau) M(tau/2).

    M(s) is the mass rotation (u, v) -> (cos s u + i sin s v, i sin s u + cos s v)
    and N(tau) the phase rotation u -> u e^{i tau |v|^2}, v -> v e^{i tau |u|^2},
    which is exact because it keeps |u| and |v| fixed.
    """
    # M(tau/2) is applied as 1 + (s sigma_1 - a), a = 1 - cos(tau/2) from a
    # sine.  With a rounded cos(tau/2), c^2 + |s|^2 misses 1 by the same ~1e-16
    # in every update: a steady charge drift, 4e-14 over t = 20 at n = 4096.
    a, s = 2.0 * math.sin(0.25 * tau) ** 2, 1j * math.sin(0.5 * tau)
    u, v = u + (s * v - a * u), v + (s * u - a * v)
    u, v = u * np.exp(1j * tau * np.abs(v) ** 2), v * np.exp(1j * tau * np.abs(u) ** 2)
    return u + (s * v - a * u), v + (s * u - a * v)


def _segment(u: np.ndarray, v: np.ndarray, dt: float, s: int) -> tuple[np.ndarray, np.ndarray]:
    """s merged Strang steps on raw arrays: L(dt/2) T [L(dt) T]^(s-1) L(dt/2).

    L is the split local update and T the exact shift transport (u moves one
    cell with the sign of dt, v one cell against it).  Every factor is exact
    and unitary pointwise, so the segment conserves the charge to rounding.
    """
    shift = 1 if dt > 0 else -1
    u, v = _local_update(u, v, 0.5 * dt)
    for _ in range(s - 1):
        u, v = _local_update(np.roll(u, shift), np.roll(v, -shift), dt)
    return _local_update(np.roll(u, shift), np.roll(v, -shift), 0.5 * dt)


def step(f: SpinorField, cfg: EvolutionConfig) -> SpinorField:
    """One Strang step: half local update, exact shift transport, half update.

    Negative dt reverses the transport direction and the local updates, so
    stepping back retraces the trajectory (time-symmetric scheme).
    """
    _check_cfg(f, cfg)
    return SpinorField(f.grid, *_segment(f.u, f.v, cfg.dt, 1))


def evolve(f0: SpinorField, cfg: EvolutionConfig, observer=None) -> SpinorField:
    """Step to t_end (within dt/2); observer(t, field) every stride.

    The observer is invoked at t = 0 and then after every `output_stride`
    steps, including the final state.  Between two observation times (or
    from 0 to t_end, without an observer) the run is one merged segment.
    """
    _check_cfg(f0, cfg)
    n_steps = int(round(cfg.t_end / abs(cfg.dt)))
    stride = cfg.output_stride if observer is not None else max(n_steps, 1)
    f = f0
    if observer is not None:
        observer(0.0, f)
    for k in range(0, n_steps, stride):
        s = min(stride, n_steps - k)
        f = SpinorField(f0.grid, *_segment(f.u, f.v, cfg.dt, s))
        if observer is not None:
            observer((k + s) * cfg.dt, f)
    return f


def charge(f: SpinorField) -> float:
    """The conserved charge ||u||^2 + ||v||^2 (alias of the L2 functional)."""
    return l2_norm_sq(f)

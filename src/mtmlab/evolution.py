"""Charge-conserving time integration on a characteristic-aligned grid.

The system is semilinear along light cones: with dt = dx the advection parts
are exact index rotations (u transports rightward, v leftward), and the
remaining local oscillator u' = i(v + u|v|^2), v' = i(u + v|u|^2) conserves
|u|^2 + |v|^2 pointwise.  Strang splitting with an implicit-midpoint local
update is time-symmetric and second order, and inherits both conservation
properties up to the fixed-point tolerance.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, StepError
from .fields import SpinorField, l2_norm_sq

MIDPOINT_TOL = 1e-14
# 8 iterations suffice at the default grid (n = 4096, contraction ~ 0.03) but
# the dt-refinement study legitimately runs at twice the step, where the
# fixed point needs a few more sweeps; 12 keeps the tolerance honest there.
MIDPOINT_MAX_ITER = 12


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


def _midpoint_update(u: np.ndarray, v: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """One implicit-midpoint step of the local oscillator over time tau."""
    # midpoint fixed point, seeded with one explicit iteration
    with np.errstate(over="ignore", invalid="ignore"):
        um = u + (0.5 * tau) * 1j * (v + u * np.abs(v) ** 2)
        vm = v + (0.5 * tau) * 1j * (u + v * np.abs(u) ** 2)
        for _ in range(MIDPOINT_MAX_ITER):
            un = u + (0.5 * tau) * 1j * (vm + um * np.abs(vm) ** 2)
            vn = v + (0.5 * tau) * 1j * (um + vm * np.abs(um) ** 2)
            delta = float(max(np.abs(un - um).max(), np.abs(vn - vm).max()))
            um, vm = un, vn
            if not np.isfinite(delta):
                break
            if delta < MIDPOINT_TOL:
                return 2.0 * um - u, 2.0 * vm - v
    raise StepError(
        f"implicit midpoint did not reach {MIDPOINT_TOL} in {MIDPOINT_MAX_ITER} "
        "iterations (dt too large for the field amplitude)")


def step(f: SpinorField, cfg: EvolutionConfig) -> SpinorField:
    """One Strang step: half local update, exact shift transport, half update.

    Negative dt reverses the transport direction and the local updates, so
    stepping back retraces the trajectory (time-symmetric scheme).
    """
    _check_cfg(f, cfg)
    shift = 1 if cfg.dt > 0 else -1
    u, v = _midpoint_update(f.u, f.v, 0.5 * cfg.dt)
    u = np.roll(u, shift)      # u advects rightward: u(x, t+dt) = u(x - dt, t)
    v = np.roll(v, -shift)
    u, v = _midpoint_update(u, v, 0.5 * cfg.dt)
    return SpinorField(f.grid, u, v)


def evolve(f0: SpinorField, cfg: EvolutionConfig, observer=None) -> SpinorField:
    """Iterate `step` until t_end (within dt/2); observer(t, field) every stride.

    The observer is invoked at t = 0 and then after every `output_stride`
    steps, including the final state.
    """
    _check_cfg(f0, cfg)
    n_steps = int(round(cfg.t_end / abs(cfg.dt)))
    f = f0
    if observer is not None:
        observer(0.0, f)
    for k in range(1, n_steps + 1):
        f = step(f, cfg)
        if observer is not None and (k % cfg.output_stride == 0 or k == n_steps):
            observer(k * cfg.dt, f)
    return f


def charge(f: SpinorField) -> float:
    """The conserved charge ||u||^2 + ||v||^2 (alias of the L2 functional)."""
    return l2_norm_sq(f)

"""Charge-conserving time integration on a characteristic-aligned grid.

The system is semilinear along light cones: with dt = dx the advection parts
are exact index rotations (u transports rightward, v leftward), and the
remaining local oscillator u' = i(v + u|v|^2), v' = i(u + v|u|^2) conserves
|u|^2 + |v|^2 pointwise.  The local update splits that oscillator into two
exactly solvable subflows, the linear mass rotation M and the nonlinear
phase rotation N (its unit phases from `unit_phase`, cos and sin of the
real phase), and composes them as M(tau/2) N(tau) M(tau/2).  Both are
pointwise unitary, so the update is explicit, exact per subflow, second
order and time-symmetric, and conserves the charge to rounding, with no
solver tolerance.

`step` is one Strang step L(dt/2) T L(dt/2), with L the local update and T
the transport.  `evolve` takes a whole number of steps s, the sign of s the
direction of time, and merges the adjacent half updates of consecutive
steps: it runs the |s| steps as one segment L(dt/2) T [L(dt) T]^(|s|-1)
L(dt/2) on raw arrays, which is again symmetric, second order and
charge-conserving, at about half the local updates; `step` is that segment
with s = 1.  The result depends on where a run is split into segments at
the O(dt^2) level, so a caller that needs the field at intermediate times
evolves span by span, and evolving a field over the spans that another run
took reproduces that run bit for bit.

A segment allocates its arrays once, not once per step: the local updates
run in place with ufunc `out=` arguments on a working copy of the input, and
the transport is two slice copies into a second buffer pair.  Each ufunc
takes the operands, in the order, that the written formulas give it, so a
trajectory is bit-identical to one evaluated as array expressions.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ParameterError
from .fields import SpinorField, l2_norm_sq, unit_phase


def _scratch(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Working arrays of one segment: two complex, one real, n samples each."""
    return (np.empty(n, dtype=np.complex128), np.empty(n, dtype=np.complex128),
            np.empty(n))


def _local_update(u: np.ndarray, v: np.ndarray, tau: float, scratch) -> None:
    """The local oscillator over time tau, in place on u and v: M(tau/2) N(tau) M(tau/2).

    M(s) is the mass rotation (u, v) -> (cos s u + i sin s v, i sin s u + cos s v)
    and N(tau) the phase rotation u -> u e^{i tau |v|^2}, v -> v e^{i tau |u|^2},
    which is exact because it keeps |u| and |v| fixed.  `scratch` is a
    `_scratch(len(u))` triple; no array is allocated.
    """
    # M(tau/2) is applied as 1 + (s sigma_1 - a), a = 1 - cos(tau/2) from a
    # sine.  With a rounded cos(tau/2), c^2 + |s|^2 misses 1 by the same ~1e-16
    # in every update: a steady charge drift, 4e-14 over t = 20 at n = 4096.
    a, s = 2.0 * math.sin(0.25 * tau) ** 2, 1j * math.sin(0.5 * tau)
    w1, w2, phase = scratch
    _mass_rotation(u, v, a, s, w1, w2)
    # e^{i tau |w|^2} by `unit_phase` of the real phase; |w|^2 is the square
    # of np.abs(w), because re^2 + im^2 rounds differently
    for w, e in ((v, w1), (u, w2)):
        np.abs(w, out=phase)
        np.square(phase, out=phase)
        np.multiply(tau, phase, out=phase)
        unit_phase(phase, out=e)
    np.multiply(u, w1, out=u)
    np.multiply(v, w2, out=v)
    _mass_rotation(u, v, a, s, w1, w2)


def _mass_rotation(u, v, a: float, s: complex, w1, w2) -> None:
    """(u, v) += (s v - a u, s u - a v) in place, each product rounded as written."""
    np.multiply(s, v, out=w1)
    np.multiply(a, u, out=w2)
    np.subtract(w1, w2, out=w1)
    np.multiply(s, u, out=w2)
    np.add(u, w1, out=u)            # the old u is not needed past s u
    np.multiply(a, v, out=w1)
    np.subtract(w2, w1, out=w2)
    np.add(v, w2, out=v)


def _shift(src: np.ndarray, dst: np.ndarray, k: int) -> None:
    """dst = np.roll(src, k) for k = +-1, as two slice copies."""
    if k > 0:
        dst[1:] = src[:-1]
        dst[0] = src[-1]
    else:
        dst[:-1] = src[1:]
        dst[-1] = src[0]


def _segment(u: np.ndarray, v: np.ndarray, dt: float, s: int) -> tuple[np.ndarray, np.ndarray]:
    """s merged Strang steps on raw arrays: L(dt/2) T [L(dt) T]^(s-1) L(dt/2).

    L is the split local update and T the exact shift transport (u moves one
    cell with the sign of dt, v one cell against it).  Every factor is exact
    and unitary pointwise, so the segment conserves the charge to rounding.
    The inputs are not written: the updates run in place on a working copy,
    and T copies it into a second buffer pair, which then swaps roles.
    """
    shift = 1 if dt > 0 else -1
    scratch = _scratch(len(u))
    u, v = u.copy(), v.copy()
    ub, vb = np.empty_like(u), np.empty_like(v)
    _local_update(u, v, 0.5 * dt, scratch)
    for k in range(s):
        _shift(u, ub, shift)
        _shift(v, vb, -shift)
        u, ub, v, vb = ub, u, vb, v
        _local_update(u, v, dt if k < s - 1 else 0.5 * dt, scratch)
    return u, v


def step(f: SpinorField) -> SpinorField:
    """One Strang step of dt = dx: half local update, exact shift transport, half update.

    Equals `evolve(f, 1)`: this is the one-cell segment, the unit that a
    fourth-order composition of steps builds on, and the name that
    `bench/tracing.py` wraps to count steps.
    """
    return SpinorField(f.grid, *_segment(f.u, f.v, f.grid.dx, 1))


def step_count(t: float, dt: float) -> int:
    """The number of steps of size |dt| nearest to the horizon t: round(t/|dt|), ties to even.

    The one rule by which `mtmlab evolve` and `run_experiment` snap a time
    to a whole number of steps.
    """
    return int(round(t / abs(dt)))


def evolve(f0: SpinorField, steps: int) -> SpinorField:
    """The field after |steps| Strang steps of dt = copysign(dx, steps), in one merged segment.

    A negative count runs backward in time, retracing a forward run of the
    same spans (the scheme is time-symmetric); with steps = 0 the input
    comes back unchanged.
    """
    if not isinstance(steps, numbers.Integral):
        raise ParameterError(f"steps must be an integer, got {steps!r}")
    if steps == 0:
        return f0
    dt = math.copysign(f0.grid.dx, steps)
    return SpinorField(f0.grid, *_segment(f0.u, f0.v, dt, abs(steps)))


def charge(f: SpinorField) -> float:
    """The conserved charge ||u||^2 + ||v||^2 (alias of the L2 functional)."""
    return l2_norm_sq(f)

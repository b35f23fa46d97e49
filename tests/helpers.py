"""Small constructors the tests share that the package itself does not need."""

import importlib.util
import json
import pathlib

import numpy as np

from mtmlab.cli import RunManifest
from mtmlab.evolution import EvolutionConfig, evolve, step_count
from mtmlab.fields import SpinorField
from mtmlab.lax import EigenvectorRemainder
from mtmlab.solitons import SpectralParameter, soliton_eigenvector


def evolve_spans(f0: SpinorField, dt: float, t_end: float, stride: int):
    """Yield (t, field) at t = 0 and after every `stride` steps to t_end, one `evolve` per span.

    The last span is short when `stride` does not divide the step count.
    """
    n_steps = step_count(t_end, dt)
    f, k_prev = f0, 0
    for k in (*range(0, n_steps, stride), n_steps):
        if k > k_prev:
            f = evolve(f, EvolutionConfig(dt=dt, t_end=(k - k_prev) * abs(dt)))
            k_prev = k
        yield k * dt, f


def load_bench_module(name: str):
    """The module bench/<name>.py of this checkout, executed under the name bench_<name>."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def polar(gamma: float, delta: float = 1.0) -> SpectralParameter:
    """The spectral parameter lambda = delta e^{i gamma/2}."""
    return SpectralParameter(delta * np.exp(0.5j * gamma))


def read_manifest(path) -> RunManifest:
    """The run manifest stored as JSON at path."""
    with open(path) as fh:
        return RunManifest(**json.load(fh))


def reconstruct(rem: EigenvectorRemainder) -> SpinorField:
    """Rebuild the eigenvector from its remainders (exact on the window)."""
    env = soliton_eigenvector(rem.gamma, 0.0, rem.grid)
    phi1 = env.u * (1.0 + rem.r11) + env.v * rem.r12
    phi2 = env.u * rem.r21 + env.v * (1.0 + rem.r22)
    psi1 = rem.gauge * phi1 / rem.scale
    psi2 = np.conj(rem.gauge) * phi2 / rem.scale
    out1 = np.where(rem.window, psi1, rem.eigenvector.u)
    out2 = np.where(rem.window, psi2, rem.eigenvector.v)
    return SpinorField(rem.grid, out1, out2)

"""Small constructors the tests share that the package itself does not need."""

import json

import numpy as np

from mtmlab.cli import RunManifest
from mtmlab.solitons import SpectralParameter


def polar(gamma: float, delta: float = 1.0) -> SpectralParameter:
    """The spectral parameter lambda = delta e^{i gamma/2}."""
    return SpectralParameter(delta * np.exp(0.5j * gamma))


def read_manifest(path) -> RunManifest:
    """The run manifest stored as JSON at path."""
    with open(path) as fh:
        return RunManifest(**json.load(fh))

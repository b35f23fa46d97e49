"""The four benchmark workloads.

A workload turns a seed into a fixed list of items.  ``run`` executes one
item through mtmlab's public entry points and is the only timed code;
``check`` applies the item's correctness gate and extracts the numbers the
drift report compares.  Timed calls go through module attributes
(``lax.find_eigenvalue``, ``cli.main``, ...) so that a traced pass sees them.
"""

from __future__ import annotations

import contextlib
import csv
import glob
import hashlib
import io
import json
import math
import os

import numpy as np

from mtmlab import backlund, cli, fields, lax, stability
from mtmlab.fields import Grid, l2_norm
from mtmlab.stability import ExperimentConfig, make_perturbed_initial

SHAPES = ("gaussian_bump", "random_fourier")


class ItemError(RuntimeError):
    """An item that could not produce its outputs."""


def _seeds(seed: int, k: int) -> list[int]:
    """k perturbation seeds drawn from the workload seed."""
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=k)]


def _cli(argv: list[str]) -> None:
    """Run one CLI command in-process; a non-zero exit code fails the item."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise ItemError(f"mtmlab {argv[0]} exited {code}: {err.getvalue().strip()}")


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _spread(a: np.ndarray) -> float:
    """(max - min) / |mean|: the relative drift of a conserved quantity."""
    return float((a.max() - a.min()) / abs(a.mean()))


def _orbit_gate(eps: float, dist, charge, small, cross) -> list[str]:
    """Acceptance tolerances of a stability run (the ROADMAP reference run)."""
    fails = []
    dist, charge, small, cross = (np.asarray(a, dtype=float)
                                  for a in (dist, charge, small, cross))
    if not dist.max() <= 10.0 * eps:
        fails.append(f"max dist {dist.max():.3e} > 10*eps = {10 * eps:.3e}")
    for name, vals in (("charge", charge), ("small_norm", small)):
        if not _spread(vals) < 1e-6:
            fails.append(f"{name} relative spread {_spread(vals):.3e} >= 1e-6")
    if not np.all(np.isfinite(cross)):
        fails.append("a cross_l2 value is not finite")
    return fails


class StabilityRef:
    """The ROADMAP north-star run through the CLI, in-process, at n = 4096."""

    name = "stability_ref"
    GAMMA0 = math.pi / 2
    EPSILON = 0.01
    shares_ok = staticmethod(lambda s: s["share.evolution"] >= 0.5)
    dominant = "evolution >= 50% of traced wall"

    def __init__(self, seed: int, workdir: str):
        self.items = _seeds(seed, 1)

    def run(self, i: int, d: str):
        _cli(["stability", "--gamma0", repr(self.GAMMA0), "--epsilon", repr(self.EPSILON),
              "--t-end", "20", "--pipeline", "both", "--seed", str(self.items[i]),
              "--out-dir", d])
        return d

    def check(self, i: int, d, _dir: str):
        rec = np.loadtxt(os.path.join(d, "records.csv"), delimiter=",", skiprows=1, ndmin=2)
        with open(os.path.join(d, "summary.csv"), newline="") as fh:
            row = next(csv.DictReader(fh))
        fails = _orbit_gate(self.EPSILON, rec[:, 2], rec[:, 1], rec[:, 7],
                            [float(row["max_cross_l2"])])
        if row["status"] != "ok":
            fails.append(f"sweep status {row['status']!r}")
        values = {"records": rec.ravel().tolist(),
                  "summary": [float(row[k]) for k in ("lambda_err", "pq0_norm",
                                                       "max_dist", "max_cross_l2")]}
        return fails, values, _sha256(os.path.join(d, "records.csv"))


class OrbitDense:
    """Short horizon, dense sampling: the orbit-distance and fit layers."""

    name = "orbit_dense"
    GRID = Grid.symmetric(30.0, 2048)
    TIMES = tuple(0.05 * k for k in range(21))
    SPECS = (("gaussian_bump", 0.1), ("random_fourier", 0.01))
    shares_ok = staticmethod(lambda s: s["share.orbit_fit"] >= 0.6
                             and s["share.evolution"] <= 0.1)
    dominant = "modulated_distance + fit >= 60% and evolution <= 10% of traced wall"

    def __init__(self, seed: int, workdir: str):
        specs = self.SPECS
        self.items = [
            ExperimentConfig(gamma0=math.pi / 2, epsilon=eps, perturbation_seed=s,
                             perturbation_shape=shape, grid=self.GRID,
                             t_end=self.TIMES[-1], times=self.TIMES, pipeline="both")
            for (shape, eps), s in zip(specs, _seeds(seed, len(specs)))]

    def run(self, i: int, d: str):
        return stability.run_experiment(self.items[i])

    def check(self, i: int, res, _dir: str):
        recs = res.records
        fails = _orbit_gate(self.items[i].epsilon, [r.dist for r in recs],
                            [r.charge for r in recs], [r.small_norm for r in recs],
                            res.cross_l2)
        values = {"dist": [r.dist for r in recs], "charge": [r.charge for r in recs],
                  "a_star": [r.a_star for r in recs],
                  "theta_star": [r.theta_star for r in recs],
                  "small_norm": [r.small_norm for r in recs],
                  "cross_l2": list(res.cross_l2),
                  "lam": [res.lam.real, res.lam.imag], "pq0_norm": [res.pq0_norm]}
        return fails, values, None


class EigenSurvey:
    """find_eigenvalue + down_map on 32 pre-generated fields: the lax layer."""

    name = "eigen_survey"
    GAMMAS = (math.pi / 8, math.pi / 4, math.pi / 2, 3 * math.pi / 4)
    EPSILONS = (0.0, 1e-3, 1e-2, 1e-1)
    # |lambda - lambda0| and ||(p0, q0)|| must stay below O_EPS * eps + FLOOR.
    # Measured ratios to eps stay below 1.1; at eps = 0 the soliton maps to
    # ||(p0, q0)|| = 1.8e-5 at gamma = pi/8 (its tails are cut at |x| = 30).
    O_EPS = 3.0
    FLOOR = 1e-4
    shares_ok = staticmethod(lambda s: s["share.lax_eigen"] >= 0.8)
    dominant = "find_eigenvalue >= 80% of traced wall"

    def __init__(self, seed: int, workdir: str):
        specs = [(g, e, shape) for g in self.GAMMAS for e in self.EPSILONS
                 for shape in SHAPES]
        self.specs = specs
        self.items = [
            make_perturbed_initial(ExperimentConfig(
                gamma0=g, epsilon=e, perturbation_seed=s, perturbation_shape=shape))
            for (g, e, shape), s in zip(specs, _seeds(seed, len(specs)))]

    def run(self, i: int, d: str):
        gamma = self.specs[i][0]
        res = lax.find_eigenvalue(self.items[i], np.exp(0.5j * gamma))
        return res, backlund.down_map(self.items[i], res)

    def check(self, i: int, out, _dir: str):
        res, pq = out
        gamma, eps, _ = self.specs[i]
        dlam = abs(res.lam - np.exp(0.5j * gamma))
        pq_norm = l2_norm(pq)
        fails = []
        if not res.evans_residual < 1e-10:
            fails.append(f"|E| = {res.evans_residual:.3e} >= 1e-10")
        if eps == 0.0 and not dlam < 1e-7:
            fails.append(f"|lambda - lambda0| = {dlam:.3e} >= 1e-7 at eps = 0")
        for name, val in (("|lambda - lambda0|", dlam), ("||(p0,q0)||", pq_norm)):
            if not val <= self.O_EPS * eps + self.FLOOR:
                fails.append(f"{name} = {val:.3e} is not O(eps = {eps:g})")
        values = {"lam": [res.lam.real, res.lam.imag], "pq0_norm": [pq_norm]}
        return fails, values, None


class CliSnapshots:
    """eigen -> backlund down -> evolve (dense snapshots) -> read back -> backlund up."""

    name = "cli_snapshots"
    GRID = Grid.symmetric(30.0, 4096)
    GAMMA = math.pi / 2
    EPSILON = 0.01
    T_END = 10.0
    STRIDE = 8
    shares_ok = staticmethod(lambda s: s["share.io"] >= 0.5)
    dominant = "CSV I/O + file digests >= 50% of traced wall"

    def __init__(self, seed: int, workdir: str):
        os.makedirs(workdir, exist_ok=True)
        pseed, pick = _seeds(seed, 2)
        path = os.path.join(workdir, "field.csv")
        fields.write_field_csv(make_perturbed_initial(ExperimentConfig(
            gamma0=self.GAMMA, epsilon=self.EPSILON, perturbation_seed=pseed,
            perturbation_shape=SHAPES[pick % 2], grid=self.GRID)), path)
        self.items = [path]

    def run(self, i: int, d: str):
        src, gamma = self.items[i], self.GAMMA
        j = lambda name: os.path.join(d, name)  # noqa: E731
        _cli(["eigen", "--field", src, "--guess-re", repr(math.cos(gamma / 2)),
              "--guess-im", repr(math.sin(gamma / 2)), "--out-json", j("eig.json"),
              "--out-eigenvector", j("vec.csv")])
        with open(j("eig.json")) as fh:
            eig = json.load(fh)
        lam = [repr(eig["lambda_re"]), repr(eig["lambda_im"])]
        _cli(["backlund", "--field", src, "--eigenvector", j("vec.csv"),
              "--lambda-re", lam[0], "--lambda-im", lam[1], "--out", j("small.csv")])
        _cli(["evolve", "--field", j("small.csv"), "--dt", repr(self.GRID.dx),
              "--t-end", repr(self.T_END), "--stride", str(self.STRIDE),
              "--out-prefix", j("snap_")])
        paths = sorted(glob.glob(j("snap_[0-9][0-9][0-9][0-9].csv")))
        snaps = [fields.read_field_csv(p) for p in paths]
        with open(j("snap_series.csv")) as fh:
            t_last = fh.read().split()[-1].split(",")[0]
        _cli(["backlund", "--field", paths[-1], "--direction", "up",
              "--lambda-re", lam[0], "--lambda-im", lam[1], "--t", t_last,
              "--out", j("up.csv")])
        return eig, snaps[0], len(snaps)

    def check(self, i: int, out, d: str):
        eig, first, n_snaps = out
        fails = []
        digests = []
        for man in sorted(glob.glob(os.path.join(d, "*manifest.json"))):
            with open(man) as fh:
                m = json.load(fh)
            for path, digest in sorted({**m["inputs"], **m["outputs"]}.items()):
                if _sha256(path) != digest:
                    fails.append(f"{os.path.basename(path)}: digest differs from {man}")
                if path.startswith(d):
                    digests.append(f"{os.path.relpath(path, d)}={digest}")
        if len(digests) == 0:
            fails.append("no manifests written")
        small = fields.read_field_csv(os.path.join(d, "small.csv"))
        if not (first.grid == small.grid and np.array_equal(first.u, small.u)
                and np.array_equal(first.v, small.v)):
            fails.append("first snapshot does not read back bit-identical to its input")
        expected = int(round(self.T_END / self.GRID.dx)) // self.STRIDE + 2
        if n_snaps != expected:
            fails.append(f"{n_snaps} snapshots, expected {expected}")
        series = np.loadtxt(os.path.join(d, "snap_series.csv"), delimiter=",",
                            skiprows=1, ndmin=2)
        values = {"lam": [eig["lambda_re"], eig["lambda_im"]],
                  "series_charge": series[:, 1].tolist()}
        return fails, values, hashlib.sha256("\n".join(digests).encode()).hexdigest()


WORKLOADS = {w.name: w for w in (StabilityRef, OrbitDense, EigenSurvey, CliSnapshots)}

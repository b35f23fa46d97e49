"""Command-line entry point: soliton, eigen, backlund, evolve, stability.

Every invocation resolves its parameters with precedence
flag > config file > built-in default, runs one subcommand, and writes a
run manifest (resolved parameters, tool version, wall time, SHA-256 digests
of inputs and outputs) beside the outputs.  Outputs are CSV for fields and
time series, JSON for scalar results; all writes are atomic
(temp-and-rename) and bit-deterministic for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field

from . import __version__
from .backlund import backlund_transform, up_map
from .errors import MtmError
from .evolution import EvolutionConfig, charge, evolve
from .fields import (
    Grid,
    _atomic_write,
    read_field_csv,
    read_lax_csv,
    write_field_csv,
    write_lax_csv,
)
from .lax import find_eigenvalue, solve_time_bvp
from .solitons import (
    SpectralParameter,
    lorentz_boost,
    sample_spinor,
    stationary_soliton_evaluator,
)
from .stability import (
    ExperimentConfig,
    format_records_csv,
    format_summary_csv,
    sweep,
)

OUT_DIR_ENV = "MTMLAB_OUT_DIR"


# ---------------------------------------------------------------------------
# run manifests
# ---------------------------------------------------------------------------

@dataclass
class RunManifest:
    """Reproducibility record written beside every subcommand's outputs.

    `timings` holds per-stage wall times in seconds where the subcommand
    measures them: `mtmlab eigen` records `read_s` (the field read),
    `eigen_s` (the eigenvalue search) and `write_s` (the result and
    eigenvector writes); `mtmlab backlund` records `read_s` (the field
    read, and the eigenvector read going down), `backlund_s` (the down map,
    or the time BVP and the up map) and `write_s` (the field write);
    `mtmlab evolve` records `evolve_s` (the evolve call less its snapshot
    writes) and `write_s` (the snapshot and series writes).
    """

    subcommand: str
    parameters: dict
    tool_version: str
    wall_time_s: float
    inputs: dict = field(default_factory=dict)    # path -> sha256
    outputs: dict = field(default_factory=dict)   # path -> sha256
    timings: dict = field(default_factory=dict)   # stage -> seconds

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(path: str, subcommand: str, params: dict, t0: float,
                    inputs: list[str], outputs: list[str],
                    timings: dict | None = None) -> None:
    man = RunManifest(
        subcommand=subcommand,
        parameters={k: v for k, v in sorted(params.items())},
        tool_version=__version__,
        wall_time_s=time.perf_counter() - t0,
        inputs={p: file_digest(p) for p in inputs},
        outputs={p: file_digest(p) for p in outputs},
        timings=timings or {},
    )
    _atomic_write(path, man.to_json().encode())


def _resolve_out(path: str) -> str:
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


# ---------------------------------------------------------------------------
# configuration file and parameter resolution
# ---------------------------------------------------------------------------

def load_config(path: str) -> dict:
    """Flat key-value config: one `key = value` per line, `#` comments."""
    out: dict = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected 'key = value', got {raw!r}")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


class _Params:
    """Resolved parameters of one subcommand with typed accessors."""

    def __init__(self, args: argparse.Namespace, defaults: dict):
        cfg_path = getattr(args, "config", None)
        self._config = load_config(cfg_path) if cfg_path else {}
        self._args = args
        self._defaults = defaults
        self.resolved: dict = {}

    def _get(self, key: str):
        """flag > config file > default; None means 'not provided anywhere'."""
        flag = getattr(self._args, key, None)
        if flag is not None:
            return flag
        return self._config.get(key, self._defaults.get(key))

    def value(self, key: str, cast=None, required: bool = False):
        raw = self._get(key)
        if raw is None:
            if required:
                raise SystemExit2(f"missing required parameter: --{key.replace('_', '-')}")
            self.resolved[key] = None
            return None
        val = cast(raw) if cast is not None else raw
        self.resolved[key] = val
        return val


class SystemExit2(Exception):
    """Usage error: reported on stderr with exit code 2."""


def _grid_from(params: _Params) -> Grid:
    half = params.value("grid_l", float)
    n = params.value("grid_n", int)
    return Grid.symmetric(half, n)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

_GRID_DEFAULTS = {"grid_l": 30.0, "grid_n": 4096}


def _cmd_soliton(args) -> int:
    t0 = time.perf_counter()
    p = _Params(args, {**_GRID_DEFAULTS, "a": 0.0, "theta": 0.0, "t": 0.0,
                       "delta": 1.0, "out": "soliton.csv"})
    lam_re = p.value("lambda_re", float)
    lam_im = p.value("lambda_im", float)
    if lam_re is not None or lam_im is not None:
        lam = complex(lam_re or 0.0, lam_im or 0.0)
        sp = SpectralParameter(lam)
        gamma, delta = sp.gamma, sp.delta
        p.resolved.update({"gamma": gamma, "delta": delta})
    else:
        gamma = p.value("gamma", float, required=True)
        delta = p.value("delta", float)
    a = p.value("a", float)
    theta = p.value("theta", float)
    t = p.value("t", float)
    grid = _grid_from(p)
    out = _resolve_out(p.value("out", str))

    ev = stationary_soliton_evaluator(gamma, a, theta)
    if delta != 1.0:
        ev = lorentz_boost(ev, delta)
    f = sample_spinor(ev, t, grid)
    write_field_csv(f, out)
    _write_manifest(out + ".manifest.json", "soliton", p.resolved, t0, [], [out])
    print(f"soliton: wrote {out} (charge = {charge(f):.12g})")
    return 0


def _cmd_eigen(args) -> int:
    t0 = time.perf_counter()
    p = _Params(args, {"out_json": "eigen.json", "out_eigenvector": "eigenvector.csv"})
    field_path = p.value("field", str, required=True)
    guess = complex(p.value("guess_re", float, required=True),
                    p.value("guess_im", float, required=True))
    out_json = _resolve_out(p.value("out_json", str))
    out_vec = _resolve_out(p.value("out_eigenvector", str))

    t_read = time.perf_counter()
    f = read_field_csv(field_path)
    t_eigen = time.perf_counter()
    res = find_eigenvalue(f, guess)
    t_write = time.perf_counter()
    payload = {
        "lambda_re": res.lam.real,
        "lambda_im": res.lam.imag,
        "evans_residual": res.evans_residual,
        "iterations": res.iterations,
    }
    _atomic_write(out_json, json.dumps(payload, indent=2, sort_keys=True).encode() + b"\n")
    write_lax_csv(res.eigenvector, out_vec)
    timings = {"read_s": t_eigen - t_read, "eigen_s": t_write - t_eigen,
               "write_s": time.perf_counter() - t_write}
    _write_manifest(out_json + ".manifest.json", "eigen", p.resolved, t0,
                    [field_path], [out_json, out_vec], timings)
    print(f"eigen: lambda = {res.lam.real:.12g} {res.lam.imag:+.12g}i "
          f"(|E| = {res.evans_residual:.3g}, {res.iterations} iterations)")
    return 0


def _cmd_backlund(args) -> int:
    t0 = time.perf_counter()
    p = _Params(args, {"direction": "down", "a": 0.0, "theta": 0.0, "t": 0.0})
    field_path = p.value("field", str, required=True)
    lam = complex(p.value("lambda_re", float, required=True),
                  p.value("lambda_im", float, required=True))
    direction = p.value("direction", str)
    if direction not in ("down", "up"):
        raise SystemExit2(f"--direction must be 'down' or 'up', got {direction!r}")
    out = _resolve_out(p.value("out", str, required=True))

    t_read = time.perf_counter()
    f = read_field_csv(field_path)
    inputs = [field_path]
    if direction == "down":
        vec_path = p.value("eigenvector", str, required=True)
        vec = read_lax_csv(vec_path)
        inputs.append(vec_path)
    t_backlund = time.perf_counter()
    if direction == "down":
        g = backlund_transform(f, vec, lam)
    else:
        a = p.value("a", float)
        theta = p.value("theta", float)
        t = p.value("t", float)
        jost = solve_time_bvp(f, lam, t)
        g = up_map(f, jost, lam, a, theta)
    t_write = time.perf_counter()
    write_field_csv(g, out)
    timings = {"read_s": t_backlund - t_read, "backlund_s": t_write - t_backlund,
               "write_s": time.perf_counter() - t_write}
    _write_manifest(out + ".manifest.json", "backlund", p.resolved, t0, inputs, [out],
                    timings)
    print(f"backlund[{direction}]: wrote {out} (charge = {charge(g):.12g})")
    return 0


def _cmd_evolve(args) -> int:
    t0 = time.perf_counter()
    p = _Params(args, {"stride": 64, "out_prefix": "evolve_"})
    field_path = p.value("field", str, required=True)
    dt = p.value("dt", float, required=True)
    t_end = p.value("t_end", float, required=True)
    stride = p.value("stride", int)
    prefix = _resolve_out(p.value("out_prefix", str))

    f0 = read_field_csv(field_path)
    cfg = EvolutionConfig(dt=dt, t_end=t_end, output_stride=stride)
    series: list[tuple[float, float]] = []
    outputs: list[str] = []
    write_s = 0.0

    def observer(t: float, f) -> None:
        nonlocal write_s
        path = f"{prefix}{len(series):04d}.csv"
        t_write = time.perf_counter()
        write_field_csv(f, path)
        write_s += time.perf_counter() - t_write
        outputs.append(path)
        series.append((t, charge(f)))

    t_evolve = time.perf_counter()
    evolve(f0, cfg, observer=observer)
    evolve_s = time.perf_counter() - t_evolve - write_s
    t_series = time.perf_counter()
    series_path = f"{prefix}series.csv"
    lines = ["t,charge"] + ["%.17g,%.17g" % row for row in series]
    _atomic_write(series_path, ("\n".join(lines) + "\n").encode())
    outputs.append(series_path)
    write_s += time.perf_counter() - t_series
    _write_manifest(f"{prefix}manifest.json", "evolve", p.resolved, t0,
                    [field_path], outputs, {"evolve_s": evolve_s, "write_s": write_s})
    drift = abs(series[-1][1] - series[0][1]) / max(series[0][1], 1e-300)
    print(f"evolve: {len(series) - 1} snapshots, relative charge drift {drift:.3e}")
    return 0


def _cmd_stability(args) -> int:
    t0 = time.perf_counter()
    p = _Params(args, {**_GRID_DEFAULTS, "seed": 0, "t_end": 20.0,
                       "pipeline": "both", "shape": "gaussian_bump",
                       "out_dir": "stability_run"})
    gamma0 = p.value("gamma0", float, required=True)
    eps_raw = p.value("epsilon", required=True)     # comma-separated (see main)
    epsilons = [float(tok) for tok in eps_raw.split(",") if tok.strip()]
    if not epsilons:
        raise SystemExit2(f"--epsilon lists no value, got {eps_raw!r}")
    p.resolved["epsilon"] = epsilons
    seed = p.value("seed", int)
    t_end = p.value("t_end", float)
    pipeline = p.value("pipeline", str)
    shape = p.value("shape", str)
    grid = _grid_from(p)
    out_dir = _resolve_out(p.value("out_dir", str))
    os.makedirs(out_dir, exist_ok=True)

    cfg = ExperimentConfig(gamma0=gamma0, epsilon=epsilons[0],
                           perturbation_seed=seed, perturbation_shape=shape,
                           grid=grid, t_end=t_end, pipeline=pipeline)
    outputs: list[str] = []
    failed = False
    sw = sweep(cfg, epsilons)
    for row, res in zip(sw.rows, sw.results):
        if res is None:
            print(f"stability: eps={row.epsilon} {row.status}", file=sys.stderr)
            failed = True
            continue
        if res.fits_not_converged:
            print(f"stability: eps={row.epsilon} {res.fits_not_converged} of "
                  f"{len(res.records)} reconstruction fits did not converge",
                  file=sys.stderr)
        if len(epsilons) == 1:
            rec_path = os.path.join(out_dir, "records.csv")
            print(f"stability: eps={row.epsilon} lambda={res.lam:.9g} "
                  f"secant iterations={res.eigen_iterations} "
                  f"fit evaluations={res.fit_evaluations} "
                  f"|E|={res.evans_residual:.2e} max dist={row.max_dist:.4e}")
        else:
            tag = ("%g" % row.epsilon).replace(".", "p").replace("-", "m")
            rec_path = os.path.join(out_dir, f"records_eps{tag}.csv")
        _atomic_write(rec_path, format_records_csv(res.records).encode())
        outputs.append(rec_path)
    sum_path = os.path.join(out_dir, "summary.csv")
    _atomic_write(sum_path, format_summary_csv(sw).encode())
    outputs.append(sum_path)
    if len(epsilons) > 1:
        print("stability sweep slopes:", json.dumps(sw.slopes, sort_keys=True))
    _write_manifest(os.path.join(out_dir, "manifest.json"), "stability",
                    p.resolved, t0, [], outputs)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mtmlab",
        description="Numerical laboratory for the massive Thirring model "
                    "(angles in radians).")
    ap.add_argument("--version", action="version", version=f"mtmlab {__version__}")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="flat key=value config file (flags override)")

    sp = sub.add_parser("soliton", help="sample a soliton orbit point to CSV")
    add_common(sp)
    sp.add_argument("--gamma", type=float, help="width angle in (0, pi), radians")
    sp.add_argument("--delta", type=float, help="boost parameter |lambda| (default 1)")
    sp.add_argument("--lambda-re", type=float, dest="lambda_re")
    sp.add_argument("--lambda-im", type=float, dest="lambda_im")
    sp.add_argument("--a", type=float, help="spatial shift")
    sp.add_argument("--theta", type=float, help="gauge phase")
    sp.add_argument("--t", type=float, help="sample time")
    sp.add_argument("--grid-l", type=float, dest="grid_l")
    sp.add_argument("--grid-n", type=int, dest="grid_n")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_soliton)

    sp = sub.add_parser("eigen", help="find a Lax eigenvalue near a complex guess")
    add_common(sp)
    sp.add_argument("--field", help="input field snapshot CSV")
    sp.add_argument("--guess-re", type=float, dest="guess_re")
    sp.add_argument("--guess-im", type=float, dest="guess_im")
    sp.add_argument("--out-json", dest="out_json")
    sp.add_argument("--out-eigenvector", dest="out_eigenvector")
    sp.set_defaults(func=_cmd_eigen)

    sp = sub.add_parser("backlund", help="apply the auto-Backlund transformation")
    add_common(sp)
    sp.add_argument("--field", help="input field snapshot CSV")
    sp.add_argument("--eigenvector", help="Lax vector CSV (down direction)")
    sp.add_argument("--lambda-re", type=float, dest="lambda_re")
    sp.add_argument("--lambda-im", type=float, dest="lambda_im")
    sp.add_argument("--direction", choices=("down", "up"))
    sp.add_argument("--a", type=float)
    sp.add_argument("--theta", type=float)
    sp.add_argument("--t", type=float)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_backlund)

    sp = sub.add_parser("evolve", help="time-integrate a field snapshot")
    add_common(sp)
    sp.add_argument("--field")
    sp.add_argument("--dt", type=float, help="time step; must equal the grid dx")
    sp.add_argument("--t-end", type=float, dest="t_end")
    sp.add_argument("--stride", type=int, help="snapshot every this many steps")
    sp.add_argument("--out-prefix", dest="out_prefix")
    sp.set_defaults(func=_cmd_evolve)

    sp = sub.add_parser("stability", help="orbital-stability experiment / sweep")
    add_common(sp)
    sp.add_argument("--gamma0", type=float)
    sp.add_argument("--epsilon", action="append",
                    help="perturbation size; repeat (or comma-separate) for a sweep")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--t-end", type=float, dest="t_end")
    sp.add_argument("--pipeline", choices=("direct", "backlund", "both"))
    sp.add_argument("--shape", choices=("gaussian_bump", "random_fourier"))
    sp.add_argument("--grid-l", type=float, dest="grid_l")
    sp.add_argument("--grid-n", type=int, dest="grid_n")
    sp.add_argument("--out-dir", dest="out_dir")
    sp.set_defaults(func=_cmd_stability)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "epsilon", None) is not None:
        args.epsilon = ",".join(args.epsilon)
    try:
        return args.func(args)
    except SystemExit2 as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except MtmError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

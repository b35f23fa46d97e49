"""Command-line entry point: soliton, eigen, backlund, evolve, stability.

Every invocation resolves its parameters with precedence
flag > config file > `_COMMANDS` default, runs one subcommand, and writes a
run manifest (resolved parameters, tool version, wall time, SHA-256 digests
of inputs and outputs) beside the outputs.  Outputs are CSV for fields and
time series, JSON for scalar results; all writes are atomic
(temp-and-rename) and bit-deterministic for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, replace

from . import __version__
from .backlund import backlund_transform, up_map
from .errors import MtmError, ParameterError
from .evolution import charge, evolve, step_count
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
    PERTURBATION_SHAPES,
    PIPELINES,
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
    `mtmlab evolve` records `evolve_s` (the time spent in its `evolve`
    calls, one per snapshot span) and `write_s` (the snapshot and series
    writes).
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
    """Flat key-value config: one `key = value` per line, `#` comments, each key once."""
    out, lines = {}, {}      # key -> value, key -> line number
    with open(path) as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected 'key = value', got {raw!r}")
            key, val = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key in out:
                raise ValueError(f"{path}:{ln}: key {key!r} repeats {path}:{lines[key]}")
            out[key], lines[key] = val.strip(), ln
    return out


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _parse(key: str, kind, raw: str | list[str], source: str):
    """raw as `kind` reads it, checked as argparse checks a flag; else a usage error."""
    if isinstance(kind, list):      # a repeated flag gives a list of strings
        text = raw if isinstance(raw, str) else ",".join(raw)
        return [_parse(key, kind[0], tok, source) for tok in text.split(",") if tok.strip()]
    if isinstance(kind, tuple) and raw not in kind:
        raise SystemExit2(f"{_flag(key)}: invalid choice: {raw!r} "
                          f"(choose from {', '.join(kind)}){source}")
    try:
        return raw if isinstance(kind, tuple) else kind(raw)
    except ValueError:
        raise SystemExit2(
            f"{_flag(key)}: invalid {kind.__name__} value: {raw!r}{source}") from None


class _Params:
    """One subcommand's parameters, resolved flag > config file > table default.

    Config-file strings and the strings of a repeatable flag go through
    `_parse`; argparse has read every other flag.
    """

    def __init__(self, args: argparse.Namespace):
        self._args = args
        try:
            self._config = load_config(args.config) if args.config else {}
        except ValueError as exc:       # a line without '=', or a repeated key
            raise SystemExit2(str(exc)) from None
        for key in self._config:
            if key not in _COMMANDS[args.subcommand][2]:
                raise SystemExit2(f"unknown key {key!r} in config file {args.config}")
        self.resolved: dict = {}

    def value(self, key: str, required: bool = False):
        kind, default, _ = _COMMANDS[self._args.subcommand][2][key]
        raw, source = getattr(self._args, key), ""
        if raw is None and key in self._config:
            raw, source = self._config[key], f" in config file {self._args.config}"
        raw = default if raw is None else raw
        if raw is None and required:
            raise SystemExit2(f"missing required parameter: {_flag(key)}")
        val = _parse(key, kind, raw, source) if isinstance(raw, (str, list)) else raw
        self.resolved[key] = val
        return val


class SystemExit2(Exception):
    """Usage error: reported on stderr with exit code 2."""


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_soliton(args) -> int:
    t0 = time.perf_counter()
    p = _Params(args)
    lam_re = p.value("lambda_re")
    lam_im = p.value("lambda_im")
    if lam_re is not None or lam_im is not None:
        lam = complex(lam_re or 0.0, lam_im or 0.0)
        sp = SpectralParameter(lam)
        gamma, delta = sp.gamma, sp.delta
        p.resolved.update({"gamma": gamma, "delta": delta})
    else:
        gamma = p.value("gamma", required=True)
        delta = p.value("delta")
    a = p.value("a")
    theta = p.value("theta")
    t = p.value("t")
    grid = Grid.symmetric(p.value("grid_l"), p.value("grid_n"))
    out = _resolve_out(p.value("out"))

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
    p = _Params(args)
    field_path = p.value("field", required=True)
    guess = complex(p.value("guess_re", required=True),
                    p.value("guess_im", required=True))
    out_json = _resolve_out(p.value("out_json"))
    out_vec = _resolve_out(p.value("out_eigenvector"))

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
    p = _Params(args)
    field_path = p.value("field", required=True)
    lam = complex(p.value("lambda_re", required=True),
                  p.value("lambda_im", required=True))
    direction = p.value("direction")
    out = _resolve_out(p.value("out", required=True))

    t_read = time.perf_counter()
    f = read_field_csv(field_path)
    inputs = [field_path]
    if direction == "down":
        vec_path = p.value("eigenvector", required=True)
        vec = read_lax_csv(vec_path)
        inputs.append(vec_path)
    t_backlund = time.perf_counter()
    if direction == "down":
        g = backlund_transform(f, vec, lam)
    else:
        a = p.value("a")
        theta = p.value("theta")
        t = p.value("t")
        jost = solve_time_bvp(f, lam, t)
        g = up_map(f, jost, a, theta)
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
    p = _Params(args)
    field_path = p.value("field", required=True)
    dt = p.value("dt", required=True)
    t_end = p.value("t_end", required=True)
    stride = p.value("stride")
    prefix = _resolve_out(p.value("out_prefix"))

    f = read_field_csv(field_path)
    # all before snapshot 0 is written
    if not math.isfinite(dt) or dt == 0:
        raise ParameterError(f"dt must be finite and nonzero, got {dt}")
    if not math.isfinite(t_end) or t_end <= 0:
        raise ParameterError(f"t_end must be finite and positive, got {t_end}")
    if stride < 1:
        raise ParameterError(f"stride must be >= 1, got {stride}")
    if abs(abs(dt) - f.grid.dx) > 1e-12 * f.grid.dx:
        raise ParameterError(
            f"characteristic transport requires |dt| = dx ({f.grid.dx}), got {dt}")
    n_steps = step_count(t_end, dt)
    series: list[tuple[float, float]] = []
    outputs: list[str] = []
    evolve_s = write_s = 0.0
    k_prev = 0
    for k in (*range(0, n_steps, stride), n_steps):    # t = 0, then each span's end
        if k > k_prev:
            t_evolve = time.perf_counter()
            f = evolve(f, k - k_prev if dt > 0 else k_prev - k)
            evolve_s += time.perf_counter() - t_evolve
            k_prev = k
        path = f"{prefix}{len(series):04d}.csv"
        t_write = time.perf_counter()
        write_field_csv(f, path)
        write_s += time.perf_counter() - t_write
        outputs.append(path)
        series.append((k * dt if k else 0.0, charge(f)))    # 0 * dt is -0 for dt < 0
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
    p = _Params(args)
    gamma0 = p.value("gamma0", required=True)
    epsilons = p.value("epsilon", required=True)
    if not epsilons:
        raise SystemExit2("--epsilon lists no value")
    for i, eps in enumerate(epsilons):
        if eps in epsilons[:i]:     # the runs would share one records file
            raise SystemExit2(f"--epsilon lists {eps!r} twice")
    # built before the directory, so that a rejected parameter leaves none behind
    cfg = ExperimentConfig(gamma0=gamma0, epsilon=epsilons[0],
                           perturbation_seed=p.value("seed"), t_end=p.value("t_end"),
                           pipeline=p.value("pipeline"), perturbation_shape=p.value("shape"),
                           grid=Grid.symmetric(p.value("grid_l"), p.value("grid_n")))
    for eps in epsilons[1:]:
        replace(cfg, epsilon=eps)       # checks the epsilon as the sweep will
    out_dir = _resolve_out(p.value("out_dir"))
    os.makedirs(out_dir, exist_ok=True)
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
            tag = "%g" % row.epsilon    # repr where %g would merge two epsilons
            tag = tag if float(tag) == row.epsilon else repr(row.epsilon)
            tag = tag.replace(".", "p").replace("-", "m")
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
# parameter table and parser
# ---------------------------------------------------------------------------

_GRID_L, _GRID_N = Grid.symmetric.__defaults__
_GRID = {"grid_l": (float, _GRID_L, None), "grid_n": (int, _GRID_N, None)}

#: subcommand -> (help, command, {parameter: (kind, default, help)}).  A kind is a
#: converter, a tuple of allowed strings, or [converter] for a comma-separated list.
_COMMANDS = {
    "soliton": ("sample a soliton orbit point to CSV", _cmd_soliton, {
        "gamma": (float, None, "width angle in (0, pi), radians"),
        "delta": (float, 1.0, "boost parameter |lambda| (default 1)"),
        "lambda_re": (float, None, None),
        "lambda_im": (float, None, None),
        "a": (float, 0.0, "spatial shift"),
        "theta": (float, 0.0, "gauge phase"),
        "t": (float, 0.0, "sample time"),
        **_GRID,
        "out": (str, "soliton.csv", None),
    }),
    "eigen": ("find a Lax eigenvalue near a complex guess", _cmd_eigen, {
        "field": (str, None, "input field snapshot CSV"),
        "guess_re": (float, None, None),
        "guess_im": (float, None, None),
        "out_json": (str, "eigen.json", None),
        "out_eigenvector": (str, "eigenvector.csv", None),
    }),
    "backlund": ("apply the auto-Backlund transformation", _cmd_backlund, {
        "field": (str, None, "input field snapshot CSV"),
        "eigenvector": (str, None, "Lax vector CSV (down direction)"),
        "lambda_re": (float, None, None),
        "lambda_im": (float, None, None),
        "direction": (("down", "up"), "down", None),
        "a": (float, 0.0, None),
        "theta": (float, 0.0, None),
        "t": (float, 0.0, None),
        "out": (str, None, None),
    }),
    "evolve": ("time-integrate a field snapshot", _cmd_evolve, {
        "field": (str, None, None),
        "dt": (float, None, "time step; must equal the grid dx"),
        "t_end": (float, None, None),
        "stride": (int, 64, "snapshot every this many steps"),
        "out_prefix": (str, "evolve_", None),
    }),
    "stability": ("orbital-stability experiment / sweep", _cmd_stability, {
        "gamma0": (float, None, None),
        "epsilon": ([float], None, "perturbation size; repeat (or comma-separate) for a sweep"),
        "seed": (int, ExperimentConfig.perturbation_seed, None),
        "t_end": (float, ExperimentConfig.t_end, None),
        "pipeline": (PIPELINES, ExperimentConfig.pipeline, None),
        "shape": (PERTURBATION_SHAPES, ExperimentConfig.perturbation_shape, None),
        **_GRID,
        "out_dir": (str, "stability_run", None),
    }),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mtmlab",
        description="Numerical laboratory for the massive Thirring model "
                    "(angles in radians).")
    ap.add_argument("--version", action="version", version=f"mtmlab {__version__}")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, (help_, _, table) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--config", help="flat key=value config file (flags override)")
        for key, (kind, _, flag_help) in table.items():
            if isinstance(kind, list):
                sp.add_argument(_flag(key), action="append", help=flag_help)
            elif isinstance(kind, tuple):
                sp.add_argument(_flag(key), choices=kind, help=flag_help)
            else:
                sp.add_argument(_flag(key), type=kind, help=flag_help)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.subcommand][1](args)
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

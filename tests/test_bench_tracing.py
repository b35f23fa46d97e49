"""The module attributes `bench/tracing.py` patches exist, and the code calls them."""

import importlib

import numpy as np

from mtmlab import cli, lax, stability
from mtmlab.fields import Grid, SpinorField, write_field_csv
from mtmlab.solitons import stationary_soliton

from helpers import load_bench_module


def test_trace_sites_resolve_to_callables():
    tracing = load_bench_module("tracing")
    sites = [site[:2] for site in tracing.SPAN_SITES + tracing.COUNT_SITES]
    assert ("mtmlab.cli", "write_lax_csv") in sites
    assert ("mtmlab.lax", "csech") in sites
    for mod_name, attr in sites:
        fn = getattr(importlib.import_module(mod_name), attr, None)
        assert callable(fn), f"{mod_name}.{attr} is not a callable"


def test_lax_spans_see_the_eigenvalue_search():
    """find_eigenvalue reaches evans_function through the patched attribute.

    A refactor that calls a private helper instead would leave that span
    at 0 calls, and the traced benchmark would attribute nothing to it.  The
    search builds no whole-line Jost pair, so solve_jost is not called.
    """
    tracing = load_bench_module("tracing")
    f = stationary_soliton(np.pi / 2, 0.0, 0.0, 0.0, Grid.symmetric(30.0, 512))
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        lax.find_eigenvalue(f, np.exp(0.25j * np.pi))
    finally:
        restore()
    totals = tracer.totals()
    assert totals["lax.find_eigenvalue"]["calls"] == 1
    assert totals["lax.evans_function"]["calls"] >= 2
    assert totals["lax.solve_jost"]["calls"] == 0


def test_evolve_spans_see_every_snapshot(tmp_path):
    """`mtmlab evolve` reads once, evolves each span and writes each snapshot via the patched names.

    A writer or evolver reached under another name would leave the
    `cli_snapshots` spans short, and the traced benchmark would misplace the
    time of the snapshot loop.
    """
    tracing = load_bench_module("tracing")
    grid = Grid.symmetric(30.0, 64)
    src = tmp_path / "f.csv"
    write_field_csv(stationary_soliton(np.pi / 2, 0.0, 0.0, 0.0, grid), str(src))
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        code = cli.main(["evolve", "--field", str(src), "--dt", repr(grid.dx),
                         "--t-end", repr(10 * grid.dx), "--stride", "3",
                         "--out-prefix", str(tmp_path / "snap_")])
    finally:
        restore()
    assert code == 0
    snapshots = sorted(tmp_path.glob("snap_[0-9][0-9][0-9][0-9].csv"))
    assert len(snapshots) == 5      # t = 0 and after steps 3, 6, 9 and 10
    totals = tracer.totals()
    assert totals["fields.write_csv"]["calls"] == len(snapshots)
    assert totals["evolution.evolve"]["calls"] == 4     # spans of 3, 3, 3 and 1 steps
    assert totals["fields.read_csv"]["calls"] == 1


def test_backlund_up_spans_see_one_time_bvp(tmp_path):
    """`mtmlab backlund --direction up` solves one time BVP and maps up once, under patched names.

    A command that reached solve_time_bvp or up_map under another name would
    leave these spans at 0 calls.
    """
    tracing = load_bench_module("tracing")
    src = tmp_path / "zero.csv"
    write_field_csv(SpinorField.zero(Grid.symmetric(30.0, 64)), str(src))
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        code = cli.main(["backlund", "--field", str(src), "--direction", "up",
                         "--lambda-re", "0.7", "--lambda-im", "0.7",
                         "--a", "0.3", "--theta", "0.4", "--out", str(tmp_path / "up.csv")])
    finally:
        restore()
    assert code == 0
    totals = tracer.totals()
    for name in ("lax.solve_time_bvp", "lax.solve_jost", "backlund.up_map"):
        assert totals[name]["calls"] == 1, name


def test_stability_spans_see_every_sample():
    """run_experiment reaches the engine through the stability module's patched names.

    Each gap between sample steps is one evolve call per pipeline; each
    sample, a repeated one too, is one distance, one time BVP (one Jost
    solve) and one fit.
    """
    tracing = load_bench_module("tracing")
    times = (0.0, 0.5, 0.5, 1.0)
    cfg = stability.ExperimentConfig(gamma0=np.pi / 2, epsilon=0.01, t_end=1.0, times=times,
                                     grid=Grid.symmetric(30.0, 512))
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        res = stability.run_experiment(cfg)
    finally:
        restore()
    assert res.fits_not_converged == 0      # so no fit was restarted
    # the package's evaluation count and the benchmark's are one number
    assert tracer.counts["stability.fit.nfev"] == res.fit_evaluations
    assert tracer.counts["stability.fit.converged"] == len(times)
    totals = tracer.totals()
    assert totals["evolution.evolve"]["calls"] == 2 * 2     # two gaps, two pipelines
    for name in ("stability.modulated_distance", "lax.solve_time_bvp", "lax.solve_jost",
                 "stability.fit"):
        assert totals[name]["calls"] == len(times), name
    assert totals["lax.find_eigenvalue"]["calls"] == 1

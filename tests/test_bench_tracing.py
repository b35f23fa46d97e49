"""The module attributes `bench/tracing.py` patches exist, and the code calls them."""

import importlib
import importlib.util
import pathlib

import numpy as np

from mtmlab import lax
from mtmlab.fields import Grid
from mtmlab.solitons import stationary_soliton

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_trace_sites_resolve_to_callables():
    tracing = _load_tracing()
    sites = [site[:2] for site in tracing.SPAN_SITES + tracing.COUNT_SITES]
    assert ("mtmlab.cli", "write_lax_csv") in sites
    assert ("mtmlab.lax", "csech") in sites
    for mod_name, attr in sites:
        fn = getattr(importlib.import_module(mod_name), attr, None)
        assert callable(fn), f"{mod_name}.{attr} is not a callable"


def test_lax_spans_see_the_eigenvalue_search():
    """find_eigenvalue reaches solve_jost and evans_function through the patched attributes.

    A refactor that calls a private helper instead would leave those spans
    at 0 calls, and the traced benchmark would attribute nothing to them.
    """
    tracing = _load_tracing()
    f = stationary_soliton(np.pi / 2, 0.0, 0.0, 0.0, Grid.symmetric(30.0, 512))
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        lax.find_eigenvalue(f, np.exp(0.25j * np.pi))
    finally:
        restore()
    totals = tracer.totals()
    assert totals["lax.find_eigenvalue"]["calls"] == 1
    assert totals["lax.solve_jost"]["calls"] >= 2
    assert totals["lax.evans_function"]["calls"] >= 2

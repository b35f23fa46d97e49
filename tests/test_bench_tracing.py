"""The module attributes a traced benchmark pass (`bench/tracing.py`) patches exist."""

import importlib
import importlib.util
import pathlib

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

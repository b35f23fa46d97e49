"""The benchmark's `cli_snapshots` workload runs and passes its own gate.

It writes snapshots through the CLI and reads them back with the library,
so a snapshot-format change that breaks its setup or its read-back check
fails here.
"""

import numpy as np

from helpers import load_bench_module


def test_cli_snapshots_item_passes_its_gate(tmp_path):
    wl = load_bench_module("workloads").WORKLOADS["cli_snapshots"](0, str(tmp_path / "inputs"))
    d = tmp_path / "item0"
    d.mkdir()
    out = wl.run(0, str(d))
    fails, values, _ = wl.check(0, out, str(d))
    assert fails == []
    assert out[2] == len(values["series_charge"]) > 1
    assert np.all(np.isfinite(values["lam"]))

"""Every benchmark workload runs its first item and passes that item's own gate.

A change that breaks a workload's setup, its run or its correctness gate
fails here.  `cli_snapshots` writes snapshots through the CLI and reads them
back with the library, so it also catches a snapshot-format change that
breaks its read-back check.
"""

import numpy as np
import pytest

from helpers import load_bench_module

WORKLOADS = load_bench_module("workloads").WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_first_item_passes_its_gate(tmp_path, name):
    wl = WORKLOADS[name](0, str(tmp_path / "inputs"))
    d = tmp_path / "item0"
    d.mkdir()
    out = wl.run(0, str(d))
    fails, values, _ = wl.check(0, out, str(d))
    assert fails == []
    if name == "cli_snapshots":
        assert out[2] == len(values["series_charge"]) > 1
        assert np.all(np.isfinite(values["lam"]))

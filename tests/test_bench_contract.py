"""Smoke test of the benchmark's calls into the public API.

Runs one seeded item of every workload in ``perfbench/workloads.py`` at the
smallest size of its ladder, on the benchmark's own grid, through the same
generate/run/check calls the benchmark harness makes; a change to the
public surface the harness uses then fails here, not in a benchmark run.
"""

import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

import hilbfs as hb

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_item_passes_its_gate(name):
    wl = workloads.WORKLOADS[name]
    k = min(wl.ladder)
    model = hb.geometry.build_p1_model(k, **workloads.grid(k))
    if wl.uses_laplacian:
        model.laplacian()
    (item,) = wl.generate(hb, model, np.random.default_rng([1, k]), 1, defaultdict(int))
    assert wl.check(hb, model, item, wl.run(hb, model, item)) is None

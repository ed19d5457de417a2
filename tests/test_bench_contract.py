"""Smoke test of the benchmark's calls into the public API.

Runs one seeded item of every workload in ``perfbench/workloads.py`` at the
smallest and at the largest size of its ladder, on the benchmark's own
grid, through the same generate/run/check calls the benchmark harness
makes; a change to the public surface the harness uses, or a fault that
shows only at large N, then fails here, not in a benchmark run.
"""

import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

import hilbfs as hb

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def _item_gate(name, k, seed=1, index=0):
    """The gate verdict on item ``index`` of the size-k block that the
    benchmark generates for ``seed`` (rng seeded by (seed, k))."""
    wl = workloads.WORKLOADS[name]
    model = hb.geometry.build_p1_model(k, **workloads.grid(k))
    if wl.uses_laplacian:
        model.laplacian()
    items = wl.generate(hb, model, np.random.default_rng([seed, k]), index + 1, defaultdict(int))
    return wl.check(hb, model, items[index], wl.run(hb, model, items[index]))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_item_passes_its_gate(name):
    assert _item_gate(name, min(workloads.WORKLOADS[name].ladder)) is None


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_item_at_the_largest_size_passes_its_gate(name):
    assert _item_gate(name, max(workloads.WORKLOADS[name].ladder)) is None


def test_surject_full_item_at_k12_passes_its_gate():
    # the loose path tolerance of the continuation has about one decade of
    # margin here: at 1e-3 instead of 1e-4 a seed-1 k=12 item fails
    assert _item_gate("surject-full", 12) is None


def test_surject_full_item_takes_at_most_twelve_jacobians(monkeypatch):
    # the secant predictor and the loose path tolerance take 9-11 Jacobian
    # assemblies here; a tight tolerance on every step without a predictor
    # took 19
    jacobian = hb.pushforward._psi_t_jacobian
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return jacobian(*args)

    monkeypatch.setattr(hb.pushforward, "_psi_t_jacobian", counting)
    assert _item_gate("surject-full", 4) is None
    assert 0 < calls[0] <= 12


def test_two_balance_audit_items_on_one_model_pass_their_gates():
    # the second item's audit reads the refined grid the first one built
    wl = workloads.WORKLOADS["balance-audit"]
    k = min(wl.ladder)
    model = hb.geometry.build_p1_model(k, **workloads.grid(k))
    items = wl.generate(hb, model, np.random.default_rng([1, k]), 2, defaultdict(int))
    fine = []
    for inp in items:
        assert wl.check(hb, model, inp, wl.run(hb, model, inp)) is None
        fine.append(model.refined())
    assert fine[0] is fine[1]


def test_surject_fixed_item_at_the_rounding_floor():
    # the third k=4 item of seed 10: the moment Newton's Armijo test alone
    # stalled at a coordinate residual of 1.42e-9 against tol/scale = 2e-10
    assert _item_gate("surject-fixed", 4, seed=10, index=2) is None

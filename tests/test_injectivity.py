import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

import hilbfs
from hilbfs import DimensionError, HermitianForm, build_p1_model, verify_injectivity
from hilbfs.injectivity import perturbed_pair
from hilbfs.linalg import random_spd

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def _audit_pair(k, seed=1, item=0):
    """Item ``item`` of the ``balance-audit`` block that the benchmark
    generates for (seed, k), on the benchmark's grid: (model, H, H')."""
    wl = workloads.WORKLOADS["balance-audit"]
    model = build_p1_model(k, **workloads.grid(k))
    rng = np.random.default_rng([seed, k])
    _, h, h2 = wl.generate(hilbfs, model, rng, item + 1, defaultdict(int))[item]
    return model, h, h2


class TestEqualForms:
    def test_zero_epsilon_and_distance(self):
        model = build_p1_model(3)
        h = random_spd(model.N, np.random.default_rng(4), cond=10.0)
        report = verify_injectivity(model, h, h)
        assert report.epsilon == 0.0
        assert report.distance_op <= 1e-14
        assert report.route_agreement <= 1e-8

    def test_identity_is_verified(self):
        # eps = 0 makes the bound 2 N^2 eps zero; H = I gives an exact gauge,
        # so distance 0, with no rounding to allow for
        model = build_p1_model(3)
        h = HermitianForm.identity(model.N)
        report = verify_injectivity(model, h, h)
        assert report.epsilon == 0.0
        assert report.distance_op == 0.0
        assert report.status == "verified"
        assert report.route_agreement <= 1e-8

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equal_forms_are_verified(self, k, seed):
        # the gauge distance is rounding, not 0, so it is judged less the
        # gauge's measured rounding against the bound 0
        model = build_p1_model(k)
        h, _ = perturbed_pair(model, np.random.default_rng(seed), 1e-3)
        report = verify_injectivity(model, h, h, refine_check=False)
        assert report.epsilon == 0.0
        assert report.status == "verified"


def test_each_form_is_factorised_once(monkeypatch):
    model = build_p1_model(4)
    h, h2 = perturbed_pair(model, np.random.default_rng(3), 1e-3)
    zpotrf = sla.lapack.zpotrf
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return zpotrf(*args, **kwargs)

    monkeypatch.setattr(sla.lapack, "zpotrf", counting)
    verify_injectivity(model, h, h2)
    assert calls == [(model.N, model.N)] * 2


def test_wrong_size_form_raises():
    model = build_p1_model(3)
    h = HermitianForm.identity(model.N)
    with pytest.raises(DimensionError):
        verify_injectivity(model, h, HermitianForm.identity(model.N + 1))


def test_refine_check_off_leaves_refinement_unset():
    model = build_p1_model(2)
    h, h2 = perturbed_pair(model, np.random.default_rng(0), 1e-3)
    report = verify_injectivity(model, h, h2, refine_check=False)
    assert report.refinement_flag is None
    assert report.epsilon_refined is None


class TestPaperRows:
    def test_gauge_rows_rejected_by_the_cone_bound(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the moment Newton ran on a rejected row")

        monkeypatch.setattr(hilbfs.moments, "solve_moments", unreachable)
        model, h, h2 = _audit_pair(8)
        first = verify_injectivity(model, h, h2, refine_check=False)
        second = verify_injectivity(model, h, h2, refine_check=False)
        assert first.lambda_mode == "probe"
        assert first.lambda_paper_status.startswith("infeasible: row 0: ")
        assert "peak ratio" in first.lambda_paper_status
        assert second.lambda_paper_status == first.lambda_paper_status

    def test_k1_keeps_the_paper_family(self):
        model, h, h2 = _audit_pair(1)
        report = verify_injectivity(model, h, h2, refine_check=False)
        assert report.lambda_mode == "paper"
        assert report.lambda_paper_status == "achieved"

    def test_degenerate_row_newton_names_its_row(self):
        # the cone bound is silent on this k=2 pair, so row 0's moment Newton
        # runs until its Jacobian degenerates; the status keeps the row prefix
        model, h, h2 = _audit_pair(2, seed=5, item=1)
        report = verify_injectivity(model, h, h2, refine_check=False)
        assert report.lambda_mode == "probe"
        assert report.lambda_paper_status.startswith(
            "infeasible: row 0: moment Newton jacobian degenerate at iteration"
        )

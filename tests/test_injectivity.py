import re
import sys
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

import hilbfs
import hilbfs.geometry
from hilbfs import (
    DimensionError,
    HermitianForm,
    MetricWeight,
    MomentInfeasibleError,
    build_p1_model,
    compare_fs,
    verify_injectivity,
)
from hilbfs.injectivity import perturbed_pair
from hilbfs.linalg import random_hermitian, random_spd
from hilbfs.moments import _probe_system

from _oracles import audit_tables

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


def _rel(new, ref):
    return float(np.abs(new - ref).max() / np.abs(ref).max())


# the balance-audit pairs of seeds 1-3, at the ladder's sizes and k = 2
PASS_PAIRS = [(k, seed) for k in (2, 4, 8, 16) for seed in (1, 2, 3)]


class TestOnePass:
    @pytest.mark.parametrize("k, seed", PASS_PAIRS)
    def test_pass_matches_the_full_tables(self, k, seed):
        # compare_fs sums over ring blocks what the audit once read from
        # N x Q tables: the reconstruction's deviation, the row-ratio peaks
        # and the probe rows' Lambda and F
        model, h, h2 = _audit_pair(k, seed)
        comp = compare_fs(model, h, h2)
        peaks, lam, fmat, deviation = audit_tables(model, comp.frame, comp.f, comp.d_sq)
        system, peak = _probe_system(comp.probe_sums)
        assert _rel(comp.peaks, peaks) <= 1e-13
        assert _rel(system.matrix, lam) <= 1e-13
        assert _rel(comp.probe_f_sums / peak, fmat) <= 1e-13
        assert abs(comp.pointwise_consistency - deviation) <= 1e-13 * deviation

    @pytest.mark.parametrize("k, seed", PASS_PAIRS)
    def test_f_matrix_is_bounded_by_sup_f(self, k, seed):
        # |F_ij| <= sup|f| Lambda_ij, and no row moment exceeds 1
        model, h, h2 = _audit_pair(k, seed)
        report = verify_injectivity(model, h, h2, refine_check=False)
        assert report.chain["F_max"] <= report.epsilon

    def test_audit_forms_no_node_table(self):
        # an N x Q table of doubles is 8NQ bytes; the audit's one pass holds
        # a ring block's squares and ratios, not the tables
        model, h, h2 = _audit_pair(16)
        verify_injectivity(model, h, h2, refine_check=False)  # builds the kernel
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            verify_injectivity(model, h, h2, refine_check=False)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 2 * 8 * model.N * model.Q


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
    # fresh forms: perturbed_pair leaves the factor it found on h
    h, h2 = (HermitianForm(f.mat) for f in perturbed_pair(model, np.random.default_rng(3), 1e-3))
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


def test_audit_at_k96_runs_from_the_kernel():
    # the gauge frame's squares |(A s)_j|^2 rw come from the pairing kernel,
    # so no z^96 is formed and squared on the default grid; tier-1 turns an
    # overflow warning into an error
    model = build_p1_model(96)
    n = model.N
    p = random_hermitian(n, np.random.default_rng(0))
    p /= np.abs(np.linalg.eigvalsh(p)).max()
    h2 = HermitianForm(np.eye(n) + 1e-4 * p)
    report = verify_injectivity(model, HermitianForm.identity(n), h2, refine_check=False)
    assert report.status == "verified"
    assert report.route_agreement <= 1e-8
    assert model._sections is None


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"scale": 1e-3, "cond": 0.5}, "cond must be finite and at least 1"),
        ({"scale": 1e-3, "cond": 0.0}, "cond must be finite and at least 1"),
        ({"scale": 1e-3, "cond": float("inf")}, "cond must be finite and at least 1"),
        ({"scale": 1e-3, "cond": float("nan")}, "cond must be finite and at least 1"),
        ({"scale": 2.0}, "scale must lie in (-1, 1)"),
        ({"scale": -1.0}, "scale must lie in (-1, 1)"),
        ({"scale": float("nan")}, "scale must lie in (-1, 1)"),
    ],
)
def test_perturbed_pair_rejects_bad_parameters(kwargs, message):
    # |scale| < 1 keeps I + scale P, and so H', positive definite
    model = build_p1_model(2)
    with pytest.raises(ValueError, match=re.escape(message)):
        perturbed_pair(model, np.random.default_rng(0), **kwargs)


def test_perturbed_pair_accepts_the_limits_of_its_range():
    model = build_p1_model(2)
    h, h2 = perturbed_pair(model, np.random.default_rng(0), -0.999, cond=1.0)
    assert h.is_positive_definite() and h2.is_positive_definite()


class TestRefinedGrid:
    def test_two_audits_build_the_fine_grid_once(self, monkeypatch):
        model, h, h2 = _audit_pair(4)
        build = hilbfs.geometry.build_p1_model
        built = []

        def counting(*args, **kwargs):
            built.append(args[1:3])
            return build(*args, **kwargs)

        monkeypatch.setattr(hilbfs.geometry, "build_p1_model", counting)
        first = verify_injectivity(model, h, h2)
        second = verify_injectivity(model, h, h2)
        assert built == [(2 * model.radial_nodes, 2 * model.azimuthal_nodes)]
        assert second.epsilon_refined == first.epsilon_refined

    @pytest.mark.parametrize("k", [4, 8])
    def test_refined_supremum_equals_a_fresh_fine_model(self, k):
        model, h, h2 = _audit_pair(k)
        fine = build_p1_model(k, 2 * model.radial_nodes, 2 * model.azimuthal_nodes)
        u1, u2 = (MetricWeight.bergman(x).potential(fine) for x in (h, h2))
        eps_refined = float(np.abs(np.exp(u2 - u1) - 1.0).max())
        for _ in range(2):
            report = verify_injectivity(model, h, h2)
            assert report.epsilon_refined == eps_refined
            assert report.refinement_flag == bool(abs(eps_refined - report.epsilon) > 1e-6)

    def test_the_fine_grid_never_forms_its_sections(self):
        model, h, h2 = _audit_pair(4)
        verify_injectivity(model, h, h2)
        assert model.refined()._sections is None


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

    def test_degenerate_row_newton_names_its_row(self, monkeypatch):
        # the cone bound is silent on this k=2 pair, so row 0's moment Newton
        # runs until its Jacobian degenerates; the status names the row and
        # no iteration or residual, which rounding could move, and the
        # Newton's history stays on the exception
        build, raised = hilbfs.injectivity.build_lambda, []

        def recording(*args, **kwargs):
            try:
                return build(*args, **kwargs)
            except MomentInfeasibleError as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(hilbfs.injectivity, "build_lambda", recording)
        model, h, h2 = _audit_pair(2, seed=5, item=1)
        report = verify_injectivity(model, h, h2, refine_check=False)
        assert report.lambda_mode == "probe"
        assert report.lambda_paper_status == "infeasible: row 0: moment Newton did not converge"
        assert len(raised) == 1 and raised[0].row == 0 and len(raised[0].history) > 0

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import hilbfs.geometry
from hilbfs import (
    ANTICANONICAL,
    FIXED,
    CurvaturePositivityError,
    DefinitenessError,
    Density,
    DimensionError,
    HermitianForm,
    MassDefectError,
    MetricWeight,
    VariantError,
    build_p1_anticanonical_model,
    build_p1_model,
    curvature_volume,
    exponent_for_variant,
    fs_metric,
    hilb,
    hilb_nu,
    surject_fixed_volume,
    t_iterate,
)
from hilbfs.errors import IllConditionedWarning
from hilbfs.maps import variant_density
from hilbfs.linalg import random_hermitian, random_spd

from _oracles import balancing_loop, bergman_hilb_weights, section_rows, weighted_gram


def binomial_diag(k):
    return HermitianForm.diagonal([1.0 / math.comb(k, j) for j in range(k + 1)])


class TestHilb:
    def test_reference_k1(self):
        model = build_p1_model(1)
        g = hilb(model, MetricWeight.reference(model))
        assert np.abs(g.mat - np.eye(2)).max() <= 1e-13

    def test_reference_k2(self):
        model = build_p1_model(2)
        g = hilb(model, MetricWeight.reference(model))
        assert np.abs(g.mat - np.diag([1.0, 0.5, 1.0])).max() <= 1e-13

    def test_reference_binomial_all_k(self):
        for k in range(1, 11):
            model = build_p1_model(k)
            g = hilb(model, MetricWeight.reference(model))
            target = np.diag([1.0 / math.comb(k, j) for j in range(k + 1)])
            assert np.abs(g.mat - target).max() <= 1e-10

    def test_constant_scaling(self):
        model = build_p1_model(2, radial_nodes=20, azimuthal_nodes=24)
        rng = np.random.default_rng(0)
        h = random_spd(model.N, rng, cond=5.0)
        m = fs_metric(model, h)
        base = hilb(model, m)
        # fs_metric(c H) = c fs_metric(H): its potential is shifted by -log c
        scaled = hilb(model, fs_metric(model, h.scaled(3.0)))
        assert np.abs(scaled.mat - 3.0 * base.mat).max() <= 1e-10 * np.abs(base.mat).max()

    def test_equivariance_under_basis_change(self):
        model = build_p1_model(2, radial_nodes=20, azimuthal_nodes=24)
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m = MetricWeight.reference(model)
        g = hilb(model, m)
        # the Gram of the changed basis a s, by the defining sum over the nodes
        weight = model.ref_weight * np.exp(-m.potential(model))
        weights = weight * curvature_volume(model, m).weights
        g2 = (model.N / model.V) * weighted_gram(a @ model.sections, weights)
        target = a @ g.mat @ a.conj().T
        assert np.abs(g2 - target).max() <= 1e-10 * np.abs(target).max()

    def test_balanced_identity_random_forms(self):
        model = build_p1_model(2, radial_nodes=96, azimuthal_nodes=192)
        rng = np.random.default_rng(2)
        for _ in range(20):
            h = random_spd(model.N, rng, cond=100.0)
            g = hilb(model, fs_metric(model, h))
            tr = float(np.real(np.trace(np.linalg.solve(h.mat, g.mat))))
            assert abs(tr - model.N) <= 1e-8


class TestBergmanHilb:
    """hilb of a Bergman metric takes its weight 1/P from the synthesis
    its curvature is formed from."""

    @pytest.mark.parametrize("k", [2, 4, 8, 16])
    def test_matches_the_two_synthesis_weight(self, k):
        model = build_p1_model(k, 2 * (2 * k + 4), 2 * (4 * k + 4))
        h = random_spd(model.N, np.random.default_rng(k + 50), cond=10.0)
        weights = bergman_hilb_weights(model, h.mat)
        ref = (model.N / model.V) * weighted_gram(section_rows(model)[0], weights)
        ref = 0.5 * (ref + ref.conj().T)
        new = hilb(model, fs_metric(model, h)).mat
        assert np.abs(new - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_mass_guard_fires_when_underresolved(self):
        # the curvature volume's exactness audit at spec-default nodes
        model = build_p1_model(2)
        with pytest.raises(MassDefectError):
            hilb(model, fs_metric(model, HermitianForm.identity(3)))

    def test_positivity_guard_fires_on_a_bergman_metric(self, monkeypatch):
        # exact Bergman curvature is positive, so a negative density is
        # planted at one node of the synthesis that hilb reads
        model = build_p1_model(2, radial_nodes=16, azimuthal_nodes=20)
        synthesis = hilbfs.geometry._bergman_synthesis

        def planted(model, a):
            rows, num, c = synthesis(model, a)
            num[7] = -num[7]
            return rows, num, c

        monkeypatch.setattr(hilbfs.geometry, "_bergman_synthesis", planted)
        with pytest.raises(CurvaturePositivityError) as err:
            hilb(model, fs_metric(model, HermitianForm.identity(3)))
        assert err.value.node == 7

    @pytest.mark.parametrize("iterate", [False, True])
    def test_a_non_finite_gram_is_rejected(self, monkeypatch, iterate):
        # a NaN planted in the cells that the kernel's gram gathers from
        # reaches the Gram's finite check before its Cholesky factor
        model = build_p1_model(2, radial_nodes=16, azimuthal_nodes=20)
        analysis = hilbfs.geometry._ThetaFourier.analysis

        def planted(self, w):
            cells = analysis(self, w)
            cells[..., 0, 0] = np.nan
            return cells

        monkeypatch.setattr(hilbfs.geometry._ThetaFourier, "analysis", planted)
        h = HermitianForm.identity(3)
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            if iterate:
                t_iterate(model, h, 3, 0.0)
            else:
                hilb(model, fs_metric(model, h))

    @pytest.mark.parametrize("evaluate", [hilb, curvature_volume])
    def test_a_metric_of_another_size_is_rejected(self, evaluate):
        # a Bergman metric of the k = 3 model on the k = 2 model: its form
        # is checked before the synthesis reshapes it
        metric = fs_metric(build_p1_model(3), HermitianForm.identity(4))
        with pytest.raises(DimensionError, match="^form has dim 4, model needs 3$"):
            evaluate(build_p1_model(2), metric)

    def test_positivity_guard_fires_on_a_grid_metric(self):
        model = build_p1_model(1, radial_nodes=16, azimuthal_nodes=16)
        with pytest.raises(CurvaturePositivityError):
            hilb(model, MetricWeight.grid(60.0 * (model.t - 0.5)))

    @pytest.mark.parametrize("k", [40, 48, 64])
    def test_no_overflow_at_large_k(self, k):
        # the kernel's powers r^d rw lie in [0, 1]; bare powers r^d made
        # P P_zzbar overflow from k = 38
        model = build_p1_model(k, 2 * (2 * k + 4), 2 * (4 * k + 4))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            g = hilb(model, fs_metric(model, HermitianForm.identity(model.N)))
        # tr(H^{-1} hilb(fs_metric(H))) = N at every H, here H = I
        assert abs(np.trace(g.mat).real - model.N) <= 1e-8 * model.N


class TestHilbNu:
    def test_fixed_reference_volume_matches_hilb(self):
        model = build_p1_model(2)
        nu = Density(model.quad_weights)
        g = hilb_nu(model, MetricWeight.reference(model), FIXED, nu=nu)
        assert np.abs(g.mat - np.diag([1.0, 0.5, 1.0])).max() <= 1e-13

    def test_density_of_the_wrong_length_rejected(self):
        # both public callers of variant_density, before any broadcast
        model = build_p1_model(2)
        for size in (model.Q - 1, model.Q + 3):
            nu = Density(np.ones(size))
            with pytest.raises(DimensionError, match=f"{size} weights, model has {model.Q} nodes"):
                hilb_nu(model, MetricWeight.reference(model), FIXED, nu=nu)
            with pytest.raises(DimensionError, match=f"{size} weights, model has {model.Q} nodes"):
                surject_fixed_volume(model, HermitianForm.identity(model.N), nu=nu)

    def test_linearity_and_monotonicity(self):
        model = build_p1_model(2)
        m = MetricWeight.reference(model)
        rng = np.random.default_rng(3)
        w1 = model.quad_weights * (1.0 + 0.5 * rng.random(model.Q))
        w2 = w1 + model.quad_weights * rng.random(model.Q)
        g1 = hilb_nu(model, m, FIXED, nu=Density(w1))
        g2 = hilb_nu(model, m, FIXED, nu=Density(w2))
        diff = np.linalg.eigvalsh(g2.mat - g1.mat)
        assert diff.min() >= -1e-13
        g_sum = hilb_nu(model, m, FIXED, nu=Density(w1 + w2))
        assert np.abs(g_sum.mat - g1.mat - g2.mat).max() <= 1e-12

    def test_canonical_on_p1_rejected(self):
        # O(d) on P^1 is never canonically polarised: no canonical variant
        model = build_p1_model(2)
        with pytest.raises(VariantError, match="unknown variant 'canonical'"):
            hilb_nu(model, MetricWeight.reference(model), "canonical")

    def test_anticanonical_requires_fano_model(self):
        # -K of P^1 is O(2): neither O(1) nor O(3) is the Fano test-bed
        for d in (1, 3):
            model = build_p1_model(2 if d == 1 else 1, line_degree=d)
            with pytest.raises(VariantError):
                hilb_nu(model, MetricWeight.reference(model), ANTICANONICAL)

    def test_anticanonical_scaling_law(self):
        model = build_p1_anticanonical_model(2)
        m = MetricWeight.reference(model)
        base = variant_density(model, m, ANTICANONICAL)
        phi = 0.37
        # the metric scaled by c = e^{-phi k}: its grid potential is shifted by -log c
        shifted = MetricWeight.grid(m.potential(model) + phi * model.k)
        scaled = variant_density(model, shifted, ANTICANONICAL)
        # scaling the L-metric by e^{-phi} scales the volume by e^{-phi}
        assert np.abs(scaled.weights - math.exp(-phi) * base.weights).max() <= 1e-14

    def test_anticanonical_reference_gram(self):
        # L = O(2), k = 1: N = 3 and the reference Gram is binomial in the
        # monomial degree
        model = build_p1_anticanonical_model(1)
        g = hilb_nu(model, MetricWeight.reference(model), ANTICANONICAL)
        assert np.abs(g.mat - np.diag([1.0, 0.5, 1.0])).max() <= 1e-12


class TestExponents:
    @pytest.mark.parametrize(
        "variant,k,expected",
        [
            (FIXED, 4, Fraction(1, 4)),
            (ANTICANONICAL, 4, Fraction(1, 5)),
            (ANTICANONICAL, 1, Fraction(1, 2)),
            (FIXED, 1, Fraction(1, 1)),
        ],
    )
    def test_values(self, variant, k, expected):
        assert exponent_for_variant(variant, k) == expected


class TestTIterate:
    def test_balanced_point_is_fixed(self):
        model = build_p1_model(2, radial_nodes=20, azimuthal_nodes=24)
        trace = t_iterate(model, binomial_diag(2), max_iters=3, tol=1e-10)
        assert trace.converged
        assert trace.steps[1].step_max_norm < 1e-10

    def test_identity_converges_to_balanced(self):
        model = build_p1_model(2, radial_nodes=24, azimuthal_nodes=32)
        trace = t_iterate(model, HermitianForm.identity(3), max_iters=60, tol=1e-10)
        assert trace.converged
        final = trace.steps[-1].form.mat
        target = binomial_diag(2).mat
        target = target / np.exp(np.mean(np.log(np.linalg.eigvalsh(target))))
        assert np.abs(final - target).max() <= 1e-8

    def test_ill_conditioned_seed_warns(self):
        # the balanced form at k = 30 has condition C(30, 15) = 1.55e8, above
        # COND_GUARD, and its first Bergman metric factorises it
        with pytest.warns(IllConditionedWarning):
            t_iterate(build_p1_model(30), binomial_diag(30), max_iters=1)

    @pytest.mark.parametrize("iters, conds", [(1, ["1.056e+08"]), (2, ["1.056e+08", "1.098e+08"])])
    def test_each_form_is_guarded_once(self, iters, conds):
        # the seed's condition, 9.57e7, is below COND_GUARD and its two
        # iterates' are above it: the last form is guarded too, and no form
        # twice (guarding hilb's Gram and then its Bergman metric warned
        # three times in two steps)
        h0 = HermitianForm.diagonal([1.0 / math.comb(30, i) + 4e-9 for i in range(31)])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t_iterate(build_p1_model(30), h0, max_iters=iters)
        found = [str(w.message) for w in caught if w.category is IllConditionedWarning]
        assert len(found) == len(conds)
        assert all(f"condition number {c} exceeds" in m for c, m in zip(conds, found))

    def test_trace_invariant_along_iteration(self):
        model = build_p1_model(2, radial_nodes=24, azimuthal_nodes=32)
        rng = np.random.default_rng(5)
        h0 = random_spd(3, rng, cond=4.0)
        trace = t_iterate(model, h0, max_iters=5, tol=0.0)
        for step in trace.steps[1:]:
            assert step.trace_defect <= 1e-9

    @pytest.mark.parametrize("k,steps", [(4, 20), (8, 40)])
    def test_step_ratio_tends_to_the_second_eigenvalue(self, k, steps):
        """Near the balanced form H_b = diag(1/C(K, i)), K = k, write
        H = H_b^(1/2) (I + X) H_b^(1/2).  The derivative of T = hilb o fs_metric
        there, divided by T(H_b)'s trace ratio, has the eigenvalue
            lambda_l = (1 + l(l+1)/K) K!(K+1)! / ((K-l)!(K+l+1)!)
        on a (2l+1)-dimensional space for each l <= K (measured by central
        differences to 2e-8; the closed form was fitted, not derived).  The
        l = 0 mode is scale, which the unit determinant removes, and the
        l = 1 modes have eigenvalue 1: they move along the orbit of balanced
        forms and make no step.  So the steps shrink by
        lambda_2 = 1 - 12/((K+2)(K+3)), 0.714286 at K = 4 and 0.890909 at
        K = 8, once the higher modes have decayed."""
        model = build_p1_model(k, 2 * (2 * k + 4), 2 * (4 * k + 4))
        root = np.diag([math.comb(k, i) ** -0.5 for i in range(k + 1)])
        x = random_hermitian(k + 1, np.random.default_rng(k))
        h0 = HermitianForm(root @ (np.eye(k + 1) + 1e-4 * x) @ root)
        trace = t_iterate(model, h0, max_iters=steps, tol=0.0)
        ratio = trace.steps[-1].step_max_norm / trace.steps[-2].step_max_norm
        assert abs(ratio - (1.0 - 12.0 / ((k + 2) * (k + 3)))) <= 1e-4

    def test_negative_iteration_count(self):
        model = build_p1_model(2, radial_nodes=16, azimuthal_nodes=20)
        with pytest.raises(ValueError, match="^max_iters must be nonnegative, got -1$"):
            t_iterate(model, HermitianForm.identity(3), max_iters=-1)

    @pytest.mark.parametrize("tol", [float("nan"), -1e-10])
    def test_nan_or_negative_tolerance(self, tol):
        # a NaN tolerance ran every step and never converged
        model = build_p1_model(2, radial_nodes=16, azimuthal_nodes=20)
        with pytest.raises(ValueError, match=f"^tol must be nonnegative, got {tol}$"):
            t_iterate(model, HermitianForm.identity(3), tol=tol)

    @pytest.mark.parametrize("k", [2, 4])
    def test_matches_the_plain_loop(self, k):
        # every step on a fresh form, eigenvalue determinants and LU trace
        # defects; the two differ by rounding (about 3e-14 at k = 4)
        model = build_p1_model(k, 2 * (2 * k + 4), 2 * (4 * k + 4))
        h0 = random_spd(model.N, np.random.default_rng(k + 70), cond=3.0)
        trace = t_iterate(model, h0, max_iters=20, tol=0.0)
        forms, defects = balancing_loop(model, h0, 20)
        assert len(trace.steps) == len(forms) == 21
        for step, form in zip(trace.steps, forms):
            assert np.abs(step.form.mat - form).max() <= 1e-11 * np.abs(form).max()
        for step, defect in zip(trace.steps[1:], defects):
            assert abs(step.trace_defect - defect) <= 1e-12

    def test_seed_not_positive_definite(self):
        model = build_p1_model(2, radial_nodes=16, azimuthal_nodes=20)
        pivot_fails = "^matrix is not positive definite: pivot 1 fails$"
        with pytest.raises(DefinitenessError, match=pivot_fails) as err:
            t_iterate(model, HermitianForm.diagonal([1.0, -1.0, 1.0]), max_iters=3)
        assert err.value.pivot == 1

    def test_seed_of_the_wrong_size(self):
        model = build_p1_model(3, radial_nodes=16, azimuthal_nodes=20)
        with pytest.raises(DimensionError, match="^form has dim 3, model needs 4$"):
            t_iterate(model, HermitianForm.identity(3), max_iters=3)


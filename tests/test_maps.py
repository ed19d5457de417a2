import math
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
from hilbfs.maps import variant_density
from hilbfs.linalg import random_spd

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
        scaled = hilb(model, m.rescaled(3.0))
        assert np.abs(scaled.mat - 3.0 * base.mat).max() <= 1e-10 * np.abs(base.mat).max()

    def test_equivariance_under_basis_change(self):
        model = build_p1_model(2, radial_nodes=20, azimuthal_nodes=24)
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m = MetricWeight.reference(model)
        g = hilb(model, m)
        # the Gram of the changed basis a s, by the defining sum over the nodes
        weights = m.weight(model) * curvature_volume(model, m).weights
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
        synthesis = hilbfs.geometry._curvature_density

        def planted(model, a):
            dens, p = synthesis(model, a)
            dens[7] = -dens[7]
            return dens, p

        monkeypatch.setattr(hilbfs.geometry, "_curvature_density", planted)
        with pytest.raises(CurvaturePositivityError) as err:
            hilb(model, fs_metric(model, HermitianForm.identity(3)))
        assert err.value.node == 7

    def test_positivity_guard_fires_on_a_grid_metric(self):
        model = build_p1_model(1, radial_nodes=16, azimuthal_nodes=16)
        with pytest.raises(CurvaturePositivityError):
            hilb(model, MetricWeight.grid(60.0 * (model.t - 0.5)))


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
        model = build_p1_model(2)
        with pytest.raises(VariantError):
            hilb_nu(model, MetricWeight.reference(model), ANTICANONICAL)

    def test_anticanonical_scaling_law(self):
        model = build_p1_anticanonical_model(2)
        m = MetricWeight.reference(model)
        base = variant_density(model, m, ANTICANONICAL)
        phi = 0.37
        scaled = variant_density(model, m.rescaled(math.exp(-phi * model.k)), ANTICANONICAL)
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

    def test_trace_invariant_along_iteration(self):
        model = build_p1_model(2, radial_nodes=24, azimuthal_nodes=32)
        rng = np.random.default_rng(5)
        h0 = random_spd(3, rng, cond=4.0)
        trace = t_iterate(model, h0, max_iters=5, tol=0.0)
        for step in trace.steps[1:]:
            assert step.trace_defect <= 1e-9

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


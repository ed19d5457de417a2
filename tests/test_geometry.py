import math

import numpy as np
import pytest

from hilbfs import (
    ConfigurationError,
    CurvaturePositivityError,
    Density,
    HermitianForm,
    MetricWeight,
    build_p1_model,
    curvature_volume,
    fs_metric,
    hilb,
    reference_density,
)
from hilbfs.geometry import _legendre_table, _pushforward_measure
from hilbfs.pushforward import _coords_table, _dpsi0, _psi_t_jacobian, traceless_basis
from hilbfs.linalg import (
    orthonormalize_sections,
    random_hermitian,
    random_spd,
    random_unitary,
)
from _oracles import (
    curvature_sums,
    legendre_table_lpmv,
    mc_integral_p1,
    pairing_sums,
    pushforward_measure_derivative,
    section_rows,
    sphere_basis,
    weighted_gram,
)


def beta_moment(a, k):
    """Closed form of the reference pairing integral of |z^a|^2."""
    return math.factorial(a) * math.factorial(k - a) / math.factorial(k + 1)


class TestBuildModel:
    def test_mass_normalisation(self):
        model = build_p1_model(1)
        assert abs(model.quad_weights.sum() - 1.0) <= 1e-14

    def test_beta_integral_k2(self):
        model = build_p1_model(2)
        values = np.abs(model.sections[1]) ** 2 * model.ref_weight
        val = (values * reference_density(model).weights).sum()
        assert val == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_odd_azimuthal_integrand_vanishes(self):
        model = build_p1_model(3)
        integrand = model.nodes / (1.0 + np.abs(model.nodes) ** 2) ** 3
        val = (integrand * reference_density(model).weights).sum()
        assert abs(val) <= 1e-14

    def test_quadrature_exactness_family(self):
        # every pairing of two sections against the reference weight is the
        # closed beta value delta_ab a!(k-a)!/(k+1)!
        for k in [1, 2, 3, 5]:
            model = build_p1_model(k)
            for a in range(k + 1):
                for b in range(k + 1):
                    integrand = (
                        model.nodes**a * np.conj(model.nodes) ** b * model.ref_weight
                    )
                    val = (integrand * reference_density(model).weights).sum()
                    expected = beta_moment(a, k) if a == b else 0.0
                    assert abs(val - expected) <= 1e-12

    def test_node_floor_enforced(self):
        with pytest.raises(ConfigurationError):
            build_p1_model(3, radial_nodes=3)
        with pytest.raises(ConfigurationError):
            build_p1_model(3, azimuthal_nodes=6)


class TestIntegrate:
    def test_all_ones_gives_volume(self):
        model = build_p1_model(2)
        assert reference_density(model).weights.sum() == pytest.approx(model.V, abs=1e-13)

    def test_section_moments(self):
        model = build_p1_model(2)
        w = reference_density(model).weights
        v0 = (np.abs(model.sections[0]) ** 2 * model.ref_weight * w).sum()
        v2 = (np.abs(model.sections[2]) ** 2 * model.ref_weight * w).sum()
        assert v0 == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert v2 == pytest.approx(1.0 / 3.0, abs=1e-12)  # z -> 1/z symmetry


class TestFsMetric:
    def test_binomial_form_is_reference(self):
        for k in [1, 2, 5]:
            model = build_p1_model(k)
            h = HermitianForm.diagonal([1.0 / math.comb(k, j) for j in range(k + 1)])
            u = fs_metric(model, h).potential(model)
            assert np.abs(u).max() <= 1e-12

    def test_scaling_shifts_potential(self):
        model = build_p1_model(3)
        rng = np.random.default_rng(2)
        h = random_spd(model.N, rng, cond=10.0)
        u = fs_metric(model, h).potential(model)
        for c in [0.5, 2.0, 10.0]:
            uc = fs_metric(model, h.scaled(c)).potential(model)
            # FS(cH)^k = c FS(H)^k: potential drops by log c
            assert np.abs((uc - u) + math.log(c)).max() <= 1e-12

    def test_k1_identity_is_reference(self):
        model = build_p1_model(1)
        u = fs_metric(model, HermitianForm.identity(2)).potential(model)
        assert np.abs(u).max() <= 1e-13

    def test_orthonormal_basis_choice_irrelevant(self):
        model = build_p1_model(2)
        rng = np.random.default_rng(3)
        h = random_spd(model.N, rng, cond=40.0)
        u1 = fs_metric(model, h).potential(model)
        # different orthonormalisation: eigendecomposition square root
        w, v = np.linalg.eigh(h.mat)
        rows = (v / np.sqrt(w)).conj().T @ model.sections
        u2 = np.log(np.einsum("iq,iq->q", rows, rows.conj()).real * model.ref_weight)
        assert np.abs(u1 - u2).max() <= 1e-12

    def test_bergman_factor_is_cholesky_of_form(self):
        model = build_p1_model(3)
        h = random_spd(model.N, np.random.default_rng(5), cond=40.0)
        metric = fs_metric(model, h)
        L = metric.factor
        assert np.array_equal(L, np.tril(L))
        assert np.abs(L @ L.conj().T - h.mat).max() <= 1e-12
        rows = orthonormalize_sections(h, model.sections)
        u = np.log(np.einsum("iq,iq->q", rows, rows.conj()).real * model.ref_weight)
        assert np.abs(metric.potential(model) - u).max() <= 1e-14


class TestCurvatureVolume:
    def test_reference_reproduces_quadrature(self):
        model = build_p1_model(2)
        vol = curvature_volume(model, MetricWeight.reference(model))
        assert np.abs(vol.weights - model.quad_weights).max() <= 1e-13

    def test_fs_identity_mass(self):
        model = build_p1_model(2, radial_nodes=16, azimuthal_nodes=20)
        vol = curvature_volume(model, fs_metric(model, HermitianForm.identity(3)))
        assert abs(vol.weights.sum() - 1.0) <= 1e-10

    def test_default_nodes_fire_mass_guard_when_underresolved(self):
        # the mass check is an exactness audit: at spec-default nodes the
        # k=2 identity curvature misses 1e-8 and must raise, not rescale
        from hilbfs import MassDefectError

        model = build_p1_model(2)
        with pytest.raises(MassDefectError):
            curvature_volume(model, fs_metric(model, HermitianForm.identity(3)))

    def test_bergman_reference_form_exact(self):
        model = build_p1_model(3)
        h = HermitianForm.diagonal([1.0 / math.comb(3, j) for j in range(4)])
        vol = curvature_volume(model, fs_metric(model, h))
        assert np.abs(vol.weights - model.quad_weights).max() <= 1e-12

    def test_k1_diag_matches_moebius_pullback(self):
        # FS(diag(4,1)) at k=1 embeds as z -> [1/2 : z] = [1 : 2z]
        model = build_p1_model(1, radial_nodes=40, azimuthal_nodes=40)
        vol = curvature_volume(model, fs_metric(model, HermitianForm.diagonal([4.0, 1.0])))
        x = np.abs(model.nodes) ** 2
        closed = 4.0 * (1.0 + x) ** 2 / (1.0 + 4.0 * x) ** 2
        assert np.abs(vol.weights / model.quad_weights - closed).max() <= 1e-10

    def test_k1_diag_monte_carlo_mass(self):
        model = build_p1_model(1, radial_nodes=40, azimuthal_nodes=40)
        vol = curvature_volume(model, fs_metric(model, HermitianForm.diagonal([4.0, 1.0])))
        rng = np.random.default_rng(123)
        mc, err = mc_integral_p1(
            lambda w: (0.25 / (0.25 + np.abs(w) ** 2) ** 2)
            * 4.0
            * (1.0 + np.abs(w) ** 2) ** 2
            / (1.0 + 4.0 * np.abs(w) ** 2) ** 2
            / 4.0
            * (1.0 + 4.0 * np.abs(w) ** 2)
            / (1.0 + np.abs(w) ** 2) ** 0,
            400_000,
            rng,
        )
        # simpler agreement check at the 1e-4 scale through the total mass
        assert abs(vol.weights.sum() - 1.0) <= 1e-10
        assert np.isfinite(mc) and err < 1e-2

    def test_grid_and_bergman_agree(self):
        # the same metric through the spectral path and the analytic path
        model = build_p1_model(2, radial_nodes=24, azimuthal_nodes=32)
        rng = np.random.default_rng(4)
        h = random_spd(model.N, rng, cond=5.0)
        metric = fs_metric(model, h)
        analytic = curvature_volume(model, metric)
        gridded = curvature_volume(model, MetricWeight.grid(metric.potential(model)))
        assert np.abs(analytic.weights - gridded.weights).max() <= 1e-8

    def test_negative_curvature_detected(self):
        model = build_p1_model(1, radial_nodes=16, azimuthal_nodes=16)
        u = 60.0 * (model.t - 0.5)  # wild potential: curvature goes negative
        with pytest.raises(CurvaturePositivityError):
            curvature_volume(model, MetricWeight.grid(u))


def _rel(new, ref):
    return float(np.abs(new - ref).max() / np.abs(ref).max())


KERNEL_CASES = [(2, 1), (4, 1), (8, 1), (16, 1), (3, 2)]


class TestThetaFourierKernel:
    """The pairing kernel against the row-based sums over the nodes."""

    @pytest.mark.parametrize("k,d", KERNEL_CASES)
    def test_synthesis_of_an_inverse_form(self, k, d):
        model = build_p1_model(k, line_degree=d)
        h = random_spd(model.N, np.random.default_rng(k), cond=10.0)
        rows, drows = section_rows(model)
        lower = np.linalg.cholesky(h.mat)
        ref = curvature_sums(np.linalg.solve(lower, rows), np.linalg.solve(lower, drows))
        new = model._theta_fourier().pairings(np.linalg.inv(h.mat))
        for part in range(3):
            assert _rel(new[part], ref[part]) <= 1e-13
        only_p = model._theta_fourier().pairings(np.linalg.inv(h.mat), parts=1)
        assert only_p.shape == (1, model.Q)
        assert _rel(only_p[0], ref[0]) <= 1e-13

    @pytest.mark.parametrize("k,d", KERNEL_CASES)
    def test_synthesis_of_a_stack(self, k, d):
        model = build_p1_model(k, line_degree=d)
        rng = np.random.default_rng(k + 10)
        a = np.array([random_hermitian(model.N, rng) for _ in range(4)])
        new = model._theta_fourier().pairings(a)
        assert new.shape == (4, 3, model.Q)
        assert _rel(new, pairing_sums(model, a)) <= 1e-13

    @pytest.mark.parametrize("k,d", KERNEL_CASES)
    def test_analysis_single_and_stacked(self, k, d):
        model = build_p1_model(k, line_degree=d)
        w = np.random.default_rng(k + 20).uniform(0.5, 1.5, size=(3, model.Q))
        kernel = model._theta_fourier()
        for weights in (w[0], w):
            assert _rel(kernel.gram(weights), weighted_gram(model.sections, weights)) <= 1e-13

    @pytest.mark.parametrize("k,d", KERNEL_CASES)
    def test_doubled_analysis(self, k, d):
        # the Gram of the 2N - 1 monomials of degree <= 2N - 2 against
        # ref_weight^2 w
        model = build_p1_model(k, line_degree=d)
        w = np.random.default_rng(k + 25).uniform(0.5, 1.5, size=(3, model.Q))
        monomials = model.nodes[None, :] ** np.arange(2 * model.N - 1)[:, None]
        kernel = model._theta_fourier(doubled=True)
        for weights in (w[0], w):
            ref = weighted_gram(monomials, weights * model.ref_weight**2)
            assert _rel(kernel.gram(weights), ref) <= 1e-13

    @pytest.mark.parametrize("k,d", KERNEL_CASES)
    def test_pair_sums_of_a_doubled_gram(self, k, d):
        # row (i, j), column (c, d) holds sum_q s_i conj(s_j) s_c conj(s_d)
        # ref_weight^2 w
        model = build_p1_model(k, line_degree=d)
        w = np.random.default_rng(k + 27).uniform(0.5, 1.5, size=model.Q)
        kernel = model._theta_fourier(doubled=True)
        pairs = (model.sections[:, None] * model.sections.conj()).reshape(model.N**2, -1)
        ref = (pairs * w * model.ref_weight**2) @ pairs.T
        assert _rel(kernel.pair_sums(kernel.gram(w)), ref) <= 1e-13

    @pytest.mark.parametrize("k,d", KERNEL_CASES + [(12, 1)])
    def test_pushforward_measure_derivative(self, k, d):
        # the psi Jacobian, which takes the derivative of the pushforward
        # measure through doubled-degree Grams, against the Jacobian that
        # the row-based derivative and the defining node sums assemble
        model = build_p1_model(k, line_degree=d)
        rng = np.random.default_rng(k + 30)
        b = random_spd(model.N, rng, cond=5.0).mat
        basis = traceless_basis(model.N)
        rows, drows = section_rows(model)
        p, pz, pzz = curvature_sums(b @ rows, b @ drows)
        x2 = (1.0 + np.abs(model.nodes) ** 2) ** 2
        mu = (p * pzz - np.abs(pz) ** 2) / p**3 * x2 * model.quad_weights / model.V
        m = weighted_gram(rows, mu)
        flat = (rows[:, None] * rows.conj()).reshape(model.N**2, -1)
        dmu = pushforward_measure_derivative(model, b, basis)
        dm = (dmu @ flat.T).reshape(-1, model.N, model.N)
        trm, trdm = np.trace(m).real, np.trace(dm, axis1=1, axis2=2).real
        dpsi = (dm - trdm[:, None, None] * m / trm) / trm
        for t in (0.5, 1.0):
            ref = np.einsum("aij,bji->ab", basis, t * dpsi + (1.0 - t) * _dpsi0(b, basis)).real
            jac = _psi_t_jacobian(model, b, t, basis, _coords_table(basis))
            assert _rel(jac, ref) <= 1e-12


@pytest.mark.parametrize("k,d", KERNEL_CASES)
def test_hilb_of_a_bergman_metric_is_a_pushforward_gram(k, d):
    # hilb(fs_metric(H)) = (N / kV) Gram(mu_B), B = H^(-1/2): the metric
    # weight 1/P times the curvature density over k is mu_B / k
    deg = d * k
    model = build_p1_model(k, 2 * (2 * deg + 4), 2 * (4 * deg + 4), line_degree=d)
    h = random_spd(model.N, np.random.default_rng(k + 40), cond=10.0)
    ev, vec = np.linalg.eigh(h.mat)
    b = (vec / np.sqrt(ev)) @ vec.conj().T
    gram = model._theta_fourier().gram(_pushforward_measure(model, b))
    ref = model.N / (model.k * model.V) * gram
    assert _rel(hilb(model, fs_metric(model, h)).mat, ref) <= 1e-12


class TestModelCaches:
    def test_refined_is_built_once(self):
        model = build_p1_model(4, 24, 40)
        assert model.refined() is model.refined()

    @pytest.mark.parametrize("k,d", [(4, 1), (3, 2)])
    def test_refined_equals_a_fresh_doubled_model(self, k, d):
        model = build_p1_model(k, 2 * (2 * d * k + 4), 2 * (4 * d * k + 4), line_degree=d)
        fine = model.refined()
        fresh = build_p1_model(k, 2 * model.radial_nodes, 2 * model.azimuthal_nodes, line_degree=d)
        assert (fine.radial_nodes, fine.azimuthal_nodes) == (fresh.radial_nodes, fresh.azimuthal_nodes)
        assert (fine.k, fine.line_degree, fine.N, fine.V) == (fresh.k, fresh.line_degree, fresh.N, fresh.V)
        for name in ("nodes", "t", "theta", "quad_weights", "ref_weight"):
            assert np.array_equal(getattr(fine, name), getattr(fresh, name))
        h = random_spd(model.N, np.random.default_rng(k + 60), cond=10.0).mat
        w = np.random.default_rng(k + 61).uniform(0.5, 1.5, size=fine.Q)
        for a, b in ((fine._theta_fourier(), fresh._theta_fourier()),
                     (fine._theta_fourier(doubled=True), fresh._theta_fourier(doubled=True))):
            assert np.array_equal(a.gram(w), b.gram(w))
        plain = fine._theta_fourier(), fresh._theta_fourier()
        assert np.array_equal(plain[0].pairings(h), plain[1].pairings(h))

    def test_sections_are_the_monomials_formed_once(self):
        model = build_p1_model(3, 20, 28)
        assert model._sections is None
        first = model.sections
        assert first is model.sections
        assert np.array_equal(first, section_rows(model)[0])


class TestVeronese:
    def test_k1_identity_embedding(self):
        model = build_p1_model(1)
        assert model.N == 2
        assert np.allclose(model.sections[1] / model.sections[0], model.nodes)

    def test_k2_conic_relation(self):
        model = build_p1_model(2)
        rel = model.sections[0] * model.sections[2] - model.sections[1] ** 2
        scale = np.abs(model.sections).max(axis=0) ** 2
        assert np.abs(rel / scale).max() <= 1e-14


class TestFsHomogeneity:
    def test_scale_family(self):
        model = build_p1_model(2)
        rng = np.random.default_rng(11)
        h = random_spd(model.N, rng, cond=6.0)
        base = fs_metric(model, h).weight(model)
        for c in [0.5, 2.0, 10.0]:
            scaled = fs_metric(model, h.scaled(c)).weight(model)
            assert np.abs(scaled - c * base).max() <= 1e-12 * np.abs(c * base).max()


class TestLaplacian:
    def test_known_eigenfunction(self):
        model = build_p1_model(2, radial_nodes=24, azimuthal_nodes=32)
        x3 = 1.0 - 2.0 * model.t
        lap = model.laplacian()
        assert np.abs(lap @ x3 - (-8.0 * np.pi) * x3).max() <= 1e-9

    def test_null_mean(self):
        model = build_p1_model(2, radial_nodes=24, azimuthal_nodes=32)
        rng = np.random.default_rng(6)
        u = rng.standard_normal(model.Q)
        val = float(model.quad_weights @ (model.laplacian() @ u))
        assert abs(val) <= 1e-10 * max(1.0, np.abs(u).max())

    @pytest.mark.parametrize("k, nr, na", [(2, 24, 32), (6, 32, 56)])
    def test_matches_dense_reference(self, k, nr, na):
        # Y diag(lambda / V) Y^T diag(qw / V) with the harmonics sampled node
        # by node
        model = build_p1_model(k, radial_nodes=nr, azimuthal_nodes=na)
        y, eigs = sphere_basis(model.t, model.theta, nr - 1, (na - 1) // 2)
        dense = (y * (eigs / model.V)) @ (y.T * (model.quad_weights / model.V))
        x = np.random.default_rng(7).standard_normal((model.Q, 3))
        ref = dense @ x
        assert np.abs(model.laplacian() @ x - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_block_apply_matches_columns(self):
        model = build_p1_model(2, radial_nodes=24, azimuthal_nodes=32)
        lap = model.laplacian()
        x = np.random.default_rng(8).standard_normal((model.Q, 3))
        cols = np.stack([lap @ x[:, j] for j in range(3)], axis=1)
        assert np.abs(lap @ x - cols).max() <= 1e-12 * np.abs(cols).max()

    def test_self_adjoint_in_quadrature(self):
        model = build_p1_model(4, radial_nodes=24, azimuthal_nodes=40)
        lap = model.laplacian()
        rng = np.random.default_rng(9)
        x, y = rng.standard_normal((2, model.Q))
        qw = model.quad_weights
        lhs, rhs = qw @ (x * (lap @ y)), qw @ ((lap @ x) * y)
        scale = np.sqrt((qw @ (lap @ x) ** 2) * (qw @ y**2))
        assert abs(lhs - rhs) <= 1e-12 * scale

    def test_storage_below_dense(self):
        # 2x grid at k = 16: the dense operator would hold Q^2 numbers
        model = build_p1_model(16, radial_nodes=72, azimuthal_nodes=136)
        lap = model.laplacian()
        held = sum(v.size for v in vars(lap).values() if isinstance(v, np.ndarray))
        assert held < model.Q**2 / 10

    def test_fine_grid_operator_is_finite(self):
        # scipy's lpmv overflowed here from 91 radial nodes on
        model = build_p1_model(8, radial_nodes=128, azimuthal_nodes=182)
        lap = model.laplacian()
        x = np.random.default_rng(10).standard_normal(model.Q)
        assert np.all(np.isfinite(lap @ x))
        # constants up to the rounding of the largest eigenvalue, 4 pi 127 128
        assert np.abs(lap @ np.ones(model.Q)).max() <= 1e-11 * np.abs(lap.eigenvalues).max()


class TestLegendreTable:
    NODES = 128

    def test_matches_lpmv_where_finite(self):
        # |Pbar_l^m| is bounded by sqrt(2l + 1); lpmv's own rounding, not the
        # recurrence's, sets the largest differences at high degree
        x = np.polynomial.legendre.leggauss(self.NODES)[0]
        lmax = self.NODES - 1
        new = _legendre_table(x, lmax, lmax)
        old = legendre_table_lpmv(x, lmax, lmax)
        finite = np.isfinite(old)
        scaled = np.abs(new - old) / np.sqrt(2 * np.arange(lmax + 1) + 1)[:, None]
        assert scaled[finite].max() <= 1e-13

    def test_orthonormal(self):
        x, w = np.polynomial.legendre.leggauss(self.NODES)
        lmax = self.NODES - 1
        table = _legendre_table(x, lmax, lmax)
        assert np.all(np.isfinite(table))
        for m in range(lmax + 1):
            gram = (table[m] * (0.5 * w)) @ table[m].T
            expected = np.diag((np.arange(lmax + 1) >= m).astype(float))
            assert np.abs(gram - expected).max() <= 1e-12

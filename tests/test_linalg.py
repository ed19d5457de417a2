import json

import numpy as np
import pytest

from hilbfs import (
    ConvergenceError,
    DefinitenessError,
    DimensionError,
    HermitianDefectError,
    HermitianForm,
    cholesky_lower,
    matrix_norms,
    orthonormalize_sections,
)
from hilbfs.linalg import (
    damped_newton,
    load_matrix_json,
    random_spd,
    random_unitary,
)


class TestMatrixNorms:
    def test_diag_2_1(self):
        op, hs, mx = matrix_norms(np.diag([2.0, 1.0]))
        assert op == pytest.approx(2.0, abs=1e-14)
        assert hs == pytest.approx(np.sqrt(5.0), abs=1e-14)
        assert mx == 2.0

    def test_identity_3(self):
        op, hs, mx = matrix_norms(np.eye(3))
        assert op == pytest.approx(1.0, abs=1e-14)
        assert hs == pytest.approx(np.sqrt(3.0), abs=1e-14)
        assert mx == 1.0

    def test_offdiag_eps(self):
        eps = 1e-7
        op, hs, mx = matrix_norms(np.array([[0.0, eps], [eps, 0.0]]))
        # characteristic polynomial lambda^2 = eps^2
        assert op == pytest.approx(eps, rel=1e-12)
        assert hs == pytest.approx(np.sqrt(2.0) * eps, rel=1e-12)
        assert mx == eps

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            matrix_norms(np.ones((2, 3)))

    def test_chain_on_random_matrices(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            op, hs, mx = matrix_norms(m)
            assert op <= hs * (1 + 1e-13)
            assert hs <= n * mx * (1 + 1e-13)

    def test_non_hermitian_uses_singular_values(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])  # nilpotent: eigenvalues 0, op 1
        assert matrix_norms(m).op == pytest.approx(1.0, abs=1e-14)


class TestHermitianForm:
    def test_small_defect_symmetrised(self):
        a = np.array([[1.0, 0.5 + 1e-14j], [0.5 - 3e-14j, 2.0]])
        h = HermitianForm(a)
        assert np.abs(h.mat - h.mat.conj().T).max() == 0.0

    def test_large_defect_rejected_with_indices(self):
        a = np.array([[1.0, 0.5], [0.7, 2.0]])
        with pytest.raises(HermitianDefectError) as err:
            HermitianForm(a)
        assert err.value.indices in {(0, 1), (1, 0)}

    def test_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        h = random_spd(4, rng, cond=50.0)
        path = tmp_path / "h.json"
        with open(path, "w") as fh:
            json.dump(h.to_json_dict(), fh)
        h2 = load_matrix_json(path)
        assert np.array_equal(h.mat, h2.mat)

    def test_equality_compares_the_matrices(self):
        a = HermitianForm.identity(2)
        b = HermitianForm.identity(2)
        assert a == b and hash(a) == hash(b)
        b.factor()  # a kept factor does not change what the form is
        assert a == b and hash(a) == hash(b)
        assert a != a.scaled(2.0)
        assert a != HermitianForm.identity(3)
        assert a.__eq__(a.mat) is NotImplemented
        assert len({a, b, a.scaled(2.0)}) == 2

    def test_signed_zeros_are_equal_and_hash_alike(self):
        a = HermitianForm(np.array([[1.0, 0.0], [0.0, 1.0]]))
        b = HermitianForm(np.array([[1.0, -0.0], [-0.0, 1.0]]))
        assert a == b and hash(a) == hash(b)


class TestCholesky:
    def test_identity(self):
        L = cholesky_lower(HermitianForm.identity(3))
        assert np.allclose(L, np.eye(3))

    def test_diag(self):
        L = cholesky_lower(HermitianForm.diagonal([4.0, 9.0]))
        assert np.allclose(L, np.diag([2.0, 3.0]))

    def test_round_trip_random(self):
        rng = np.random.default_rng(7)
        for cond in [10.0, 1e4, 1e8]:
            h = random_spd(6, rng, cond=cond)
            L = cholesky_lower(h)
            scale = np.abs(h.mat).max()
            assert np.abs(L @ L.conj().T - h.mat).max() <= 1e-12 * scale
            assert np.all(np.diagonal(L).real > 0)

    @pytest.mark.parametrize(
        "mat, pivot",
        [
            (np.diag([-1.0, 1.0, 2.0]), 0),
            (np.diag([1.0, -1.0, 2.0]), 1),
            (np.diag([1.0, 1.0, 0.0]), 2),
            # leading 2x2 minor 1 - |1+1j|^2 = -1 on a complex hermitian form
            (np.array([[1.0, 1 + 1j, 0.0], [1 - 1j, 1.0, 0.0], [0.0, 0.0, 1.0]]), 1),
        ],
        ids=["0", "1", "2", "complex-1"],
    )
    def test_failing_pivot_named(self, mat, pivot):
        with pytest.raises(DefinitenessError) as err:
            cholesky_lower(HermitianForm(mat))
        assert err.value.pivot == pivot


class TestOrthonormalize:
    def test_identity_leaves_rows(self):
        rng = np.random.default_rng(1)
        raw = rng.standard_normal((3, 11)) + 1j * rng.standard_normal((3, 11))
        out = orthonormalize_sections(HermitianForm.identity(3), raw)
        assert np.allclose(out, raw)

    def test_diagonal_scaling(self):
        raw = np.ones((2, 5), dtype=complex)
        raw[1] *= 2.0
        out = orthonormalize_sections(HermitianForm.diagonal([4.0, 1.0]), raw)
        assert np.allclose(out[0], raw[0] / 2.0)
        assert np.allclose(out[1], raw[1])

    def test_gram_oracle(self):
        # quadrature Gram of the orthonormalised rows is the identity
        from hilbfs import build_p1_model

        model = build_p1_model(3)
        rng = np.random.default_rng(5)
        h = random_spd(model.N, rng, cond=30.0)
        gram_raw = np.einsum(
            "iq,jq,q->ij",
            model.sections,
            model.sections.conj(),
            model.ref_weight * model.quad_weights,
        )
        # h is an abstract form; build the matching geometric situation:
        # rows orthonormalised against the *quadrature* Gram of the model
        g_form = HermitianForm(gram_raw)
        rows = orthonormalize_sections(g_form, model.sections)
        gram = np.einsum(
            "iq,jq,q->ij", rows, rows.conj(), model.ref_weight * model.quad_weights
        )
        assert np.abs(gram - np.eye(model.N)).max() <= 1e-9

    def test_pointwise_sum_invariant_under_unitary(self):
        from hilbfs import build_p1_model

        model = build_p1_model(2)
        rng = np.random.default_rng(9)
        h = random_spd(model.N, rng, cond=20.0)
        u = random_unitary(model.N, rng)
        rows1 = orthonormalize_sections(h, model.sections)
        h_rot = HermitianForm(u @ h.mat @ u.conj().T)
        rows2 = orthonormalize_sections(h_rot, u @ model.sections)
        s1 = np.einsum("iq,iq->q", rows1, rows1.conj()).real
        s2 = np.einsum("iq,iq->q", rows2, rows2.conj()).real
        assert np.abs(s1 - s2).max() <= 1e-12 * s1.max()

    def test_row_count_checked(self):
        with pytest.raises(DimensionError):
            orthonormalize_sections(HermitianForm.identity(3), np.ones((2, 4)))


def _sqrt2(x):
    """A point of x^2 = 2 for ``damped_newton``: (x, residual)."""
    return x, x**2 - 2.0


def _sqrt2_direction(x, r):
    return -r / (2.0 * x)


def _decrease(new, old, alpha, dx):
    return np.linalg.norm(new[1]) < np.linalg.norm(old[1])


def _solve_sqrt2(evaluate=_sqrt2, direction=_sqrt2_direction, accept=_decrease, steps=20):
    return damped_newton(evaluate, direction, accept, _sqrt2(np.array([1.0])), 1e-14, steps,
                         10, "test Newton")


class TestDampedNewton:
    def test_converges_and_counts_steps(self):
        (x, r), history = _solve_sqrt2()
        assert x[0] == pytest.approx(np.sqrt(2.0), abs=1e-14)
        assert history[-1] == float(np.abs(r).max()) <= 1e-14
        assert all(b < a for a, b in zip(history, history[1:]))

    def test_converging_on_the_last_allowed_step_succeeds(self):
        _, history = _solve_sqrt2()
        steps = len(history) - 1
        _, capped = _solve_sqrt2(steps=steps)
        assert capped == history
        with pytest.raises(ConvergenceError, match=f"reach 1e-14 in {steps - 1} steps") as err:
            _solve_sqrt2(steps=steps - 1)
        assert err.value.history == history[:-1]

    def test_singular_direction_is_a_degenerate_jacobian(self):
        def singular(x, r):
            return np.linalg.solve(np.zeros((1, 1)), -r)

        with pytest.raises(ConvergenceError) as err:
            _solve_sqrt2(direction=singular)
        assert str(err.value).startswith("test Newton jacobian degenerate at iteration 0 ")
        assert err.value.history == [1.0]

    def test_line_search_that_never_accepts_stalls(self):
        with pytest.raises(ConvergenceError, match="line search stalled at iteration 0") as err:
            _solve_sqrt2(accept=lambda *args: False)
        assert err.value.history == [1.0]

    def test_inadmissible_candidates_are_halved_past(self):
        # the full first step lands at 1.5; x > 1.45 is inadmissible, so the
        # first candidate ever accepted is the half step to 1.25
        alphas = []

        def capped(x):
            return None if x[0] > 1.45 else _sqrt2(x)

        def recording(new, old, alpha, dx):
            alphas.append(alpha)
            return _decrease(new, old, alpha, dx)

        (x, _), _ = _solve_sqrt2(evaluate=capped, accept=recording)
        assert alphas[0] == 0.5
        assert x[0] == pytest.approx(np.sqrt(2.0), abs=1e-14)

    def test_min_steps_corrects_a_start_within_tolerance(self):
        start = _sqrt2(np.array([np.sqrt(2.0) + 1e-9]))
        _, history = damped_newton(_sqrt2, _sqrt2_direction, _decrease, start, 1e-8, 20,
                                   10, "test Newton")
        assert len(history) == 1
        _, history = damped_newton(_sqrt2, _sqrt2_direction, _decrease, start, 1e-8, 20,
                                   10, "test Newton", min_steps=1)
        assert len(history) == 2 and history[1] < 1e-14

    def test_convergence_error_of_the_direction_propagates(self):
        inner = ConvergenceError("inner solver gave up", [1.0, 0.5])

        def failing(x, r):
            raise inner

        with pytest.raises(ConvergenceError) as err:
            _solve_sqrt2(direction=failing)
        assert err.value is inner

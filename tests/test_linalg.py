import gc
import json
import warnings
import weakref

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
from hilbfs.errors import IllConditionedWarning
from hilbfs.geometry import build_p1_model
from hilbfs.linalg import (
    COORDS_KEPT,
    HermitianCoords,
    damped_newton,
    load_matrix_json,
    random_spd,
    random_unitary,
)
from hilbfs.pushforward import _jacobian_cells

from _oracles import MALFORMED_IDS, MALFORMED_MATRIX_JSON, moment_jacobian


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

    @pytest.mark.parametrize("bad", MALFORMED_MATRIX_JSON, ids=MALFORMED_IDS)
    def test_malformed_json_is_a_dimension_error(self, bad):
        # numpy raises a bare ValueError on each of these
        with pytest.raises(DimensionError, match="^matrix JSON must be an object"):
            HermitianForm.from_json_dict(bad)

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

    def test_warns_above_the_guard(self):
        with pytest.warns(IllConditionedWarning, match="condition number 2.000e"):
            cholesky_lower(HermitianForm.diagonal([1.0, 2e8]))

    def test_silent_below_the_guard_when_the_trace_bound_is_not(self):
        # tr(H) tr(H^-1) = 6e7 + 2 lies above COND_GUARD / 2, so the exact
        # condition number, 6e7 < COND_GUARD, decides
        with warnings.catch_warnings():
            warnings.simplefilter("error", IllConditionedWarning)
            cholesky_lower(HermitianForm.diagonal([1.0, 6e7]))

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


class TestHermitianCoords:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("k", [1, 2, 4, 8, 12])
    def test_jacobian_operator_matches_the_dense_sum(self, k, d):
        # psi's Jacobian operator on the cells of one weight, in the slot of
        # f_0, reads tr(E_a L(E_b)) for L(X)[i, j] = sum_kl G[i + l, j + k]
        # X[k, l], G that weight's doubled Gram: the moment Jacobian, here
        # by its defining node sum.  Both sides are the same sum over the
        # nodes, exact on any grid; the smallest one keeps the oracle's
        # N^2 x Q table small
        deg = d * k
        model = build_p1_model(k, deg + 1, 2 * deg + 1, line_degree=d)
        ew = model.quad_weights * np.random.default_rng([k, d]).uniform(0.1, 2.0, model.Q)
        dense = moment_jacobian(model, ew)
        weights = np.zeros((4, model.Q))
        weights[3] = ew
        cells = model._theta_fourier(doubled=True).analysis(weights)
        gathered = (_jacobian_cells(model.N) @ cells.reshape(-1)).reshape(dense.shape)
        assert np.abs(gathered - dense).max() <= 1e-13 * np.abs(dense).max()

    @pytest.mark.parametrize("kind", ["full"])
    def test_shared_instances_are_read_only(self, kind):
        # the coordinates and the psi Jacobian operator built on them
        make = getattr(HermitianCoords, kind)
        hc = make(4)
        assert make(4) is hc
        op = _jacobian_cells(4)
        assert _jacobian_cells(4) is op
        arrays = [op.data, op.indices, op.indptr]
        for table in [hc._index, hc._weight, hc._floats, hc._float_weight] + arrays:
            with pytest.raises(ValueError, match="read-only"):
                table[...] = 0

    def test_shared_instances_are_dropped_after_other_sizes(self):
        # the k = 32 psi operator, 158.9 MB, stays shared while fewer than
        # COORDS_KEPT other sizes are asked for, and no longer once more
        # than that are
        op = _jacobian_cells(33)
        ref = weakref.ref(op)
        for n in range(2, 1 + COORDS_KEPT):
            _jacobian_cells(n)
        assert _jacobian_cells(33) is op
        del op
        for n in range(2, 3 + COORDS_KEPT):
            _jacobian_cells(n)
        gc.collect()
        assert ref() is None

    def test_jacobian_operator_is_at_most_12_int32_entries_a_row(self):
        # 16 terms a row before the terms that read one cell are merged and
        # those of coefficient zero dropped; the parent's Gram operator
        # held 12 a row
        for n in range(3, 18):
            op = _jacobian_cells(n)
            assert op.shape[0] == n**4
            assert np.diff(op.indptr).max() <= 12
            assert op.indices.dtype == op.indptr.dtype == np.int32


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

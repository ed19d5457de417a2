import math
import sys
import warnings
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

import hilbfs as hb
import hilbfs.pushforward
from hilbfs import (
    ContinuationError,
    DimensionError,
    HermitianDefectError,
    HermitianForm,
    MarginError,
    build_p1_model,
    phi_matrix,
    psi,
    psi0_closed,
    psi_t,
    solve_psi,
)
from hilbfs.linalg import HermitianCoords, random_hermitian, random_spd
from hilbfs.pushforward import (
    CONTRACTION_MAX,
    PATH_TOL,
    PSI_TOL,
    _dpsi0_table,
    _psi_t_jacobian,
)
from _oracles import (
    balancing_spectrum,
    hermitian_basis,
    psi0_defining_mc,
    psi0_defining_quadrature,
    psi_jacobian_chain,
    squaring_table,
    traceless_basis,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def march_only(monkeypatch):
    """Make every full step of ``solve_psi`` fail at once, so that the
    continuation marches in t as it does after an abandoned full step."""
    newton = hilbfs.pushforward._newton_at_t

    def no_full_step(model, b, t, g, coords, full=False, r=None):
        if full:
            return None, 0, float("inf")
        return newton(model, b, t, g, coords, full, r)

    monkeypatch.setattr(hilbfs.pushforward, "_newton_at_t", no_full_step)


def conic_model(nr=40, na=64):
    return build_p1_model(2, radial_nodes=nr, azimuthal_nodes=na)


def line_model(nr=40, na=40):
    return build_p1_model(1, radial_nodes=nr, azimuthal_nodes=na)


class TestPsi0:
    def test_reference_quadrature_oracle(self):
        oracle = psi0_defining_quadrature(np.eye(2))
        assert np.abs(oracle - np.eye(2) / 2.0).max() <= 1e-10

    def test_identity(self):
        assert np.abs(psi0_closed(np.eye(3)).mat - np.eye(3) / 3.0).max() <= 1e-15

    def test_diag_2_1(self):
        out = psi0_closed(np.diag([2.0, 1.0]).astype(complex))
        assert np.abs(out.mat - np.diag([0.2, 0.8])).max() <= 1e-14

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        b = random_spd(3, rng, cond=8.0)
        base = psi0_closed(b).mat
        for alpha in [0.1, 2.0, 10.0]:
            assert np.abs(psi0_closed(b.scaled(alpha)).mat - base).max() <= 1e-12

    def test_defining_integral_quadrature_n2(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            b = random_spd(2, rng, cond=6.0)
            oracle = psi0_defining_quadrature(b.mat)
            assert np.abs(oracle - psi0_closed(b).mat).max() <= 1e-10

    def test_defining_integral_mc_n3(self):
        rng = np.random.default_rng(2)
        b = random_spd(3, rng, cond=5.0)
        mean, stderr, raw = psi0_defining_mc(b.mat, 200_000, rng)
        closed = psi0_closed(b).mat
        scale = np.real(np.trace(raw))
        diff = np.abs(raw - closed * scale)
        assert np.all(diff <= 5.0 * stderr + 1e-12)


def dpsi0(b, a):
    """dpsi0 at the form or array B along the one direction A: the table at
    B^2 applied to vec(B A + A B), not hermitised."""
    bm = b.mat if isinstance(b, HermitianForm) else np.asarray(b, dtype=complex)
    a = np.asarray(a, dtype=complex)
    return (_dpsi0_table(bm @ bm) @ (squaring_table(bm) @ a.ravel())).reshape(a.shape)


def dpsi0_matrix(b):
    """Real matrix of A -> dpsi0(B, A) in the coordinates of the hermitian basis."""
    return HermitianCoords.full(b.dim).of_map(_dpsi0_table(b.mat @ b.mat) @ squaring_table(b.mat))


class TestDpsi0:
    def test_direction_b_is_kernel(self):
        rng = np.random.default_rng(3)
        b = random_spd(3, rng, cond=9.0)
        out = dpsi0(b, b.mat)
        assert np.abs(out).max() <= 1e-12

    def test_identity_diag_direction(self):
        a = np.diag([1.0, -1.0]).astype(complex)
        out = dpsi0(np.eye(2, dtype=complex), a)
        assert np.abs(out - np.diag([-1.0, 1.0])).max() <= 1e-14

    def test_traceless_hermitian(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            b = random_spd(3, rng, cond=12.0)
            a = random_hermitian(3, rng)
            out = dpsi0(b, a)
            assert abs(np.trace(out)) <= 1e-12
            assert np.abs(out - out.conj().T).max() <= 1e-14

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for n in [2, 3, 4]:
            for _ in range(6):
                b = random_spd(n, rng, cond=10.0)
                a = random_hermitian(n, rng)
                h = 1e-5
                fd = (
                    psi0_closed(HermitianForm(b.mat + h * a)).mat
                    - psi0_closed(HermitianForm(b.mat - h * a)).mat
                ) / (2.0 * h)
                out = dpsi0(b, a)
                denom = max(np.abs(out).max(), 1e-30)
                assert np.abs(out - fd).max() / denom <= 1e-6

    def test_matrix_matches_per_direction_loop(self):
        rng = np.random.default_rng(11)
        for n in [2, 3, 5]:
            b = random_spd(n, rng, cond=10.0)
            basis = hermitian_basis(n)
            loop = np.array(
                [np.real(np.einsum("aij,ji->a", basis, dpsi0(b, e))) for e in basis]
            ).T
            assert np.abs(dpsi0_matrix(b) - loop).max() <= 1e-14

    def test_kernel_dimension_one(self):
        # the scale direction alone: one singular value below 1e-8 of the
        # largest, and the smallest kept one above 1e-6 of it
        rng = np.random.default_rng(6)
        forms = [HermitianForm.identity(2)]
        forms += [random_spd(n, rng, cond=15.0) for n in [2, 3] for _ in range(5)]
        for b in forms:
            sv = np.linalg.svd(dpsi0_matrix(b), compute_uv=False)
            kept = sv[sv >= 1e-8 * sv[0]]
            assert sv.size - kept.size == 1
            assert kept[-1] / sv[0] > 1e-6


class TestPhi:
    def test_line_identity(self):
        model = line_model()
        out = phi_matrix(model, np.eye(2, dtype=complex))
        assert np.abs(out.mat - np.diag([0.5, 0.5])).max() <= 1e-12

    def test_conic_symmetry(self):
        model = conic_model()
        out = phi_matrix(model, np.eye(3, dtype=complex))
        assert abs(out.mat[0, 0] - out.mat[2, 2]) <= 1e-12

    def test_boundary_sequence_stabilises(self):
        model = line_model()
        vals = []
        for nu in [1e-2, 1e-4, 1e-6]:
            vals.append(phi_matrix(model, np.diag([1.0, nu]).astype(complex)).mat)
        # grid evaluation of the degenerating family settles down
        assert np.abs(vals[1] - vals[2]).max() <= np.abs(vals[0] - vals[1]).max() + 1e-12

    def test_conic_mass(self):
        model = conic_model()
        out = phi_matrix(model, np.eye(3, dtype=complex))
        assert np.real(np.trace(out.mat)) == pytest.approx(model.line_degree * model.k, abs=1e-10)


class TestPsi:
    def test_line_identity(self):
        model = line_model()
        out = psi(model, np.eye(2, dtype=complex))
        assert np.abs(out.mat - np.eye(2) / 2.0).max() <= 1e-12

    def test_scale_invariance(self):
        model = conic_model()
        rng = np.random.default_rng(7)
        b = random_spd(3, rng, cond=6.0)
        base = psi(model, b).mat
        for alpha in [0.1, 10.0]:
            assert np.abs(psi(model, b.scaled(alpha)).mat - base).max() <= 1e-12

    def test_boundary_eigenvalue_decay(self):
        # the smallest eigenvalue decays along the degenerating sequence;
        # the floor it saturates at is set by the grid's largest node radius
        # (the limit measure concentrates near |z| ~ 1/nu) and drops under
        # radial refinement
        model = line_model()
        prev = 1.0
        for nu in [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]:
            out = psi(model, np.diag([1.0, nu]).astype(complex))
            smallest = np.linalg.eigvalsh(out.mat).min()
            assert smallest < prev
            prev = smallest
        assert prev <= 1e-3
        fine = line_model(nr=120, na=40)
        out = psi(fine, np.diag([1.0, 1e-5]).astype(complex))
        assert np.linalg.eigvalsh(out.mat).min() < 0.5 * prev


# the public psi evaluations, each validating B once at the boundary
BOUNDARY = [
    lambda model, b: psi0_closed(b),
    lambda model, b: psi(model, b),
    lambda model, b: psi_t(model, b, 0.5),
]
BOUNDARY_IDS = ["psi0_closed", "psi", "psi_t"]


class TestPsiT:
    def test_endpoints(self):
        model = conic_model()
        rng = np.random.default_rng(8)
        b = random_spd(3, rng, cond=4.0)
        assert np.abs(psi_t(model, b, 0.0).mat - psi0_closed(b).mat).max() == 0.0
        assert np.abs(psi_t(model, b, 1.0).mat - psi(model, b).mat).max() == 0.0

    def test_midpoint_on_line_identity(self):
        model = line_model()
        out = psi_t(model, np.eye(2, dtype=complex), 0.5)
        assert np.abs(out.mat - np.eye(2) / 2.0).max() <= 1e-12

    def test_t_range_checked(self):
        model = line_model()
        with pytest.raises(ValueError):
            psi_t(model, np.eye(2, dtype=complex), 1.5)

    @pytest.mark.parametrize("evaluate", BOUNDARY, ids=BOUNDARY_IDS)
    def test_unit_trace_form(self, evaluate):
        b = random_spd(3, np.random.default_rng(10), cond=4.0)
        out = evaluate(conic_model(), b.mat)
        assert isinstance(out, HermitianForm)
        assert abs(np.trace(out.mat) - 1.0) <= 1e-14

    @pytest.mark.parametrize("evaluate", BOUNDARY, ids=BOUNDARY_IDS)
    @pytest.mark.parametrize(
        "b, error",
        [
            (np.diag([1.0, -0.5, 1.0]), MarginError),
            (np.array([[1.0, 0.2, 0.0], [0.4, 1.0, 0.0], [0.0, 0.0, 1.0]]),
             HermitianDefectError),
        ],
        ids=["indefinite", "non-hermitian"],
    )
    def test_invalid_b_rejected(self, evaluate, b, error):
        with pytest.raises(error):
            evaluate(conic_model(), b)


def coords(basis, m):
    return np.real(np.einsum("aij,...ji->...a", basis, m))


@pytest.mark.parametrize("make", [HermitianCoords.full], ids=["hermitian_basis"])
def test_coords_matmul_equals_the_trace_sum(make):
    hc = make(5)
    rng = np.random.default_rng(14)
    stack = np.array([random_hermitian(5, rng) for _ in range(7)])
    for m in (stack, stack[0], stack.real):
        assert np.abs(hc.of(m) - coords(hermitian_basis(5), m)).max() <= 1e-15
    # the basis is orthonormal, so matrix(x) = sum_a x_a E_a has coordinates x
    for x in hc.of(stack):
        assert np.abs(hc.of(hc.matrix(x)) - x).max() <= 1e-14
    for n in (2, 3, 5, 9):
        hc = make(n)
        table = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
        flat = hermitian_basis(n).reshape(len(hc), n * n)
        dense = np.real(flat.conj() @ table @ flat.T)
        assert np.abs(hc.of_map(table) - dense).max() <= 1e-14 * np.abs(dense).max()
        # of the identity map: tr(E_a E_b), orthonormality
        assert np.abs(hc.of_map(np.eye(n * n)) - np.eye(len(hc))).max() <= 1e-14


def test_solve_psi_builds_one_coordinate_table(monkeypatch):
    model = conic_model()
    x = random_hermitian(3, np.random.default_rng(13))
    target = psi(model, np.eye(3) + 0.35 * x / np.abs(np.linalg.eigvalsh(x)).max())
    built = []
    init = HermitianCoords.__init__

    def counting(self, n):
        init(self, n)
        built.append((len(self), n, n))

    monkeypatch.setattr(HermitianCoords, "__init__", counting)
    # the coordinates are shared per size: drop those that earlier tests made
    HermitianCoords.full.cache_clear()
    _, trace = solve_psi(model, target)
    assert sum(row.newton_iters for row in trace.rows) > 1
    assert built == [(9, 3, 3)]
    # and a second solve of the same size builds none
    solve_psi(model, target)
    assert built == [(9, 3, 3)]


class TestPsiJacobian:
    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize(
        "make_model",
        [conic_model, lambda: build_p1_model(4, radial_nodes=24, azimuthal_nodes=40)],
        ids=["conic", "k4-2x"],
    )
    def test_matches_finite_differences(self, make_model, t):
        model = make_model()
        hc = HermitianCoords.full(model.N)
        basis = hermitian_basis(model.N)
        rng = np.random.default_rng(12)
        h = 1e-5
        for _ in range(2):
            b = random_spd(model.N, rng, cond=10.0).mat
            b = b / np.real(np.trace(b))
            jac = _psi_t_jacobian(model, b @ b, t, hc) @ hc.of_map(squaring_table(b))
            fd = np.array(
                [
                    coords(basis, psi_t(model, b + h * e, t).mat - psi_t(model, b - h * e, t).mat)
                    / (2.0 * h)
                    for e in basis
                ]
            ).T
            assert np.abs(jac - fd).max() / np.abs(jac).max() <= 1e-6

    def test_finite_and_warning_free_at_k32(self):
        # c = volume factor / P^3 from the kernel's rw P; from the bare P it
        # overflowed at the outermost radial nodes
        k = 32
        model = build_p1_model(k, 2 * (2 * k + 4), 2 * (4 * k + 4))
        b = np.diag([math.sqrt(math.comb(k, i)) for i in range(model.N)])
        b /= np.trace(b)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            jac = _psi_t_jacobian(model, b, 1.0, HermitianCoords.full(model.N))
        assert np.all(np.isfinite(jac))

    @pytest.mark.parametrize("k,d", [(2, 1), (3, 1), (4, 1), (6, 1), (8, 1), (2, 2), (3, 2), (4, 2)])
    def test_balanced_spectrum(self, k, d):
        """At the balanced form the Jacobian, chained with d(H^{-1}) and
        read relative to psi(B) (``psi_jacobian_chain``), is the linearised
        balancing map: its spectrum is lambda_l, l = 1..K, each 2l + 1 times
        (``balancing_spectrum``), with no finite differences."""
        deg = d * k
        model = build_p1_model(k, 2 * (2 * deg + 4), 2 * (4 * deg + 4), line_degree=d)
        ev = np.linalg.eigvals(psi_jacobian_chain(model))
        want = balancing_spectrum(deg)
        assert np.abs(ev.imag).max() <= 1e-10 * want.min()
        assert np.abs(np.sort(ev.real) / want - 1.0).max() <= 1e-10


class TestSolvePsi:
    def test_forward_roundtrip_on_conic(self):
        model = conic_model()
        rng = np.random.default_rng(9)
        for _ in range(3):
            x = random_hermitian(3, rng)
            x = x / np.abs(np.linalg.eigvalsh(x)).max()
            b_true = np.eye(3) + 0.35 * x
            target = psi(model, HermitianForm(b_true))
            sol, trace = solve_psi(model, target)
            resid = np.abs(psi(model, sol).mat - target.mat).max()
            assert resid <= 1e-8

    def test_identity_target_on_line(self):
        model = line_model()
        sol, _ = solve_psi(model, HermitianForm(np.eye(2) / 2.0))
        resid = np.abs(psi(model, sol).mat - np.eye(2) / 2.0).max()
        assert resid <= 1e-10
        assert np.abs(sol.mat - np.eye(2) / 2.0).max() <= 1e-8
        assert isinstance(sol, HermitianForm)
        assert abs(np.trace(sol.mat) - 1.0) <= 1e-14

    def test_scaled_target_same_solution(self):
        model = conic_model()
        x = random_hermitian(3, np.random.default_rng(13))
        b_true = np.eye(3) + 0.35 * x / np.abs(np.linalg.eigvalsh(x)).max()
        target = psi(model, b_true)
        sol, _ = solve_psi(model, target)
        scaled, _ = solve_psi(model, target.scaled(2.5))
        assert np.abs(scaled.mat - sol.mat).max() <= 1e-10

    def test_nonpositive_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            solve_psi(conic_model(), HermitianForm(np.diag([0.5, -1.0, 0.3])))

    def test_target_of_the_wrong_size_rejected(self):
        with pytest.raises(DimensionError, match="^form has dim 4, model needs 3$"):
            solve_psi(build_p1_model(2), HermitianForm.identity(4))

    def test_margin_error(self):
        model = conic_model()
        bad = np.diag([1.0 - 2e-5, 1e-5, 1e-5])
        with pytest.raises(MarginError):
            solve_psi(model, HermitianForm(bad))

    def test_infeasible_diagonal_pattern_fails_diagnosably(self):
        # targets whose diagonal is not log-convex for the monomial curve
        # lie outside the curve pushforward's range; the continuation must
        # stall with a diagnostic trace instead of pretending success
        model = conic_model()
        target = HermitianForm(np.diag([0.2, 0.6, 0.2]))
        with pytest.raises(ContinuationError) as err:
            solve_psi(model, target)
        assert err.value.trace is not None
        assert len(err.value.trace.rows) > 0

    def test_trace_rows_monotone_t(self):
        model = conic_model()
        target = psi(model, np.eye(3, dtype=complex))
        _, trace = solve_psi(model, target)
        ts = [r.t for r in trace.rows]
        assert ts == sorted(ts)
        assert ts[-1] == pytest.approx(1.0)

    def test_clipped_failure_halves_the_step_tried(self, monkeypatch):
        # the full step and the march's first attempt at t = 1 fail; the
        # march's first step of 1/10 reaches t = 0.9 with h = 1/4, so t + h
        # is clipped to 1; the failure there halves 1 - t = 1/10, not h, and
        # the identical failed corrector at t = 1 is not rerun
        model = conic_model()
        x = random_hermitian(3, np.random.default_rng(13))
        target = psi(model, np.eye(3) + 0.35 * x / np.abs(np.linalg.eigvalsh(x)).max())
        newton = hilbfs.pushforward._newton_at_t
        calls = []  # (t tried, failed)

        def fail_twice_at_one(model, b, t, *args):
            if t == 1.0 and sum(failed for _, failed in calls) < 2:
                calls.append((t, True))
                return None, 0, 1.0
            out = newton(model, b, t, *args)
            calls.append((t, out[0] is None))
            return out

        monkeypatch.setattr(hilbfs.pushforward, "_newton_at_t", fail_twice_at_one)
        _, trace = solve_psi(model, target)
        assert calls[0] == (1.0, True) and calls[1][0] == pytest.approx(0.1)
        second = calls.index((1.0, True), 1)
        assert calls[second - 1][0] == pytest.approx(0.9)
        assert calls[second + 1][0] == pytest.approx(0.95)
        for (t, failed), (t_next, _) in zip(calls[1:], calls[2:]):
            assert not (failed and t_next == t)
        assert trace.rows[-1].t == 1.0 and trace.abandoned == 2

    def test_steps_that_sum_to_one_below_rounding_end_at_one(self, monkeypatch):
        # a corrector that fails every step longer than 1/10, the full step
        # first, keeps the step at 1/10, and ten of them add up to
        # 1 - 1.1e-16 in floating point;
        # the tenth step must still end at exactly 1, with no zero-length
        # step after it
        model = conic_model()
        accepted = [0.0]

        def short_steps_only(model, b, t, *args):
            if t - accepted[-1] > 0.1 + 1e-12:
                return None, 1, 1.0
            accepted.append(t)
            return b, 1, 0.0

        monkeypatch.setattr(hilbfs.pushforward, "_newton_at_t", short_steps_only)
        _, trace = solve_psi(model, psi(model, np.eye(3, dtype=complex)))
        assert sum([0.1] * 10) < 1.0
        assert accepted[-1] == 1.0 and len(accepted) == 11
        assert [r.t for r in trace.rows if r.t > 0.95] == [1.0]


@pytest.mark.parametrize("k", [2, 4])
def test_path_steps_stop_at_path_tol_and_the_endpoint_at_psi_tol(k, monkeypatch):
    # k = 2 on the conic test grid, k = 4 on the 2x resolved grid, whose
    # full steps succeed, so the march is forced; a path point solved only
    # to PATH_TOL must not move the returned B
    march_only(monkeypatch)
    if k == 2:
        model = conic_model()
    else:
        model = build_p1_model(4, radial_nodes=24, azimuthal_nodes=40)
    x = random_hermitian(model.N, np.random.default_rng(21))
    target = psi(model, np.eye(model.N) + 0.35 * x / np.abs(np.linalg.eigvalsh(x)).max())
    sol, trace = solve_psi(model, target)
    assert trace.rows[-1].t == 1.0 and trace.rows[-1].residual <= PSI_TOL
    assert len(trace.rows) > 2
    assert all(row.residual <= PATH_TOL for row in trace.rows[:-1])
    monkeypatch.setattr(hilbfs.pushforward, "PATH_TOL", PSI_TOL)
    tight, tight_trace = solve_psi(model, target)
    assert all(row.residual <= PSI_TOL for row in tight_trace.rows)
    assert np.abs(tight.mat - sol.mat).max() <= 1e-8


def test_a_full_step_that_converges_is_the_whole_continuation():
    model = build_p1_model(4, radial_nodes=24, azimuthal_nodes=40)
    x = random_hermitian(model.N, np.random.default_rng(21))
    target = psi(model, np.eye(model.N) + 0.35 * x / np.abs(np.linalg.eigvalsh(x)).max())
    _, trace = solve_psi(model, target)
    assert [(r.t, r.step) for r in trace.rows] == [(0.0, 0.0), (1.0, 1.0)]
    assert trace.rows[-1].residual <= PSI_TOL
    assert trace.abandoned == 0 and trace.corrector_iters == trace.rows[-1].newton_iters


def test_an_abandoned_full_step_costs_one_jacobian_before_the_march(monkeypatch):
    # on this k = 8 target the first undamped step from the balancing
    # steps' start already fails the contraction test; the march after it
    # is the one that runs without it
    model = build_p1_model(8, radial_nodes=20, azimuthal_nodes=32)
    x = random_hermitian(model.N, np.random.default_rng(20))
    target = psi(model, np.eye(model.N) + 0.35 * x / np.abs(np.linalg.eigvalsh(x)).max())
    jacobian = hilbfs.pushforward._psi_t_jacobian
    ts = []

    def recording(model, bm, t, *args):
        ts.append(t)
        return jacobian(model, bm, t, *args)

    monkeypatch.setattr(hilbfs.pushforward, "_psi_t_jacobian", recording)
    _, trace = solve_psi(model, target)
    assert trace.abandoned == 1 and trace.corrector_iters == len(ts)
    assert ts[0] == 1.0 and ts[1] < 1.0
    assert trace.rows[-1].t == 1.0 and trace.rows[-1].residual <= PSI_TOL
    march_only(monkeypatch)
    _, marched = solve_psi(model, target)
    assert marched.rows == trace.rows
    assert marched.corrector_iters == trace.corrector_iters - 1


@pytest.mark.parametrize("t, full", [(1.0, True), (0.5, False)])
def test_a_singular_jacobian_is_a_failed_correction(t, full, monkeypatch):
    # getrf reports the zero pivot; the correction fails, which the
    # continuation answers, instead of raising
    model = build_p1_model(2)
    coords = HermitianCoords.full(model.N)
    monkeypatch.setattr(
        hilbfs.pushforward, "_psi_t_jacobian",
        lambda model, bm, t, coords, syn: np.zeros((len(coords), len(coords))),
    )
    g, b = np.diag([0.5, 0.3, 0.2]), np.eye(model.N) / model.N
    bn, iters, resid = hilbfs.pushforward._newton_at_t(model, b @ b, t, g, coords, full)
    assert bn is None and iters == 1
    assert resid == np.abs(coords.of(psi_t(model, b, t).mat - g)).max() > PATH_TOL


@pytest.mark.parametrize("t", [0.5, 1.0])
@pytest.mark.parametrize("k", [2, 4])
def test_the_bordered_step_is_the_traceless_newton_step(k, t, monkeypatch):
    # J + u u^T, u the coordinates of I / sqrt(N), solves for the step that
    # Newton takes in the coordinates of a traceless basis
    model = build_p1_model(k, **workloads.grid(k))
    rng = np.random.default_rng([k, 39])
    g = psi(model, random_spd(model.N, rng, cond=4.0)).mat
    b = random_spd(model.N, rng, cond=4.0).mat
    b = b / np.real(np.trace(b))
    getrs, solves = sla.lapack.dgetrs, []

    def recording(*args, **kwargs):
        out = getrs(*args, **kwargs)
        solves.append(out[0])
        return out

    monkeypatch.setattr(sla.lapack, "dgetrs", recording)
    hc = HermitianCoords.full(model.N)
    hilbfs.pushforward._newton_at_t(model, b @ b, t, g, hc)
    step = hc.matrix(solves[0])
    assert abs(np.trace(step)) <= 1e-13
    basis = traceless_basis(model.N)
    flat = hc.of(basis)
    jac = flat @ _psi_t_jacobian(model, b @ b, t, hc) @ flat.T
    r = coords(basis, psi_t(model, b, t).mat - g)
    want = np.einsum("a,aij->ij", np.linalg.solve(jac, -r), basis)
    assert np.abs(step - want).max() <= 1e-10 * np.abs(want).max()


def test_surject_full_jacobians_are_factored_once_each(monkeypatch):
    # the seed-1 k = 4 item of the surject-full benchmark workload: one
    # balancing step, then the full step in four Jacobians, each one LU
    # factorisation serving its direction and its contraction test
    getrf, getrs = sla.lapack.dgetrf, sla.lapack.dgetrs
    calls = {"getrf": 0, "getrs": 0}

    def counting(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(sla.lapack, "dgetrf", counting("getrf", getrf))
    monkeypatch.setattr(sla.lapack, "dgetrs", counting("getrs", getrs))
    wl = workloads.WORKLOADS["surject-full"]
    model = hb.geometry.build_p1_model(4, **workloads.grid(4))
    g = wl.generate(hb, model, np.random.default_rng([1, 4]), 1, defaultdict(int))[0]
    out = wl.run(hb, model, g)
    assert wl.check(hb, model, g, out) is None
    log = out[1].stage_logs[0]
    assert (log["corrector_iters"], log["seed_steps"], log["abandoned_attempts"]) == (4, 1, 0)
    # one solve for each direction, one for each contraction test
    assert calls == {"getrf": 4, "getrs": 8}


def inverse_sqrt(h):
    ev, vec = np.linalg.eigh(h)
    return (vec / np.sqrt(ev)) @ vec.conj().T


@pytest.mark.parametrize("k", [2, 4, 6])
def test_the_warm_started_full_step_finds_the_marched_solution(k, monkeypatch):
    # psi is injective on scale classes, so the full step from the balancing
    # steps' start and the march from the closed-form seed find one B
    model = build_p1_model(k, radial_nodes=2 * (2 * k + 4), azimuthal_nodes=2 * (4 * k + 4))
    x = random_hermitian(model.N, np.random.default_rng(21))
    target = psi(model, np.eye(model.N) + 0.35 * x / np.abs(np.linalg.eigvalsh(x)).max())
    warm, trace = solve_psi(model, target)
    assert trace.seed_steps >= 1 and trace.abandoned == 0 and len(trace.rows) == 2
    march_only(monkeypatch)
    marched, marched_trace = solve_psi(model, target)
    assert marched_trace.seed_steps == trace.seed_steps and len(marched_trace.rows) > 2
    assert np.abs(warm.mat - marched.mat).max() <= 1e-8 * np.abs(marched.mat).max()


def test_a_balancing_step_that_leaves_the_cone_is_not_taken(monkeypatch):
    # G - (psi(G^{-1/2}) - G) is indefinite for this conic target, so the
    # full step starts at the seed itself, and the march still finds its B
    model = conic_model()
    g = np.diag([0.499, 0.002, 0.499])
    assert np.linalg.eigvalsh(2.0 * g - psi(model, inverse_sqrt(g)).mat).min() < 0.0
    sol, trace = solve_psi(model, HermitianForm(g))
    assert trace.seed_steps == 0 and trace.rows[-1].residual <= PSI_TOL
    march_only(monkeypatch)
    marched, marched_trace = solve_psi(model, HermitianForm(g))
    assert len(marched_trace.rows) > 2
    assert np.abs(sol.mat - marched.mat).max() <= 1e-8 * np.abs(marched.mat).max()


def test_a_balancing_step_that_does_not_contract_still_reaches_the_march():
    # on this k = 6 target the first balancing step shrinks the residual by
    # about 0.58, more than CONTRACTION_MAX: it is kept, as the better point,
    # and the balancing stops; the full step from there is abandoned, and
    # the march converges
    model = build_p1_model(6, radial_nodes=20, azimuthal_nodes=32)
    target = psi(model, np.diag(20.0 ** (np.arange(model.N) / (model.N - 1))))
    g = target.mat
    r0 = psi(model, inverse_sqrt(g)).mat - g
    r1 = psi(model, inverse_sqrt(g - r0)).mat - g
    assert CONTRACTION_MAX * np.linalg.norm(r0) < np.linalg.norm(r1) < np.linalg.norm(r0)
    _, trace = solve_psi(model, target)
    assert trace.seed_steps == 1 and trace.abandoned == 1 and len(trace.rows) > 2
    assert trace.rows[-1].t == 1.0 and trace.rows[-1].residual <= PSI_TOL


def test_path_points_are_corrected_even_from_a_start_within_path_tol(monkeypatch):
    # psi_t(I/2) = I/2 on the line for every t, so each march attempt starts
    # at the solution; a path point still takes one correction, which must
    # be accepted although it cannot lower a residual at the rounding floor
    march_only(monkeypatch)
    model = line_model()
    _, trace = solve_psi(model, HermitianForm(np.eye(2) / 2.0))
    path = [row for row in trace.rows if 0.0 < row.t < 1.0]
    assert path and all(row.newton_iters == 1 for row in path)
    assert all(row.residual <= PATH_TOL for row in path)
    assert trace.rows[-1].newton_iters == 0 and trace.rows[-1].residual <= PSI_TOL

import math
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

import hilbfs as hb
from hilbfs import (
    ConvergenceError,
    DimensionError,
    HermitianForm,
    MomentInfeasibleError,
    MomentTarget,
    build_lambda,
    build_p1_model,
    fs_metric,
    hankel_margins,
    solve_moments,
)
from hilbfs.injectivity import gauge_frame, perturbed_pair
from hilbfs.linalg import random_spd
from hilbfs.moments import (
    LambdaSystem,
    _max_entropy_newton,
    section_squares,
    spike_targets,
)

from _oracles import probe_rows

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def _rel(new, ref):
    return float(np.abs(new - ref).max() / np.abs(ref).max())


class TestSolveMoments:
    def test_reference_moments_k1(self):
        model = build_p1_model(1)
        sol = solve_moments(model, MomentTarget([0.5, 0.5]))
        assert np.abs(sol.potential).max() <= 1e-11
        assert np.abs(sol.achieved - 0.5).max() <= 1e-12

    def test_reference_moments_k2(self):
        model = build_p1_model(2)
        sol = solve_moments(model, MomentTarget([1.0 / 3.0, 1.0 / 6.0, 1.0 / 3.0]))
        assert np.abs(sol.potential).max() <= 1e-10

    def test_scaled_target_shifts_by_log_c(self):
        model = build_p1_model(2)
        base = solve_moments(model, MomentTarget([1.0 / 3.0, 1.0 / 6.0, 1.0 / 3.0]))
        c = 7.0
        scaled = solve_moments(
            model, MomentTarget(np.array([1.0 / 3.0, 1.0 / 6.0, 1.0 / 3.0]) * c)
        )
        diff = scaled.potential - base.potential
        assert np.abs(diff - math.log(c)).max() <= 1e-9

    def test_generic_feasible_target(self):
        model = build_p1_model(2)
        # moments of an explicit positive density are always feasible
        gfun = section_squares(model)
        w = model.quad_weights * (1.0 + 0.4 * np.cos(3 * model.theta) * model.t)
        target = gfun @ w
        sol = solve_moments(model, MomentTarget(target), tol=1e-12)
        assert np.abs(sol.achieved - target).max() <= 1e-12
        assert sol.density.weights.min() > 0.0

    def test_permutation_equivariance(self):
        model = build_p1_model(2)
        perm = [2, 0, 1]
        target = np.array([0.3, 0.18, 0.31])
        sol = solve_moments(model, MomentTarget(target))
        sol_p = solve_moments(
            model,
            MomentTarget(target[perm]),
            squares=section_squares(model, np.eye(model.N)[perm]),
        )
        assert np.abs(sol_p.achieved - sol.achieved[perm]).max() <= 1e-10

    def test_converging_on_the_last_allowed_step_succeeds(self):
        # the cap counts Newton steps, and the iterate after the last one is
        # checked against the tolerance too
        model = build_p1_model(2)
        target = MomentTarget([0.3, 0.18, 0.31])
        free = solve_moments(model, target)
        capped = solve_moments(model, target, max_newton=free.newton_iters)
        assert free.newton_iters == 4
        assert capped.residual_history == free.residual_history
        assert np.array_equal(capped.potential, free.potential)

    def test_nonpositive_target_rejected(self):
        with pytest.raises(ValueError):
            MomentTarget([0.5, 0.0])

    def test_infeasible_spike_stalls_with_history(self):
        from hilbfs import ConvergenceError

        model = build_p1_model(2)
        bad = MomentTarget([0.1353, 1.0, 0.1353])  # interior spike
        with pytest.raises(ConvergenceError) as err:
            solve_moments(model, bad, max_newton=60)
        assert len(err.value.history) > 0


class TestMaxEntropyNewton:
    @pytest.mark.parametrize(
        "jac", [np.diag([1.0, -1.0]), np.full((2, 2), np.nan)], ids=["indefinite", "nan"]
    )
    def test_degenerate_jacobian_fails_the_first_step(self, jac):
        # posv reports no error on a non-finite matrix, so the NaN case must
        # be caught before the solve
        g = np.array([[1.0, 0.5, 0.0], [0.0, 0.5, 1.0]])
        weights = np.full(3, 1.0 / 3.0)
        target = np.array([0.7, 0.2])
        with pytest.raises(ConvergenceError) as err:
            _max_entropy_newton(
                lambda c: c @ g, lambda ew: g @ ew, lambda ew: jac,
                weights, target, 1e-11, 10,
            )
        assert str(err.value).startswith("moment Newton jacobian degenerate at iteration 0")
        assert err.value.history == [float(np.abs(g @ weights - target).max())]

    @pytest.mark.parametrize("k", [4, 8])
    def test_surject_fixed_steps_take_one_posv_each(self, k, monkeypatch):
        # seed-1 items 0-3 of the surject-fixed benchmark workload
        posv = sla.lapack.dposv
        calls = [0]

        def counting(*args, **kwargs):
            calls[0] += 1
            return posv(*args, **kwargs)

        monkeypatch.setattr(sla.lapack, "dposv", counting)
        wl = workloads.WORKLOADS["surject-fixed"]
        model = hb.geometry.build_p1_model(k, **workloads.grid(k))
        items = wl.generate(hb, model, np.random.default_rng([1, k]), 4, defaultdict(int))
        iters = []
        for inp in items:
            calls[0] = 0
            out = wl.run(hb, model, inp)
            assert wl.check(hb, model, inp, out) is None
            iters.append(out[1].stage_logs[0]["newton_iters"])
            assert calls[0] == iters[-1]
        assert iters == [5, 5, 5, 5]


class TestSectionSquares:
    @pytest.mark.parametrize("k", [2, 4, 8, 16])
    def test_kernel_squares_match_the_section_table(self, k):
        # |(A s)_j|^2 rw from the N x Q section table is the reference for
        # the kernel's synthesis of the rank-one forms conj(a_j) a_j^T
        model = build_p1_model(k)
        n = model.N
        rng = np.random.default_rng(k)
        h, h2 = (fs_metric(model, x) for x in perturbed_pair(model, rng, 1e-3))
        frames = {
            "identity": np.eye(n),
            "permutation": np.eye(n)[rng.permutation(n)],
            "gauge": gauge_frame(model, h, h2)[1],
        }
        for name, a in frames.items():
            ref = np.abs(a @ model.sections) ** 2 * model.ref_weight
            err = np.abs(section_squares(model, a) - ref).max(axis=1)
            assert np.all(err <= 1e-13 * ref.max(axis=1)), name
        assert np.array_equal(section_squares(model), section_squares(model, np.eye(n)))


class TestHankel:
    def test_spike_patterns_infeasible_for_k_ge_2(self):
        for k in [2, 3, 4, 8]:
            n = k + 1
            floor = math.exp(-k)
            targets = spike_targets(n, floor)
            mid = n // 2
            margins = hankel_margins(targets[mid])
            assert min(margins.values()) <= 0.0

    def test_reference_moments_feasible(self):
        for k in [1, 2, 4]:
            moments = np.array(
                [
                    math.factorial(a) * math.factorial(k - a) / math.factorial(k + 1)
                    for a in range(k + 1)
                ]
            )
            margins = hankel_margins(moments)
            assert min(margins.values()) > 0.0


class TestBuildLambda:
    def test_k1_paper_mode(self):
        model = build_p1_model(1)
        system = build_lambda(model)
        floor = math.exp(-1.0)
        assert system.mode == "paper"
        assert np.abs(system.matrix - np.array([[1.0, floor], [floor, 1.0]])).max() <= 1e-8
        assert system.bounds_hold()
        # row sums: 1 + (N-1) * floor
        assert np.abs(system.matrix.sum(axis=1) - (1.0 + floor)).max() <= 1e-8

    def test_k1_floor_to_zero_limit(self):
        # rows approach standard basis vectors; small floors need measures
        # concentrated near t = 0 and t = 1, so the node set must reach there
        # (the innermost Gauss-Legendre node caps the achievable ratio)
        for floor, nr, tol in [(1e-2, 40, 1e-9), (1e-3, 80, 1e-9), (1e-4, 160, 1e-8)]:
            model = build_p1_model(1, radial_nodes=nr, azimuthal_nodes=8)
            system = build_lambda(model, floor=floor, tol=tol, max_newton=200)
            assert np.abs(system.matrix - np.eye(2)).max() <= floor + 1e-8
            assert system.norms.op <= 1.0 + 2 * floor
            assert system.inverse_norms.op <= 1.0 + 3 * floor

    def test_k2_paper_mode_infeasible(self):
        model = build_p1_model(2)
        with pytest.raises(MomentInfeasibleError) as err:
            build_lambda(model)
        assert err.value.row == 1
        assert err.value.diagnostics["hankel_even"] <= 0.0

    def test_probe_mode_properties(self):
        for k in [2, 4]:
            model = build_p1_model(k, radial_nodes=32, azimuthal_nodes=48)
            system = build_lambda(model, mode="probe")
            n = k + 1
            assert system.matrix.shape == (n, n)
            assert system.norms.max <= 1.0 + 1e-12
            assert np.all(system.matrix > 0.0)
            assert system.weights.shape == (n, model.Q)
            assert system.weights.min() >= 0.0
            # invertible with moderate conditioning
            assert system.norms.op / (1.0 / system.inverse_norms.op) < 1e4

    def test_row_weights_are_checked_once_and_kept_read_only(self):
        model = build_p1_model(2, radial_nodes=16, azimuthal_nodes=24)
        system = build_lambda(model, mode="probe")
        assert not system.weights.flags.writeable
        fields = dict(vars(system))
        for bad in (np.nan, -1e-300, np.inf):
            w = system.weights.copy()
            w[1, 5] = bad
            with pytest.raises(ValueError, match="finite and nonnegative"):
                LambdaSystem(**{**fields, "weights": w})
        w = system.weights.copy()
        w[2] = 0.0
        with pytest.raises(ValueError, match="positive mass"):
            LambdaSystem(**{**fields, "weights": w})
        with pytest.raises(DimensionError):
            LambdaSystem(**{**fields, "weights": system.weights[:2]})

    @pytest.mark.parametrize("mode", ["probe", "paper"])
    def test_frame_rows_match_the_squares_table(self, mode):
        # the probe rows are summed over ring blocks of the frame's squares
        # (three here, the last one short), the full-table formula is the
        # reference.  The paper rows (k = 1 keeps them feasible) of the
        # identity frame are the monomials'
        if mode == "probe":
            model = build_p1_model(4, radial_nodes=40, azimuthal_nodes=136)
        else:
            model = build_p1_model(1)
        n = model.N
        if mode == "probe":
            a = np.linalg.inv(np.linalg.cholesky(random_spd(n, np.random.default_rng(0), 10.0).mat))
            g = section_squares(model, a)
            weights, lam = probe_rows(model, g, g / g.sum(axis=0))
            system = build_lambda(model, mode="probe", frame=a)
            assert _rel(system.matrix, lam) <= 1e-13
            assert _rel(system.weights, weights) <= 1e-13
        else:
            system = build_lambda(model, frame=np.eye(n))
            monomial = build_lambda(model)
            assert np.array_equal(system.matrix, monomial.matrix)
            assert np.array_equal(system.weights, monomial.weights)
        with pytest.raises(DimensionError):
            build_lambda(model, mode=mode, frame=np.eye(n + 1))

    def test_probe_mode_gauge_sections(self):
        model = build_p1_model(4, radial_nodes=32, azimuthal_nodes=48)
        rng = np.random.default_rng(0)
        a = np.linalg.inv(np.linalg.cholesky(random_spd(5, rng, cond=10.0).mat))
        system = build_lambda(model, mode="probe", frame=a)
        assert system.matrix.shape == (5, 5)
        assert system.norms.max <= 1.0 + 1e-12

    def test_jacobian_spd_assertion_active(self):
        # the solver Cholesky-checks its Jacobian at every iterate; a
        # feasible solve exercises that path
        model = build_p1_model(1)
        sol = solve_moments(model, MomentTarget([0.7, 0.2]))
        assert np.abs(sol.achieved - np.array([0.7, 0.2])).max() <= 1e-11

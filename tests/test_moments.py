import math

import numpy as np
import pytest

from hilbfs import (
    HermitianForm,
    MomentInfeasibleError,
    MomentTarget,
    build_lambda,
    build_p1_model,
    hankel_margins,
    solve_moments,
)
from hilbfs.linalg import random_spd
from hilbfs.moments import section_squares, spike_targets


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
            squares=section_squares(model, model.sections[perm]),
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
            assert system.max_entry <= 1.0 + 1e-12
            assert np.all(system.matrix > 0.0)
            assert len(system.densities) == n
            for d in system.densities:
                assert d.weights.min() >= 0.0
            # invertible with moderate conditioning
            assert system.norms.op / (1.0 / system.inverse_norms.op) < 1e4

    def test_probe_mode_gauge_sections(self):
        model = build_p1_model(4, radial_nodes=32, azimuthal_nodes=48)
        rng = np.random.default_rng(0)
        a = np.linalg.inv(np.linalg.cholesky(random_spd(5, rng, cond=10.0).mat))
        system = build_lambda(
            model, mode="probe", squares=section_squares(model, a @ model.sections)
        )
        assert system.matrix.shape == (5, 5)
        assert system.max_entry <= 1.0 + 1e-12

    def test_jacobian_spd_assertion_active(self):
        # the solver Cholesky-checks its Jacobian at every iterate; a
        # feasible solve exercises that path
        model = build_p1_model(1)
        sol = solve_moments(model, MomentTarget([0.7, 0.2]))
        assert np.abs(sol.achieved - np.array([0.7, 0.2])).max() <= 1e-11

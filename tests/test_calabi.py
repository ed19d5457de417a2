import gc
import math
import sys
import tracemalloc
import weakref
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

import hilbfs.calabi
import hilbfs.moments
from hilbfs import (
    ANTICANONICAL,
    FIXED,
    Density,
    HermitianForm,
    MAProblem,
    MarginError,
    MetricWeight,
    StageError,
    build_p1_anticanonical_model,
    build_p1_model,
    curvature_volume,
    fs_metric,
    hilb,
    hilb_nu,
    solve_ma,
    surject_fixed_volume,
    surject_full,
)
from hilbfs.calabi import _full_gram_cells, _full_gram_family
from hilbfs.errors import (
    ConvergenceError,
    HermitianDefectError,
    VariantError,
)
from hilbfs.linalg import COORDS_KEPT, HermitianCoords, random_spd
from hilbfs.moments import _max_entropy_newton
from hilbfs.pushforward import solve_psi

from _oracles import pair_product_table, sphere_basis

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def smooth_random_g(model, rng, amplitude=0.4, decay=0.15):
    """Random band-limited node function, mass-normalised for solvability."""
    lmax = min(model.radial_nodes - 1, 12)
    mmax = min((model.azimuthal_nodes - 1) // 2, 12)
    y, _ = sphere_basis(model.t, model.theta, lmax, mmax)
    c = rng.standard_normal(y.shape[1]) * np.exp(-decay * np.arange(y.shape[1]))
    c[0] = 0.0
    g = amplitude * (y @ c)
    return g - math.log(float((np.exp(g) * model.quad_weights).sum()) / model.V)


class TestSolveMA:
    def test_zero_data_zero_solution(self):
        model = build_p1_model(2, radial_nodes=24, azimuthal_nodes=32)
        sol = solve_ma(MAProblem(model, np.zeros(model.Q)))
        assert np.abs(sol.f).max() <= 1e-11
        assert sol.residual <= 1e-11

    def test_small_data_matches_linearisation(self):
        model = build_p1_model(2, radial_nodes=24, azimuthal_nodes=32)
        rng = np.random.default_rng(0)
        g = smooth_random_g(model, rng, amplitude=1e-3)
        sol = solve_ma(MAProblem(model, g))
        lap = model.laplacian() @ np.eye(model.Q) / (4.0 * np.pi * model.k)
        f_lin = np.linalg.solve(lap - np.eye(model.Q), g)
        assert np.abs(sol.f - f_lin).max() <= 1e-5

    def test_random_smooth_data(self):
        model = build_p1_model(2, radial_nodes=24, azimuthal_nodes=32)
        rng = np.random.default_rng(1)
        for _ in range(3):
            g = smooth_random_g(model, rng)
            sol = solve_ma(MAProblem(model, g))
            assert sol.residual <= 1e-9
            assert sol.mass_defect <= 1e-10
            assert sol.positivity_margin > 0.0

    def test_monotone_residual_history(self):
        model = build_p1_model(2, radial_nodes=24, azimuthal_nodes=32)
        rng = np.random.default_rng(2)
        sol = solve_ma(MAProblem(model, smooth_random_g(model, rng)))
        hist = sol.residual_history
        assert all(b < a for a, b in zip(hist, hist[1:]))

    def test_unnormalised_data_handled_exactly(self):
        # the solvability shift is subtracted back: the returned f solves the
        # original equation, not the shifted one
        model = build_p1_model(2, radial_nodes=24, azimuthal_nodes=32)
        rng = np.random.default_rng(3)
        g = smooth_random_g(model, rng) + 0.8
        sol = solve_ma(MAProblem(model, g))
        lap = model.laplacian() @ np.eye(model.Q) / (4.0 * np.pi * model.k)
        resid = 1.0 + lap @ sol.f - np.exp(sol.f + g)
        assert np.abs(resid).max() <= 1e-9
        assert abs(sol.normalisation_shift - 0.8) <= 1e-9

    def test_converging_on_the_last_allowed_step_succeeds(self, monkeypatch):
        model = build_p1_model(2, radial_nodes=24, azimuthal_nodes=32)
        g = smooth_random_g(model, np.random.default_rng(1))
        free = solve_ma(MAProblem(model, g))
        monkeypatch.setattr(hilbfs.calabi, "MA_MAX_NEWTON", free.newton_iters)
        capped = solve_ma(MAProblem(model, g))
        assert capped.newton_iters == free.newton_iters == len(free.residual_history) - 1
        assert np.array_equal(capped.f, free.f)

    def test_unconverged_cg_raises(self, monkeypatch):
        # a Newton step is never taken from an unconverged linear solve
        model = build_p1_model(2, radial_nodes=24, azimuthal_nodes=32)
        g = smooth_random_g(model, np.random.default_rng(1))
        monkeypatch.setattr(hilbfs.calabi, "CG_MAX_ITERS", 2)
        with pytest.raises(ConvergenceError) as info:
            solve_ma(MAProblem(model, g))
        assert len(info.value.history) == 2
        assert info.value.history[-1] > hilbfs.calabi.CG_TOL


class TestSurjectFixedVolume:
    def test_identity_instance(self):
        model = build_p1_model(2, radial_nodes=24, azimuthal_nodes=32)
        target = hilb_nu(
            model,
            MetricWeight.reference(model),
            FIXED,
            nu=Density(model.quad_weights),
        )
        metric, report = surject_fixed_volume(model, target)
        assert report.residual_max <= 1e-9
        assert np.abs(metric.potential(model)).max() <= 1e-7
        # the reference weight solves it at c = 0, before any Newton step
        assert report.stage_logs[0]["newton_iters"] == 0

    @pytest.mark.parametrize("k", [2, 6])
    def test_forward_generated_targets(self, k):
        # the sin term gives the target imaginary off-diagonal entries, so the
        # Newton must reach negative and imaginary hermitian coordinates
        model = build_p1_model(k, radial_nodes=24, azimuthal_nodes=32)
        rng = np.random.default_rng(4)
        for _ in range(3):
            u = (
                0.4 * np.cos(model.theta) * model.t
                + 0.3 * np.sin(model.theta) * (1.0 - model.t)
                + 0.2 * (model.t - 0.5)
            )
            u = u * rng.uniform(0.5, 1.5)
            target = hilb_nu(
                model, MetricWeight.grid(u), FIXED, nu=Density(model.quad_weights)
            )
            metric, report = surject_fixed_volume(model, target)
            assert report.residual_max <= 1e-8

    def test_anticanonical_variant(self):
        model = build_p1_anticanonical_model(1, radial_nodes=24, azimuthal_nodes=32)
        rng = np.random.default_rng(5)
        u = 0.3 * np.sin(model.theta) * model.t
        target = hilb_nu(model, MetricWeight.grid(u), ANTICANONICAL)
        metric, report = surject_fixed_volume(model, target, variant=ANTICANONICAL)
        assert report.residual_max <= 1e-8

    def test_anticanonical_target_below_the_armijo_rounding(self):
        # near the solution the dual objective's predicted decrease falls
        # below its rounding; the Armijo test alone stalled here just above
        # tol/scale
        model = build_p1_anticanonical_model(4, radial_nodes=24, azimuthal_nodes=40)
        u = 0.1 * np.cos(np.pi * model.t) + 0.05 * model.t * np.sin(model.theta)
        target = hilb_nu(model, MetricWeight.grid(u), ANTICANONICAL)
        _, report = surject_fixed_volume(model, target, variant=ANTICANONICAL)
        assert report.achieved
        assert report.residual_max <= 1e-9

    def test_newton_runs_at_the_module_settings(self, monkeypatch):
        model, g, nu = _benchmark_item(4)
        seen = []

        def recording(*args):
            seen.append(args[-2:])
            return _max_entropy_newton(*args)

        monkeypatch.setattr(hilbfs.calabi, "_max_entropy_newton", recording)
        _, report = surject_fixed_volume(model, g, nu=nu)
        tol, cap = seen[0]
        assert tol == pytest.approx(hilbfs.calabi.MOMENT_TOL * model.V / model.N, rel=1e-15)
        assert cap == hilbfs.moments.MAX_NEWTON
        assert report.tolerance == hilbfs.calabi.SURJECT_TOL

    @pytest.mark.parametrize("k", [4, 8])
    def test_logged_gram_reads_the_last_moments_cells(self, monkeypatch, k):
        # the stage log's Gram is gathered from the cells of the Newton's
        # last moments call, at its final point: one plain analysis per
        # Newton evaluation and one for the forward check, with the bits
        # of the kernel's gram of the final weights
        model, g, nu = _benchmark_item(k)
        kernel = model._theta_fourier()
        analysis, calls, final = hilbfs.geometry._ThetaFourier.analysis, [0, 0], []

        def counting(self, w):
            calls[0] += self is kernel
            return analysis(self, w)

        def recording(potential, moments, *rest):
            def counted(ew):
                calls[1] += 1
                return moments(ew)

            out = _max_entropy_newton(potential, counted, *rest)
            final.append(out[2])
            return out

        monkeypatch.setattr(hilbfs.geometry._ThetaFourier, "analysis", counting)
        monkeypatch.setattr(hilbfs.calabi, "_max_entropy_newton", recording)
        _, report = surject_fixed_volume(model, g, nu=nu)
        assert calls[1] >= 2 and calls[0] == calls[1] + 1
        scale = model.N / model.V
        logged = float(np.abs(kernel.gram(final[0]) - g.mat / scale).max()) * scale
        assert report.stage_logs[0]["residual"] == logged

    def test_canonical_variant_requires_general_type(self):
        # which O(d) on P^1 never is, so no canonical variant is offered
        model = build_p1_model(2)
        with pytest.raises(VariantError, match="unknown variant 'canonical'"):
            surject_fixed_volume(model, HermitianForm.identity(3), variant="canonical")

    def test_non_hermitian_target_rejected(self):
        model = build_p1_model(2)
        with pytest.raises(HermitianDefectError):
            surject_fixed_volume(model, np.array([[1.0, 0.2], [0.4, 1.0]]))

    @pytest.mark.parametrize(
        "variant, build",
        [
            ("bogus", lambda: build_p1_model(2)),
            (ANTICANONICAL, lambda: build_p1_model(2)),
        ],
        ids=["unknown", "anticanonical-p1"],
    )
    def test_bad_variant_rejected_before_solve(self, monkeypatch, variant, build):
        def unreachable(*args, **kwargs):
            raise AssertionError("moment Newton ran before the variant check")

        monkeypatch.setattr(hilbfs.calabi, "_max_entropy_newton", unreachable)
        model = build()
        with pytest.raises(VariantError):
            surject_fixed_volume(model, HermitianForm.identity(model.N), variant=variant)

    def test_ill_conditioned_target_rejected(self):
        model = build_p1_model(2)
        bad = HermitianForm.diagonal([1.0, 1e-9, 1.0])
        with pytest.raises(MarginError, match="condition number"):
            surject_fixed_volume(model, bad)


def _rel(new, ref):
    return float(np.abs(new - ref).max() / np.abs(ref).max())


def _table_family(table):
    """The moment family's three functions from its N^2 x Q node table."""
    return (
        lambda c: c @ table,
        lambda ew: table @ ew,
        lambda ew: (table * ew) @ table.T,
    )


def _benchmark_item(k, seed=1):
    """The first surject-fixed benchmark item of size k for ``seed``."""
    model = build_p1_model(k, **workloads.grid(k))
    wl = workloads.WORKLOADS["surject-fixed"]
    g, nu = wl.generate(hilbfs, model, np.random.default_rng([seed, k]), 1, defaultdict(int))[0]
    return model, g, nu


class TestFullGramFamily:
    """The table-free full-Gram moment family against the N^2 x Q table of
    its node functions."""

    @pytest.mark.parametrize("k,d", [(2, 1), (4, 1), (8, 1), (12, 1), (16, 1), (3, 2), (6, 2)])
    def test_matches_pair_product_table(self, k, d):
        model = build_p1_model(k, line_degree=d)
        family = _full_gram_family(model, HermitianCoords.full(model.N))
        oracle = _table_family(pair_product_table(model))
        rng = np.random.default_rng(k + 40)
        c = 0.3 * rng.standard_normal(model.N**2)
        ew = model.quad_weights * rng.uniform(0.5, 1.5, size=model.Q)
        assert _rel(family[0](c), oracle[0](c)) <= 1e-13
        for new, ref in zip(family[1:], oracle[1:]):
            assert _rel(new(ew), ref(ew)) <= 1e-13

    @pytest.mark.parametrize("k", [4, 8, 12])
    def test_newton_path_matches_the_table(self, monkeypatch, k):
        model, g, nu = _benchmark_item(k)
        _, report = surject_fixed_volume(model, g, nu=nu)
        table = pair_product_table(model)

        def table_newton(potential, moments, jacobian, *rest):
            return _max_entropy_newton(*_table_family(table), *rest)

        monkeypatch.setattr(hilbfs.calabi, "_max_entropy_newton", table_newton)
        _, oracle = surject_fixed_volume(model, g, nu=nu)
        assert report.stage_logs[0]["newton_iters"] == oracle.stage_logs[0]["newton_iters"]
        assert report.residual_max <= 1e-8
        assert abs(report.residual_max - oracle.residual_max) <= 1e-12

    @pytest.mark.parametrize("k,count", [(4, 3), (8, 10)])
    def test_posv_overwrites_a_bit_symmetric_jacobian(self, monkeypatch, k, count):
        # posv factors a Fortran-ordered J in place and reads one triangle
        # of it, which stands for the other only if J is symmetric to the bit
        model = build_p1_model(k, **workloads.grid(k))
        wl = workloads.WORKLOADS["surject-fixed"]
        items = wl.generate(hilbfs, model, np.random.default_rng([1, k]), count, defaultdict(int))
        posv, seen = sla.lapack.dposv, []

        def checked_posv(a, *args, **kwargs):
            symmetric = a.flags.f_contiguous and np.array_equal(a, a.T)
            out = posv(a, *args, **kwargs)
            seen.append(symmetric and np.shares_memory(out[0], a))
            return out

        monkeypatch.setattr(sla.lapack, "dposv", checked_posv)
        for g, nu in items:
            surject_fixed_volume(model, g, nu=nu)
        assert len(seen) >= 4 * count and all(seen)

    def test_cell_tables_are_shared_read_only_and_dropped(self):
        # the tables of one size are built once and shared while fewer than
        # COORDS_KEPT other sizes are asked for, and dropped once more are
        tables = _full_gram_cells(9)
        assert _full_gram_cells(9) is tables
        assert len(tables.cell) == 81 and tables.jac_cells.shape == (2, 81, 81)
        for table in tables:
            with pytest.raises(ValueError, match="read-only"):
                table[...] = 0
        ref = weakref.ref(tables.jac_weights)
        for n in range(2, 1 + COORDS_KEPT):
            _full_gram_cells(n)
        assert _full_gram_cells(9) is tables
        del tables, table
        for n in range(2, 3 + COORDS_KEPT):
            _full_gram_cells(n)
        gc.collect()
        assert ref() is None

    def test_no_node_table_is_held(self):
        # one N^2 x Q table of floats alone would take 8 N^2 Q bytes
        model, g, nu = _benchmark_item(12)
        tracemalloc.start()
        try:
            surject_fixed_volume(model, g, nu=nu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * model.N**2 * model.Q


class TestSurjectFull:
    def test_reference_fixed_point(self):
        model = build_p1_model(2, radial_nodes=32, azimuthal_nodes=48)
        target = hilb(model, MetricWeight.reference(model))
        metric, report = surject_full(model, target)
        assert report.residual_max <= 1e-8
        assert report.positivity_margin > 0.0
        # recovered metric is the reference up to the scale gauge
        u = metric.potential(model)
        assert np.abs(u - u.mean()).max() <= 1e-6

    def test_seeded_random_targets(self):
        # targets are generated through the forward map (the image of hilb is
        # a proper subset of the positive cone here: its diagonal is
        # log-convex in the monomial frame, so raw random matrices need not
        # be realisable); randomness enters through the generating metric
        model = build_p1_model(2, radial_nodes=32, azimuthal_nodes=48)
        rng = np.random.default_rng(6)
        count = 0
        while count < 2:
            gen = random_spd(model.N, rng, cond=6.0)
            target = hilb(model, fs_metric(model, gen))
            if target.cond() > 10.0:
                continue
            count += 1
            metric, report = surject_full(model, target)
            assert report.residual_max <= 1e-5
            assert report.positivity_margin > 0.0

    def test_ends_at_the_bergman_metric_of_the_psi_solution(self):
        # the realising metric is fs_metric(c B^-2) for solve_psi's B on the
        # same target: no grid metric and no Monge-Ampere stage
        model = build_p1_model(4, **workloads.grid(4))
        target = hilb(model, fs_metric(model, random_spd(model.N, np.random.default_rng(8), 6.0)))
        metric, report = surject_full(model, target)
        assert metric.kind == "bergman"
        b, _ = solve_psi(model, target)
        binv = np.linalg.inv(b.mat)
        form = binv @ binv
        c = np.trace(metric.form.mat).real / np.trace(form).real
        assert np.abs(metric.form.mat - c * form).max() <= 1e-12 * np.abs(metric.form.mat).max()
        assert [s["stage"] for s in report.stage_logs] == [
            "pushforward-continuation", "forward-check"
        ]
        density = curvature_volume(model, metric).weights / model.quad_weights
        assert report.positivity_margin == density.min()
        assert report.residual_max <= 1e-8

    def test_continuation_log_counts_every_attempt(self):
        # this k = 8 target abandons its full step even from the balancing
        # steps' start, so the march's attempts follow it
        model = build_p1_model(8, **workloads.grid(8))
        target = hilb(model, fs_metric(model, random_spd(model.N, np.random.default_rng(8), 6.0)))
        _, report = surject_full(model, target)
        _, trace = solve_psi(model, target)
        log = report.stage_logs[0]
        assert log["seed_steps"] == trace.seed_steps >= 1
        assert log["abandoned_attempts"] == trace.abandoned >= 1
        assert log["corrector_iters"] == trace.corrector_iters
        assert log["corrector_iters"] >= sum(r.newton_iters for r in trace.rows) + 1
        assert log["t_steps"] == len(trace.rows)

    def test_out_of_range_target_reported(self):
        # a unit-trace PD matrix whose diagonal is not log-convex cannot be
        # hit; the pipeline must fail loudly in stage 1
        model = build_p1_model(2, radial_nodes=32, azimuthal_nodes=48)
        rng = np.random.default_rng(7)
        target = random_spd(model.N, rng, cond=10.0)
        d = np.real(np.diag(target.mat))
        if d[1] ** 2 <= d[0] * d[2]:  # make it infeasible for sure
            m = target.mat.copy()
            m[1, 1] = 2.0 * np.sqrt(d[0] * d[2])
            target = HermitianForm(m)
        with pytest.raises(StageError) as err:
            surject_full(model, target)
        assert err.value.stage == "pushforward-continuation"

    def test_near_singular_target_margin_error(self):
        model = build_p1_model(2, radial_nodes=32, azimuthal_nodes=48)
        bad = HermitianForm.diagonal([1.0, 1.0, 1e-6])
        with pytest.raises(MarginError):
            surject_full(model, bad)

    def test_indefinite_target_margin_error(self):
        # an invalid target raises the bare MarginError of the one target
        # check, neither a pivot failure nor a wrapped stage failure
        model = build_p1_model(2, radial_nodes=32, azimuthal_nodes=48)
        bad = HermitianForm.diagonal([1.0, -0.1, 1.0])
        with pytest.raises(MarginError, match="not positive definite"):
            surject_full(model, bad)

    def test_programming_error_not_wrapped(self, monkeypatch):
        # only numerical failures become a StageError; a coding mistake
        # inside a stage propagates as itself
        def broken(*args, **kwargs):
            raise TypeError("broken stage")

        monkeypatch.setattr(hilbfs.calabi, "solve_psi", broken)
        model = build_p1_model(2, radial_nodes=32, azimuthal_nodes=48)
        target = hilb(model, MetricWeight.reference(model))
        with pytest.raises(TypeError, match="broken stage"):
            surject_full(model, target)

    def test_stage_wrapping_diagonal_spike(self):
        # the diagonal spike pattern is the cleanest out-of-range instance
        model = build_p1_model(2, radial_nodes=32, azimuthal_nodes=48)
        target = HermitianForm.diagonal([0.6, 1.8, 0.6])
        with pytest.raises(StageError) as err:
            surject_full(model, target)
        assert err.value.stage == "pushforward-continuation"

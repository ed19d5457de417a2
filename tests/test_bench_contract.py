"""Smoke test of the benchmark's calls into the public API.

Runs one seeded item of every workload in ``perfbench/workloads.py`` at the
smallest and at the largest size of its ladder, on the benchmark's own
grid, through the same generate/run/check calls the benchmark harness
makes; a change to the public surface the harness uses, or a fault that
shows only at large N, then fails here, not in a benchmark run.
"""

import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

import hilbfs as hb

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402
import workloads  # noqa: E402

# verify_injectivity on the first balance-audit item of seeds 1-3 at each
# ladder size, as the audit reported it before its N x Q tables were built
# in single passes: (seed, k) -> (status, lambda_norm_op, route_agreement,
# the chain values in CHAIN order, d_sq)
CHAIN = ("F_max", "F_hs", "F_op", "lambda_inv_F_op", "max_dinv2_minus_1")
AUDITS = {
    (1, 4): (
        "verified", 2.15195486276471, 1.16464997368393e-15,
        (0.000674238227407629, 0.000838092142439527, 0.000711957866274976,
         0.000783366885210092, 0.000999000999000854),
        [0.999096779877862, 0.999722832585995, 0.999900799130236, 1.00023888840796, 1.001],
    ),
    (1, 8): (
        "verified", 3.5230940856109, 1.34441069388203e-15,
        (0.000431113368994081, 0.000925767299796997, 0.000802185175704304,
         0.000667776510503281, 0.00100100100100109),
        [0.999, 0.999297701179621, 0.99962578466475, 0.999745189570475, 0.999942663579263,
         1.00015386783037, 1.00033870372255, 1.00046069602919, 1.00088861951537],
    ),
    (1, 16): (
        "verified", 5.6099621222998, 3.57629507605206e-15,
        (0.000161259019977239, 0.000450837311797874, 0.000353989419626368,
         0.000889826578274179, 0.00099900099900041),
        [0.999255721732334, 0.999299584416352, 0.999420831268036, 0.999544028676543,
         0.999702569113608, 0.999760988008209, 0.999863567817194, 0.999914752233976,
         1.00005788260977, 1.00007422283645, 1.00017448834121, 1.00029951174583,
         1.00042917360565, 1.00054355221301, 1.00063849922297, 1.00075357442197, 1.001],
    ),
    (2, 4): (
        "verified", 2.11119373723696, 6.68248009011441e-16,
        (0.000700477292378836, 0.000954963742570575, 0.000789873071968641,
         0.000833530344630276, 0.00100100100100131),
        [0.999, 0.999332717422726, 0.999968077164342, 1.00057480968152, 1.00079026855181],
    ),
    (2, 8): (
        "verified", 2.90000470075989, 7.92877048738649e-16,
        (0.000336124145958695, 0.00082046633206697, 0.000683472549209549,
         0.000638759765860885, 0.00100100100100087),
        [0.999, 0.999187242930414, 0.999377966915189, 0.999626019636527, 0.999915353390904,
         0.999970038337427, 1.00016498665541, 1.00042541070477, 1.00089287883295],
    ),
    (2, 16): (
        "verified", 5.84583145787176, 5.41960139960329e-15,
        (0.000328062631468876, 0.00103956356537006, 0.00099382213092269,
         0.00101929192050455, 0.00100100100100153),
        [0.998999999999999, 0.999162084286913, 0.999313530698402, 0.999433471112325,
         0.999538294822771, 0.999682165332455, 0.999811247677321, 0.999957968873224,
         0.99998005933744, 1.00005064303691, 1.00014623027787, 1.00033329410317,
         1.00050804617947, 1.0005865761693, 1.00064940305479, 1.00071637457584,
         1.00095253396123],
    ),
    (3, 4): (
        "verified", 1.91011610830174, 4.10912623372006e-16,
        (0.000547599286438238, 0.000743798687307896, 0.000636033869556677,
         0.000703125543190845, 0.00100100100100131),
        [0.999, 0.999346180493006, 0.999774016270118, 1.00019882749352, 1.00069558001233],
    ),
    (3, 8): (
        "verified", 3.13286070341809, 1.62066540743133e-15,
        (0.000344617913858896, 0.000716503850294898, 0.000616234013343043,
         0.000694280143862583, 0.00100100100100131),
        [0.999, 0.999100536003361, 0.999354120759759, 0.999462830728965, 0.9998987611951,
         1.00016628797777, 1.00026157902383, 1.00065313185486, 1.00076563007072],
    ),
    (3, 16): (
        "verified", 5.92920417319218, 5.84561695923802e-14,
        (0.000243838265318387, 0.00111801327022124, 0.000983619309315899, 0.012113737034565,
         0.00100100100100109),
        [0.999, 0.999272849878666, 0.999361856465433, 0.999413683043448, 0.999564524445478,
         0.99961899463236, 0.999738031317217, 0.999872866639195, 0.999901808992265,
         1.000052875707, 1.00022083047399, 1.00034795419489, 1.00038760235872,
         1.00046065582271, 1.00065973472905, 1.00075978819423, 1.00095289418361],
    ),
}


# the full-Gram moment Newton's iterations on the seed-1 surject-fixed items
# of each size, drawn as the benchmark draws them (three rounds at k = 4 and
# 12, ten items at k = 8), and on the first two items at k = 20 and 24, the
# top of the fixed pipeline's reach: a change to how the Newton's Jacobian
# is assembled should leave its path, and its reach, where they were
FIXED_NEWTON_ITERS = {
    4: [5, 5, 5],
    8: [5, 5, 5, 5, 5, 5, 5, 6, 5, 5],
    12: [6, 5, 5],
    20: [5, 5],
    24: [5, 6],
}


def _item_gate(name, k, seed=1, index=0):
    """The gate verdict on item ``index`` of the size-k block that the
    benchmark generates for ``seed`` (rng seeded by (seed, k))."""
    wl = workloads.WORKLOADS[name]
    model = hb.geometry.build_p1_model(k, **workloads.grid(k))
    if wl.uses_laplacian:
        model.laplacian()
    items = wl.generate(hb, model, np.random.default_rng([seed, k]), index + 1, defaultdict(int))
    return wl.check(hb, model, items[index], wl.run(hb, model, items[index]))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_item_passes_its_gate(name):
    assert _item_gate(name, min(workloads.WORKLOADS[name].ladder)) is None


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_item_at_the_largest_size_passes_its_gate(name):
    assert _item_gate(name, max(workloads.WORKLOADS[name].ladder)) is None


def test_surject_full_item_at_k12_passes_its_gate():
    # the march's first attempt at t = 1 stops after 5 steps, and its last
    # one, from t = 0.95, converges in 8, far inside NEWTON_MAX_ITERS = 25;
    # under a cap of 7 that attempt fails too, and the continuation halves
    # its last step again and still passes this gate
    assert _item_gate("surject-full", 12) is None


def test_surject_full_item_at_k12_takes_at_most_25_jacobians():
    # solved for A = B^2 this item takes 23 Jacobians; solved for B, whose
    # Jacobian chains through dA = B dB + dB B, it took 60, each t = 1
    # attempt running into the cap of 25 steps
    wl = workloads.WORKLOADS["surject-full"]
    model = hb.geometry.build_p1_model(12, **workloads.grid(12))
    g = wl.generate(hb, model, np.random.default_rng([1, 12]), 1, defaultdict(int))[0]
    out = wl.run(hb, model, g)
    assert wl.check(hb, model, g, out) is None
    assert out[1].stage_logs[0]["corrector_iters"] <= 25


def test_surject_full_item_at_k16_passes_its_gate():
    # in about 42 Jacobians; solved for B, the continuation's step
    # underflowed near t = 1 after about 300
    assert _item_gate("surject-full", 16) is None


def test_the_tracer_finds_every_function_it_wraps():
    # a name the tracer cannot find drops its per-layer metrics from a
    # traced run without failing it
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, hb)
        assert tracer.missing == []
    finally:
        tracer.unpatch()


def test_surject_full_item_takes_at_most_six_jacobians(monkeypatch):
    # the full step to t = 1 converges here in 4 Jacobian assemblies; the
    # march with the secant predictor and the loose path tolerance took 10,
    # and a tight tolerance on every step without a predictor took 19
    jacobian = hb.pushforward._psi_t_jacobian
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return jacobian(*args)

    monkeypatch.setattr(hb.pushforward, "_psi_t_jacobian", counting)
    assert _item_gate("surject-full", 4) is None
    assert 0 < calls[0] <= 6


def test_surject_full_k6_item_skips_the_march(monkeypatch):
    # from the balancing steps' start the full step converges in 3 Jacobian
    # assemblies; from the closed-form seed it was abandoned after one, and
    # the march after it took 10 more
    jacobian = hb.pushforward._psi_t_jacobian
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return jacobian(*args)

    wl = workloads.WORKLOADS["surject-full"]
    model = hb.geometry.build_p1_model(6, **workloads.grid(6))
    g = wl.generate(hb, model, np.random.default_rng([1, 6]), 1, defaultdict(int))[0]
    monkeypatch.setattr(hb.pushforward, "_psi_t_jacobian", counting)
    out = wl.run(hb, model, g)
    assert wl.check(hb, model, g, out) is None
    assert 0 < calls[0] <= 5
    log = out[1].stage_logs[0]
    assert log["abandoned_attempts"] == 0 and log["corrector_iters"] == calls[0]


def test_surject_full_synthesises_each_psi_point_once(monkeypatch):
    # the seed-1 k = 4 item: each Newton point carries its synthesis, so no
    # Jacobian synthesises A again, and the forward check's one synthesis
    # gives both hilb and the curvature of the returned metric
    pairings, jacobian = hb.geometry._ThetaFourier.pairings, hb.pushforward._psi_t_jacobian
    solve = hb.calabi.solve_psi
    calls = {"pairings": 0, "in_jacobian": 0, "jacobians": 0, "at_solution": None}
    inside = [False]

    def counting(self, *args, **kwargs):
        calls["pairings"] += 1
        calls["in_jacobian"] += inside[0]
        return pairings(self, *args, **kwargs)

    def marking(*args):
        calls["jacobians"] += 1
        inside[0] = True
        try:
            return jacobian(*args)
        finally:
            inside[0] = False

    def solving(*args):
        out = solve(*args)
        calls["at_solution"] = calls["pairings"]
        return out

    wl = workloads.WORKLOADS["surject-full"]
    model = hb.geometry.build_p1_model(4, **workloads.grid(4))
    g = wl.generate(hb, model, np.random.default_rng([1, 4]), 1, defaultdict(int))[0]
    monkeypatch.setattr(hb.geometry._ThetaFourier, "pairings", counting)
    monkeypatch.setattr(hb.pushforward, "_psi_t_jacobian", marking)
    monkeypatch.setattr(hb.calabi, "solve_psi", solving)
    out = wl.run(hb, model, g)
    forward_check = calls["pairings"] - calls["at_solution"]
    assert wl.check(hb, model, g, out) is None
    log = out[1].stage_logs
    assert calls["jacobians"] == log[0]["corrector_iters"] > 0
    assert calls["in_jacobian"] == 0
    assert [s["stage"] for s in log] == ["pushforward-continuation", "forward-check"]
    assert forward_check == 1


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_surject_reject_target_fails_after_the_march(seed):
    # the balancing steps stop at once on these out-of-range targets; the
    # full step and the march fail after them, in pushforward-continuation
    wl = workloads.WORKLOADS["surject-reject"]
    k = min(wl.ladder)
    model = hb.geometry.build_p1_model(k, **workloads.grid(k))
    g = wl.generate(hb, model, np.random.default_rng([seed, k]), 1, defaultdict(int))[0]
    out = wl.run(hb, model, g)
    assert wl.check(hb, model, g, out) is None
    trace = out.cause.trace
    assert trace.seed_steps <= 1 and trace.abandoned >= 2


def test_two_balance_audit_items_on_one_model_pass_their_gates():
    # the second item's audit reads the refined grid the first one built
    wl = workloads.WORKLOADS["balance-audit"]
    k = min(wl.ladder)
    model = hb.geometry.build_p1_model(k, **workloads.grid(k))
    items = wl.generate(hb, model, np.random.default_rng([1, k]), 2, defaultdict(int))
    fine = []
    for inp in items:
        assert wl.check(hb, model, inp, wl.run(hb, model, inp)) is None
        fine.append(model.refined())
    assert fine[0] is fine[1]


def test_surject_fixed_item_at_the_rounding_floor():
    # the third k=4 item of seed 10: the moment Newton's Armijo test alone
    # stalled at a coordinate residual of 1.42e-9 against tol/scale = 2e-10
    assert _item_gate("surject-fixed", 4, seed=10, index=2) is None


@pytest.mark.parametrize("k", sorted(FIXED_NEWTON_ITERS))
def test_surject_fixed_newton_iterations_keep_their_counts(k):
    wl = workloads.WORKLOADS["surject-fixed"]
    model = hb.geometry.build_p1_model(k, **workloads.grid(k))
    counts = FIXED_NEWTON_ITERS[k]
    items = wl.generate(hb, model, np.random.default_rng([1, k]), len(counts), defaultdict(int))
    iters = []
    for inp in items:
        out = wl.run(hb, model, inp)
        assert wl.check(hb, model, inp, out) is None
        iters.append(out[1].stage_logs[0]["newton_iters"])
    assert iters == counts


def test_balance_audit_iteration_lapack_calls(monkeypatch):
    # the seed-1 k = 4 item's 20 steps: the seed and each step's Gram are
    # factorised once, 21 zpotrf, and each factor gives its form's unit
    # determinant and, by one zpotri, the next Bergman metric and the
    # tr H^-1 of the form's conditioning guard; only the last form's guard
    # runs a ztrtri.  Two factorisations a step made 40 zpotrf, and a
    # ztrtri per step for the guard of hilb's Gram made 20 ztrtri
    wl = workloads.WORKLOADS["balance-audit"]
    k = min(wl.ladder)
    model = hb.geometry.build_p1_model(k, **workloads.grid(k))
    h0 = wl.generate(hb, model, np.random.default_rng([1, k]), 1, defaultdict(int))[0][0]
    calls = defaultdict(int)

    def counting(name, function):
        def counted(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return counted

    for name in ("zpotrf", "zpotri", "ztrtri"):
        monkeypatch.setattr(sla.lapack, name, counting(name, getattr(sla.lapack, name)))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
    trace = hb.t_iterate(model, h0, max_iters=wl.iterations, tol=0.0)
    assert len(trace.steps) == wl.iterations + 1
    assert calls["zpotrf"] == wl.iterations + 1
    assert calls["zpotri"] == wl.iterations
    assert calls["ztrtri"] <= 1
    assert calls["eigvalsh"] == 0


def test_balance_audit_item_runs_no_eigensolve_and_no_per_row_density(monkeypatch):
    # the seed-1 k = 16 item: the conditioning guard of each step's Gram is
    # the certified bound tr(H) tr(H^-1), far below COND_GUARD / 2 here, not
    # an eigvalsh; the audit sums its 17 probe densities in one pass and
    # keeps none, where it once built and checked one Density per row
    wl = workloads.WORKLOADS["balance-audit"]
    model = hb.geometry.build_p1_model(16, **workloads.grid(16))
    h0, h, h2 = wl.generate(hb, model, np.random.default_rng([1, 16]), 1, defaultdict(int))[0]
    eigvalsh, post_init = np.linalg.eigvalsh, hb.geometry.Density.__post_init__
    calls = {"eigvalsh": 0, "densities": 0}

    def counting_eigvalsh(*args, **kwargs):
        calls["eigvalsh"] += 1
        return eigvalsh(*args, **kwargs)

    def counting_density(self):
        calls["densities"] += 1
        post_init(self)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(hb.geometry.Density, "__post_init__", counting_density)
    trace = hb.t_iterate(model, h0, max_iters=wl.iterations, tol=0.0)
    assert len(trace.steps) == wl.iterations + 1
    assert calls["eigvalsh"] == 0
    report = hb.verify_injectivity(model, h, h2)
    assert wl.check(hb, model, (h0, h, h2), (trace, report)) is None
    assert report.lambda_mode == "probe"
    assert calls["densities"] == 0


@pytest.mark.parametrize("seed, k", sorted(AUDITS))
def test_balance_audit_reports_keep_their_values(seed, k):
    wl = workloads.WORKLOADS["balance-audit"]
    model = hb.geometry.build_p1_model(k, **workloads.grid(k))
    _, h, h2 = wl.generate(hb, model, np.random.default_rng([seed, k]), 1, defaultdict(int))[0]
    report = hb.verify_injectivity(model, h, h2)
    status, lambda_op, agreement, chain, d_sq = AUDITS[seed, k]
    assert report.status == status
    assert abs(report.lambda_norm_op - lambda_op) <= 1e-11 * lambda_op
    # the two routes agree to rounding, so their difference is rounding too
    assert abs(report.route_agreement - agreement) <= 1e-13
    assert np.allclose([report.chain[name] for name in CHAIN], chain, rtol=1e-11, atol=0.0)
    assert np.allclose(report.d_sq, d_sq, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("k", [4, 16])
def test_balance_audit_takes_five_svds(k, monkeypatch):
    # the seed-1 item's audit: one SVD each of Lambda, F and Lambda^-1 F and
    # the gauge's two spectral norms; ||Lambda^-1||_op is 1 / sigma_min of
    # Lambda's own SVD, where a second SVD of the inverse made six
    wl = workloads.WORKLOADS["balance-audit"]
    model = hb.geometry.build_p1_model(k, **workloads.grid(k))
    _, h, h2 = wl.generate(hb, model, np.random.default_rng([1, k]), 1, defaultdict(int))[0]
    svd, norm, calls = np.linalg.svd, np.linalg.norm, defaultdict(int)

    def counting_svd(*args, **kwargs):
        calls["svd"] += 1
        return svd(*args, **kwargs)

    def counting_norm(x, ord=None, *args, **kwargs):
        calls["spectral norm"] += ord == 2
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    hb.verify_injectivity(model, h, h2)
    assert calls == {"svd": 3, "spectral norm": 2}

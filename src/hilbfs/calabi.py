"""Monge-Ampere solver on the curve and the surjectivity pipelines.

Scalar convention: on a curve, i ddbar f = (1/2) Lap_omega f * omega, so the
complex Monge-Ampere equation
    (omega + (i / 2 pi k) ddbar f) = e^{f+g} omega
reduces to the semilinear scalar problem
    1 + Lap_omega f / (4 pi k) = e^{f+g},
discretised with the spectral Laplacian of the reference metric.  The
constant is pinned by the g = 0 identity and the linearised comparison in
the tests.

``solve_ma`` runs the damped Newton of ``linalg.damped_newton``.  Its
system (D - c Lap) df = residual, with D = diag(e^{f+g}) and
c = 1/(4 pi k), is never formed.  Both terms are self-adjoint in the
quadrature inner product <x, y> = sum qw x y and the sum is positive
definite, so it is solved by conjugate gradients in that inner product,
preconditioned by (dbar - c Lap)^{-1} with dbar the qw-weighted mean of
e^{f+g}; that inverse is diagonal in the harmonics and is applied mode by
mode like the Laplacian itself.  CG stops at a relative residual of
``CG_TOL`` in the quadrature norm; a system it cannot solve within
``CG_MAX_ITERS`` iterations raises ``ConvergenceError``, never an inexact
step.

The surjectivity pipelines realise a target Gram matrix G as the output of
a Hilbert map and always recompute the forward map; no internal quantity is
trusted without it.  ``surject_full`` ends at the closed-form Bergman
metric of the B that ``solve_psi`` returns, ``surject_fixed_volume`` at
the solved weight of a full-Gram moment problem.  Each checks its target
once, by ``pushforward._checked_target``, and calls a realisation achieved
when its forward residual is at most ``SURJECT_TOL``.  ``solve_ma`` is
the Monge-Ampere solver for grid data; neither pipeline calls it.  It
stays, with ``MAProblem``, ``MASolution`` and ``SphericalOperator.spectral``,
because ``perfbench/tracing.py`` wraps it and reports its time and Newton
counts, and because a moment route for ``surject_full`` (a moment solve,
then MA) would call it again.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Optional

import numpy as np

from .errors import (
    ConvergenceError,
    CurvaturePositivityError,
    DimensionError,
    MarginError,
    StageError,
)
from .geometry import (
    Density,
    ManifoldModel,
    MetricWeight,
    curvature_volume,
    fs_metric,
    reference_density,
)
from .linalg import COND_GUARD, HermitianCoords, HermitianForm, _as_form, damped_newton
from .maps import FIXED, exponent_for_variant, hilb, hilb_nu, variant_density
from .moments import MAX_NEWTON, _max_entropy_newton
from .pushforward import _checked_target, solve_psi

SURJECT_TOL = 1e-8  # forward-residual gate of both surjectivity pipelines
MOMENT_TOL = 1e-9  # full-Gram moment Newton tolerance, before the N/V scaling
MA_TOL = 1e-11
MA_MAX_NEWTON = 60
CG_TOL = 1e-13
CG_MAX_ITERS = 5000
# numerical failures a stage reports; anything else is a programming error
_STAGE_ERRORS = (ValueError, RuntimeError, ArithmeticError)


@dataclass
class MAProblem:
    """Data 1 + Lap f/(4 pi k) = e^{f+g}; g is pre-normalised at solve time
    so that int e^g dV = V (the shift is reported and subtracted back,
    leaving the original equation satisfied exactly)."""

    model: ManifoldModel
    g: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        if g.shape != (self.model.Q,):
            raise DimensionError("g must be a node function")
        if not np.all(np.isfinite(g)):
            raise ValueError("g must be finite on the grid")
        self.g = g


@dataclass
class MASolution:
    f: np.ndarray
    residual: float
    mass_defect: float
    positivity_margin: float
    normalisation_shift: float
    newton_iters: int
    residual_history: List[float]
    cg_iters: List[int]


def _newton_step(lap, c: float, d: np.ndarray, b: np.ndarray, qw: np.ndarray):
    """Solve (diag(d) - c Lap) x = b by the preconditioned conjugate
    gradients of the module docstring; returns x and the iteration count."""
    dbar = float(qw @ d / qw.sum())
    # (dbar - c Lap)^{-1} = I/dbar + sum_l [(dbar - c lambda_l)^{-1} - 1/dbar] Y_l Y_l^T W/V
    prec = lap.spectral(1.0 / (dbar - c * lap.eigenvalues) - 1.0 / dbar)
    x = np.zeros_like(b)
    r = b.copy()
    z = r / dbar + prec @ r
    p = z
    rz = float(qw @ (r * z))
    bnorm = float(np.sqrt(qw @ (b * b)))
    history: List[float] = []
    for it in range(1, CG_MAX_ITERS + 1):
        ap = d * p - c * (lap @ p)
        alpha = rz / float(qw @ (p * ap))
        x = x + alpha * p
        r = r - alpha * ap
        rel = float(np.sqrt(qw @ (r * r))) / bnorm
        history.append(rel)
        if rel <= CG_TOL:
            return x, it
        z = r / dbar + prec @ r
        rz_new = float(qw @ (r * z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise ConvergenceError(
        f"Monge-Ampere Newton system: conjugate gradients did not reach {CG_TOL:g} "
        f"in {CG_MAX_ITERS} iterations",
        history,
    )


def solve_ma(problem: MAProblem) -> MASolution:
    """Damped Newton for the scalar Monge-Ampere reduction.

    ``linalg.damped_newton`` runs from f = 0 and accepts a step whose
    residual is finite and of smaller norm.  Each Newton system is solved
    matrix-free by preconditioned conjugate gradients (see the module
    docstring) to a relative residual of ``CG_TOL``; if CG does not get
    there, ``ConvergenceError`` carries its residual history.  The final
    perturbed density 1 + Lap f/(4 pi k) is strictly positive and its mass
    reproduces V up to the residual (the Laplacian has exact null mean
    against the quadrature).
    """
    model = problem.model
    qw = model.quad_weights
    shift = float(np.log((np.exp(problem.g) * qw).sum() / model.V))
    g = problem.g - shift
    lap = model.laplacian()
    c = 1.0 / (4.0 * np.pi * model.k)
    cg_iters: List[int] = []

    def evaluate(f):
        exp_fg = np.exp(f + g)
        return f, 1.0 + c * (lap @ f) - exp_fg, exp_fg

    def direction(f, resid_vec, exp_fg):
        df, iters = _newton_step(lap, c, exp_fg, resid_vec, qw)
        cg_iters.append(iters)
        return df

    def accept(new, old, alpha, df):
        return np.all(np.isfinite(new[1])) and np.linalg.norm(new[1]) < np.linalg.norm(old[1])

    (f, resid_vec, _), history = damped_newton(
        evaluate, direction, accept, evaluate(np.zeros(model.Q)),
        MA_TOL, MA_MAX_NEWTON, 50, "Monge-Ampere Newton",
    )
    density = 1.0 + c * (lap @ f)
    margin = float(density.min())
    if margin <= 0.0:
        raise CurvaturePositivityError(
            f"candidate volume density {margin:.3e} at node {int(density.argmin())}",
            node=int(density.argmin()),
            value=margin,
        )
    mass_defect = float(abs((density * qw).sum() - model.V))
    # undo the solvability normalisation: f - shift solves the original data
    return MASolution(
        f=f - shift,
        residual=history[-1],
        mass_defect=mass_defect,
        positivity_margin=margin,
        normalisation_shift=shift,
        newton_iters=len(history) - 1,
        residual_history=history,
        cg_iters=cg_iters,
    )


@dataclass
class SurjectivityReport:
    mode: str
    dim: int
    residual_max: float
    positivity_margin: Optional[float]
    tolerance: float
    achieved: bool
    stage_logs: List[dict]

    def to_dict(self) -> dict:
        return asdict(self)


def _report(mode, forward, g_form, margin, stage_logs) -> SurjectivityReport:
    """The report of a realisation: the max-norm residual of the recomputed
    ``forward`` form against the target, logged as stage ``forward-check``
    and achieved when at most ``SURJECT_TOL``."""
    resid = float(np.abs(forward.mat - g_form.mat).max())
    stage_logs.append({"stage": "forward-check", "residual": resid})
    return SurjectivityReport(
        mode=mode,
        dim=g_form.dim,
        residual_max=resid,
        positivity_margin=margin,
        tolerance=SURJECT_TOL,
        achieved=resid <= SURJECT_TOL,
        stage_logs=stage_logs,
    )


def _full_gram_family(model: ManifoldModel, coords: HermitianCoords):
    """Potential, moments and Jacobian (see ``moments._max_entropy_newton``)
    of the family g_a = s* E_a s * ref_weight, E_a the elements of
    ``coords``.

    The kernels carry ref_weight (see ``geometry``): u = sum_a c_a g_a is
    the pairing synthesis of ``coords.matrix(c)`` = sum_a c_a E_a, and the
    moments tr(E_a gram(ew)) are the coordinates of one analysis.  Since
    g_a = sum E_a^T[i, j] s_i conj(s_j) and
    s_i conj(s_j) s_k conj(s_l) = z^(i+k) conj(z)^(j+l), the Jacobian is
        sum_q g_a g_b ew = sum E_a^T[i, j] E_b^T[k, l] G2[i + k, j + l],
    G2 the doubled kernel's gram of ew, which carries ref_weight^2.  As
    vec(E^T) = conj(vec(E)) for hermitian E, that is ``coords.of_map`` of
    the pair sums of G2 with the right index transposed.
    """
    kernel, doubled = model._theta_fourier(), model._theta_fourier(doubled=True)
    n = model.N

    def potential(c):
        return kernel.pairings(coords.matrix(c), parts=1)[0]

    def moments(ew):
        return coords.of(kernel.gram(ew))

    def jacobian(ew):
        t = doubled.pair_sums(doubled.gram(ew))  # T[(i, j), (k, l)] = G2[i + k, j + l]
        return coords.of_map(t.reshape(n * n, n, n).swapaxes(1, 2).reshape(n * n, n * n))

    return potential, moments, jacobian


def surject_fixed_volume(
    model: ManifoldModel,
    target,
    variant: str = FIXED,
    nu: Optional[Density] = None,
):
    """Realise a target form as the variant Hilbert map of a metric.

    Solves the full-Gram moment problem (N/V) int e^phi s_i conj(s_j)
    h^k d nu = G by Newton on an ansatz in the span of the section pair
    products, to ``MOMENT_TOL`` / (N/V) in the coordinates of G / (N/V) and
    within ``moments.MAX_NEWTON`` iterations, then applies the variant
    exponent (1/k or 1/(k+1)) to produce the metric.  The report
    carries the recomputed forward residual and is achieved when that is at
    most ``SURJECT_TOL``.  The base measure is ``variant_density`` at the
    reference metric.  After the variant the target is checked; a condition
    number above ``COND_GUARD`` raises ``MarginError``.
    """
    nu = nu if nu is not None else reference_density(model)
    base_nu = variant_density(model, MetricWeight.reference(model), variant, nu)
    exponent = exponent_for_variant(variant, model.k)
    g_form, _, ev, _ = _checked_target(model, target)
    cond = ev.max() / ev.min()
    if cond > COND_GUARD:
        raise MarginError(f"target condition number {cond:.3e} exceeds {COND_GUARD:g}")
    # g_a = s* E_a s * rw against tr(E_a G) (``_full_gram_family``).  The
    # largest coordinate bounds the largest matrix entry from above, so the
    # coordinate tolerance MOMENT_TOL / scale is never looser than the entry one.
    scale = model.N / model.V
    target_scaled = g_form.mat / scale
    coords = HermitianCoords.full(model.N)
    _, u, history = _max_entropy_newton(
        *_full_gram_family(model, coords),
        base_nu.weights,
        coords.of(target_scaled),
        MOMENT_TOL / scale,
        MAX_NEWTON,
    )
    ew = np.exp(u) * base_nu.weights
    gram = model._theta_fourier().gram(ew)
    stage_logs = [
        {
            "stage": "full-gram-moment",
            "newton_iters": len(history) - 1,
            "residual": float(np.abs(gram - target_scaled).max()) * scale,
        }
    ]
    # solved weight e^u multiplies h_ref^k under the fixed base measure; the
    # realising metric scales the reference by exp(exponent * u) per power,
    # i.e. the L^k-metric potential is -k * exponent * u.
    u_metric = -float(exponent) * model.k * u
    metric = MetricWeight.grid(u_metric)
    forward = hilb_nu(model, metric, variant, base_nu)
    return metric, _report(variant, forward, g_form, None, stage_logs)


def surject_full(model: ManifoldModel, target):
    """Realise a target form as hilb of a positively curved metric.

    ``solve_psi`` finds B with psi(B) = G / tr G (stage
    ``pushforward-continuation``).  hilb(fs_metric(B^{-2})) is
    proportional to psi(B) (see ``geometry``), and hilb(fs_metric(c H))
    is c hilb(fs_metric(H)), so the Bergman metric fs_metric(c B^{-2}),
    with c = tr G / tr hilb(fs_metric(B^{-2})), realises G.  Stage
    ``forward-check`` builds that metric, recomputes hilb on it and reports
    the residual and the least curvature density as the positivity margin.
    It checks nothing itself: the ``DimensionError`` and ``MarginError`` of
    ``solve_psi``'s one target check propagate bare, like any other invalid
    input; other stage failures are wrapped with the stage name.  A final residual above ``SURJECT_TOL`` is reported as not
    achieved, not silenced.
    """
    g_form = _as_form(target)
    try:
        bstar, ctrace = solve_psi(model, g_form)
    except (DimensionError, MarginError):
        raise
    except _STAGE_ERRORS as exc:
        raise StageError("pushforward-continuation", exc) from exc
    stage_logs = [
        {
            "stage": "pushforward-continuation",
            "t_steps": len(ctrace.rows),
            "seed_steps": ctrace.seed_steps,
            "abandoned_attempts": ctrace.abandoned,
            "corrector_iters": ctrace.corrector_iters,
            "final_residual": ctrace.rows[-1].residual,
        }
    ]
    try:
        binv = np.linalg.inv(bstar.mat)
        unscaled = fs_metric(model, HermitianForm(binv @ binv))
        scale = np.trace(g_form.mat).real / np.trace(hilb(model, unscaled).mat).real
        metric = unscaled.rescaled(float(scale))
        forward = hilb(model, metric)
        density = curvature_volume(model, metric).weights / model.quad_weights
    except _STAGE_ERRORS as exc:
        raise StageError("forward-check", exc) from exc
    return metric, _report("full", forward, g_form, float(density.min()), stage_logs)

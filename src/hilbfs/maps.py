"""The two protagonist maps and their composition.

hilb sends a metric on L^k to the scaled L^2 Gram matrix of the section
basis; fs_metric (in ``geometry``) sends a form back to a metric.  Their
composition has the balanced metrics as fixed points; on the reference
test-bed that is the binomial diagonal diag(1/C(dk, j)).  ``t_iterate``
iterates that composition: it checks its seed once, at entry, and each step
factorises one form, the Gram that ``hilb`` returns.  The form keeps its
factor (``linalg.HermitianForm``), so the positive-definiteness check, the
unit-determinant scale and the next ``fs_metric`` share it.

Linearised at the balanced form H_b, in H = H_b^(1/2) (I + X) H_b^(1/2) and
divided by T(H_b)'s trace ratio, T = hilb o fs_metric has the eigenvalue
    lambda_l = (1 + l(l+1)/K) K!(K+1)! / ((K-l)!(K+l+1)!),  K = dk,
on a (2l + 1)-dimensional space for each l <= K.  This closed form was
fitted to central-difference measurements, not derived.  The modes l = 0
(scale, which the unit determinant removes) and l = 1 (the three SL(2)
directions along the orbit of balanced forms) are neutral, lambda = 1, so
``t_iterate`` contracts at lambda_2 = 1 - 12/((K+2)(K+3)).  The tests
``TestTIterate::test_step_ratio_tends_to_the_second_eigenvalue`` and
``TestPsiJacobian::test_balanced_spectrum`` check the rate and the spectrum.

The variant Hilbert map ``hilb_nu`` pairs the sections against a volume
form nu in place of the curvature volume.  Its two variants differ only in
that form: for the metric rw * exp(-u) on L^k and the base measure nu_0
(the quadrature weights), d nu = e^{s u / k} d nu_0 with s = 0 (fixed; the
caller gives nu) or -1 (anticanonical, Fano test-bed L = -K).  So
d nu(e^{-phi} h) = e^{s phi} d nu(h) for h on L, and a target is realised
by the 1/(k - s)-th power of the solved factor.  The canonical law s = +1
needs a polarisation L = K of general type, which O(d) on P^1 never is.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

import numpy as np

from .errors import DefinitenessError, DimensionError, VariantError
from .geometry import (
    Density,
    ManifoldModel,
    MetricWeight,
    _sized_form,
    _weight_and_volume,
    fs_metric,
)
from .linalg import HermitianForm

FIXED = "fixed"
ANTICANONICAL = "anticanonical"

# variant -> (sign s in d nu = e^{s u / k} d nu_0, the line degree d of
# L = O(d) it needs: 2 for -K of P^1, None for any)
_VARIANTS = {
    FIXED: (0, None),
    ANTICANONICAL: (-1, 2),
}


def _variant_law(variant: str):
    if variant not in _VARIANTS:
        raise VariantError(f"unknown variant {variant!r}")
    return _VARIANTS[variant]


def _gram(model: ManifoldModel, weights: np.ndarray) -> HermitianForm:
    g = model._theta_fourier().gram(weights)
    form = HermitianForm._hermitian_part((model.N / model.V) * g)
    if not form.is_positive_definite():
        raise DefinitenessError(
            "hilb output is not positive definite; quadrature is under-resolved"
        )
    return form


def hilb(model: ManifoldModel, m: MetricWeight) -> HermitianForm:
    """(N/V) * integral of s_i conj(s_j) against the metric weight
    rw exp(-u) and the volume form of the metric's curvature: the kernel's
    gram, which carries rw, of exp(-u) times that volume.  A Bergman
    metric's exp(-u) and curvature come from one synthesis (``geometry``)."""
    weight, vol = _weight_and_volume(model, m)
    return _gram(model, weight * vol)


def variant_density(
    model: ManifoldModel,
    m: MetricWeight,
    variant: str,
    nu: Optional[Density] = None,
) -> Density:
    """The volume form d nu of the variant Hilbert map at the metric ``m``.

    fixed: ``nu`` itself, which must be given, strictly positive and one
    weight per node (``DimensionError`` naming both lengths otherwise);
    anticanonical: e^{-u / k} times the quadrature weights (see the module
    docstring), on the Fano test-bed.
    """
    sign, degree = _variant_law(variant)
    if sign == 0:
        if nu is None:
            raise ValueError("fixed variant requires a density")
        if nu.weights.shape != (model.Q,):
            raise DimensionError(
                f"density has {nu.weights.size} weights, model has {model.Q} nodes"
            )
        if np.any(nu.weights <= 0):
            raise ValueError("fixed variant requires a strictly positive density")
        return nu
    if model.line_degree != degree:
        raise VariantError(
            f"{variant} variant requires the Fano test-bed L = O({degree}), "
            f"got O({model.line_degree})"
        )
    u = m.potential(model)
    return Density(np.exp(sign * u / model.k) * model.quad_weights)


def hilb_nu(
    model: ManifoldModel,
    m: MetricWeight,
    variant: str = FIXED,
    nu: Optional[Density] = None,
) -> HermitianForm:
    """Variant Hilbert map (N/V) * integral of s_i conj(s_j) against the
    metric weight and the variant volume form ``variant_density``."""
    dens = variant_density(model, m, variant, nu)
    return _gram(model, np.exp(-m.potential(model)) * dens.weights)


def exponent_for_variant(variant: str, k: int) -> Fraction:
    """Exponent 1/(k - s) applied to the solved conformal factor to produce
    the metric realising a target: 1/k for fixed, 1/(k+1) for
    anticanonical."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    return Fraction(1, k - _variant_law(variant)[0])


@dataclass
class IterationStep:
    index: int
    form: HermitianForm
    step_max_norm: float
    trace_defect: float


@dataclass
class IterationTrace:
    steps: List[IterationStep]
    converged: bool


def _unit_det(h: HermitianForm) -> HermitianForm:
    """H scaled to unit determinant, from log det H = 2 sum log L_ii."""
    log_det = 2.0 * float(np.log(h.factor().diagonal().real).sum())
    return h.scaled(np.exp(-log_det / h.dim))


def _record(h: HermitianForm) -> HermitianForm:
    """H without the factor it keeps."""
    return HermitianForm._unchecked(h.mat)


def t_iterate(
    model: ManifoldModel,
    h0: HermitianForm,
    max_iters: int = 50,
    tol: float = 1e-10,
) -> IterationTrace:
    """Iterate H -> hilb(fs_metric(H)), logging per-step distances.

    The seed is checked here, once: a seed of the wrong size raises
    ``DimensionError`` and one that is not positive definite the
    ``DefinitenessError`` naming its failing pivot; a negative ``max_iters``
    raises ``ValueError``.  The composition is
    scale-covariant, so each iterate is normalised to unit determinant
    before the distance is measured.  The trace defect
    |tr(H_r^{-1} H_{r+1}) - N| is logged at every step, H_r^{-1} read from
    the Bergman metric of H_r; convergence of the iteration itself is
    reported, never asserted.  Each step factorises one form, hilb's Gram,
    and that factor gives its determinant and its next Bergman metric; the
    trace records each form without it, one matrix per step.
    """
    if max_iters < 0:
        raise ValueError(f"max_iters must be nonnegative, got {max_iters}")
    current = _unit_det(_sized_form(model, h0))
    steps = [IterationStep(0, _record(current), float("nan"), float("nan"))]
    converged = False
    for r in range(1, max_iters + 1):
        metric = fs_metric(model, current)
        try:
            nxt = hilb(model, metric)
        except DefinitenessError as exc:
            raise DefinitenessError(f"iteration {r}: {exc}") from exc
        defect = abs(float(np.vdot(nxt.mat, metric.inverse).real) - model.N)
        nxt = _unit_det(nxt)
        dist = float(np.abs(nxt.mat - current.mat).max())
        steps.append(IterationStep(r, _record(nxt), dist, defect))
        current = nxt
        if dist < tol:
            converged = True
            break
    return IterationTrace(steps=steps, converged=converged)

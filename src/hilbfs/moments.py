"""Prescribed-moment densities and the row-measure matrix machinery.

``solve_moments`` constructs a positive density e^u dV_ref whose pairings
against the squared sections match a prescribed positive vector, with u in
the span of those same squared-section functions: the classical
maximum-entropy ansatz, N unknowns for N constraints, solved on the convex
dual by ``linalg.damped_newton``.  The Newton Jacobian is the weighted Gram
matrix int g_i g_j e^u dV, positive definite at every iterate, so each
step is one LAPACK ``posv``; a Jacobian that is not PD in floating point,
or not finite, counts as degenerate and ends the Newton.  Near the
solution the decrease that the Armijo test on the dual objective asks for
falls below the objective's rounding, and the test decides on noise; so
once the full step's predicted decrease |slope| < ROUNDING_FLOOR
|objective|, a step that lowers ||moments - target||_2 is accepted too.

``_max_entropy_newton`` solves this for any positive node weights, any
real target and any family of node functions g_k, given as three functions
(its docstring); ``solve_moments`` forms them from its N x Q table of
squared sections, ``section_squares``, a pairing-kernel synthesis for any
frame that overflows at no k.  ``calabi.surject_fixed_volume`` solves the
full-Gram problem, g_a = s* E_a s * ref_weight for the hermitian basis E_a
of ``linalg.HermitianCoords``, whose targets tr(E_a G) may be negative,
with no node table: a pairing synthesis, a Gram analysis, and for the
Jacobian ``of_hankel``, one sparse product with the doubled-degree Gram
(see ``geometry``), which hands ``posv`` a symmetric J in Fortran order to
factor in place.

Feasibility caveat: with the monomial basis the diagonal moments are
moments of a positive measure on [0, infinity) in x = |z|^2, hence
log-convex in the index.  Spike targets (floor, ..., 1, ..., floor) with an
interior 1 and floor < 1 violate the Hankel positivity conditions of the
truncated Stieltjes problem and are not achievable by ANY positive density;
``build_lambda`` diagnoses this precisely instead of burning Newton
iterations.  For any frame a cone bound applies as well: with
rho_i = g_i / sum_j g_j at each node, a node density whose moments meet the
spike target of row i to within tol has row-i moment at least 1 - tol and
at most max rho_i (1 + (N-1) floor + N tol), so ``build_lambda`` rejects
the row when that maximum falls short of 1 - tol.  A well-conditioned row
family remains available through the ``probe`` mode, which localises
densities where each section dominates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np
import scipy.linalg as sla

from .errors import ConvergenceError, DimensionError, MomentInfeasibleError
from .geometry import Density, ManifoldModel
from .linalg import MatrixNorms, damped_newton, matrix_norms

PROBE_POWER = 8  # of rho_i in the probe densities, formed by three squarings
ROUNDING_FLOOR = 1e-10  # relative rounding of the dual objective (see above)
LAMBDA_BOUND = 2.0  # the paper's bound on ||Lambda|| and ||Lambda^{-1}||
MAX_NEWTON = 100  # moment Newton iteration cap (see solve_moments, build_lambda)


@dataclass(frozen=True)
class MomentTarget:
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise DimensionError("moment target must be a vector")
        if np.any(v <= 0) or not np.all(np.isfinite(v)):
            raise ValueError("moment target entries must be strictly positive")
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.size


def section_squares(model: ManifoldModel, frame: Optional[np.ndarray] = None) -> np.ndarray:
    """The moment integrands g_j = |(A s)_j|^2 * ref_weight of an N x N
    frame A as an N x Q array; ``None`` means the identity, the monomials.
    g_j is rw s* R_j s for the rank-one form R_j = conj(a_j) a_j^T of row
    a_j, one stacked synthesis of the pairing kernel (``geometry``)."""
    a = np.eye(model.N) if frame is None else np.asarray(frame, dtype=complex)
    forms = a.conj()[:, :, None] * a[:, None, :]
    return model._theta_fourier().pairings(forms, parts=1)[:, 0]


@dataclass
class MomentSolution:
    density: Density
    achieved: np.ndarray
    coefficients: np.ndarray
    potential: np.ndarray
    residual_history: List[float]
    newton_iters: int


def hankel_margins(values: np.ndarray) -> dict:
    """Smallest eigenvalues of the two Hankel matrices of the truncated
    Stieltjes moment problem for a sequence of would-be monomial moments.
    Both must be positive for the target to be achievable by a positive
    measure in x = |z|^2."""
    m = np.asarray(values, dtype=float)
    n = m.size
    k0 = (n - 1) // 2 + 1
    h0 = np.array([[m[i + j] for j in range(k0)] for i in range(k0)])
    e0 = float(np.linalg.eigvalsh(h0).min())
    k1 = n // 2
    if k1 > 0:
        h1 = np.array([[m[i + j + 1] for j in range(k1)] for i in range(k1)])
        e1 = float(np.linalg.eigvalsh(h1).min())
    else:
        e1 = float("inf")
    return {"hankel_even": e0, "hankel_odd": e1}


def _max_entropy_newton(
    potential: Callable[[np.ndarray], np.ndarray],
    moments: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], np.ndarray],
    weights: np.ndarray,
    target: np.ndarray,
    tol: float,
    max_newton: int,
):
    """Coefficients c with moments(e^potential(c) * weights) = target.

    The family g_k enters through three functions: ``potential`` takes c to
    the node values u = sum_k c_k g_k, ``moments`` takes node weights ew to
    the vector sum_q g_k ew and ``jacobian`` takes them to the Gram
    sum_q g_k g_l ew, a fresh array that the step may overwrite.
    ``linalg.damped_newton`` runs from c = 0, solving by one ``posv``, in
    place when J comes in Fortran order (a Jacobian that is not PD means
    the iterates run to the cone's boundary; it and a non-finite one are
    degenerate) and accepting by the Armijo test on the convex dual objective
    sum(e^u * weights) - <c, target>, or by the gradient-norm test of the
    module docstring once that is below rounding.  The target may have
    entries of either sign.  Returns (c, u, history), history holding the
    max-norm residual of every iterate.
    """

    def evaluate(c):
        u = potential(c)
        if u.max() > 700.0:
            return None
        ew = np.exp(u) * weights
        return c, moments(ew) - target, float(ew.sum() - c @ target), ew, u

    def direction(c, grad, obj, ew, u):
        jac = jacobian(ew)
        # posv checks nothing: a NaN or inf Jacobian would return a NaN step
        if not np.isfinite(jac).all():
            raise np.linalg.LinAlgError("moment Jacobian is not finite")
        _, step, info = sla.lapack.dposv(jac, -grad, lower=True, overwrite_a=True)
        if info > 0:
            raise np.linalg.LinAlgError(f"moment Jacobian not positive definite (pivot {info})")
        return step

    def accept(new, old, alpha, step):
        slope = float(old[1] @ step)
        if new[2] <= old[2] + 1e-4 * alpha * slope:
            return True
        below_rounding = abs(slope) < ROUNDING_FLOOR * abs(old[2])
        return below_rounding and np.linalg.norm(new[1]) < np.linalg.norm(old[1])

    (coef, _, _, _, u), history = damped_newton(
        evaluate, direction, accept, evaluate(np.zeros(target.size)),
        tol, max_newton, 60, "moment Newton",
    )
    return coef, u, history


def solve_moments(
    model: ManifoldModel,
    target: MomentTarget,
    tol: float = 1e-11,
    max_newton: int = MAX_NEWTON,
    squares: Optional[np.ndarray] = None,
) -> MomentSolution:
    """Positive density e^u dV_ref with prescribed squared-section moments.

    Damped Newton with Armijo line search on the convex dual objective
    int e^u dV - <c, target>, starting from c = 0 (the reference density).
    ``squares`` is the N x Q table ``section_squares(model, frame)`` of
    the frame; ``None`` means the monomials.
    """
    gfun = section_squares(model) if squares is None else squares
    if target.dim != gfun.shape[0]:
        raise DimensionError(
            f"target has {target.dim} entries, basis has {gfun.shape[0]}"
        )
    qw = model.quad_weights
    coef, u, history = _max_entropy_newton(
        lambda c: c @ gfun,
        lambda ew: gfun @ ew,
        lambda ew: (gfun * ew) @ gfun.T,
        qw,
        target.values,
        tol,
        max_newton,
    )
    ew = np.exp(u) * qw
    return MomentSolution(
        density=Density(ew),
        achieved=gfun @ ew,
        coefficients=coef,
        potential=u,
        residual_history=history,
        newton_iters=len(history) - 1,
    )


@dataclass
class LambdaSystem:
    """The row-measure matrix of ``build_lambda`` and its row densities'
    node weights as one (N, Q) array, row i the density of row i.  The
    weights are checked once, here (finite, nonnegative, positive mass in
    every row), and kept read-only; ``injectivity.f_matrix`` reads them as
    they are."""

    matrix: np.ndarray
    weights: np.ndarray
    floor: Optional[float]
    mode: str
    norms: MatrixNorms
    inverse_norms: MatrixNorms

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or len(w) != len(self.matrix):
            raise DimensionError(
                f"row densities of shape {w.shape} do not match {len(self.matrix)} rows"
            )
        peaks = w.max(axis=1)
        # a NaN makes the minimum NaN; nonnegative rows have positive mass
        # exactly when their maximum is positive
        if not (w.min() >= 0.0 and np.isfinite(peaks).all() and (peaks > 0.0).all()):
            raise ValueError(
                "row density weights must be finite and nonnegative, with positive mass"
            )
        w.setflags(write=False)
        self.weights = w

    def bounds_hold(self) -> bool:
        return self.norms.op <= LAMBDA_BOUND and self.inverse_norms.op <= LAMBDA_BOUND


def spike_targets(n: int, floor: float) -> np.ndarray:
    t = np.full((n, n), floor)
    np.fill_diagonal(t, 1.0)
    return t


def _probe_rows(model: ManifoldModel, gfun: np.ndarray, rho: np.ndarray):
    """Node weights w_i = rho_i^PROBE_POWER qw / max_j m_ij of the probe
    densities as an N x Q array, and their moments m_ij / max_j m_ij,
    m_ij = sum_q w_i g_j, as the N x N row-measure matrix."""
    w = np.square(rho)
    w *= w
    w *= w
    w *= model.quad_weights
    moments = w @ gfun.T
    peak = moments.max(axis=1, keepdims=True)
    w /= peak
    moments /= peak
    return w, moments


def build_lambda(
    model: ManifoldModel,
    floor: Optional[float] = None,
    tol: float = 1e-9,
    mode: str = "paper",
    squares: Optional[np.ndarray] = None,
    max_newton: int = MAX_NEWTON,
    ratios: Optional[np.ndarray] = None,
) -> LambdaSystem:
    """Row-measure matrix: row i holds the achieved squared-section moments
    of the i-th density.  ``squares`` is the frame's N x Q
    ``section_squares`` table; ``None`` means the monomials.  ``ratios``
    is its row-ratio table rho = g / sum_j g_j when the caller has formed
    it (``injectivity`` shares one between both modes); ``None`` forms it.

    mode "paper": each row solves the spike target (floor, ..., 1, ..., floor)
    with 1 in the i-th place (floor defaults to e^{-k}); rows whose targets
    are provably infeasible raise ``MomentInfeasibleError`` before their
    Newton, with the Hankel margins (monomials only) or the peak of rho_i
    (the cone bound of the module docstring), and a failed row Newton with
    its ``history`` and no rounding-dependent text.  mode "probe": constructive
    localised densities (no targets), always available, max entry
    normalised to 1.
    """
    monomial_basis = squares is None
    gfun = section_squares(model) if monomial_basis else squares
    n = gfun.shape[0]
    if mode not in ("probe", "paper"):
        raise ValueError(f"unknown build_lambda mode {mode!r}")
    if ratios is None:
        rho = gfun / gfun.sum(axis=0)
    elif ratios.shape == gfun.shape:
        rho = ratios
    else:
        raise DimensionError(f"ratios have shape {ratios.shape}, squares {gfun.shape}")
    if mode == "probe":
        weights, lam = _probe_rows(model, gfun, rho)
        floor_used = None
    else:
        f = float(np.exp(-min(model.k, 700))) if floor is None else float(floor)
        if not 0.0 < f < 1.0:
            raise ValueError("floor must lie in (0, 1)")
        f = max(f, 1e-300)
        targets = spike_targets(n, f)
        peaks = rho.max(axis=1)
        weight_rows, rows = [], []
        for i in range(n):
            if monomial_basis:
                margins = hankel_margins(targets[i])
                if min(margins.values()) <= 0.0:
                    raise MomentInfeasibleError(
                        f"row {i} target (floor {f:g}, spike at {i}) is outside "
                        "the Stieltjes moment cone of the monomial basis: "
                        f"Hankel margins {margins}; no positive density can "
                        "achieve it (diagonal moments are log-convex)",
                        row=i,
                        diagnostics=margins,
                    )
            reach = peaks[i] * (1.0 + (n - 1) * f + n * tol)
            if reach < 1.0 - tol:
                raise MomentInfeasibleError(
                    f"row {i}: spike target (floor {f:g}) is outside the "
                    f"moment cone of this frame: peak ratio {peaks[i]:.4f} caps "
                    f"the row's moment at {reach:.4f} < 1 - tol",
                    row=i,
                    diagnostics={"peak_ratio": float(peaks[i])},
                )
            try:
                sol = solve_moments(
                    model,
                    MomentTarget(targets[i]),
                    tol=tol,
                    max_newton=max_newton,
                    squares=gfun,
                )
            except ConvergenceError as exc:
                raise MomentInfeasibleError(
                    f"row {i}: moment Newton did not converge", row=i, history=exc.history
                ) from exc
            weight_rows.append(sol.density.weights)
            rows.append(sol.achieved)
        weights, lam = np.array(weight_rows), np.array(rows)
        floor_used = f
    norms = matrix_norms(lam)
    if norms.max > 1.0 + 10 * tol:
        raise RuntimeError(f"row-measure matrix entry {norms.max:.6f} exceeds 1")
    return LambdaSystem(
        matrix=lam,
        weights=weights,
        floor=floor_used,
        mode=mode,
        norms=norms,
        inverse_norms=matrix_norms(np.linalg.inv(lam)),
    )

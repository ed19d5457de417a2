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
frame that overflows at no k.  What needs only sums over the nodes reads
the squares in one pass over blocks of whole rings of at most
``geometry.NODE_BLOCK`` nodes (``square_blocks``, ``ratio_blocks``) and
forms no N x Q table: the probe rows of ``build_lambda``, the row-ratio
peaks of the cone bound below, ``injectivity.f_matrix`` and the
injectivity audit's pass.  ``calabi.surject_fixed_volume`` solves the
full-Gram problem, g_a = s* E_a s * ref_weight for the hermitian basis E_a
of ``linalg.HermitianCoords``, whose targets tr(E_a G) may be negative,
with no node table and no Gram: each g_a is one cell of the pairing
kernels (see ``geometry``), so the potential is one synthesis of a cell
table, the moments one gather from an analysis, and the Jacobian two
gathers from the doubled kernel's analysis, which hand ``posv`` a
symmetric J in Fortran order to factor in place.  The Newton returns its
last point's node weights with its coefficients, so no caller forms
e^u * weights again.

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
the row when that maximum falls short of 1 - tol (``_cone_bound``, which
the injectivity audit calls too, on the peaks of its pass).  A
well-conditioned row family remains available through the ``probe`` mode,
which localises densities where each section dominates: row i is the
density rho_i^PROBE_POWER dV_ref, scaled so its largest moment is 1.  Its
moments are summed block by block and divided by their row peaks at the
end (``_probe_system``).  ``build_lambda`` keeps the densities' node
weights, as one (N, Q) array; the injectivity audit keeps none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np
import scipy.linalg as sla

from .errors import ConvergenceError, DimensionError, MomentInfeasibleError
from .geometry import Density, ManifoldModel
from .linalg import MatrixNorms, _as_square, damped_newton

PROBE_POWER = 8  # of rho_i in the probe densities, formed by three squarings
ROUNDING_FLOOR = 1e-10  # relative rounding of the dual objective (see above)
LAMBDA_BOUND = 2.0  # the paper's bound on ||Lambda|| and ||Lambda^{-1}||
MAX_NEWTON = 100  # moment Newton iteration cap (see solve_moments, build_lambda)
LAMBDA_TOL = 1e-9  # build_lambda's default moment tolerance, and the audit's


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


def _rank_one_forms(model: ManifoldModel, frame: Optional[np.ndarray]) -> np.ndarray:
    """The rank-one forms R_j = conj(a_j) a_j^T of the rows a_j of an
    N x N frame, (N, N, N); ``None`` means the identity."""
    a = np.eye(model.N) if frame is None else np.asarray(frame, dtype=complex)
    if a.shape != (model.N, model.N):
        raise DimensionError(f"frame has shape {a.shape}, model needs {(model.N, model.N)}")
    return a.conj()[:, :, None] * a[:, None, :]


def section_squares(model: ManifoldModel, frame: Optional[np.ndarray] = None) -> np.ndarray:
    """The moment integrands g_j = |(A s)_j|^2 * ref_weight of an N x N
    frame A as an N x Q array; ``None`` means the identity, the monomials.
    g_j is rw s* R_j s for the rank-one form R_j = conj(a_j) a_j^T of row
    a_j, one stacked synthesis of the pairing kernel (``geometry``)."""
    return model._theta_fourier().pairings(_rank_one_forms(model, frame), parts=1)[:, 0]


def square_blocks(model: ManifoldModel, frame: Optional[np.ndarray] = None):
    """``section_squares`` in blocks of whole rings of at most
    ``geometry.NODE_BLOCK`` nodes: yields (nodes, g), g the (N, B) block of
    the table on the slice ``nodes``, with no N x Q array formed.  g lives
    in a buffer that the next block overwrites."""
    kernel = model._theta_fourier()
    yield from kernel.pairing_blocks(_rank_one_forms(model, frame))


def ratio_blocks(model: ManifoldModel, frame: Optional[np.ndarray] = None):
    """``square_blocks`` with the block's column sums sum_j g_j and its
    row ratios rho = g / sum_j g_j: yields (nodes, g, sums, rho), rho too
    in one buffer for all blocks, which the caller may overwrite."""
    buffer = None
    for nodes, g in square_blocks(model, frame):
        if buffer is None:
            buffer = np.empty_like(g)
        sums = g.sum(axis=0)
        yield nodes, g, sums, np.divide(g, sums, out=buffer[:, : g.shape[1]])


def _probe_weights(rho: np.ndarray, qw: np.ndarray) -> np.ndarray:
    """rho^PROBE_POWER qw, the probe densities' unscaled node weights on a
    block, formed in place over the block's ``rho``."""
    w = np.square(rho, out=rho)
    w *= w
    w *= w
    w *= qw
    return w


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
    entries of either sign.  Returns (c, u, ew, history): the last point's
    potential and node weights ew = e^u * weights, and the max-norm
    residual of every iterate.
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

    (coef, _, _, ew, u), history = damped_newton(
        evaluate, direction, accept, evaluate(np.zeros(target.size)),
        tol, max_newton, 60, "moment Newton",
    )
    return coef, u, ew, history


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
    coef, u, ew, history = _max_entropy_newton(
        lambda c: c @ gfun,
        lambda ew: gfun @ ew,
        lambda ew: (gfun * ew) @ gfun.T,
        qw,
        target.values,
        tol,
        max_newton,
    )
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
    they are.  ``weights`` is None when the rows were summed in one pass
    and their densities not kept (the injectivity audit's probe rows)."""

    matrix: np.ndarray
    weights: Optional[np.ndarray]
    floor: Optional[float]
    mode: str
    norms: MatrixNorms
    inverse_norms: MatrixNorms

    def __post_init__(self):
        if self.weights is None:
            return
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


def _spike_floor(model: ManifoldModel, floor: Optional[float]) -> float:
    """The paper rows' floor: e^{-k} by default, checked to lie in (0, 1)
    and kept above 1e-300."""
    f = float(np.exp(-min(model.k, 700))) if floor is None else float(floor)
    if not 0.0 < f < 1.0:
        raise ValueError("floor must lie in (0, 1)")
    return max(f, 1e-300)


def _cone_bound(peaks: np.ndarray, row: int, floor: float, tol: float):
    """The cone bound of the module docstring on the spike target of row
    ``row``: raises ``MomentInfeasibleError`` when the peak ratio
    ``peaks[row]`` = max_q rho_row caps the row's moment below 1 - tol."""
    n = peaks.size
    reach = peaks[row] * (1.0 + (n - 1) * floor + n * tol)
    if reach < 1.0 - tol:
        raise MomentInfeasibleError(
            f"row {row}: spike target (floor {floor:g}) is outside the "
            f"moment cone of this frame: peak ratio {peaks[row]:.4f} caps "
            f"the row's moment at {reach:.4f} < 1 - tol",
            row=row,
            diagnostics={"peak_ratio": float(peaks[row])},
        )


def _system(lam, weights, floor, mode, tol=LAMBDA_TOL) -> LambdaSystem:
    """The ``LambdaSystem`` of the row-measure matrix ``lam``, whose
    entries must not exceed 1 by more than 10 tol.  One SVD gives both
    operator norms: ||Lambda^{-1}||_op = 1 / sigma_min and
    ||Lambda^{-1}||_HS = ||1 / sigma||_2 for Lambda's singular values
    sigma; the max norm is read from the inverse."""
    a = _as_square(lam)
    sigma = np.linalg.svd(a, compute_uv=False)
    norms = MatrixNorms(float(sigma[0]), float(np.linalg.norm(a)), float(np.abs(a).max()))
    if norms.max > 1.0 + 10 * tol:
        raise RuntimeError(f"row-measure matrix entry {norms.max:.6f} exceeds 1")
    inverse = _as_square(np.linalg.inv(lam))
    return LambdaSystem(
        matrix=lam,
        weights=weights,
        floor=floor,
        mode=mode,
        norms=norms,
        inverse_norms=MatrixNorms(
            float(1.0 / sigma[-1]), float(np.linalg.norm(1.0 / sigma)), float(np.abs(inverse).max())
        ),
    )


def _probe_system(sums: np.ndarray, weights: Optional[np.ndarray] = None):
    """The probe rows from their unscaled moments m_ij = sum_q w_i g_j,
    w_i = rho_i^PROBE_POWER qw: each row divided by its peak max_j m_ij,
    and so is row i of the node weights ``weights`` (in place) when they
    are kept.  Returns the ``LambdaSystem`` and the (N, 1) peaks, which
    scale any other sum over the same densities the same way."""
    peak = sums.max(axis=1, keepdims=True)
    if not (np.isfinite(peak).all() and (peak > 0.0).all()):
        raise ValueError("probe row moments must be finite, with positive mass")
    if weights is not None:
        weights /= peak
    return _system(sums / peak, weights, None, "probe"), peak


def build_lambda(
    model: ManifoldModel,
    floor: Optional[float] = None,
    tol: float = LAMBDA_TOL,
    mode: str = "paper",
    frame: Optional[np.ndarray] = None,
    max_newton: int = MAX_NEWTON,
) -> LambdaSystem:
    """Row-measure matrix: row i holds the achieved squared-section moments
    of the i-th density, for the squares g = ``section_squares(model,
    frame)`` of the N x N ``frame``; ``None`` means the monomials.

    mode "paper": each row solves the spike target (floor, ..., 1, ..., floor)
    with 1 in the i-th place (floor defaults to e^{-k}); rows whose targets
    are provably infeasible raise ``MomentInfeasibleError`` before their
    Newton, with the Hankel margins (monomials only) or the peak of rho_i
    (``_cone_bound``), and a failed row Newton with its ``history`` and no
    rounding-dependent text.  This mode forms the N x Q squares table, which
    every row Newton reads.  mode "probe": constructive localised densities
    (no targets), always available, max entry normalised to 1, summed in one
    pass over ``NODE_BLOCK`` ring blocks (``ratio_blocks``) with no squares
    table; their node weights are kept, one (N, Q) array.
    """
    if mode not in ("probe", "paper"):
        raise ValueError(f"unknown build_lambda mode {mode!r}")
    n = model.N
    if mode == "probe":
        weights, sums = np.empty((n, model.Q)), np.zeros((n, n))
        for nodes, g, _, rho in ratio_blocks(model, frame):
            w = _probe_weights(rho, model.quad_weights[nodes])
            weights[:, nodes] = w
            sums += w @ g.T
        return _probe_system(sums, weights)[0]
    f = _spike_floor(model, floor)
    gfun = section_squares(model, frame)
    targets = spike_targets(n, f)
    peaks = (gfun / gfun.sum(axis=0)).max(axis=1)
    weight_rows, rows = [], []
    for i in range(n):
        if frame is None:
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
        _cone_bound(peaks, i, f, tol)
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
    return _system(np.array(rows), np.array(weight_rows), f, "paper", tol)

"""Quantitative injectivity of the Fubini-Study map.

For a pair of forms (H, H') the two induced metrics differ by a factor
1 + f; when sup|f| = eps satisfies N^{3/2} eps <= 1/4 the operator-norm
distance in the H-orthonormal gauge is bounded by 2 N^2 eps.  The audit
verifies the full chain on real integrals: the gauge eigenvalues d_i^2 are
computed directly AND recovered from the linear system
(Lambda + F) 1 = Lambda d^{-2} over a family of row measures, the norm
chain is checked link by link, and every hypothesis failure is reported as
data, never raised.

Row-measure family: the audit first asks for the spike targets with the
classical floor e^{-k} on the gauge frame.  The paper family exists at
k = 1; at larger k the cone bound of ``moments`` rejects the gauge rows
before any Newton (the Hankel proof covers only the monomial frame), and
the audit falls back to the constructive probe densities.  The
linear-system identity holds for ANY positive row measures, which is all
the integration step of the argument uses.

One pass: ``compare_fs`` synthesises the gauge frame's squared sections g
over blocks of whole rings of at most ``geometry.NODE_BLOCK`` nodes
(``moments.ratio_blocks``: the kernel's scatter and radial product once
per audit, its trig product once per block), and each block serves at once
the pointwise reconstruction check, the row-ratio peaks max_q rho_i,
rho = g / sum_j g_j, that the cone bound reads, and the probe rows' unscaled
sums sum_q rho^8 qw g^T and sum_q rho^8 qw f g^T, which become Lambda and F
once divided by their row peaks.  So the audit forms no N x Q table.  Only
a paper attempt that the cone bound lets run (k = 1, and rare pairs at
k = 2) forms one: the squares table of its row Newtons, and its rows'
(N, Q) weights, which ``f_matrix`` integrates in the same ring blocks.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import List, Optional, Tuple

import numpy as np
import scipy.linalg as sla

from .errors import DimensionError, MomentInfeasibleError
from .geometry import ManifoldModel, MetricWeight, fs_metric
from .linalg import HermitianForm, cholesky_lower, matrix_norms
from .moments import (
    LAMBDA_TOL,
    _cone_bound,
    _probe_system,
    _probe_weights,
    _spike_floor,
    build_lambda,
    ratio_blocks,
    square_blocks,
)

EQ4_TOL = 1e-10


def gauge_frame(
    model: ManifoldModel, metric: MetricWeight, metric2: MetricWeight
) -> Tuple[np.ndarray, np.ndarray, float]:
    """H-orthonormal, H'-diagonalising frame of the two Bergman metrics:
    with H = L L* (the form's kept ``factor``) and A = U* L^{-1}, L^{-1}
    from one ``ztrtri``, A H A* = I and A H' A* = diag(d^2), so the
    frame's sections are A s.
    Returns d^2, the N x N frame A and the gauge's measured rounding
        delta = ||A H A* - I||_2 max d^2 + ||A H' A* - diag(d^2)||_2,
    to first order a Weyl bound on the error of the computed d^2."""
    lh = metric.form.factor()
    # two triangular solves, not products with L^{-1}: the audit's chain
    # values move by up to 3e-10 relative when m's rounding changes
    m = sla.lapack.ztrtrs(lh, metric2.form.mat, lower=1)[0]
    m = sla.lapack.ztrtrs(lh.conj(), m.T, lower=1)[0].T
    m = 0.5 * (m + m.conj().T)
    d_sq, u = np.linalg.eigh(m)
    a = u.conj().T @ sla.lapack.ztrtri(lh, lower=1)[0]
    orth = a @ metric.form.mat @ a.conj().T - np.eye(model.N)
    diag = a @ metric2.form.mat @ a.conj().T - np.diag(d_sq)
    delta = float(np.linalg.norm(orth, 2) * d_sq.max() + np.linalg.norm(diag, 2))
    return d_sq, a, delta


@dataclass
class FsComparison:
    f: np.ndarray
    epsilon: float
    epsilon_node: int
    d_sq: np.ndarray
    gauge_rounding: float
    metrics: Tuple[MetricWeight, MetricWeight]
    frame: np.ndarray
    peaks: np.ndarray
    probe_sums: np.ndarray
    probe_f_sums: np.ndarray
    pointwise_consistency: float


def compare_fs(model: ManifoldModel, h: HermitianForm, h2: HermitianForm) -> FsComparison:
    """Pointwise factor f with FS(H)^k = (1+f) FS(H')^k and its supremum,
    and the audit's one pass over the gauge frame's squared sections.

    f is computed from the two Fubini-Study potentials; the gauge
    eigenvalues are computed independently.  ``frame`` is the gauge frame
    A and ``gauge_rounding`` the rounding delta that ``gauge_frame``
    measured.  The squares g of A's sections are synthesised in blocks of
    whole rings of at most ``NODE_BLOCK`` nodes (``moments.ratio_blocks``)
    and no N x Q table is formed; each block is read at once by
      * the reconstruction 1 + f = sum_i d_i^{-2} g_i / sum_i g_i, checked
        pointwise at 1e-10 (an internal consistency audit of the gauge,
        not a tolerance on f), its largest deviation kept as
        ``pointwise_consistency``;
      * the row-ratio ``peaks`` max_q rho_i, rho = g / sum_j g_j, which the
        cone bound of the paper rows reads;
      * the probe rows' unscaled sums, ``probe_sums`` = sum_q w g^T and
        ``probe_f_sums`` = sum_q w f g^T, w_i = rho_i^PROBE_POWER qw.
    """
    metrics = (fs_metric(model, h), fs_metric(model, h2))
    u1, u2 = (m.potential(model) for m in metrics)
    f = np.exp(u2 - u1) - 1.0
    node = int(np.abs(f).argmax())
    d_sq, frame, delta = gauge_frame(model, *metrics)
    n, qw, dinv2 = model.N, model.quad_weights, 1.0 / d_sq
    peaks, sums, f_sums = np.zeros(n), np.zeros((n, n)), np.zeros((n, n))
    consistency = 0.0
    for nodes, g, total, rho in ratio_blocks(model, frame):
        deviation = np.abs((dinv2 @ g) / total - (1.0 + f[nodes])).max()
        # np.maximum keeps a NaN deviation, as the max over one table did
        consistency = np.maximum(consistency, deviation)
        np.maximum(peaks, rho.max(axis=1), out=peaks)
        w = _probe_weights(rho, qw[nodes])
        sums += w @ g.T
        w *= f[nodes]
        f_sums += w @ g.T
    consistency = float(consistency)
    if consistency > EQ4_TOL:
        raise RuntimeError(
            f"gauge reconstruction of 1+f deviates by {consistency:.3e} (> {EQ4_TOL:g})"
        )
    return FsComparison(
        f=f,
        epsilon=float(np.abs(f).max()),
        epsilon_node=node,
        d_sq=d_sq,
        gauge_rounding=delta,
        metrics=metrics,
        frame=frame,
        peaks=peaks,
        probe_sums=sums,
        probe_f_sums=f_sums,
        pointwise_consistency=consistency,
    )


def f_matrix(
    model: ManifoldModel,
    f: np.ndarray,
    weights: np.ndarray,
    frame: Optional[np.ndarray] = None,
) -> np.ndarray:
    """F[i, j] = integral of f * |s_j|^2 * ref_weight against density i,
    (W o f) g^T for the (N, Q) node weights W of the densities, one row
    each (``LambdaSystem.weights``), read as they are.

    g are the squares of the N x N ``frame``'s sections (``None``: the
    monomials), synthesised in ``NODE_BLOCK`` ring blocks
    (``moments.square_blocks``) and summed block by block, so no squares
    table is formed.  When the densities come from ``build_lambda`` (row
    moments bounded by one) this guarantees max-norm(F) <= sup|f|.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (model.Q,):
        raise DimensionError("f must be a node function")
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2 or weights.shape[1] != model.Q:
        raise DimensionError("density length mismatch")
    out = np.zeros((len(weights), model.N))
    for nodes, g in square_blocks(model, frame):
        out += (weights[:, nodes] * f[nodes]) @ g.T
    return out


@dataclass
class InjectivityReport:
    N: int
    k: int
    epsilon: float
    epsilon_node: int
    hypothesis_ok: bool
    d_sq: np.ndarray
    bound: float
    distance_op: float
    chain: dict
    pass_: Optional[bool]
    status: str
    lambda_mode: str
    lambda_floor: Optional[float]
    lambda_norm_op: float
    lambda_inv_norm_op: float
    lambda_bounds_ok: bool
    lambda_paper_status: str
    route_agreement: float
    intermediate_ok: bool
    refinement_flag: Optional[bool] = None
    epsilon_refined: Optional[float] = None
    warnings: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {
            ("pass" if key == "pass_" else key): value
            for key, value in asdict(self).items()
        }
        out["d_sq"] = [float(x) for x in self.d_sq]
        return out


def _lambda_for_audit(model, comp, floor):
    """(Lambda, F, paper status): paper-floor rows when achievable,
    constructive probes otherwise.  The paper rows run in order, so when
    the cone bound on the pass's ``peaks`` rejects row 0 the attempt ends
    there, before any table is formed; otherwise ``build_lambda`` runs the
    rows on its squares table.  The probe rows are the pass's sums, divided
    by their row peaks."""
    try:
        _cone_bound(comp.peaks, 0, _spike_floor(model, floor), LAMBDA_TOL)
        system = build_lambda(model, floor=floor, mode="paper", frame=comp.frame)
    except MomentInfeasibleError as exc:
        system, peak = _probe_system(comp.probe_sums)
        return system, comp.probe_f_sums / peak, f"infeasible: {exc}"
    return system, f_matrix(model, comp.f, system.weights, frame=comp.frame), "achieved"


def verify_injectivity(
    model: ManifoldModel,
    h: HermitianForm,
    h2: HermitianForm,
    floor: Optional[float] = None,
    refine_check: bool = True,
) -> InjectivityReport:
    """Full audit of the quantitative injectivity bound for one pair.

    Mathematical hypothesis failures (eps too large, row-measure norm bounds
    not met at this k) are report fields; only dimension and I/O problems
    raise.  ``pass`` is withheld (None) when the eps hypothesis fails, and
    otherwise holds when the distance, less the gauge's measured rounding,
    is within the bound; so H' = H passes although its bound is 0.  The
    paper rows are solved to ``build_lambda``'s default tolerance.  With
    ``refine_check`` eps is measured again on ``model.refined()``, the
    doubled grid, which is built once per model and kept for later audits.

    Every node integral comes from ``compare_fs``'s one pass over blocks of
    whole rings of at most ``NODE_BLOCK`` nodes: the reconstruction check,
    the peaks for the paper rows' cone bound, and the probe rows' Lambda
    and F.  So the audit forms no N x Q array unless the cone bound lets the
    paper rows run (``_lambda_for_audit``), which form the squares table.
    """
    comp = compare_fs(model, h, h2)
    n = model.N
    eps = comp.epsilon
    hypothesis_ok = bool(n**1.5 * eps <= 0.25)
    system, fmat, paper_status = _lambda_for_audit(model, comp, floor)
    dinv2_direct = 1.0 / comp.d_sq
    rhs = fmat @ np.ones(n)
    solved = np.linalg.solve(system.matrix, rhs)
    agreement = float(np.abs(solved - (dinv2_direct - 1.0)).max())
    lam_inv_f = np.linalg.solve(system.matrix, fmat)
    f_norms = matrix_norms(fmat)
    chain = {
        "F_max": float(np.abs(fmat).max()),
        "F_hs": f_norms.hs,
        "F_op": f_norms.op,
        "lambda_inv_F_op": matrix_norms(lam_inv_f).op,
        "max_dinv2_minus_1": float(np.abs(dinv2_direct - 1.0).max()),
    }
    intermediate_ok = bool(chain["max_dinv2_minus_1"] <= 2.0 * n**1.5 * eps)
    distance = float(np.abs(comp.d_sq - 1.0).max())
    bound = 2.0 * n * n * eps
    warnings_list = []
    if not system.bounds_hold():
        warnings_list.append(
            "row-measure norm bounds (op <= 2 for Lambda and its inverse) not met"
        )
    if hypothesis_ok:
        passed: Optional[bool] = bool(distance - comp.gauge_rounding <= bound)
        status = "verified" if passed else "bound violated"
    else:
        passed = None
        status = "hypothesis not met"
    refinement_flag = None
    eps_refined = None
    if refine_check:
        fine = model.refined()
        u1, u2 = (m.potential(fine) for m in comp.metrics)
        eps_refined = float(np.abs(np.exp(u2 - u1) - 1.0).max())
        refinement_flag = bool(abs(eps_refined - eps) > 1e-6)
        if refinement_flag:
            warnings_list.append(
                f"grid supremum moved by {abs(eps_refined - eps):.3e} under refinement"
            )
    return InjectivityReport(
        N=n,
        k=model.k,
        epsilon=eps,
        epsilon_node=comp.epsilon_node,
        hypothesis_ok=hypothesis_ok,
        d_sq=comp.d_sq,
        bound=bound,
        distance_op=distance,
        chain=chain,
        pass_=passed,
        status=status,
        lambda_mode=system.mode,
        lambda_floor=system.floor,
        lambda_norm_op=system.norms.op,
        lambda_inv_norm_op=system.inverse_norms.op,
        lambda_bounds_ok=system.bounds_hold(),
        lambda_paper_status=paper_status,
        route_agreement=agreement,
        intermediate_ok=intermediate_ok,
        refinement_flag=refinement_flag,
        epsilon_refined=eps_refined,
        warnings=warnings_list,
    )


def perturbed_pair(
    model: ManifoldModel,
    rng: np.random.Generator,
    scale: float,
    cond: float = 10.0,
):
    """Random PD form H (condition <= cond) and H' = L (I + scale P) L* with
    P a random hermitian direction of unit spectral radius: the sweep's pair
    generator.  A finite cond >= 1 and |scale| < 1, which keeps H' positive
    definite, are required (``ValueError``)."""
    from .linalg import random_hermitian, random_spd

    if not 1.0 <= cond < np.inf:
        raise ValueError(f"cond must be finite and at least 1, got {cond}")
    if not abs(scale) < 1.0:
        raise ValueError(f"scale must lie in (-1, 1), got {scale}")
    h = random_spd(model.N, rng, cond=cond)
    p = random_hermitian(model.N, rng)
    p = p / np.abs(np.linalg.eigvalsh(p)).max()
    lh = cholesky_lower(h)
    h2 = lh @ (np.eye(model.N) + scale * p) @ lh.conj().T
    return h, HermitianForm(h2)

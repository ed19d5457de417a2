"""Quantitative injectivity of the Fubini-Study map.

For a pair of forms (H, H') the two induced metrics differ by a factor
1 + f; when sup|f| = eps satisfies N^{3/2} eps <= 1/4 the operator-norm
distance in the H-orthonormal gauge is bounded by 2 N^2 eps.  The audit
verifies the full chain on real integrals: the gauge eigenvalues d_i^2 are
computed directly AND recovered from the linear system
(Lambda + F) 1 = Lambda d^{-2} over a family of row measures, the norm
chain is checked link by link, and every hypothesis failure is reported as
data, never raised.

Row-measure family: the spike targets with the classical floor e^{-k} are
provably infeasible on this test-bed for k >= 2 (see ``moments``), so the
audit falls back to the constructive probe densities; the linear-system
identity holds for ANY positive row measures, which is all the integration
step of the argument uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
import scipy.linalg as sla

from .errors import DimensionError, MomentInfeasibleError
from .geometry import Density, ManifoldModel, MetricWeight, build_p1_model
from .linalg import HermitianForm, cholesky_lower, matrix_norms
from .moments import LambdaSystem, build_lambda, section_squares

EQ4_TOL = 1e-10


@dataclass
class GaugeData:
    """H-orthonormal, H'-diagonalising frame: transform A with A H A* = I
    and A H' A* = diag(d^2)."""

    transform: np.ndarray
    d_sq: np.ndarray
    sections: np.ndarray


def gauge_frame(model: ManifoldModel, h: HermitianForm, h2: HermitianForm) -> GaugeData:
    if h.dim != model.N or h2.dim != model.N:
        raise DimensionError("forms must match the model's section dimension")
    lh = cholesky_lower(h)
    cholesky_lower(h2)
    m = sla.solve_triangular(lh, h2.mat, lower=True)
    m = sla.solve_triangular(lh.conj(), m.T, lower=True).T
    m = 0.5 * (m + m.conj().T)
    d_sq, u = np.linalg.eigh(m)
    a = u.conj().T @ np.linalg.inv(lh)
    return GaugeData(transform=a, d_sq=d_sq, sections=a @ model.sections)


@dataclass
class FsComparison:
    f: np.ndarray
    epsilon: float
    epsilon_node: int
    d_sq: np.ndarray
    gauge: GaugeData
    pointwise_consistency: float


def compare_fs(model: ManifoldModel, h: HermitianForm, h2: HermitianForm) -> FsComparison:
    """Pointwise factor f with FS(H)^k = (1+f) FS(H')^k and its supremum.

    f is computed from the two Fubini-Study potentials; the gauge
    eigenvalues are computed independently and the reconstruction
    1 + f = sum_i d_i^{-2} |s''_i|^2_{FS(H)} is checked pointwise at 1e-10
    (an internal consistency audit of the gauge, not a tolerance on f).
    """
    u1 = MetricWeight.bergman(h).potential(model)
    u2 = MetricWeight.bergman(h2).potential(model)
    f = np.exp(u2 - u1) - 1.0
    node = int(np.abs(f).argmax())
    gauge = gauge_frame(model, h, h2)
    p1 = np.einsum("iq,iq->q", gauge.sections, gauge.sections.conj()).real
    p2 = np.einsum("i,iq,iq->q", 1.0 / gauge.d_sq, gauge.sections, gauge.sections.conj()).real
    consistency = float(np.abs(p2 / p1 - (1.0 + f)).max())
    if consistency > EQ4_TOL:
        raise RuntimeError(
            f"gauge reconstruction of 1+f deviates by {consistency:.3e} (> {EQ4_TOL:g})"
        )
    return FsComparison(
        f=f,
        epsilon=float(np.abs(f).max()),
        epsilon_node=node,
        d_sq=gauge.d_sq,
        gauge=gauge,
        pointwise_consistency=consistency,
    )


def f_matrix(
    model: ManifoldModel,
    f: np.ndarray,
    densities: List[Density],
    sections: Optional[np.ndarray] = None,
) -> np.ndarray:
    """F[i, j] = integral of f * |s_j|^2 * ref_weight against density i.

    When the densities come from ``build_lambda`` (row moments bounded by
    one) this guarantees max-norm(F) <= sup|f|.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (model.Q,):
        raise DimensionError("f must be a node function")
    gfun = section_squares(model, sections)
    rows = []
    for d in densities:
        if d.weights.shape != (model.Q,):
            raise DimensionError("density length mismatch")
        rows.append(gfun @ (f * d.weights))
    return np.array(rows)


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
        return {
            "N": self.N,
            "k": self.k,
            "epsilon": self.epsilon,
            "epsilon_node": self.epsilon_node,
            "hypothesis_ok": self.hypothesis_ok,
            "d_sq": [float(x) for x in self.d_sq],
            "bound": self.bound,
            "distance_op": self.distance_op,
            "chain": self.chain,
            "pass": self.pass_,
            "status": self.status,
            "lambda_mode": self.lambda_mode,
            "lambda_floor": self.lambda_floor,
            "lambda_norm_op": self.lambda_norm_op,
            "lambda_inv_norm_op": self.lambda_inv_norm_op,
            "lambda_bounds_ok": self.lambda_bounds_ok,
            "lambda_paper_status": self.lambda_paper_status,
            "route_agreement": self.route_agreement,
            "intermediate_ok": self.intermediate_ok,
            "refinement_flag": self.refinement_flag,
            "epsilon_refined": self.epsilon_refined,
            "warnings": self.warnings,
        }


def _lambda_for_audit(model, sections, floor, tol):
    """Paper-floor rows when achievable, constructive probes otherwise."""
    try:
        system = build_lambda(
            model, floor=floor, tol=tol, mode="paper", sections=sections
        )
        return system, "achieved"
    except MomentInfeasibleError as exc:
        probe = build_lambda(model, mode="probe", sections=sections)
        return probe, f"infeasible: {exc}"


def verify_injectivity(
    model: ManifoldModel,
    h: HermitianForm,
    h2: HermitianForm,
    floor: Optional[float] = None,
    tol: float = 1e-8,
    refine_check: bool = True,
) -> InjectivityReport:
    """Full audit of the quantitative injectivity bound for one pair.

    Mathematical hypothesis failures (eps too large, row-measure norm bounds
    not met at this k) are report fields; only dimension and I/O problems
    raise.  ``pass`` is withheld (None) when the eps hypothesis fails.
    """
    comp = compare_fs(model, h, h2)
    n = model.N
    eps = comp.epsilon
    hypothesis_ok = bool(n**1.5 * eps <= 0.25)
    system, paper_status = _lambda_for_audit(model, comp.gauge.sections, floor, tol)
    fmat = f_matrix(model, comp.f, system.densities, sections=comp.gauge.sections)
    dinv2_direct = 1.0 / comp.d_sq
    rhs = fmat @ np.ones(n)
    solved = np.linalg.solve(system.matrix, rhs)
    agreement = float(np.abs(solved - (dinv2_direct - 1.0)).max())
    lam_inv_f = np.linalg.solve(system.matrix, fmat)
    chain = {
        "F_max": float(np.abs(fmat).max()),
        "F_hs": matrix_norms(fmat).hs,
        "F_op": matrix_norms(fmat).op,
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
        passed: Optional[bool] = bool(distance <= bound)
        status = "verified" if passed else "bound violated"
    else:
        passed = None
        status = "hypothesis not met"
    refinement_flag = None
    eps_refined = None
    if refine_check:
        fine = build_p1_model(
            model.k,
            2 * model.radial_nodes,
            2 * model.azimuthal_nodes,
            line_degree=model.line_degree,
        )
        u1 = MetricWeight.bergman(h).potential(fine)
        u2 = MetricWeight.bergman(h2).potential(fine)
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
    generator."""
    from .linalg import random_hermitian, random_spd

    h = random_spd(model.N, rng, cond=cond)
    p = random_hermitian(model.N, rng)
    p = p / np.abs(np.linalg.eigvalsh(p)).max()
    lh = cholesky_lower(h)
    h2 = lh @ (np.eye(model.N) + scale * p) @ lh.conj().T
    return h, HermitianForm(h2)

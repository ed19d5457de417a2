"""Matrix-space pushforward maps and the continuation solver.

The scale classes of positive definite matrices map to the trace-one
positive simplex two ways: via Fubini-Study integrals over the full ambient
projective space (psi0, closed form available) and via the same integrals
restricted to the embedded curve (psi).  Their affine homotopy underlies
``solve_psi``, which realises targets constructively by continuation in t:
each step starts Newton at the previous B (there is no predictor) and
corrects in the trace gauge.

Matrix conventions: forms are linear in the first index (see ``linalg``).
In this convention the ambient-space map has closed form
psi0(B) = B^{-2} / tr(B^{-2}), its linearisation loses all transposes, and
psi(B) = B^{-1} Phi(B) B^{-1} / tr(...); in the conjugate-first convention
all matrices transpose and the classical displayed formulas with B^t are
recovered verbatim.

The maps run on the ``ManifoldModel`` itself: the curve sits in P^(N-1)
through its sections s, and psi(B) = M / tr M with M = sum_q s_q s_q*
mu_B(q), where mu_B is ``geometry._pushforward_measure`` (the Fubini-Study
volume of the moved curve B s divided by |B s|^2).

Validation happens once per public call: every public function accepts B
as a ``HermitianForm`` or an array, checks it once in ``_checked_b``
(hermitian, positive definite, and of the model's size where a model is
given) and returns unit-trace ``HermitianForm`` values.  The continuation
Newton runs on raw arrays through ``_psi_t`` and its analytic derivative
``_psi_t_jacobian``, which validate nothing; its line search tests positive
definiteness before it evaluates a candidate, so no evaluation inside the
Newton leaves the positive cone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
import scipy.linalg as sla

from .errors import ContinuationError, DimensionError, MarginError
from .geometry import (
    ManifoldModel,
    _pushforward_measure,
    _pushforward_measure_derivative,
)
from .linalg import HermitianForm

MARGIN = 1e-3  # smallest admissible eigenvalue of a unit-trace target
STEP_FLOOR = 1e-6  # continuation step below which solve_psi gives up
NEWTON_MAX_ITERS = 25
KERNEL_RTOL = 1e-8  # relative singular-value cut of the numerical kernel


def _as_form(b) -> HermitianForm:
    return b if isinstance(b, HermitianForm) else HermitianForm(b)


def _checked_b(b, n: Optional[int] = None) -> np.ndarray:
    """B as an array, validated at a public entry point: hermitian, positive
    definite and, when ``n`` is given, acting on the model's n sections."""
    bm = _as_form(b).mat
    if n is not None and bm.shape[0] != n:
        raise DimensionError("B must act on the model's sections")
    if np.linalg.eigvalsh(bm).min() <= 0:
        raise MarginError("B must be positive definite (singular B rejected)")
    return bm


def _unit_trace(m: np.ndarray) -> np.ndarray:
    m = 0.5 * (m + m.conj().T)
    return m / np.real(np.trace(m))


def _psi_t(model: Optional[ManifoldModel], bm: np.ndarray, t: float) -> np.ndarray:
    """psi_t on a hermitian positive definite array, without validation.

    psi0 comes from B^{-1}; for t > 0, psi comes from M = sum_q s_q s_q*
    mu_B(q), which is B^{-1} Phi(B) B^{-1} with the inverses cancelled
    against the moved sections B s.  ``model`` is unused at t = 0.  The
    caller has checked B: ``_checked_b`` at a public entry point, the line
    search inside the continuation Newton.
    """
    binv = np.linalg.inv(bm)
    p0 = _unit_trace(binv @ binv)
    if t == 0.0:
        return p0
    m = model._theta_fourier().gram(_pushforward_measure(model, bm))
    if np.real(np.trace(m)) <= 0:
        raise RuntimeError("internal error: pushforward trace must be positive")
    p = _unit_trace(m)
    if t == 1.0:
        return p
    return _unit_trace(t * p + (1.0 - t) * p0)


def psi0_closed(b) -> HermitianForm:
    """Closed form of the ambient pushforward: B^{-2}/tr(B^{-2}).

    Scale-invariant: psi0(aB) = psi0(B) for a > 0.
    """
    return HermitianForm(_psi_t(None, _checked_b(b), 0.0))


def _dpsi0(bm: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """dpsi0 at the array B along each of the stacked directions ``dirs``."""
    binv = np.linalg.inv(bm)
    p = _unit_trace(binv @ binv)
    core = binv @ dirs @ p + p @ dirs @ binv
    out = -core + np.real(np.trace(core, axis1=-2, axis2=-1))[..., None, None] * p
    return 0.5 * (out + np.swapaxes(out, -1, -2).conj())


def dpsi0(b, a) -> np.ndarray:
    """Linearisation of psi0 at B in the hermitian direction A.

    Evaluates - B^{-1} A P - P A B^{-1} + tr(B^{-1} A P + P A B^{-1}) P with
    P = psi0(B); the output is hermitian and traceless, and vanishes exactly
    when A is a multiple of B (the scale direction).
    """
    bm = _checked_b(b)
    am = np.asarray(a, dtype=complex)
    if am.shape != bm.shape:
        raise DimensionError("direction matrix must match B's shape")
    return _dpsi0(bm, am)


def hermitian_basis(n: int) -> np.ndarray:
    """Orthonormal real basis of the hermitian matrices (n^2 elements)."""
    basis = []
    for i in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = e[j, i] = 1.0 / np.sqrt(2.0)
            basis.append(e)
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1j / np.sqrt(2.0)
            e[j, i] = -1j / np.sqrt(2.0)
            basis.append(e)
    return np.array(basis)


def traceless_basis(n: int) -> np.ndarray:
    """Orthonormal real basis of traceless hermitian matrices (n^2 - 1)."""
    basis = []
    for i in range(n - 1):
        e = np.zeros((n, n), dtype=complex)
        scale = 1.0 / np.sqrt((i + 1) * (i + 2))
        for j in range(i + 1):
            e[j, j] = scale
        e[i + 1, i + 1] = -(i + 1) * scale
        basis.append(e)
    full = hermitian_basis(n)
    return np.array(basis + list(full[n:]))


def _coords(basis: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Real coordinates tr(E_a M) of (stacked) hermitian M in ``basis``."""
    return np.real(np.einsum("aij,...ji->...a", basis, m))


def dpsi0_matrix(b) -> np.ndarray:
    """Real matrix of A -> dpsi0(B, A) on the n^2-dimensional hermitian space."""
    bm = _checked_b(b)
    basis = hermitian_basis(bm.shape[0])
    return _coords(basis, _dpsi0(bm, basis)).T


def dpsi0_kernel_dim(b) -> Tuple[int, float]:
    """Numerical kernel dimension of the linearisation, with spectral gap.

    Returns (dimension, gap) where gap is the ratio of the smallest
    retained to the largest singular value.
    """
    sv = np.linalg.svd(dpsi0_matrix(b), compute_uv=False)
    cut = KERNEL_RTOL * sv[0]
    kept = sv[sv >= cut]
    dim = int(sv.size - kept.size)
    gap = float(kept[-1] / sv[0]) if kept.size else 0.0
    return dim, gap


def phi_matrix(model: ManifoldModel, b) -> HermitianForm:
    """Gram of the moved sections against the moved curve's induced
    Fubini-Study volume.

    B sends the section values s to W = B s; the measure is the volume of
    ddbar log sum_l |W_l|^2 along the curve (total mass equal to the
    embedding degree ``model.monomial_degree``) and the integrand is
    W_r conj(W_s) / |W|^2.  Positive definite for nondegenerate embeddings.
    """
    bm = _checked_b(b, model.N)
    g = bm @ model._theta_fourier().gram(_pushforward_measure(model, bm)) @ bm
    return HermitianForm(0.5 * (g + g.conj().T))


def psi(model: ManifoldModel, b) -> HermitianForm:
    """Pushforward along the embedded curve: the normalised conjugation
    B^{-1} Phi(B) B^{-1} / tr(...); scale-invariant in B."""
    return HermitianForm(_psi_t(model, _checked_b(b, model.N), 1.0))


def psi_t(model: ManifoldModel, b, t: float) -> HermitianForm:
    """Affine homotopy t * psi + (1 - t) * psi0 between the two pushforwards."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    return HermitianForm(_psi_t(model, _checked_b(b, model.N), t))


@dataclass
class TraceRow:
    t: float
    residual: float
    step: float
    newton_iters: int


@dataclass
class ContinuationTrace:
    rows: List[TraceRow] = field(default_factory=list)

    def log(self, t, residual, step, iters):
        self.rows.append(TraceRow(float(t), float(residual), float(step), int(iters)))

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("t,residual,step,newton_iters\n")
            for r in self.rows:
                fh.write(f"{r.t!r},{r.residual!r},{r.step!r},{r.newton_iters}\n")


def _psi_t_jacobian(
    model: ManifoldModel, bm: np.ndarray, t: float, basis: np.ndarray
) -> np.ndarray:
    """Analytic Jacobian of psi_t at B in the coordinates of ``basis``.

    Column b is the derivative along basis[b] and row a its coordinate
    tr(E_a . ).  B^{-1} Phi(B) B^{-1} = M = sum_q s_q s_q* mu_B(q), so M
    moves only through the pushforward measure, whose derivatives
    ``_pushforward_measure_derivative`` forms for all directions at once;
    dpsi = dM / tr M - tr(dM) psi / tr M.  Both endpoints of the homotopy
    have unit trace, so d psi_t = t dpsi + (1 - t) dpsi0.
    """
    d = (1.0 - t) * _dpsi0(bm, basis)
    if t > 0.0:
        m = model._theta_fourier().gram(_pushforward_measure(model, bm))
        dm = model._theta_fourier().gram(_pushforward_measure_derivative(model, bm, basis))
        trm = np.real(np.trace(m))
        trdm = np.real(np.trace(dm, axis1=1, axis2=2))
        d = d + t * (dm - trdm[:, None, None] * (m / trm)) / trm
    return _coords(basis, d).T


def _newton_at_t(model, b, t, g, basis, tol):
    """Newton-correct psi_t(B) = G in traceless coordinates around unit trace.

    Each step solves with the analytic Jacobian ``_psi_t_jacobian`` and
    takes a damped update that keeps B positive definite and of unit trace;
    the residual of the accepted candidate carries into the next step.  A
    singular Jacobian or a stalled line search is a failed step, which the
    continuation answers by shortening its step.  Returns (B or None,
    iterations, max-norm residual).
    """

    def residual(mat):
        return _coords(basis, _psi_t(model, mat, t) - g)

    bm = b.copy()
    r = residual(bm)
    for it in range(NEWTON_MAX_ITERS + 1):
        rn = float(np.abs(r).max())
        if rn < tol:
            return bm, it, rn
        if it == NEWTON_MAX_ITERS:
            break
        try:
            dv = np.linalg.solve(_psi_t_jacobian(model, bm, t, basis), -r)
        except np.linalg.LinAlgError:
            return None, it, rn
        norm_r = np.linalg.norm(r)
        step = 1.0
        for _ in range(10):
            cand = bm + step * np.einsum("a,aij->ij", dv, basis)
            cand = 0.5 * (cand + cand.conj().T)
            if np.linalg.eigvalsh(cand).min() > 0:
                cand = cand / np.real(np.trace(cand))
                r_cand = residual(cand)
                if np.linalg.norm(r_cand) < norm_r:
                    bm, r = cand, r_cand
                    break
            step *= 0.5
        else:
            return None, it, rn
    return None, NEWTON_MAX_ITERS, rn


def solve_psi(
    model: ManifoldModel,
    g,
    steps: int = 10,
    newton_tol: float = 1e-9,
) -> Tuple[HermitianForm, ContinuationTrace]:
    """Find B with psi(B) = G by continuation from the closed-form seed.

    The seed B0 = G^{-1/2} satisfies psi0(B0) = G exactly; t then marches
    from 0 to 1 with adaptive steps (on Newton failure halve the step
    tried, which is h or 1 - t where t + h is clipped to 1; double after two
    successes; floor ``STEP_FLOOR``).  psi is scale-invariant, so G is
    first normalised by its trace, which must be positive (``ValueError``
    otherwise).  Raises ``MarginError`` when the normalised G's smallest
    eigenvalue is below ``MARGIN`` and ``ContinuationError`` carrying the
    trace when the step size underflows.  Returns B as a
    unit-trace ``HermitianForm`` with the trace; B is certified only by its
    forward residual, recorded in the trace.
    """
    gm = _as_form(g).mat
    tr = float(np.real(np.trace(gm)))
    if not tr > 0.0:
        raise ValueError(f"target trace {tr:.3e} must be positive")
    gm = gm / tr
    ev = np.linalg.eigvalsh(gm)
    if ev.min() < MARGIN:
        raise MarginError(
            f"target eigenvalue {ev.min():.3e} below margin {MARGIN:g}; "
            "too close to the simplex boundary"
        )
    n = gm.shape[0]
    basis = traceless_basis(n)
    b = sla.sqrtm(np.linalg.inv(gm))
    b = 0.5 * (b + b.conj().T)
    b = np.real_if_close(b, tol=1e6).astype(complex)
    b = b / np.real(np.trace(b))
    trace = ContinuationTrace()
    trace.log(0.0, float(np.abs(_psi_t(model, b, 0.0) - gm).max()), 0.0, 0)
    t = 0.0
    h = 1.0 / max(steps, 1)
    successes = 0
    while t < 1.0:
        t_next = min(t + h, 1.0)
        bn, iters, resid = _newton_at_t(model, b, t_next, gm, basis, newton_tol)
        if bn is None:
            successes = 0
            h = 0.5 * min(h, 1.0 - t)  # the step tried: t + h is clipped to 1
            if h < STEP_FLOOR:
                trace.log(t_next, resid, h, iters)
                raise ContinuationError(
                    f"continuation step underflow below {STEP_FLOOR:g} at t={t_next:.6f} "
                    f"(residual {resid:.3e}); target may be outside the map's range",
                    trace=trace,
                )
            continue
        b = bn
        t = t_next
        trace.log(t, resid, h, iters)
        successes += 1
        if successes >= 2:
            h = min(2.0 * h, 0.25)
    return HermitianForm(b), trace

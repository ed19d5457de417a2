"""Matrix-space pushforward maps and the continuation solver.

The scale classes of positive definite matrices map to the trace-one
positive simplex two ways: via Fubini-Study integrals over the full ambient
projective space (psi0, closed form available) and via the same integrals
restricted to the embedded curve (psi).  Their affine homotopy underlies
``solve_psi``, which realises targets constructively: balancing (Picard)
steps, then the undamped full Newton step to t = 1, and only if that is
abandoned a march in t from the closed-form seed (its docstring has the
rules).  psi(B) is proportional to hilb(fs_metric(B^{-2})) (see
``geometry``), so in H = B^{-2} the step H <- H - (psi(B) - G) is
Donaldson's balancing iteration run towards G.  Near the solution it
scales the mode of degree l by 1 - lambda_l, lambda_l the linearised
balancing spectrum of ``maps``, so it removes the lambda_l ~ 1 modes
l = 0, 1, 2 that throw an undamped Newton step from the closed-form seed
out of its basin.

Matrix conventions: forms are linear in the first index (see ``linalg``).
In this convention the ambient-space map has closed form
psi0(B) = B^{-2} / tr(B^{-2}), its linearisation loses all transposes, and
psi(B) = B^{-1} Phi(B) B^{-1} / tr(...); in the conjugate-first convention
all matrices transpose and the classical displayed formulas with B^t are
recovered verbatim.

The maps run on the ``ManifoldModel`` itself: the curve sits in P^(N-1)
through its sections s, and psi(B) = M / tr M with M = sum_q s_q s_q*
mu_B(q), mu_B the Fubini-Study volume of the moved curve B s over |B s|^2:
M is the kernel's gram of ``geometry._pushforward_measure``, mu_B / rw.
The Newton reads residuals and writes steps in the traceless coordinates
tr(E_a M) of ``linalg.HermitianCoords``, and its Jacobian
(``_psi_t_jacobian``) is ``HermitianCoords.of_map`` of one table: the map
A -> dM built from three doubled-degree Grams and two products with B.

Validation happens once per public call: every public function accepts B
as a ``HermitianForm`` or an array, checks it once in ``_checked_b``
(hermitian, positive definite, and of the model's size where a model is
given) and returns unit-trace ``HermitianForm`` values; a target G, here
and in both ``calabi`` pipelines, is checked once in ``_checked_target``.
The continuation Newton runs on raw arrays through ``_psi_t`` and
``_psi_t_jacobian``, which validate nothing; its line search tests positive
definiteness before it evaluates a candidate, so no evaluation inside the
Newton leaves the positive cone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .errors import ContinuationError, ConvergenceError, MarginError
from .geometry import ManifoldModel, _curvature_numerator, _pushforward_measure, _sized_form
from .linalg import HermitianCoords, HermitianForm, _as_form, damped_newton

MARGIN = 1e-3  # smallest admissible eigenvalue of a unit-trace target
STEP_FLOOR = 1e-6  # continuation step below which solve_psi gives up
NEWTON_MAX_ITERS = 25
CONTINUATION_STEPS = 10  # after an abandoned full step, solve_psi marches from 1 / this
CONTRACTION_MAX = 0.5  # largest |simplified correction| / |correction| the full step accepts
PSI_TOL = 1e-10  # max-norm residual at which the continuation Newton stops at t = 1
PATH_TOL = 1e-4  # the same at every t < 1, whose point need only seed the next step


def _checked_b(b, model: Optional[ManifoldModel] = None) -> np.ndarray:
    """B as an array, validated at a public entry point: hermitian, positive
    definite and, when ``model`` is given, of the model's size."""
    bm = (_as_form(b) if model is None else _sized_form(model, b)).mat
    if np.linalg.eigvalsh(bm).min() <= 0:
        raise MarginError("B must be positive definite (singular B rejected)")
    return bm


def _checked_target(model: ManifoldModel, g):
    """G as a form, G / tr G and that matrix's eigenpairs, from one ``eigh``
    once G is of the model's size, of positive trace and positive definite
    (``MarginError`` for the last two)."""
    form = _sized_form(model, g)
    tr = float(np.real(np.trace(form.mat)))
    if not tr > 0.0:
        raise MarginError(f"target trace {tr:.3e} must be positive")
    gm = form.mat / tr
    ev, vec = np.linalg.eigh(gm)
    if not ev.min() > 0.0:
        raise MarginError(f"target is not positive definite: eigenvalue {ev.min():.3e}")
    return form, gm, ev, vec


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
    if t > 0.0:
        m = model._theta_fourier().gram(_pushforward_measure(model, bm))
        if np.real(np.trace(m)) <= 0:
            raise RuntimeError("internal error: pushforward trace must be positive")
        p = _unit_trace(m)
        if t == 1.0:
            return p
    binv = np.linalg.inv(bm)
    p0 = _unit_trace(binv @ binv)
    if t == 0.0:
        return p0
    return _unit_trace(t * p + (1.0 - t) * p0)


def psi0_closed(b) -> HermitianForm:
    """Closed form of the ambient pushforward: B^{-2}/tr(B^{-2}).

    Scale-invariant: psi0(aB) = psi0(B) for a > 0.
    """
    return HermitianForm(_psi_t(None, _checked_b(b), 0.0))


def _dpsi0(bm: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """dpsi0 at the array B along each of the stacked directions A:
    - B^{-1} A P - P A B^{-1} + tr(B^{-1} A P + P A B^{-1}) P with
    P = psi0(B), hermitian and traceless, and zero exactly on the scale
    direction A = B.  Private: only ``_psi_t_jacobian`` uses it, at t < 1;
    the tests' ``TestDpsi0`` checks it and its one-dimensional kernel."""
    binv = np.linalg.inv(bm)
    p = _unit_trace(binv @ binv)
    core = binv @ dirs @ p + p @ dirs @ binv
    out = -core + np.real(np.trace(core, axis1=-2, axis2=-1))[..., None, None] * p
    return 0.5 * (out + np.swapaxes(out, -1, -2).conj())


def phi_matrix(model: ManifoldModel, b) -> HermitianForm:
    """Gram of the moved sections against the moved curve's induced
    Fubini-Study volume.

    B sends the section values s to W = B s; the measure is the volume of
    ddbar log sum_l |W_l|^2 along the curve (total mass equal to the
    embedding degree dk) and the integrand is
    W_r conj(W_s) / |W|^2.  Positive definite for nondegenerate embeddings.
    """
    bm = _checked_b(b, model)
    g = bm @ model._theta_fourier().gram(_pushforward_measure(model, bm)) @ bm
    return HermitianForm(0.5 * (g + g.conj().T))


def psi(model: ManifoldModel, b) -> HermitianForm:
    """Pushforward along the embedded curve: the normalised conjugation
    B^{-1} Phi(B) B^{-1} / tr(...); scale-invariant in B."""
    return HermitianForm(_psi_t(model, _checked_b(b, model), 1.0))


def psi_t(model: ManifoldModel, b, t: float) -> HermitianForm:
    """Affine homotopy t * psi + (1 - t) * psi0 between the two pushforwards."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    return HermitianForm(_psi_t(model, _checked_b(b, model), t))


@dataclass
class TraceRow:
    t: float
    residual: float
    step: float
    newton_iters: int


@dataclass
class ContinuationTrace:
    """The accepted continuation points (``rows``, the seed first), the
    ``seed_steps`` (balancing steps before the full step, each one psi
    evaluation and no Jacobian), and two totals over every attempt, the
    abandoned ones included: ``abandoned`` attempts and ``corrector_iters``,
    the Jacobians their correctors assembled."""

    rows: List[TraceRow] = field(default_factory=list)
    seed_steps: int = 0
    abandoned: int = 0
    corrector_iters: int = 0

    def log(self, t, residual, step, iters):
        self.rows.append(TraceRow(float(t), float(residual), float(step), int(iters)))


def _psi_t_jacobian(
    model: ManifoldModel,
    bm: np.ndarray,
    t: float,
    coords: HermitianCoords,
) -> np.ndarray:
    """Analytic Jacobian of psi_t at B, tr(E_a d psi_t(E_b)) in row a and
    column b for the elements E_a of ``coords``; its psi part is
    ``coords.of_map`` of the table of A -> dpsi(A).

    B^{-1} Phi(B) B^{-1} = M = sum_q s_q s_q* mu_B(q) with mu_B = num c,
    num = P P_zzbar - |P_z|^2, c = (1+|z|^2)^2 qw / (V P^3) and P = s* B^2 s.
    The kernel's rows are rw (P, P_z, P_zzbar), so the c formed from them
    is c / rw^3 and the forms f_p below come out divided by rw^2, as the
    doubled kernel, which carries rw^2, needs.  Along A, B^2 moves by
    D = BA + AB and d mu_B = Re(dP f_0 + 2 dP_z f_1 + dP_zzbar f_2) for the
    node forms (f_0, f_1, f_2) = ((P_zzbar - 3 num / P) c, -conj(P_z) c,
    P c).  As s_i conj(s_j) conj(s_a) s_b = z^(i+b) conj(z)^(j+a),
    dM = T vec(D) with
        T[ij, ab] = G_0[i+b, j+a] + b G_1[i+b-1, j+a]
                    + a conj(G_1[j+a-1, i+b]) + ab G_2[i+b-1, j+a-1],
    G_p the doubled-degree Gram of f_p, so column (k, l) of the table of
    A -> dM is T vec(B e_kl + e_kl B), two batched products with B.  Then
    tr M dpsi = dM - tr(dM) psi, and both endpoints of the homotopy have
    unit trace, so d psi_t = t dpsi + (1 - t) dpsi0, ``_dpsi0`` of the
    elements ``coords.basis``.
    """
    jac = 0.0 if t == 1.0 else (1.0 - t) * coords.of(_dpsi0(bm, coords.basis)).T
    if t == 0.0:
        return jac
    n, doubled = model.N, model._theta_fourier(doubled=True)
    p, pz_re, pz_im, pzz = rows = model._theta_fourier().pairings(bm @ bm)
    num = _curvature_numerator(*rows)
    c = model._volume_factor() / (p * p * p)
    m = model._theta_fourier().gram(num * c)
    # f_1 = -conj(P_z) c is complex: G_1 = G(Re f_1) + i G(Im f_1)
    g0, g1_re, g1_im, g2 = doubled.gram(np.stack([pzz - 3.0 * num / p, -pz_re, pz_im, p]) * c)
    g1 = g1_re + 1j * g1_im
    # G_0, G_1, conj(G_1)^T and G_2 shifted so that each is read at (i+b, j+a)
    shifted = np.zeros((4,) + g0.shape, dtype=complex)
    shifted[0], shifted[1, 1:], shifted[2, :, 1:] = g0, g1[:-1], g1.conj().T[:, :-1]
    shifted[3, 1:, 1:] = g2[:-1, :-1]
    # T with its columns (a, b) read as (b, a), the columns of the pair sums
    s0, s1, s2, s3 = doubled.pair_sums(shifted)
    b, a = np.divmod(np.arange(n * n), n)
    tab = (s0 + s1 * b + s2 * a + s3 * (a * b)).reshape(n * n, n, n)
    # column (k, l) of the table of A -> dM: T vec(B e_kl + e_kl B), at (b, a) = (l, k)
    dm = np.swapaxes(tab @ bm + bm @ tab, 1, 2).reshape(n * n, n * n)
    trm = np.real(np.trace(m))
    dm -= np.outer(m / trm, dm[:: n + 1].sum(axis=0))  # tr M dpsi = dM - tr(dM) psi
    return jac + (t / trm) * coords.of_map(dm)


def _newton_at_t(model, b, t, g, coords, full=False, r=None):
    """Newton-correct psi_t(B) = G in the traceless ``coords`` around unit
    trace, to a max-norm residual of at most ``PSI_TOL`` at t = 1 and
    ``PATH_TOL`` at t < 1; ``r``, when given, is the start's residual
    coordinates, which are then not evaluated again.

    ``linalg.damped_newton`` runs from B with the analytic Jacobian
    ``_psi_t_jacobian``; a candidate is hermitised, dropped unless positive
    definite and trace-normalised.  On the full step (``full``) Newton is
    undamped, and a candidate is accepted only while it passes Deuflhard's
    contraction test: its simplified correction J^{-1} F(candidate), solved
    with the Jacobian of the step, is at most ``CONTRACTION_MAX`` times the
    step.  Otherwise a line search accepts a candidate that lowers the
    residual norm or lies within the tolerance, and at t < 1 at least one
    correction is made, even from a start within ``PATH_TOL``, so that path
    points do not creep towards the tolerance.  Any ``ConvergenceError`` is
    a failed correction, which the continuation answers by shortening its
    step.  Returns (B or None, Jacobians assembled, max-norm residual).
    """
    tol = PSI_TOL if t == 1.0 else PATH_TOL
    jac = None

    def evaluate(cand):
        cand = 0.5 * (cand + cand.conj().T)
        if np.linalg.eigvalsh(cand).min() <= 0:
            return None
        cand = cand / np.real(np.trace(cand))
        return cand, coords.of(_psi_t(model, cand, t) - g)

    def direction(bm, r):
        nonlocal jac
        jac = _psi_t_jacobian(model, bm, t, coords)
        return coords.matrix(np.linalg.solve(jac, -r))

    def accept(new, old, alpha, step):
        if full:
            # the basis is orthonormal, so a step's Frobenius norm is its coordinates' norm
            simplified = np.linalg.solve(jac, new[1])
            return np.linalg.norm(simplified) <= CONTRACTION_MAX * np.linalg.norm(step)
        return np.linalg.norm(new[1]) < np.linalg.norm(old[1]) or np.abs(new[1]).max() <= tol

    if r is None:
        r = coords.of(_psi_t(model, b, t) - g)
    try:
        (bm, _), history = damped_newton(
            evaluate, direction, accept, (b, r),
            tol, NEWTON_MAX_ITERS, 1 if full else 10, "psi Newton",
            min_steps=0 if t == 1.0 else 1,
        )
    except ConvergenceError as exc:
        # a step that stalls or meets a singular Jacobian has assembled that Jacobian too
        return None, min(len(exc.history), NEWTON_MAX_ITERS), exc.history[-1]
    return bm, len(history) - 1, history[-1]


def _inverse_sqrt(ev: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """H^{-1/2} / tr(H^{-1/2}) from the eigenpairs of a positive definite H."""
    b = (vec / np.sqrt(ev)) @ vec.conj().T
    return b / np.real(np.trace(b))


def _balancing_start(model, gm, b, coords):
    """Balancing (Picard) steps towards psi(B) = G from B = G^{-1/2}, the
    start of the full step (Donaldson's iteration run towards G, see the
    module docstring).

    With H = G and B = H^{-1/2} (both unit trace) it repeats
    r = psi(B) - G, H <- herm(H - r), trace-normalised, B = H^{-1/2}.  It
    stops when H is not positive definite or when a step fails to shrink
    the residual's norm (in the traceless ``coords``) by
    ``CONTRACTION_MAX``, and then keeps the better of the last two points.
    Returns (B, its residual coordinates, steps evaluated).
    """
    h, rm = gm, _psi_t(model, b, 1.0) - gm
    r = coords.of(rm)
    steps = 0
    while True:
        h_new = _unit_trace(h - rm)
        ev, vec = np.linalg.eigh(h_new)
        if ev.min() <= 0:
            return b, r, steps
        steps += 1
        b_new = _inverse_sqrt(ev, vec)
        rm_new = _psi_t(model, b_new, 1.0) - gm
        r_new = coords.of(rm_new)
        norm, norm_new = np.linalg.norm(r), np.linalg.norm(r_new)
        if norm_new < norm:
            h, b, rm, r = h_new, b_new, rm_new, r_new
        if not norm_new < CONTRACTION_MAX * norm:
            return b, r, steps


def solve_psi(model: ManifoldModel, g) -> Tuple[HermitianForm, ContinuationTrace]:
    """Find B with psi(B) = G by continuation from the closed-form seed.

    The seed B0 = G^{-1/2} satisfies psi0(B0) = G exactly.  The first
    attempt is the full step to t = 1 (``_newton_at_t``), from where the
    balancing steps of ``_balancing_start`` leave B and with their last
    residual.  After an abandoned full step, t marches from 0 and B0 to 1
    with adaptive steps, the first 1 / ``CONTINUATION_STEPS`` (on Newton
    failure halve the step tried, which is h or 1 - t where t + h is
    clipped to 1; on every success from the second consecutive one on,
    double h, up to 1/4; floor ``STEP_FLOOR``; a step ending within
    ``STEP_FLOOR`` of 1, as a rounded sum of steps can, ends at 1).  Each
    march attempt's Newton starts at the secant predictor
    B + (t_next - t) (B - B_prev) / (t - t_prev) through the last two
    accepted points, trace-normalised, when that is positive definite, and
    at B otherwise and on the first step.  psi is scale-invariant, so G is
    first normalised by its trace.  ``_checked_target`` checks G once: a G
    of the wrong size raises ``DimensionError``, and one whose trace is not
    positive or that is not positive definite ``MarginError``.  ``MARGIN``
    is tested against the smallest eigenvalue of G / tr G in the monomial
    basis of the sections (``MarginError`` below it), and B0 comes from the
    same eigenpairs.  Raises ``ContinuationError`` carrying the trace when
    the step size underflows.  Returns B as a unit-trace ``HermitianForm``
    with the trace, which records the forward residual that alone certifies B.
    """
    _, gm, ev, vec = _checked_target(model, g)
    if ev.min() < MARGIN:
        raise MarginError(
            f"target eigenvalue {ev.min():.3e} below margin {MARGIN:g}; "
            "too close to the simplex boundary"
        )
    coords = HermitianCoords.traceless(gm.shape[0])
    b = _inverse_sqrt(ev, vec)
    trace = ContinuationTrace()
    trace.log(0.0, float(np.abs(_psi_t(model, b, 0.0) - gm).max()), 0.0, 0)
    start, r_start, trace.seed_steps = _balancing_start(model, gm, b, coords)
    t = t_prev = 0.0
    b_prev = b
    full, h = True, 1.0
    successes = 0
    while t < 1.0:
        t_next = 1.0 if t + h > 1.0 - STEP_FLOOR else t + h
        if not full:
            start, r_start = b, None
        if t > t_prev:
            pred = b + (t_next - t) / (t - t_prev) * (b - b_prev)
            if np.linalg.eigvalsh(pred).min() > 0:
                start = pred / np.real(np.trace(pred))
        bn, iters, resid = _newton_at_t(model, start, t_next, gm, coords, full, r_start)
        trace.corrector_iters += iters
        if bn is None:
            trace.abandoned += 1
            successes = 0
            if full:
                full, h = False, 1.0 / CONTINUATION_STEPS
                continue
            h = 0.5 * (1.0 - t if t_next == 1.0 else h)  # the step tried
            if h < STEP_FLOOR:
                trace.log(t_next, resid, h, iters)
                raise ContinuationError(
                    f"continuation step underflow below {STEP_FLOOR:g} at t={t_next:.6f} "
                    f"(residual {resid:.3e}); target may be outside the map's range",
                    trace=trace,
                )
            continue
        b_prev, t_prev = b, t
        b, t = bn, t_next
        trace.log(t, resid, h, iters)
        successes += 1
        if successes >= 2:
            h = min(2.0 * h, 0.25)
    return HermitianForm(b), trace

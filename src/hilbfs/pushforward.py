"""Matrix-space pushforward maps and the continuation solver.

The scale classes of positive definite matrices map to the trace-one
positive simplex two ways: via Fubini-Study integrals over the full ambient
projective space (psi0, closed form available) and via the same integrals
restricted to the embedded curve (psi).  Their affine homotopy underlies
``solve_psi``, which realises targets constructively by continuation in t.
Its first attempt is the full step to t = 1: undamped Newton from the
closed-form seed, abandoned at the first step that fails Deuflhard's
contraction test (the simplified correction, solved with the Jacobian
already assembled, must be at most ``CONTRACTION_MAX`` times the step).
Only then does t march, each step starting Newton at the secant predictor
through the last two accepted points (the previous B on the first step, or
when the predictor leaves the positive cone) and correcting in the trace
gauge, loosely to ``PATH_TOL`` at t < 1, where the point need only lie in
the next corrector's basin, and tightly to ``PSI_TOL`` at t = 1.

Matrix conventions: forms are linear in the first index (see ``linalg``).
In this convention the ambient-space map has closed form
psi0(B) = B^{-2} / tr(B^{-2}), its linearisation loses all transposes, and
psi(B) = B^{-1} Phi(B) B^{-1} / tr(...); in the conjugate-first convention
all matrices transpose and the classical displayed formulas with B^t are
recovered verbatim.

The maps run on the ``ManifoldModel`` itself: the curve sits in P^(N-1)
through its sections s, and psi(B) = M / tr M with M = sum_q s_q s_q*
mu_B(q), where mu_B is ``geometry._pushforward_measure`` (the Fubini-Study
volume of the moved curve B s divided by |B s|^2).  Its Jacobian gathers
dM along every direction from three doubled-degree Grams (``_psi_t_jacobian``).

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

from .errors import ContinuationError, ConvergenceError, DimensionError, MarginError
from .geometry import ManifoldModel, _curvature_numerator, _pushforward_measure
from .linalg import HermitianForm, damped_newton

MARGIN = 1e-3  # smallest admissible eigenvalue of a unit-trace target
STEP_FLOOR = 1e-6  # continuation step below which solve_psi gives up
NEWTON_MAX_ITERS = 25
CONTINUATION_STEPS = 10  # after an abandoned full step, solve_psi marches from 1 / this
CONTRACTION_MAX = 0.5  # largest |simplified correction| / |correction| the full step accepts
PSI_TOL = 1e-10  # max-norm residual at which the continuation Newton stops at t = 1
PATH_TOL = 1e-4  # the same at every t < 1, whose point need only seed the next step


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


def hermitian_basis(n: int) -> np.ndarray:
    """Orthonormal real basis of the hermitian matrices (n^2 elements): the
    diagonal units, then per pair i < j its real and imaginary element."""
    i, j = np.triu_indices(n, 1)
    pair = n + 2 * np.arange(len(i))
    basis = np.zeros((n + 2 * len(i), n, n), dtype=complex)
    basis[range(n), range(n), range(n)] = 1.0
    basis[pair, i, j] = basis[pair, j, i] = 1.0 / np.sqrt(2.0)
    basis[pair + 1, i, j], basis[pair + 1, j, i] = 1j / np.sqrt(2.0), -1j / np.sqrt(2.0)
    return basis


def traceless_basis(n: int) -> np.ndarray:
    """Orthonormal real basis of traceless hermitian matrices (n^2 - 1): the
    hermitian one with diag(1, ..., 1, -r, 0, ...) / sqrt(r (r + 1)), r < n."""
    basis = hermitian_basis(n)[1:]
    r, c = np.arange(n - 1)[:, None], np.arange(n)
    scale = 1.0 / np.sqrt((r + 1) * (r + 2))
    basis[r, c, c] = np.where(c <= r, scale, np.where(c == r + 1, -(r + 1) * scale, 0.0))
    return basis


def _coords_table(basis: np.ndarray) -> np.ndarray:
    """The real (2 n^2, len(basis)) table that ``_coords`` applies: column a
    holds Re and -Im of vec(E_a^T), interleaved."""
    n2 = basis.shape[-1] ** 2
    et = basis.transpose(0, 2, 1).reshape(len(basis), n2)
    return np.stack([et.real, -et.imag], axis=-1).reshape(len(basis), -1).T


def _coords(table: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Real coordinates tr(E_a M) of (stacked) hermitian M in the basis of
    ``table`` (``_coords_table``): Re vec(E_a^T) . vec(M), one real matmul
    over the flattened entries."""
    n2 = table.shape[0] // 2
    flat = np.ascontiguousarray(m, dtype=complex).reshape(m.shape[:-2] + (n2,))
    return flat.view(float) @ table


def phi_matrix(model: ManifoldModel, b) -> HermitianForm:
    """Gram of the moved sections against the moved curve's induced
    Fubini-Study volume.

    B sends the section values s to W = B s; the measure is the volume of
    ddbar log sum_l |W_l|^2 along the curve (total mass equal to the
    embedding degree dk) and the integrand is
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
    """The accepted continuation points (``rows``, the seed first), and two
    totals over every attempt, the abandoned ones included: ``abandoned``
    attempts and ``corrector_iters``, the Jacobians their correctors
    assembled."""

    rows: List[TraceRow] = field(default_factory=list)
    abandoned: int = 0
    corrector_iters: int = 0

    def log(self, t, residual, step, iters):
        self.rows.append(TraceRow(float(t), float(residual), float(step), int(iters)))

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("t,residual,step,newton_iters\n")
            for r in self.rows:
                fh.write(f"{r.t!r},{r.residual!r},{r.step!r},{r.newton_iters}\n")


def _psi_t_jacobian(
    model: ManifoldModel,
    bm: np.ndarray,
    t: float,
    basis: np.ndarray,
    table: np.ndarray,
) -> np.ndarray:
    """Analytic Jacobian of psi_t at B in the coordinates of ``basis``, whose
    ``_coords_table`` is ``table``.

    Column b is the derivative along basis[b] and row a its coordinate
    tr(E_a . ).  B^{-1} Phi(B) B^{-1} = M = sum_q s_q s_q* mu_B(q) with
    mu_B = num c, num = P P_zzbar - |P_z|^2, c = (1+|z|^2)^2 qw / (V P^3)
    and P = s* B^2 s.  Along A, B^2 moves by D = BA + AB and d mu_B =
    Re(dP f_0 + 2 dP_z f_1 + dP_zzbar f_2) for the node forms
    (f_0, f_1, f_2) = ((P_zzbar - 3 num / P) c, -conj(P_z) c, P c).  As
    s_i conj(s_j) conj(s_a) s_b = z^(i+b) conj(z)^(j+a), dM = T vec(D) with
        T[ij, ab] = G_0[i+b, j+a] + b G_1[i+b-1, j+a]
                    + a conj(G_1[j+a-1, i+b]) + ab G_2[i+b-1, j+a-1],
    G_p the doubled-degree Gram of f_p / ref_weight^2.  dpsi = dM / tr M -
    tr(dM) psi / tr M; both endpoints of the homotopy have unit trace, so
    d psi_t = t dpsi + (1 - t) dpsi0.
    """
    jac = 0.0 if t == 1.0 else (1.0 - t) * _coords(table, _dpsi0(bm, basis))
    if t == 0.0:
        return jac.T
    n, doubled = model.N, model._theta_fourier(doubled=True)
    p, pz, pzz = model._theta_fourier().pairings(bm @ bm)
    p, pzz = p.real, pzz.real
    num = _curvature_numerator(p, pz, pzz)
    c = model._volume_factor() / (p * p * p)
    m = model._theta_fourier().gram(num * c)
    g0, g1, g2 = doubled.gram(np.stack([pzz - 3.0 * num / p, -pz.conj(), p]) * c
                              / model.ref_weight**2)
    # G_0, G_1, conj(G_1)^T and G_2 shifted so that each is read at (i+b, j+a)
    shifted = np.zeros((4,) + g0.shape, dtype=complex)
    shifted[0], shifted[1, 1:], shifted[2, :, 1:] = g0, g1[:-1], g1.conj().T[:, :-1]
    shifted[3, 1:, 1:] = g2[:-1, :-1]
    b, a = np.divmod(np.arange(n * n), n)  # column (b, a) of the pair sums
    tab = np.einsum("pkl,pl->kl", doubled.pair_sums(shifted), [a**0, b, a, a * b])
    # T vec(D) = tab vec(D^T), and D^T = conj(D) for hermitian D
    dm = (bm @ basis + basis @ bm).conj().reshape(len(basis), n * n) @ tab.T
    trm = np.real(np.trace(m))
    trdm = np.real(dm[:, :: n + 1].sum(axis=1))
    dpsi = (_coords(table, dm.reshape(-1, n, n)) - np.outer(trdm, _coords(table, m)) / trm) / trm
    return (jac + t * dpsi).T


def _newton_at_t(model, b, t, g, basis, table, full=False):
    """Newton-correct psi_t(B) = G in traceless coordinates around unit
    trace, to a max-norm residual of at most ``PSI_TOL`` at t = 1 and
    ``PATH_TOL`` at t < 1; ``table`` is the basis's ``_coords_table``.

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
        return cand, _coords(table, _psi_t(model, cand, t) - g)

    def direction(bm, r):
        nonlocal jac
        jac = _psi_t_jacobian(model, bm, t, basis, table)
        return np.einsum("a,aij->ij", np.linalg.solve(jac, -r), basis)

    def accept(new, old, alpha, step):
        if full:
            # the basis is orthonormal, so a step's Frobenius norm is its coordinates' norm
            simplified = np.linalg.solve(jac, new[1])
            return np.linalg.norm(simplified) <= CONTRACTION_MAX * np.linalg.norm(step)
        return np.linalg.norm(new[1]) < np.linalg.norm(old[1]) or np.abs(new[1]).max() <= tol

    try:
        (bm, _), history = damped_newton(
            evaluate, direction, accept, (b, _coords(table, _psi_t(model, b, t) - g)),
            tol, NEWTON_MAX_ITERS, 1 if full else 10, "psi Newton",
            min_steps=0 if t == 1.0 else 1,
        )
    except ConvergenceError as exc:
        # a step that stalls or meets a singular Jacobian has assembled that Jacobian too
        return None, min(len(exc.history), NEWTON_MAX_ITERS), exc.history[-1]
    return bm, len(history) - 1, history[-1]


def solve_psi(model: ManifoldModel, g) -> Tuple[HermitianForm, ContinuationTrace]:
    """Find B with psi(B) = G by continuation from the closed-form seed.

    The seed B0 = G^{-1/2} satisfies psi0(B0) = G exactly.  The first
    attempt is the full step to t = 1: undamped Newton from B0, abandoned
    at the first step that fails the contraction test of ``_newton_at_t``,
    which costs no Jacobian beyond the step's own.  After an abandoned full
    step, t marches from 0 to 1 with adaptive steps, the first
    1 / ``CONTINUATION_STEPS`` (on Newton failure halve the step tried,
    which is h or 1 - t where t + h is clipped to 1; on every success from
    the second consecutive one on, double h, up to 1/4; floor
    ``STEP_FLOOR``; a step ending within ``STEP_FLOOR`` of 1, as a rounded
    sum of steps can, ends at 1).  Each march attempt's Newton starts at
    the secant predictor B + (t_next - t) (B - B_prev) / (t - t_prev)
    through the last two accepted points, trace-normalised, when that is
    positive definite, and at B otherwise and on the first step.  It stops
    at the max-norm residual ``PATH_TOL`` at t < 1 and ``PSI_TOL`` at
    t = 1.  psi is scale-invariant, so G is first normalised by its trace,
    which must be positive (``ValueError`` otherwise).  Raises
    ``MarginError`` when the normalised G's smallest eigenvalue is below
    ``MARGIN`` and ``ContinuationError`` carrying the trace when the step
    size underflows.  Returns B as a unit-trace ``HermitianForm`` with the
    trace, which records the forward residual that alone certifies B.
    """
    gm = _as_form(g).mat
    tr = float(np.real(np.trace(gm)))
    if not tr > 0.0:
        raise ValueError(f"target trace {tr:.3e} must be positive")
    gm = gm / tr
    ev, vec = np.linalg.eigh(gm)
    if ev.min() < MARGIN:
        raise MarginError(
            f"target eigenvalue {ev.min():.3e} below margin {MARGIN:g}; "
            "too close to the simplex boundary"
        )
    n = gm.shape[0]
    basis = traceless_basis(n)
    table = _coords_table(basis)
    b = (vec / np.sqrt(ev)) @ vec.conj().T
    b = b / np.real(np.trace(b))
    trace = ContinuationTrace()
    trace.log(0.0, float(np.abs(_psi_t(model, b, 0.0) - gm).max()), 0.0, 0)
    t = t_prev = 0.0
    b_prev = b
    full, h = True, 1.0
    successes = 0
    while t < 1.0:
        t_next = 1.0 if t + h > 1.0 - STEP_FLOOR else t + h
        start = b
        if t > t_prev:
            pred = b + (t_next - t) / (t - t_prev) * (b - b_prev)
            if np.linalg.eigvalsh(pred).min() > 0:
                start = pred / np.real(np.trace(pred))
        bn, iters, resid = _newton_at_t(model, start, t_next, gm, basis, table, full)
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

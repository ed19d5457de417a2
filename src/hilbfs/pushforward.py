"""Matrix-space pushforward maps and the continuation solver.

The scale classes of positive definite matrices map to the trace-one
positive simplex two ways: via Fubini-Study integrals over the full ambient
projective space (psi0, closed form available) and via the same integrals
restricted to the embedded curve (psi).  Their affine homotopy underlies
``solve_psi``, which realises targets constructively: balancing (Picard)
steps, then the undamped full Newton step to t = 1, and only if that is
abandoned a march in t from the closed-form seed (its docstring has the
rules).  psi reads B only through A = B^2, whose pairing s* A s the kernel
synthesises, so the solver's unknown is A.  psi is proportional to
hilb(fs_metric(A^{-1})) (see ``geometry``), so in H = A^{-1} the step
H <- H - (psi - G) is Donaldson's balancing iteration run towards G.  Near
the solution it scales the mode of degree l by 1 - lambda_l, lambda_l the
linearised balancing spectrum of ``maps``, so it removes the lambda_l ~ 1
modes l = 0, 1, 2 that throw an undamped Newton step from the closed-form
seed out of its basin.

Matrix conventions: forms are linear in the first index (see ``linalg``).
In this convention the ambient-space map has closed form
psi0(B) = A^{-1} / tr(A^{-1}), its linearisation loses all transposes, and
psi(B) = B^{-1} Phi(B) B^{-1} / tr(...); in the conjugate-first convention
all matrices transpose and the classical displayed formulas with B^t are
recovered verbatim.

The maps run on the ``ManifoldModel`` itself: the curve sits in P^(N-1)
through its sections s, and psi(B) = M / tr M with M = sum_q s_q s_q*
mu_B(q), mu_B the Fubini-Study volume of the moved curve B s over |B s|^2:
one synthesis of A, ``geometry._bergman_synthesis`` (the one that hilb of
a Bergman metric reads), gives mu_B / rw, and ``_synthesis`` adds M; a
Newton point carries both, so its Jacobian synthesises nothing.  The
Newton reads residuals and writes steps in the hermitian coordinates
tr(E_a M) of ``linalg.HermitianCoords``, and its Jacobian in A
(``_psi_t_jacobian``) is read in those coordinates from the doubled
kernel's cells (``_jacobian_cells``), with dpsi0's closed-form table at
t < 1.  psi is scale-invariant and its values have unit trace, so that
Jacobian has the scale direction A in its kernel and only values of zero
trace; the Newton borders it with the trace direction (``_newton_at_t``).

Validation happens once per public call: every public function accepts B
as a ``HermitianForm`` or an array, checks and squares it once in
``_checked_b`` (hermitian, positive definite, and of the model's size where
a model is given) and returns unit-trace ``HermitianForm`` values; a target
G, here and in both ``calabi`` pipelines, is checked once in
``_checked_target``.  The continuation Newton runs on raw arrays A through
``_psi_t`` and ``_psi_t_jacobian``, which validate nothing; its line search
tests positive definiteness before it evaluates a candidate, so no
evaluation inside the Newton leaves the positive cone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sparse

from .errors import ContinuationError, ConvergenceError, MarginError
from .geometry import ManifoldModel, _bergman_synthesis, _cell_index, _sized_form
from .linalg import (COORDS_KEPT, HermitianCoords, HermitianForm, _as_form,
                     _inverse_of_factor, damped_newton)

MARGIN = 1e-3  # smallest admissible eigenvalue of a unit-trace target
STEP_FLOOR = 1e-6  # continuation step below which solve_psi gives up
NEWTON_MAX_ITERS = 25
CONTINUATION_STEPS = 10  # after an abandoned full step, solve_psi marches from 1 / this
CONTRACTION_MAX = 0.5  # largest |simplified correction| / |correction| the full step accepts
PSI_TOL = 1e-10  # max-norm residual at which the continuation Newton stops at t = 1
PATH_TOL = 1e-4  # the same at every t < 1, whose point need only seed the next step
ROW_BLOCK = 4096  # most Jacobian rows that ``_jacobian_cells`` builds at a time


def _checked_b(b, model: Optional[ManifoldModel] = None):
    """B and A = B^2 as arrays, B validated at a public entry point:
    hermitian, positive definite and, when ``model`` is given, of the
    model's size."""
    bm = (_as_form(b) if model is None else _sized_form(model, b)).mat
    if np.linalg.eigvalsh(bm).min() <= 0:
        raise MarginError("B must be positive definite (singular B rejected)")
    return bm, bm @ bm


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


def _synthesis(model: ManifoldModel, a: np.ndarray, known=None):
    """(M, rows, num, c): A's ``geometry._bergman_synthesis`` (rows, num,
    c) and M, the gram of num c = mu_B / rw.  mu_B, the curvature of log P
    over P, is the Fubini-Study volume of the moved curve W = B s over
    |W|^2, so M = B^{-1} Phi(B) B^{-1}.  ``known``, a list [form, its
    synthesis], supplies it when that form is A.
    """
    if known is not None and known[0] is a:
        return known[1]
    rows, num, c = _bergman_synthesis(model, a)
    return model._theta_fourier().gram(num * c), rows, num, c


def _psi_t(model: Optional[ManifoldModel], a: np.ndarray, t: float, syn=None) -> np.ndarray:
    """psi_t at A = B^2, a positive definite array, without validation.

    psi0 is A^{-1} / tr A^{-1}; for t > 0, psi comes from the M of A's
    ``_synthesis``, ``syn`` when given.  ``model`` is unused at t = 0.  The
    caller has checked A: ``_checked_b`` at a public entry point, the line
    search inside the continuation Newton.
    """
    if t > 0.0:
        m = (_synthesis(model, a) if syn is None else syn)[0]
        if np.real(np.trace(m)) <= 0:
            raise RuntimeError("internal error: pushforward trace must be positive")
        p = _unit_trace(m)
        if t == 1.0:
            return p
    p0 = _unit_trace(np.linalg.inv(a))
    if t == 0.0:
        return p0
    return _unit_trace(t * p + (1.0 - t) * p0)


def psi0_closed(b) -> HermitianForm:
    """Closed form of the ambient pushforward: B^{-2}/tr(B^{-2}).

    Scale-invariant: psi0(aB) = psi0(B) for a > 0.
    """
    return HermitianForm(_psi_t(None, _checked_b(b)[1], 0.0))


def _dpsi0_table(a: np.ndarray) -> np.ndarray:
    """The table of dpsi0 at the form A, vec(dpsi0(X)) = table @ vec(X)
    with vec row-major.  With tau = tr A^{-1} and P = psi0 = A^{-1} / tau,
    dpsi0(X) = tau (tr(P^2 X) P - P X P), so the table is
    tau (vec(P) vec((P^2)^T)^T - kron(P, P^T)), written in the hermitian P
    alone, which keeps its values hermitian to rounding.  On a hermitian X
    the value is hermitian of zero trace, and zero exactly on the scale
    direction X = A.  Private: only ``_psi_t_jacobian`` uses it, at t < 1;
    the tests' ``TestDpsi0`` checks it and its one-dimensional kernel."""
    ainv = np.linalg.inv(a)
    p = _unit_trace(ainv)
    table = np.outer(p, (p @ p).T)
    table -= np.kron(p, p.T)
    table *= np.real(np.trace(ainv))
    return table


def phi_matrix(model: ManifoldModel, b) -> HermitianForm:
    """Gram of the moved sections against the moved curve's induced
    Fubini-Study volume.

    B sends the section values s to W = B s; the measure is the volume of
    ddbar log sum_l |W_l|^2 along the curve (total mass equal to the
    embedding degree dk) and the integrand is
    W_r conj(W_s) / |W|^2.  Positive definite for nondegenerate embeddings.
    """
    bm, a = _checked_b(b, model)
    g = bm @ _synthesis(model, a)[0] @ bm
    return HermitianForm(0.5 * (g + g.conj().T))


def psi(model: ManifoldModel, b) -> HermitianForm:
    """Pushforward along the embedded curve: the normalised conjugation
    B^{-1} Phi(B) B^{-1} / tr(...); scale-invariant in B."""
    return HermitianForm(_psi_t(model, _checked_b(b, model)[1], 1.0))


def psi_t(model: ManifoldModel, b, t: float) -> HermitianForm:
    """Affine homotopy t * psi + (1 - t) * psi0 between the two pushforwards."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    return HermitianForm(_psi_t(model, _checked_b(b, model)[1], t))


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
    the Jacobians their correctors assembled.  A solve that reaches t = 1
    leaves its A = B^2 in ``a`` and the M of A's synthesis in ``m``."""

    rows: List[TraceRow] = field(default_factory=list)
    seed_steps: int = 0
    abandoned: int = 0
    corrector_iters: int = 0
    a: Optional[np.ndarray] = None
    m: Optional[np.ndarray] = None

    def log(self, t, residual, step, iters):
        self.rows.append(TraceRow(float(t), float(residual), float(step), int(iters)))


@functools.lru_cache(maxsize=COORDS_KEPT)
def _jacobian_cells(n: int) -> sparse.csr_array:
    """The CSR operator from the doubled kernel's cells of the stacked weights
    (P, Re P_z, Im P_z, P_zzbar - 3 num / P) c = (f_2, -Re f_1, Im f_1, f_0)
    to tr(E_a dM(E_b)) in row a n^2 + b, E_a the elements of
    ``HermitianCoords.full(n)``; built from its slot tables, ``ROW_BLOCK`` rows
    at most at a time, and kept read-only for ``COORDS_KEPT`` sizes.  Slots
    (i, j), v of E_a and (k, l), v' of E_b add Re(conj(v) v' W_p G_p[X, Y]),
    (W_p, X, Y) = (1, i + l, j + k), (2l, i + l - 1, j + k), (kl, i + l - 1,
    j + k - 1), and a Gram float is signed cells, G[X, Y] = C[X + Y, |X - Y|]
    + i sgn(X - Y) S[X + Y, |X - Y|], G_1 = G(Re f_1) + i G(Im f_1).  Of a
    row's 16 terms those reading one cell are merged, zero ones dropped."""
    coords = HermitianCoords.full(n)
    size, dn = len(coords), 2 * n - 1
    block, stride = (2 * dn - 1) * (2 * dn + 1), 2 * dn + 1  # one weight's cells, one power's
    row, col = np.divmod(coords._index.reshape(2, -1).astype(np.int32), n)
    v = coords._weight.reshape(2, -1)
    # slots (i, j) of E_a on axes (slot, 1, a, 1), (k, l) of E_b on (1, slot, 1, b)
    vi, ij_sum, ij_dif = (x[:, None, :, None] for x in (v, row + col, row - col))
    vk, kl_sum, lk_dif, k, l = (x[:, None] for x in (v.conj(), row + col - 2, col - row, row, col))
    data, indices = np.empty(12 * size**2), np.empty(12 * size**2, np.int32)  # 12 a row at most
    indptr = np.zeros(size**2 + 1, np.int32)
    step = -(-size // -(-size * size // ROW_BLOCK))  # ceilings: the fewest equal blocks
    for first in range(0, size, step):
        a = slice(first, first + step)
        coef = vi[:, :, a] * vk
        # Re(c g) is c Re g for a real c and -Im c Im g for an imaginary one
        imag = (coef.real == 0).astype(np.int32)
        coef = coef.real - coef.imag
        power, mode = ij_sum[:, :, a] + kl_sum, ij_dif[:, :, a] + lk_dif  # G_2's X + Y, X - Y
        tables = np.empty((coef[0, 0].size, 16), np.int32), np.empty((coef[0, 0].size, 16))
        cells, coefs = (t.reshape(-1, size, 4, 2, 2).transpose(2, 3, 4, 0, 1) for t in tables)
        # G_0 and G_2 read the cos cell for a real c and the signed sin cell otherwise
        cells[3] = _cell_index(dn, power, mode, imag)
        np.add(cells[3], 2 * stride + 3 * block, out=cells[0])
        np.multiply(coef, np.where(imag, np.sign(mode), 1), out=coefs[0])
        np.multiply(coefs[0], k * l, out=coefs[3])
        # G_1 reads the cos cell of row 1 (real c) or 2 and the sin cell of the other
        cells[1] = _cell_index(dn, power + 1, mode - 1, 0) + (1 + imag) * block
        np.add(cells[1], (1 - 2 * imag) * block + dn, out=cells[2])
        coef *= 2 * l
        np.multiply(coef, 2 * imag - 1, out=coefs[1])
        np.multiply(coef, -np.sign(mode - 1), out=coefs[2])
        part = sparse.csr_array((tables[1].ravel(), tables[0].ravel(), np.arange(
            0, tables[0].size + 1, 16, dtype=np.int32)), shape=(len(tables[0]), 4 * block))
        part.sum_duplicates()
        part.eliminate_zeros()
        nnz = indptr[first * size]
        indptr[first * size + 1:(first + step) * size + 1] = nnz + part.indptr[1:]
        data[nnz:nnz + part.nnz], indices[nnz:nnz + part.nnz] = part.data, part.indices
    for array in (data, indices):  # shrunk in place to the merged entries: no view exists
        array.resize(indptr[-1], refcheck=False)
    op = sparse.csr_array((data, indices, indptr), shape=(size * size, 4 * block))
    for array in (op.data, op.indices, op.indptr):
        array.setflags(write=False)
    return op


def _psi_t_jacobian(
    model: ManifoldModel, a: np.ndarray, t: float, coords: HermitianCoords, syn=None
) -> np.ndarray:
    """Analytic Jacobian of psi_t at the form A = B^2, tr(E_a d psi_t(E_b))
    in row a and column b for the elements E_a of ``coords``.

    It reads A's ``_synthesis``, ``syn`` when given: M = sum_q s_q s_q* mu_B(q)
    with mu_B = num c from ``geometry._bergman_synthesis``, whose rows,
    num and c carry rw, rw^2 and 1/rw^3, so the forms f_p below come out
    divided by rw^2, as the doubled kernel, which carries rw^2, needs.
    Along X, A moves by X and
    d mu_B = Re(dP f_0 + 2 dP_z f_1 + dP_zzbar f_2) for the node forms
    (f_0, f_1, f_2) = ((P_zzbar - 3 num / P) c, -conj(P_z) c, P c).  As
    s_i conj(s_j) conj(s_a) s_b = z^(i+b) conj(z)^(j+a), dM = T vec(X) with
        T[ij, ab] = G_0[i+b, j+a] + b G_1[i+b-1, j+a]
                    + a conj(G_1[j+a-1, i+b]) + ab G_2[i+b-1, j+a-1],
    G_p the doubled-degree Gram of f_p.  In coordinates the third term sums
    as the second: (i, j, a, b) -> (j, i, b, a) permutes the nonzero entries
    of the hermitian E_a and E_b, conjugating conj(E_a[i, j]) E_b[a, b].  So
    tr(E_a dM(E_b)) weights G_0, G_1 and G_2, shifted by one row (and
    column), by (1, 2b, ab): ``_jacobian_cells`` on the f_p's cells.  Then
    tr M dpsi = dM - tr(dM) psi, and both endpoints of the homotopy have unit
    trace, so d psi_t is (t / tr M) (dM - tr(dM) psi) + (1 - t) dpsi0
    (``_dpsi0_table``), dpsi0 alone at t = 0.
    """
    if t == 0.0:
        return coords.of_map(_dpsi0_table(a))
    m, rows, num, c = _synthesis(model, a) if syn is None else syn
    # (P, Re P_z, Im P_z, P_zzbar - 3 num / P) c: f_2, -Re f_1, Im f_1 and f_0
    weights = rows * c
    np.multiply(rows[3] - 3.0 * num / rows[0], c, out=weights[3])
    cells = model._theta_fourier(doubled=True).analysis(weights)
    jac = (_jacobian_cells(model.N) @ cells.reshape(-1)).reshape(len(coords), len(coords))
    trm = np.real(np.trace(m))
    # tr M dpsi = dM - tr(dM) psi; the first N coordinates are the diagonal's
    jac -= np.outer(coords.of(m / trm), jac[:model.N].sum(axis=0))
    jac *= t / trm
    if t < 1.0:
        jac += (1.0 - t) * coords.of_map(_dpsi0_table(a))
    return jac


def _newton_at_t(model, a, t, g, coords, full=False, known=None):
    """Newton-correct psi_t(A) = G in the hermitian ``coords`` around unit
    trace, to a max-norm residual of at most ``PSI_TOL`` at t = 1 and
    ``PATH_TOL`` at t < 1, the max-norm taken over those coordinates;
    ``known`` (see ``_synthesis``) may hold the start's synthesis, and
    success leaves there the A returned and its synthesis.

    ``linalg.damped_newton`` runs from the form A with the analytic
    Jacobian J of ``_psi_t_jacobian``, bordered with the trace direction:
    the step solves (J + u u^T) dx = -r, u the coordinates of I / sqrt(N),
    and J + u u^T is LU-factored once per step (a singular one is
    degenerate).  J A = 0 and every value of J has zero trace (u^T J = 0),
    so the bordered matrix is regular when A spans J's kernel; a residual r
    has zero trace, so u^T dx = -u^T r = 0 and dx is the zero-trace step
    with J dx = -r.  A candidate is hermitised, dropped unless ``zpotrf``
    factors it (it is positive definite), and trace-normalised; its point
    carries the synthesis that its residual and Jacobian read.  On the full step
    (``full``) Newton is undamped, and a candidate is accepted only while
    it passes Deuflhard's contraction test: its simplified correction, the
    zero-trace solution of J x = F(candidate) from the step's LU factors,
    is at most ``CONTRACTION_MAX`` times the step.  Otherwise a line search
    accepts a candidate that lowers the residual norm or lies within the
    tolerance, and at t < 1 at least one correction is made, even from a
    start within ``PATH_TOL``, so that path points do not creep towards the
    tolerance.  Any ``ConvergenceError`` is a failed correction, which the
    continuation answers by shortening its step.  Returns (A or None,
    Jacobians assembled, max-norm residual).
    """
    tol = PSI_TOL if t == 1.0 else PATH_TOL
    n, lu = coords.n, None

    def point(am, syn):
        return am, coords.of(_psi_t(model, am, t, syn) - g), syn

    def evaluate(cand):
        cand = 0.5 * (cand + cand.conj().T)
        if sla.lapack.zpotrf(cand, lower=True)[1] > 0:
            return None
        cand = cand / np.real(np.trace(cand))
        return point(cand, _synthesis(model, cand))

    def direction(am, r, syn):
        nonlocal lu
        jac = _psi_t_jacobian(model, am, t, coords, syn)
        jac[:n, :n] += 1.0 / n  # the border u u^T
        *lu, info = sla.lapack.dgetrf(jac)
        if info > 0:
            raise np.linalg.LinAlgError(f"psi Jacobian singular (pivot {info})")
        return coords.matrix(sla.lapack.dgetrs(*lu, -r)[0])

    def accept(new, old, alpha, step):
        if full:
            # the basis is orthonormal, so a step's Frobenius norm is its coordinates' norm
            simplified = sla.lapack.dgetrs(*lu, new[1])[0]
            return np.linalg.norm(simplified) <= CONTRACTION_MAX * np.linalg.norm(step)
        return np.linalg.norm(new[1]) < np.linalg.norm(old[1]) or np.abs(new[1]).max() <= tol

    try:
        (am, _, syn), history = damped_newton(
            evaluate, direction, accept, point(a, _synthesis(model, a, known)),
            tol, NEWTON_MAX_ITERS, 1 if full else 10, "psi Newton",
            min_steps=0 if t == 1.0 else 1,
        )
    except ConvergenceError as exc:
        # a step that stalls or meets a singular Jacobian has assembled that Jacobian too
        return None, min(len(exc.history), NEWTON_MAX_ITERS), exc.history[-1]
    if known is not None:
        known[:] = am, syn
    return am, len(history) - 1, history[-1]


def _power(ev: np.ndarray, vec: np.ndarray, p: float) -> np.ndarray:
    """H^p / tr(H^p) from the eigenpairs of a positive definite H."""
    m = (vec * ev**p) @ vec.conj().T
    return m / np.real(np.trace(m))


def _balancing_start(model, gm, a, coords, known):
    """Balancing (Picard) steps towards psi(A) = G from A = G^{-1}, the
    start of the full step (Donaldson's iteration run towards G, see the
    module docstring).

    With H = G and A = H^{-1} (both unit trace) it repeats
    r = psi(A) - G, H <- herm(H - r), trace-normalised, A = H^{-1} by
    ``zpotrf`` and ``zpotri``.  It stops when H is not positive definite or a
    step fails to shrink the residual's Frobenius norm, the norm of its
    ``coords``, by ``CONTRACTION_MAX``, keeping the better of the last two
    points.  Returns (A, steps evaluated), A and its synthesis in ``known``.
    """
    syn = _synthesis(model, a)
    h, rm = gm, _psi_t(model, a, 1.0, syn) - gm
    r = coords.of(rm)
    steps = 0
    while True:
        h_new = _unit_trace(h - rm)
        factor, info = sla.lapack.zpotrf(h_new, lower=True, clean=True)
        if info > 0:
            break
        steps += 1
        a_new = np.divide(*_inverse_of_factor(factor))  # H^{-1} / tr H^{-1}
        syn_new = _synthesis(model, a_new)
        rm_new = _psi_t(model, a_new, 1.0, syn_new) - gm
        r_new = coords.of(rm_new)
        norm, norm_new = np.linalg.norm(r), np.linalg.norm(r_new)
        if norm_new < norm:
            h, a, rm, r, syn = h_new, a_new, rm_new, r_new, syn_new
        if not norm_new < CONTRACTION_MAX * norm:
            break
    known[:] = a, syn
    return a, steps


def solve_psi(model: ManifoldModel, g) -> Tuple[HermitianForm, ContinuationTrace]:
    """Find B with psi(B) = G by continuation from the closed-form seed.

    It solves for A = B^2 from the seed A0 = G^{-1} / tr G^{-1}, which
    satisfies psi0(A0) = G exactly.  The first attempt is the full step to
    t = 1 (``_newton_at_t``), from where the balancing steps of
    ``_balancing_start`` leave A.  After an
    abandoned full step, t marches from 0 and A0 to 1 with adaptive steps,
    the first 1 / ``CONTINUATION_STEPS`` (on Newton failure halve the step
    tried, which is h or 1 - t where t + h is clipped to 1; on every success
    from the second consecutive one on, double h, up to 1/4; floor
    ``STEP_FLOOR``; a step ending within ``STEP_FLOOR`` of 1, as a rounded
    sum of steps can, ends at 1).  Each march attempt's Newton starts at the
    secant predictor A + (t_next - t) (A - A_prev) / (t - t_prev) through
    the last two accepted points, trace-normalised, when that is positive
    definite, and at A otherwise and on the first step.  psi is
    scale-invariant, so G is first normalised by its trace.
    ``_checked_target`` checks G once: a G of the wrong size raises
    ``DimensionError``, and one whose trace is not positive or that is not
    positive definite ``MarginError``.  ``MARGIN`` is tested against the
    smallest eigenvalue of G / tr G in the monomial basis of the sections
    (``MarginError`` below it), and A0 comes from the same eigenpairs.
    Raises ``ContinuationError`` carrying the trace when the step size
    underflows.  Returns B = A^{1/2} as a unit-trace ``HermitianForm`` and
    the trace, whose forward residual alone certifies B.
    """
    _, gm, ev, vec = _checked_target(model, g)
    if ev.min() < MARGIN:
        raise MarginError(
            f"target eigenvalue {ev.min():.3e} below margin {MARGIN:g}; "
            "too close to the simplex boundary"
        )
    coords = HermitianCoords.full(gm.shape[0])
    a = _power(ev, vec, -1.0)
    trace = ContinuationTrace()
    trace.log(0.0, float(np.abs(_psi_t(model, a, 0.0) - gm).max()), 0.0, 0)
    known = [None, None]
    start, trace.seed_steps = _balancing_start(model, gm, a, coords, known)
    t = t_prev = 0.0
    a_prev = a
    full, h = True, 1.0
    successes = 0
    while t < 1.0:
        t_next = 1.0 if t + h > 1.0 - STEP_FLOOR else t + h
        if not full:
            start = a
        if t > t_prev:
            pred = a + (t_next - t) / (t - t_prev) * (a - a_prev)
            if sla.lapack.zpotrf(pred, lower=True)[1] == 0:
                start = pred / np.real(np.trace(pred))
        an, iters, resid = _newton_at_t(model, start, t_next, gm, coords, full, known)
        trace.corrector_iters += iters
        if an is None:
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
        a_prev, t_prev = a, t
        a, t = an, t_next
        trace.log(t, resid, h, iters)
        successes += 1
        if successes >= 2:
            h = min(2.0 * h, 0.25)
    trace.a, trace.m = a, _synthesis(model, a, known)[0]
    return HermitianForm(_power(*np.linalg.eigh(a), 0.5)), trace

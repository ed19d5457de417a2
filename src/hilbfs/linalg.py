"""Hermitian matrix primitives: norms, Cholesky, basis transforms, real
coordinates (``HermitianCoords``), JSON I/O, and ``damped_newton``, the one
damped-Newton loop that the moment, psi and Monge-Ampere solvers share;
each caller keeps its own mathematics and its own test for accepting a step.

Conventions used throughout the package: a hermitian form G on the section
space is stored via its matrix G[i, j] = <s_i, s_j>, linear in the first
index and conjugate-linear in the second, so a basis change s_i -> sum_j
A[i, j] s_j transforms G into A @ G @ A*.  The real coordinates of a
hermitian M in an orthonormal real basis E_a of all hermitian matrices
(tr(E_a E_b) = delta_ab) are x_a = tr(E_a M), and M = sum_a x_a E_a; both
surjectivity Newtons read and write hermitian matrices in these
coordinates and read their Jacobians from the doubled kernel's cells
through this basis's slot tables: psi's by a sparse operator
(``pushforward._jacobian_cells``), the moment Newton's by two gathers
(``calabi._full_gram_cells``).  psi is scale-invariant with unit-trace
values, and its Newton borders its Jacobian with the trace direction
instead of changing coordinates (``pushforward._newton_at_t``).
"""

from __future__ import annotations

import functools
import json
import warnings
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional

import numpy as np
import scipy.linalg as sla

from .errors import (
    ConvergenceError,
    DefinitenessError,
    DimensionError,
    HermitianDefectError,
    IllConditionedWarning,
)

HERMITICITY_TOL = 1e-12
COND_GUARD = 1e8
# sizes n whose ``HermitianCoords.full`` instance and the cell tables built on
# it (``pushforward._jacobian_cells``, ``calabi._full_gram_cells``) stay
# shared: enough for the three sizes of a benchmark ladder, while the k = 32
# psi operator (158.9 MB) does not outlive the next few sizes
COORDS_KEPT = 4


def _as_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


@dataclass(frozen=True, slots=True, eq=False)
class HermitianForm:
    """An N x N hermitian matrix, symmetrised at construction.

    Inputs whose hermiticity defect exceeds ``HERMITICITY_TOL`` (relative to
    max(1, largest entry)) are rejected; smaller defects are absorbed by
    replacing M with (M + M*)/2.

    The form is immutable, so it keeps its Cholesky factor (``factor``) and
    condition number (``cond``) once first asked for, and ``scaled`` passes
    both on: one factorisation serves every later positive-definiteness
    check, determinant and Bergman metric of the form.  Two forms are equal
    when their matrices agree entry for entry.
    """

    mat: np.ndarray
    _factor: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _cond: Optional[float] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        a = _as_square(self.mat)
        scale = max(1.0, float(np.abs(a).max(initial=0.0)))
        defect = np.abs(a - a.conj().T)
        worst = float(defect.max(initial=0.0))
        if worst > HERMITICITY_TOL * scale:
            idx = np.unravel_index(int(defect.argmax()), defect.shape)
            raise HermitianDefectError(
                f"hermiticity defect {worst:.3e} at entry {idx} exceeds "
                f"{HERMITICITY_TOL:g} (scale {scale:g})",
                indices=idx,
                defect=worst,
            )
        sym = 0.5 * (a + a.conj().T)
        sym.setflags(write=False)
        object.__setattr__(self, "mat", sym)

    def __eq__(self, other):
        if not isinstance(other, HermitianForm):
            return NotImplemented
        return bool(np.array_equal(self.mat, other.mat))

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which == does not tell apart
        return hash((self.mat.shape, (self.mat + 0.0).tobytes()))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def identity(cls, n: int) -> "HermitianForm":
        return cls(np.eye(n, dtype=complex))

    @classmethod
    def diagonal(cls, values) -> "HermitianForm":
        return cls(np.diag(np.asarray(values, dtype=complex)))

    @classmethod
    def _unchecked(cls, mat: np.ndarray, factor=None, cond=None) -> "HermitianForm":
        """The form of ``mat``, which the caller knows to be finite and
        hermitian to the bit, with its factor and condition number when
        known; nothing is checked."""
        form = object.__new__(cls)
        for name, value in (("mat", mat), ("_factor", factor), ("_cond", cond)):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(form, name, value)
        return form

    def scaled(self, c: float) -> "HermitianForm":
        """The form c H.  For finite c > 0, c H is hermitian to the bit and is
        not checked again, and a factor L and condition number already found
        pass on as sqrt(c) L and the same number."""
        c = float(c)
        mat = c * self.mat
        if not (c > 0.0 and np.isfinite(mat).all()):
            return HermitianForm(mat)
        factor = None if self._factor is None else np.sqrt(c) * self._factor
        return HermitianForm._unchecked(mat, factor, self._cond)

    def factor(self) -> np.ndarray:
        """Lower-triangular L with H = L L* and positive diagonal, found once
        and kept (read-only).  Raises ``DefinitenessError`` naming the first
        failing pivot; ``cholesky_lower`` adds the conditioning warning."""
        if self._factor is None:
            factor = _cholesky(self.mat)
            factor.setflags(write=False)
            object.__setattr__(self, "_factor", factor)
        return self._factor

    def is_positive_definite(self) -> bool:
        try:
            cholesky_lower(self)
            return True
        except DefinitenessError:
            return False

    def cond(self) -> float:
        """Ratio of the largest to the smallest eigenvalue modulus, found once
        and kept."""
        if self._cond is None:
            ev = np.abs(np.linalg.eigvalsh(self.mat))
            lo = ev.min()
            cond = float("inf") if lo == 0.0 else float(ev.max() / lo)
            object.__setattr__(self, "_cond", cond)
        return self._cond

    def to_json_dict(self) -> dict:
        return {
            "n": self.dim,
            "re": self.mat.real.tolist(),
            "im": self.mat.imag.tolist(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "HermitianForm":
        try:
            n = d["n"]
            # int() alone would truncate 2.7 to 2 and read true as 1
            if isinstance(n, bool) or int(n) != n:
                raise ValueError(f"n = {n!r} is not an integer")
            n = int(n)
            re = np.asarray(d["re"], dtype=float)
            im = np.asarray(d["im"], dtype=float)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DimensionError(
                f"matrix JSON must be an object with integer n and arrays re, im ({exc!r})"
            ) from exc
        if re.shape != (n, n) or im.shape != (n, n):
            raise DimensionError(
                f"matrix JSON claims n={n} but re/im have shapes {re.shape}, {im.shape}"
            )
        return cls(re + 1j * im)


def _cholesky(mat: np.ndarray) -> np.ndarray:
    """Lower-triangular L with mat = L L* and positive diagonal, from one
    ``zpotrf`` of a finite hermitian matrix; raises ``DefinitenessError``
    naming the first failing pivot."""
    factor, info = sla.lapack.zpotrf(mat, lower=True, clean=True)
    if info > 0:
        raise DefinitenessError(
            f"matrix is not positive definite: pivot {info - 1} fails", pivot=info - 1
        )
    return factor


def _as_form(h) -> HermitianForm:
    return h if isinstance(h, HermitianForm) else HermitianForm(h)


def load_matrix_json(path) -> HermitianForm:
    with open(path, "r") as fh:
        return HermitianForm.from_json_dict(json.load(fh))


class MatrixNorms(NamedTuple):
    op: float
    hs: float
    max: float


def matrix_norms(m) -> MatrixNorms:
    """Operator, Hilbert-Schmidt and max norms of a square matrix.

    The operator norm is the largest singular value.  Satisfies
    op <= hs <= N * max.
    """
    a = m.mat if isinstance(m, HermitianForm) else _as_square(m)
    if a.size == 0:
        return MatrixNorms(0.0, 0.0, 0.0)
    op = float(np.linalg.svd(a, compute_uv=False)[0])
    hs = float(np.linalg.norm(a))
    mx = float(np.abs(a).max())
    return MatrixNorms(op, hs, mx)


def cholesky_lower(h: HermitianForm) -> np.ndarray:
    """The form's kept, read-only ``factor``: lower-triangular L with
    H = L L* and strictly positive diagonal.

    Raises ``DefinitenessError`` naming the first failing pivot when H is not
    positive definite, and an ``IllConditionedWarning`` when its condition
    number exceeds ``COND_GUARD``.  No eigensolve is needed for that unless
    the form is near the guard: for H PD, lambda_max <= tr H and
    1/lambda_min <= tr H^{-1} = ||L^{-1}||_F^2 (one ``ztrtri``), so
    tr H tr H^{-1} bounds cond_2 H from above, and the exact condition
    number is computed only when that bound exceeds COND_GUARD / 2 (the
    margin covers the bound's rounding) or is already kept.  The Bergman
    metric (``geometry.MetricWeight.bergman``) and the balancing iteration
    (``maps.t_iterate``) run the same guard without this call, reading
    tr H^{-1} from the ``zpotri`` inverse they form anyway; the iteration
    guards its last form, which has no next inverse, by one ``ztrtri``.
    """
    L = h.factor()
    # tr H^{-1} is read only while no condition number is kept
    _guard_conditioning(h, 0.0 if h._cond is not None else _inverse_trace(L))
    return L


def _inverse_of_factor(factor: np.ndarray):
    """(H^{-1}, tr H^{-1}) for H = L L*, from one ``zpotri`` of the factor L."""
    # zpotri writes H^{-1} into the lower half and keeps the factor's
    # zero upper half
    low = sla.lapack.zpotri(factor, lower=True)[0]
    inverse = low + low.conj().T
    inverse.flat[:: len(low) + 1] = low.diagonal().real
    return inverse, float(low.diagonal().real.sum())


def _inverse_trace(factor: np.ndarray) -> float:
    """tr H^{-1} = ||L^{-1}||_F^2 for H = L L*, from one ``ztrtri``."""
    inv_l = sla.lapack.ztrtri(factor, lower=1)[0]
    return float(np.vdot(inv_l, inv_l).real)


def _guard_conditioning(h: HermitianForm, inverse_trace: float):
    """``cholesky_lower``'s conditioning warning for a PD form whose inverse
    has trace ``inverse_trace``: the exact condition number decides only
    where tr H tr H^{-1} exceeds COND_GUARD / 2, or when it is kept."""
    if h._cond is None and h.mat.diagonal().real.sum() * inverse_trace <= 0.5 * COND_GUARD:
        return
    if h.cond() > COND_GUARD:
        warnings.warn(
            f"cholesky_lower: condition number {h.cond():.3e} exceeds {COND_GUARD:g}; "
            "tolerances downstream are unreliable",
            IllConditionedWarning,
            stacklevel=3,
        )


def orthonormalize_sections(h: HermitianForm, raw: np.ndarray) -> np.ndarray:
    """Rows of ``raw`` recombined to an H-orthonormal family.

    With H = L L* the result is L^{-1} @ raw, so the new rows have Gram
    matrix equal to the identity under the pairing that produced H.
    """
    raw = np.asarray(raw, dtype=complex)
    if raw.ndim != 2 or raw.shape[0] != h.dim:
        raise DimensionError(
            f"section matrix must have {h.dim} rows, got shape {raw.shape}"
        )
    return sla.solve_triangular(cholesky_lower(h), raw, lower=True)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(x)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_spd(n: int, rng: np.random.Generator, cond: float = 10.0) -> HermitianForm:
    """Random hermitian PD form with condition number at most ``cond``."""
    q = random_unitary(n, rng)
    ev = np.exp(rng.uniform(0.0, np.log(cond), size=n))
    ev = ev / ev.max()
    return HermitianForm((q * ev) @ q.conj().T)


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (x + x.conj().T)


class HermitianCoords:
    """Real coordinates x_a = tr(E_a M) of (stacked) hermitian n x n
    matrices M in an orthonormal real basis E_a of all hermitian matrices
    (n^2 elements), the matrix sum_a x_a E_a of coordinates x, and the real
    matrix tr(E_a L(E_b)) of a linear map L from its table (``of_map``).
    ``full`` returns one shared instance per n, for the last
    ``COORDS_KEPT`` sizes, whose arrays are read-only.

    No element is stored as a matrix.  The diagonal units e_ii come first,
    then per pair i < j a real element with 1/sqrt(2) at (i, j) and (j, i)
    and an imaginary one with -i/sqrt(2) at (j, i) and i/sqrt(2) at
    (i, j): two slots each, a diagonal unit's second value being 0.
    ``of_map`` weights table rows by the slots' conjugate values; ``of``
    and ``matrix`` read a slot as one float of vec(M), Re for a real value
    and Im otherwise.
    """

    def __init__(self, n: int):
        e = np.arange(n * n)
        i, j = np.divmod(e, n)
        ij, ji = e[i < j], (j * n + i)[i < j]
        # [element, slot]: the diagonal units, then per pair its real and
        # then its imaginary element
        index = np.array([ij, ji, ji, ij]).T.reshape(-1, 2)
        value = np.tile([1.0, 1.0, -1j, 1j], (len(ij), 1)).reshape(-1, 2) / np.sqrt(2.0)
        index = np.concatenate([np.repeat(e[:: n + 1], 2).reshape(-1, 2), index])
        value = np.concatenate([np.tile([1.0, 0.0], (n, 1)), value])
        self.n = n
        # slot 0 of every two-slot element, then slot 1; Re(conj(v) z) reads
        # Re z for a real v and Im z for an imaginary (or zero) one
        self._index, self._weight = index.T.ravel(), value.T.reshape(-1, 1).conj()
        self._floats = 2 * self._index + (self._weight.real == 0).ravel()
        self._float_weight = (self._weight.real - self._weight.imag).ravel()
        for table in (self._index, self._weight, self._floats, self._float_weight):
            table.setflags(write=False)

    @classmethod
    @functools.lru_cache(maxsize=COORDS_KEPT)
    def full(cls, n: int) -> "HermitianCoords":
        """The shared coordinates of the hermitian n x n matrices, kept for
        the ``COORDS_KEPT`` sizes last asked for."""
        return cls(n)

    def __len__(self) -> int:
        return len(self._index) // 2

    def of(self, m) -> np.ndarray:
        """tr(E_a M) for M (..., n, n).  E_a is hermitian, so this is
        Re sum conj(E_a) o M: two floats of M per two-slot element."""
        m = np.ascontiguousarray(m, dtype=complex)
        slots = m.reshape(m.shape[:-2] + (-1,)).view(float).take(self._floats, axis=-1)
        slots *= self._float_weight
        x = slots[..., : len(self)]
        x += slots[..., len(self) :]
        return x

    def of_map(self, table) -> np.ndarray:
        """tr(E_a L(E_b)) = Re conj(vec(E_a)) . table . vec(E_b) at (a, b) for
        the linear map L with vec(L(X)) = table @ vec(X): the rows of
        ``table`` gathered per element a, then ``of`` of their conjugates."""
        table = np.asarray(table, dtype=complex)
        slots = table[self._index]
        slots *= self._weight
        rows = slots[: len(self)]
        rows += slots[len(self) :]
        return self.of(np.conjugate(rows, out=rows).reshape(len(rows), self.n, self.n))

    def matrix(self, x) -> np.ndarray:
        """sum_a x_a E_a for coordinates x (..., len): each slot writes its
        float of vec(M)."""
        x = np.asarray(x, dtype=float)
        rows = x.reshape(-1, len(self))
        m = np.zeros((len(rows), self.n * self.n), dtype=complex)
        m.view(float)[:, self._floats] = np.concatenate([rows] * 2, 1) * self._float_weight
        return m.reshape(x.shape[:-1] + (self.n, self.n))


def damped_newton(evaluate, direction, accept, start, tol, max_steps, max_halvings, what,
                  min_steps=0):
    """Damped Newton from the point ``start`` to a max-norm residual <= tol,
    reached after at least ``min_steps`` steps.

    A point is the tuple (x, r, ...) that ``evaluate(x)`` returns, r the
    residual vector, or None when x is inadmissible.  Each step tries
    x + alpha dx, dx = direction(*point), for alpha = 1, 1/2, ... (at most
    ``max_halvings`` candidates) and moves to the first admissible one that
    ``accept(new, old, alpha, dx)`` approves.  Returns (point, history),
    history holding max|r| of every iterate, so len(history) - 1 steps.
    Raises ``ConvergenceError`` with the history when ``direction`` raises
    ``LinAlgError``, when no candidate is accepted, or when ``max_steps``
    steps end above tol; other errors of ``direction`` propagate.
    """
    point = start
    history: List[float] = []
    for it in range(max_steps + 1):
        resid = float(np.abs(point[1]).max())
        history.append(resid)
        if resid <= tol and it >= min_steps:
            return point, history
        if it == max_steps:
            break
        try:
            dx = direction(*point)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"{what} jacobian degenerate at iteration {it} (residual {resid:.3e})",
                history,
            ) from exc
        alpha = 1.0
        for _ in range(max_halvings):
            new = evaluate(point[0] + alpha * dx)
            if new is not None and accept(new, point, alpha, dx):
                point = new
                break
            alpha *= 0.5
        else:
            raise ConvergenceError(
                f"{what} line search stalled at iteration {it} (residual {resid:.3e})",
                history,
            )
    raise ConvergenceError(
        f"{what} did not reach {tol:g} in {max_steps} steps (last residual {resid:.3e})",
        history,
    )

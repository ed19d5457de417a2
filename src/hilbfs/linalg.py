"""Hermitian matrix primitives: norms, Cholesky, basis transforms, real
coordinates (``HermitianCoords``), JSON I/O, and ``damped_newton``, the one
damped-Newton loop that the moment, psi and Monge-Ampere solvers share;
each caller keeps its own mathematics and its own test for accepting a step.

Conventions used throughout the package: a hermitian form G on the section
space is stored via its matrix G[i, j] = <s_i, s_j>, linear in the first
index and conjugate-linear in the second, so a basis change s_i -> sum_j
A[i, j] s_j transforms G into A @ G @ A*.  The real coordinates of a
hermitian M in an orthonormal real basis E_a (tr(E_a E_b) = delta_ab) are
x_a = tr(E_a M), and M = sum_a x_a E_a when M lies in the span; both
surjectivity Newtons read and write hermitian matrices this way, and read
their Jacobians as tr(E_a L(E_b)) for a linear map L given by its table
(``HermitianCoords.of_map``).
"""

from __future__ import annotations

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

    @classmethod
    def _hermitian_part(cls, m) -> "HermitianForm":
        """The form (M + M*)/2 of a square matrix M with finite entries, for
        an M that is hermitian only up to rounding (a computed Gram, say):
        no hermiticity defect is checked."""
        a = _as_square(m)
        return cls._unchecked(0.5 * (a + a.conj().T))

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
            factor, info = sla.lapack.zpotrf(self.mat, lower=True, clean=True)
            if info > 0:
                raise DefinitenessError(
                    f"matrix is not positive definite: pivot {info - 1} fails", pivot=info - 1
                )
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
            n = int(d["n"])
            re = np.asarray(d["re"], dtype=float)
            im = np.asarray(d["im"], dtype=float)
        except (KeyError, TypeError) as exc:
            raise DimensionError(
                f"matrix JSON must be an object with keys n, re, im ({exc!r})"
            ) from exc
        if re.shape != (n, n) or im.shape != (n, n):
            raise DimensionError(
                f"matrix JSON claims n={n} but re/im have shapes {re.shape}, {im.shape}"
            )
        return cls(re + 1j * im)


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
    number exceeds ``COND_GUARD``.
    """
    L = h.factor()
    if h.cond() > COND_GUARD:
        warnings.warn(
            f"cholesky_lower: condition number {h.cond():.3e} exceeds {COND_GUARD:g}; "
            "tolerances downstream are unreliable",
            IllConditionedWarning,
            stacklevel=2,
        )
    return L


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
    matrices M in an orthonormal real basis E_a, the matrix sum_a x_a E_a
    of coordinates x, and the real matrix tr(E_a L(E_b)) of a linear map L
    (``of_map``).  ``full`` spans all hermitian matrices (n^2 elements),
    ``traceless`` the traceless ones (n^2 - 1).

    No element is stored as a matrix (``basis`` builds them on request).
    Per pair i < j a real element has 1/sqrt(2) at (i, j) and (j, i), an
    imaginary one -i/sqrt(2) at (j, i) and i/sqrt(2) at (i, j): two slots
    each.  The diagonal elements come first: the units e_ii of ``full``,
    two-slot elements whose second value is 0, or the rows of the real
    (n - 1) x n ``diagonal`` block of ``traceless``.  ``of_map`` weights
    table rows by the slots' conjugate values; ``of`` and ``matrix`` read a
    slot as one float of vec(M), Re for a real value and Im otherwise.
    """

    def __init__(self, n: int, diagonal: Optional[np.ndarray] = None):
        e = np.arange(n * n)
        i, j = np.divmod(e, n)
        ij, ji = e[i < j], (j * n + i)[i < j]
        # [element, slot], per pair its real and then its imaginary element
        index = np.array([ij, ji, ji, ij]).T.reshape(-1, 2)
        value = np.tile([1.0, 1.0, -1j, 1j], (len(ij), 1)).reshape(-1, 2) / np.sqrt(2.0)
        if diagonal is None:
            index = np.concatenate([np.repeat(e[:: n + 1], 2).reshape(-1, 2), index])
            value = np.concatenate([np.tile([1.0, 0.0], (n, 1)), value])
        self.n, self._basis = n, None
        self._diagonal = np.zeros((0, n)) if diagonal is None else diagonal
        # slot 0 of every two-slot element, then slot 1; Re(conj(v) z) reads
        # Re z for a real v and Im z for an imaginary (or zero) one
        self._index, self._weight = index.T.ravel(), value.T.reshape(-1, 1).conj()
        self._floats = 2 * self._index + (self._weight.real == 0).ravel()
        self._float_weight = (self._weight.real - self._weight.imag).ravel()

    @classmethod
    def full(cls, n: int) -> "HermitianCoords":
        """The diagonal units, then per pair i < j its real and imaginary
        element."""
        return cls(n)

    @classmethod
    def traceless(cls, n: int) -> "HermitianCoords":
        """``full`` with diag(1, ..., 1, -r, 0, ...) / sqrt(r (r + 1)),
        0 < r < n, in place of the diagonal units."""
        r, c = np.arange(n - 1)[:, None], np.arange(n)
        scale = 1.0 / np.sqrt((r + 1) * (r + 2))
        return cls(n, np.where(c <= r, scale, np.where(c == r + 1, -(r + 1) * scale, 0.0)))

    def __len__(self) -> int:
        return len(self._diagonal) + len(self._index) // 2

    @property
    def basis(self) -> np.ndarray:
        """The elements E_a as a read-only (len, n, n) stack, built on first
        use for callers that need the matrices themselves."""
        if self._basis is None:
            self._basis = self.matrix(np.eye(len(self)))
            self._basis.setflags(write=False)
        return self._basis

    def of(self, m) -> np.ndarray:
        """tr(E_a M) for M (..., n, n).  E_a is hermitian, so this is
        Re sum conj(E_a) o M: two floats of M per two-slot element, after
        the ``diagonal`` block applied to Re diag(M)."""
        m = np.ascontiguousarray(m, dtype=complex)
        flat = m.reshape(m.shape[:-2] + (-1,)).view(float)
        slots = flat.take(self._floats, axis=-1)
        slots *= self._float_weight
        x = slots[..., : slots.shape[-1] // 2]
        x += slots[..., slots.shape[-1] // 2 :]
        if not len(self._diagonal):
            return x
        return np.concatenate([flat[..., :: 2 * self.n + 2] @ self._diagonal.T, x], axis=-1)

    def of_map(self, table) -> np.ndarray:
        """tr(E_a L(E_b)) = Re conj(vec(E_a)) . table . vec(E_b) at (a, b) for
        the linear map L with vec(L(X)) = table @ vec(X): the rows of
        ``table`` gathered per element a, then ``of`` of their conjugates."""
        table = np.asarray(table, dtype=complex)
        slots = table[self._index]
        slots *= self._weight
        rows = slots[: len(slots) // 2]
        rows += slots[len(slots) // 2 :]
        if len(self._diagonal):
            rows = np.concatenate([self._diagonal @ table[:: self.n + 1], rows])
        return self.of(np.conjugate(rows, out=rows).reshape(len(rows), self.n, self.n))

    def matrix(self, x) -> np.ndarray:
        """sum_a x_a E_a for coordinates x (..., len): each slot writes its
        float of vec(M), and a ``diagonal`` block the real diagonal."""
        x = np.asarray(x, dtype=float)
        rows, d = x.reshape(-1, len(self)), len(self._diagonal)
        m = np.zeros((len(rows), self.n * self.n), dtype=complex)
        m.view(float)[:, self._floats] = np.concatenate([rows[:, d:]] * 2, 1) * self._float_weight
        if d:
            m.real[:, :: self.n + 1] = rows[:, :d] @ self._diagonal
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

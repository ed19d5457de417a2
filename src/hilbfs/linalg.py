"""Hermitian matrix primitives: norms, Cholesky, basis transforms, JSON I/O,
and ``damped_newton``, the one damped-Newton loop that the moment, psi and
Monge-Ampere solvers share; each caller keeps its own mathematics and its
own test for accepting a step.

Convention used throughout the package: a hermitian form G on the section
space is stored via its matrix G[i, j] = <s_i, s_j>, linear in the first
index and conjugate-linear in the second, so a basis change s_i -> sum_j
A[i, j] s_j transforms G into A @ G @ A*.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import List, NamedTuple

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


@dataclass(frozen=True)
class HermitianForm:
    """An N x N hermitian matrix, symmetrised at construction.

    Inputs whose hermiticity defect exceeds ``HERMITICITY_TOL`` (relative to
    max(1, largest entry)) are rejected; smaller defects are absorbed by
    replacing M with (M + M*)/2.
    """

    mat: np.ndarray

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

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def identity(cls, n: int) -> "HermitianForm":
        return cls(np.eye(n, dtype=complex))

    @classmethod
    def diagonal(cls, values) -> "HermitianForm":
        return cls(np.diag(np.asarray(values, dtype=complex)))

    def scaled(self, c: float) -> "HermitianForm":
        return HermitianForm(c * self.mat)

    def is_positive_definite(self) -> bool:
        try:
            cholesky_lower(self)
            return True
        except DefinitenessError:
            return False

    def cond(self) -> float:
        ev = np.abs(np.linalg.eigvalsh(self.mat))
        lo = ev.min()
        return float("inf") if lo == 0.0 else float(ev.max() / lo)

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


def load_matrix_json(path) -> HermitianForm:
    with open(path, "r") as fh:
        return HermitianForm.from_json_dict(json.load(fh))


def dump_matrix_json(form: HermitianForm, path) -> None:
    with open(path, "w") as fh:
        json.dump(form.to_json_dict(), fh)
        fh.write("\n")


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


def _warn_if_ill_conditioned(h: HermitianForm, what: str) -> None:
    c = h.cond()
    if c > COND_GUARD:
        warnings.warn(
            f"{what}: condition number {c:.3e} exceeds {COND_GUARD:g}; "
            "tolerances downstream are unreliable",
            IllConditionedWarning,
            stacklevel=3,
        )


def cholesky_lower(h: HermitianForm | np.ndarray) -> np.ndarray:
    """Lower-triangular L with H = L L* and strictly positive diagonal.

    Raises ``DefinitenessError`` naming the first failing pivot when H is not
    positive definite.
    """
    a = h.mat if isinstance(h, HermitianForm) else _as_square(h)
    L, info = sla.lapack.zpotrf(a, lower=True, clean=True)
    if info > 0:
        raise DefinitenessError(
            f"matrix is not positive definite: pivot {info - 1} fails", pivot=info - 1
        )
    if isinstance(h, HermitianForm):
        _warn_if_ill_conditioned(h, "cholesky_lower")
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


def damped_newton(evaluate, direction, accept, start, tol, max_steps, max_halvings, what):
    """Damped Newton from the point ``start`` to a max-norm residual <= tol.

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
        if resid <= tol:
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

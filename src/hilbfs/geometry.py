"""Discretised models of the projective line with a polarising line bundle.

Geometry conventions
--------------------
* The line bundle is O(d) (``line_degree`` d, default 1) and the model holds
  its k-th power, so sections are the monomials 1, z, ..., z^(dk) in the
  affine chart and N = dk + 1.
* The reference Kahler form is ``d`` times the mass-one Fubini-Study form,
  so the total volume is V = d; in the chart,
  omega_ref = (d/pi) (1+|z|^2)^(-2) dx dy.
* Quadrature substitutes t = |z|^2/(1+|z|^2); integrals become
  (1/2pi) int_0^1 int_0^2pi ... dtheta dt, discretised by Gauss-Legendre in t
  and an equispaced trapezoid in theta.  Every pairing of two sections
  against the reference metric weight is then a polynomial in t of degree
  <= dk times a trigonometric polynomial, and the rule is exact for those.
* A metric on L^k is stored relative to the reference as rw * exp(-u) where
  rw(z) = (1+|z|^2)^(-dk) is the reference weight on the trivialising frame.
* Bergman metrics: fs_metric(H) has u = log(rw P) with P = s* H^{-1} s, so
  its weight is rw * exp(-u) = 1/P, and its curvature density is that of
  log P divided by k.  One synthesis of rw P, ``_bergman_synthesis``,
  therefore gives both factors of
  hilb(fs_metric(H)) = (N/V) sum_q s s* rw dens / (k rw P) qw, which is
  (N / kV) M for the M = gram(mu_B / rw) that psi normalises at
  A = H^{-1}: dens over P is mu_B.  That helper is the one place where the
  curvature numerator and the factor 1/P^3 are formed; hilb, t_iterate,
  psi and psi's Jacobian all read it.
* Section pairings: for n monomials z^i, i < n, sum_ij A_ij conj(z^i) z^j =
  sum_ij A_ij r^(i+j) e^{i(j-i) theta} holds at most 2n - 1 powers of r and
  2n - 1 modes in the equispaced theta.  One kernel, ``_ThetaFourier``
  (cached per model), uses this both ways, for every pairing in the
  pipelines (the injectivity audit's squares too), with the weight
  (1 - t)^(n-1) in its powers, r^d (1 - t)^(n-1) =
  sqrt(t)^d sqrt(1 - t)^(2n-2-d) in [0, 1], d <= 2n - 2, so none
  overflows at any k.  For the sections
  (n = N) it is rw: synthesis gives rw (P, Re P_z, Im P_z, P_zzbar) with
  P = s* A s, P_z = s* A s', P_zzbar = s'* A s', and gram(w) is
  sum_q s conj(s) rw w, so no caller multiplies or divides by rw; a
  quotient of degree 0 in the rows, as the curvature is, does not see it.
  Both directions run in real arithmetic and rearrange the quadrature sums
  exactly, changing rounding only (``_ThetaFourier``).  Each is one
  implementation on a real (power, cos/sin mode) cell table laid out by
  ``_cell_index``: ``analysis`` takes node weights to their cells, which
  ``gram`` gathers from (``gram_of_cells``), and ``synthesis`` a cell table
  to node values, which ``pairings`` runs after scattering a's entries.
  Callers that only sum over the nodes (the injectivity audit) synthesise
  in blocks of whole rings of at most ``NODE_BLOCK`` nodes instead, into
  one reused buffer (``_ThetaFourier.pairing_blocks``), and form no N x Q
  table.
* Products of two pairings: s_a conj(s_b) s_c conj(s_d) =
  z^(a+c) conj(z)^(b+d), so a sum over the nodes of four sections against
  a weight is one entry of the Gram of the n = 2N - 1 monomials of degree
  <= 2N - 2.  The doubled kernel (``_theta_fourier(doubled=True)``) is that
  Gram's analysis, and its weight (1 - t)^(n-1) is rw^2.  Neither Newton
  forms such a Gram: psi's Jacobian is one sparse operator on the doubled
  kernel's cells of four node weights (``pushforward._jacobian_cells``),
  and in the full-Gram moment Newton (``calabi._full_gram_family``) each
  function is one cell, sigma r^d cos or sin(m theta) rw, and by
  2 cos cos = cos(m - m') + cos(m + m') and its like a product of two is
  two cells of the doubled kernel: its Jacobian is two gathers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    ConfigurationError,
    CurvaturePositivityError,
    DimensionError,
    MassDefectError,
)
from .linalg import HermitianForm, _as_form, _guard_conditioning, _inverse_of_factor

CURVATURE_MASS_TOL = 1e-8
NODE_BLOCK = 2048  # nodes per block of whole rings (``_ThetaFourier.pairing_blocks``)


@dataclass
class Density:
    """Nonnegative weights against the model's node set."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise DimensionError("density weights must be a 1-d array")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("density weights must be finite and nonnegative")
        total = w.sum()
        if not (total > 0):
            raise ValueError("density must have positive total mass")
        self.weights = w


@dataclass
class ManifoldModel:
    """Quadrature nodes, section values and reference metric data on P^1.

    The sections are the monomials z^j, j <= dk: the pairing kernel
    (``_ThetaFourier``) relies on that, never reads ``sections`` and
    carries ``ref_weight`` in its tables (module docstring).  No pipeline
    reads either; ``dump-model`` writes both.

    Five members are built on first use and then kept: ``laplacian()``, the
    pairing kernels (``_theta_fourier``, plain and doubled), ``refined()``,
    the N x Q table ``sections`` and the node factor ``_volume_factor()``.
    A model that never reads one never holds it."""

    k: int
    line_degree: int
    N: int
    V: float
    nodes: np.ndarray          # complex chart coordinates, length Q
    t: np.ndarray              # radial variable t = |z|^2/(1+|z|^2)
    theta: np.ndarray
    quad_weights: np.ndarray   # sums to V
    ref_weight: np.ndarray     # (1+|z|^2)^(-dk)
    radial_nodes: int
    azimuthal_nodes: int
    _laplacian: Optional["SphericalOperator"] = field(default=None, repr=False)
    _fourier: dict = field(default_factory=dict, repr=False)
    _refined: Optional["ManifoldModel"] = field(default=None, repr=False)
    _sections: Optional[np.ndarray] = field(default=None, repr=False)
    _volume: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def Q(self) -> int:
        return self.nodes.shape[0]

    @property
    def sections(self) -> np.ndarray:
        """N x Q monomial values z^j at the nodes; formed once, on first read."""
        if self._sections is None:
            self._sections = self.nodes[None, :] ** np.arange(self.N)[:, None]
        return self._sections

    def laplacian(self) -> "SphericalOperator":
        """Spectral Laplace-Beltrami operator of the reference metric.

        The operator is Y diag(lambda_l / V) Y^T diag(quad_weights / V) for
        the round-sphere harmonics Y_lm sampled on the grid (x3 = 1 - 2t,
        l < radial_nodes, |m| <= mmax = (azimuthal_nodes - 1) // 2),
        orthonormal for the quadrature, with lambda_l = -4 pi l (l+1).  It is
        never formed: the grid is a tensor product, so ``lap @ x`` (x of
        shape (Q,) or (Q, m)) is an rfft in theta, one radial matrix
            K_m = sum_l Pbar_l^m(x_r) lambda_l / V Pbar_l^m(x_s) w_s
        per Fourier mode m <= mmax (higher modes, Nyquist included, are
        dropped) and an irfft; Pbar is the normalised associated Legendre
        function and w the radial Gauss-Legendre weights.  The Legendre
        table is evaluated on the radial nodes only.  The operator holds
        O(radial_nodes^2 mmax) numbers and an apply costs
        O(Q radial_nodes).  Built once and cached.
        """
        if self._laplacian is None:
            nr, na = self.radial_nodes, self.azimuthal_nodes
            mmax = min((na - 1) // 2, nr - 1)
            x3 = 1.0 - 2.0 * self.t[::na]
            weights = self.quad_weights.reshape(nr, na).sum(axis=1) / self.V
            l = np.arange(nr)
            eigs = -4.0 * np.pi * l * (l + 1) / self.V
            self._laplacian = SphericalOperator(
                _legendre_table(x3, nr - 1, mmax), weights, eigs, na, eigs
            )
        return self._laplacian

    def refined(self) -> "ManifoldModel":
        """The model of the same k and line degree on the doubled grid
        (2 radial_nodes, 2 azimuthal_nodes).  Built once and cached."""
        if self._refined is None:
            self._refined = build_p1_model(
                self.k,
                2 * self.radial_nodes,
                2 * self.azimuthal_nodes,
                line_degree=self.line_degree,
            )
        return self._refined

    def _volume_factor(self) -> np.ndarray:
        """(1+|z|^2)^2 qw / V at the nodes: a density against omega_ref in
        the chart times this is its node weight.  Built once."""
        if self._volume is None:
            self._volume = (1.0 + np.abs(self.nodes) ** 2) ** 2 * self.quad_weights / self.V
        return self._volume

    def _theta_fourier(self, doubled: bool = False) -> "_ThetaFourier":
        """The section-pairing kernel of the module docstring, or with
        ``doubled`` its doubled-degree kernel; each built once."""
        if doubled not in self._fourier:
            self._fourier[doubled] = _ThetaFourier(self, doubled)
        return self._fourier[doubled]


class _ThetaFourier:
    """Synthesis and analysis of section pairings on the model's grid, in
    real arithmetic (see the module docstring).

    conj(s_i) s_j, conj(s_i) s_j' and conj(s_i') s_j' are c r^d e^{im theta}
    with (c, d, m) = (1, i+j, j-i), (j, i+j-1, j-i-1) and (ij, i+j-2, j-i).
    A coefficient a c r^d e^{im theta} has real part
    r^d (Re a cos|m|theta - sgn(m) Im a sin|m|theta) c and imaginary part
    r^d (Im a cos|m|theta + sgn(m) Re a sin|m|theta) c, so the index tables
    place Re a and Im a of each pair with c != 0 in a real (row, power,
    cos/sin mode) table, the rows being P, Re P_z, Im P_z and P_zzbar.  A
    cell takes at most two pairs, those of m and -m: the pairs of m >= 0
    are written and those of m < 0 added.  Synthesis is then two real
    products, powers first and then the (2N+1, na) table
    [cos m theta (m <= N); sin m theta (1 <= m <= N)], in
    R (nr (2N-1) + Q) (2N+1) multiply-adds for R rows (1 or 4).  Analysis is
    the same two products transposed, (Q + nr (2N-1)) (2N+1) multiply-adds,
    and a gather, hermitian to the bit.  The powers r^d (1 - t)^(n-1) of n
    monomials fold in rw for the N sections and rw^2 for the doubled
    kernel's 2N - 1 monomials of degree <= 2N - 2.

    The scatter indexes one form's entries and cells directly, x[index],
    and a stack's with ``take`` along the last axis and assignment by
    columns; the gather ``take``s along the last axis.  x[..., index], an
    Ellipsis with an index array, takes NumPy's general indexing path at
    about three times the cost."""

    def __init__(self, model: "ManifoldModel", doubled: bool = False):
        n = 2 * model.N - 1 if doubled else model.N
        na = model.azimuthal_nodes
        t = model.t[::na]
        d = np.arange(2 * n - 1)
        self._powers = np.sqrt(t)[:, None] ** d * np.sqrt(1.0 - t)[:, None] ** (d[-1] - d)
        self._n, self._grid = n, (model.radial_nodes, na)
        m = np.outer(np.arange(n + 1), model.theta[:na])
        self._trig = np.vstack([np.cos(m), np.sin(m[1:])])
        self._scatter = {1: _scatter_tables(n, 1), 3: _scatter_tables(n, 3)}
        i, j = np.indices((n, n)).reshape(2, -1)
        self._gram_cells = tuple(
            _cell_index(n, i + j, i - j, sine).reshape(n, n) for sine in (0, 1)
        )
        self._gram_sign = np.sign(i - j).reshape(n, n)

    def pairings(self, a: np.ndarray, parts: int = 3) -> np.ndarray:
        """Real node values of rw P, P = s* a s, and, with ``parts`` = 3, of
        rw Re P_z, rw Im P_z and rw P_zzbar, P_z = s* a s', for hermitian
        a (..., N, N); shape (..., 1 or 4, Q): the ``synthesis`` of the
        scatter of a's entries into cells."""
        return self.synthesis(self._cells(a, parts))

    def pairing_blocks(self, a: np.ndarray):
        """The rw P of ``pairings(a, parts=1)`` over blocks of whole rings of
        at most ``NODE_BLOCK`` nodes (one ring if a ring is longer): yields
        (nodes, values), ``nodes`` the slice of the block's nodes and
        ``values`` of shape (..., len(nodes)).  The scatter and the radial
        product run once, the trig product once per block, into one buffer
        that every block reuses: no (..., Q) array is formed, and a block's
        values are gone once the next is asked for."""
        table = self._powers @ self._cells(a, 1)[..., 0, :, :]
        nr, na = self._grid
        step = min(nr, max(1, NODE_BLOCK // na))
        out = np.empty(table.shape[:-2] + (step, na))
        for ring in range(0, nr, step):
            rings = min(step, nr - ring)
            block = np.matmul(table[..., ring:ring + rings, :], self._trig, out=out[..., :rings, :])
            yield slice(ring * na, (ring + rings) * na), block.reshape(block.shape[:-2] + (-1,))

    def _cells(self, a: np.ndarray, parts: int) -> np.ndarray:
        """The scatter of ``pairings``: the real (..., rows, 2n-1, 2n+1) cell
        table of the hermitian a (..., n, n)."""
        lead, n = a.shape[:-2], self._n
        rows = 1 if parts == 1 else 4
        size = rows * (2 * n - 1) * (2 * n + 1)
        src = np.ascontiguousarray(a, dtype=complex).reshape(-1, n * n).view(float)
        (src1, mult1, cell1), (src2, mult2, cell2) = self._scatter[parts]
        if not lead:
            table, src = np.zeros(size), src[0]
            table[cell1] = src[src1] * mult1
            table[cell2] += src[src2] * mult2
        else:
            table = np.zeros((len(src), size))
            table[:, cell1] = src.take(src1, axis=1) * mult1
            part = src.take(src2, axis=1) * mult2
            part += table.take(cell2, axis=1)
            table[:, cell2] = part
        return table.reshape(lead + (rows, 2 * n - 1, 2 * n + 1))

    def synthesis(self, cells: np.ndarray) -> np.ndarray:
        """Node values sum_(d, m) cells[d, m] r^d (1 - t)^(n-1) (cos or sin
        m theta) of a real cell table (..., 2n-1, 2n+1) laid out as
        ``_cell_index`` says, shape (..., Q): the radial product, then the
        trig product."""
        return ((self._powers @ cells) @ self._trig).reshape(cells.shape[:-2] + (-1,))

    def analysis(self, w: np.ndarray) -> np.ndarray:
        """The transpose of ``synthesis``: the real cells
        sum_q r^d (1 - t)^(n-1) (cos or sin m theta) w of node weights
        w (..., Q), shape (..., 2n-1, 2n+1) as ``_cell_index`` lays them
        out; the trig product, then the radial one."""
        spec = w.reshape(w.shape[:-1] + self._grid) @ self._trig.T
        return self._powers.T @ spec

    def gram(self, w: np.ndarray) -> np.ndarray:
        """sum_q s_i conj(s_j) rw w (rw^2 w, doubled) for real node weights
        w (..., Q); hermitian to the bit: G_ij = C[i+j, |i-j|] + i sgn(i-j)
        S[i+j, |i-j|] for the cos and sin cells C, S of w's ``analysis``."""
        if w.dtype.kind == "c":
            raise TypeError("gram takes real node weights")
        return self.gram_of_cells(self.analysis(w))

    def gram_of_cells(self, cells: np.ndarray) -> np.ndarray:
        """The Gram that ``gram`` gathers from the cells (..., 2n-1, 2n+1)
        of a weight's ``analysis``, shape (..., n, n)."""
        lead, (cos_cell, sin_cell) = cells.shape[:-2], self._gram_cells
        cells = cells.reshape(lead + (-1,))
        g = np.empty(lead + (self._n, self._n), complex)
        g.real = cells.take(cos_cell, axis=-1)
        g.imag = cells.take(sin_cell, axis=-1) * self._gram_sign
        return g


def _cell_index(n: int, power, mode, sine):
    """The flat index, in the (2n-1, 2n+1) cell table of a kernel of n
    monomials, of the cell of r^power cos(|mode| theta) (``sine`` 0) or
    r^power sin(|mode| theta) (``sine`` 1): cos m in column m <= n, sin m in
    column n + m, 1 <= m <= n, so a sine of mode 0 names no sin cell."""
    return power * (2 * n + 1) + np.abs(mode) + n * np.asarray(sine)


def _scatter_tables(n: int, parts: int):
    """``_ThetaFourier.pairings``' index tables for n sections: a triple
    (source, multiplier, cell) for the modes m >= 0 and one for m < 0, in
    each of which no cell repeats.  A source indexes the interleaved
    (Re, Im) entries of the flattened coefficient matrix, a cell the
    flattened real (row, power, cos/sin mode) table."""
    i, j = np.indices((n, n)).reshape(2, -1)
    pair = np.arange(n * n)
    # (coefficient, power, mode) of each pair for P, P_z and P_zzbar
    terms = [(np.ones(n * n), i + j, j - i), (j, i + j - 1, j - i - 1), (i * j, i + j - 2, j - i)]
    # the part each row reads and whether it is its real (0) or imaginary (1) one
    rows = [(0, 0), (1, 0), (1, 1), (2, 0)][: 1 if parts == 1 else 4]
    src, mult, cell, neg = [], [], [], []
    for row, (part, imag) in enumerate(rows):
        coef, power, mode = terms[part]
        cos = row * (2 * n - 1) * (2 * n + 1) + _cell_index(n, power, mode, 0)
        # cos|m| takes the same part of a, sin|m| the other one, signed
        src += [2 * pair + imag, 2 * pair + 1 - imag]
        mult += [coef, (2 * imag - 1) * np.sign(mode) * coef]
        cell += [cos, cos + n]
        neg += [mode < 0] * 2
    src, mult, cell, neg = map(np.concatenate, (src, mult, cell, neg))
    return [(src[sel], mult[sel], cell[sel]) for sel in ((mult != 0) & ~neg, (mult != 0) & neg)]


def _legendre_table(x, lmax, mmax):
    """Normalised associated Legendre values Pbar_l^m(x), shape
    (mmax+1, lmax+1, len(x)), zero where l < m; orthonormal against
    (1/2) dx on [-1, 1], with the Condon-Shortley phase.

    The normalised three-term recurrence (Holmes and Featherstone, 2002):
    the sectoral values Pbar_m^m = -sqrt((2m+1)/(2m)) u Pbar_(m-1)^(m-1),
    u = sqrt(1 - x^2), then for every order at once
        Pbar_l^m = a_lm x Pbar_(l-1)^m - b_lm Pbar_(l-2)^m.
    Every value is formed from normalised ones, so nothing overflows.
    """
    table = np.zeros((mmax + 1, lmax + 1, x.size))
    m = np.arange(mmax + 1)
    u = np.sqrt((1.0 - x) * (1.0 + x))
    step = -np.sqrt((2 * m[1:] + 1) / (2.0 * m[1:]))[:, None] * u
    table[m, m] = np.cumprod(np.vstack([np.ones_like(x), step]), axis=0)
    for l in range(1, lmax + 1):
        top = min(l, mmax + 1)  # the orders m < l
        mm = m[:top, None]
        a = np.sqrt((2 * l - 1) * (2 * l + 1) / ((l - mm) * (l + mm)))
        table[:top, l] = a * x * table[:top, l - 1]
        if l >= 2:
            b = np.sqrt((2 * l + 1) * (l + mm - 1) * (l - mm - 1)
                        / ((l - mm) * (l + mm) * (2 * l - 3.0)))
            table[:top, l] -= b * table[:top, l - 2]
    return table


class SphericalOperator:
    """A function of the grid Laplacian, Y diag(multiplier) Y^T diag(qw / V),
    applied mode by mode (see ``ManifoldModel.laplacian``).

    ``eigenvalues`` holds the Laplacian's lambda_l / V for l < radial_nodes;
    ``multiplier`` gives the operator's own value on the degree-l harmonics.
    Functions off the harmonic band are sent to zero.  The operator is
    self-adjoint in the quadrature inner product.
    """

    def __init__(self, legendre, weights, eigenvalues, azimuthal_nodes, multiplier):
        self.eigenvalues = eigenvalues
        self._legendre = legendre
        self._weights = weights
        self._azimuthal_nodes = azimuthal_nodes
        scaled = legendre * np.asarray(multiplier)[:, None]
        self._kernels = np.swapaxes(scaled, 1, 2) @ legendre * weights

    def spectral(self, multiplier) -> "SphericalOperator":
        """The operator with value ``multiplier[l]`` on the degree-l harmonics."""
        return SphericalOperator(
            self._legendre, self._weights, self.eigenvalues, self._azimuthal_nodes, multiplier
        )

    def __matmul__(self, x):
        x = np.asarray(x, dtype=float)
        nm, nr, _ = self._kernels.shape
        na = self._azimuthal_nodes
        spec = np.fft.rfft(x.reshape(nr, na, -1), axis=1)
        modes = np.ascontiguousarray(spec[:, :nm].transpose(1, 0, 2))
        out = np.zeros_like(spec)
        # real kernels act on the real and imaginary parts as one real array
        out[:, :nm] = (self._kernels @ modes.view(float)).view(complex).transpose(1, 0, 2)
        return np.fft.irfft(out, n=na, axis=1).reshape(x.shape)


def _sized_form(model: ManifoldModel, h) -> HermitianForm:
    """``h`` as a ``HermitianForm`` on the model's N sections, the one size
    check of every public entry point that takes a form."""
    h = _as_form(h)
    if h.dim != model.N:
        raise DimensionError(f"form has dim {h.dim}, model needs {model.N}")
    return h


@dataclass
class MetricWeight:
    """Hermitian metric on L^k relative to the reference: rw * exp(-u).

    ``bergman`` metrics carry the inducing form H (so curvature is available
    in closed form) and H^{-1}, formed from the form's kept Cholesky
    ``factor`` L, H = L L*; ``grid`` metrics carry the potential u at the
    nodes.
    """

    kind: str
    form: Optional[HermitianForm] = None
    potential_values: Optional[np.ndarray] = None
    inverse: Optional[np.ndarray] = None

    @classmethod
    def bergman(cls, h: HermitianForm) -> "MetricWeight":
        """The Bergman metric of H, with ``cholesky_lower``'s checks: its
        conditioning guard reads tr H^{-1} from the inverse formed here."""
        inverse, inverse_trace = _inverse_of_factor(h.factor())
        _guard_conditioning(h, inverse_trace)
        return cls(kind="bergman", form=h, inverse=inverse)

    @classmethod
    def grid(cls, u: np.ndarray) -> "MetricWeight":
        u = np.asarray(u, dtype=float)
        if not np.all(np.isfinite(u)):
            raise ValueError("grid potential must be finite at all nodes")
        return cls(kind="grid", potential_values=u)

    @classmethod
    def reference(cls, model: ManifoldModel) -> "MetricWeight":
        return cls.grid(np.zeros(model.Q))

    def potential(self, model: ManifoldModel) -> np.ndarray:
        """u with metric = ref_weight * exp(-u); grid values or the
        Fubini-Study potential log(sum_i |s'_i|^2 * ref_weight) for bergman,
        the log of the kernel's synthesis of s* H^{-1} s = sum_i |s'_i|^2."""
        if self.kind == "grid":
            if self.potential_values.shape != (model.Q,):
                raise DimensionError("grid potential length does not match node count")
            return self.potential_values
        _sized_form(model, self.form)
        p = model._theta_fourier().pairings(self.inverse, parts=1)[0]
        return np.log(p)


def build_p1_model(
    k: int,
    radial_nodes: Optional[int] = None,
    azimuthal_nodes: Optional[int] = None,
    line_degree: int = 1,
) -> ManifoldModel:
    """Model of (P^1, O(d)) at power k with monomial sections.

    Default node counts 2dk+4 (radial Gauss-Legendre) and 4dk+4 (azimuthal)
    make the quadrature exact for products of two section pairings; the hard
    floors dk+1 and 2dk+1 are the single-pairing exactness thresholds.
    """
    if k < 1:
        raise ConfigurationError("k must be a positive integer")
    if line_degree < 1:
        raise ConfigurationError("line_degree must be a positive integer")
    deg = line_degree * k
    nr = radial_nodes if radial_nodes is not None else 2 * deg + 4
    na = azimuthal_nodes if azimuthal_nodes is not None else 4 * deg + 4
    if nr < deg + 1:
        raise ConfigurationError(
            f"radial_nodes={nr} below exactness threshold {deg + 1}"
        )
    if na < 2 * deg + 1:
        raise ConfigurationError(
            f"azimuthal_nodes={na} below exactness threshold {2 * deg + 1}"
        )
    x, w = np.polynomial.legendre.leggauss(nr)
    t_r = 0.5 * (x + 1.0)
    w_r = 0.5 * w
    th = 2.0 * np.pi * np.arange(na) / na
    T, TH = np.meshgrid(t_r, th, indexing="ij")
    t = T.ravel()
    theta = TH.ravel()
    V = float(line_degree)
    qw = (np.outer(w_r, np.full(na, 1.0 / na)) * V).ravel()
    r = np.sqrt(t / (1.0 - t))
    z = r * np.exp(1j * theta)
    rw = (1.0 + np.abs(z) ** 2) ** (-deg)
    return ManifoldModel(
        k=k,
        line_degree=line_degree,
        N=deg + 1,
        V=V,
        nodes=z,
        t=t,
        theta=theta,
        quad_weights=qw,
        ref_weight=rw,
        radial_nodes=nr,
        azimuthal_nodes=na,
    )


def build_p1_anticanonical_model(k, radial_nodes=None, azimuthal_nodes=None):
    """Test-bed for L = -K on P^1, i.e. O(2): doubled monomial degree."""
    return build_p1_model(k, radial_nodes, azimuthal_nodes, line_degree=2)


def reference_density(model: ManifoldModel) -> Density:
    return Density(model.quad_weights.copy())


def fs_metric(model: ManifoldModel, h) -> MetricWeight:
    """The metric with sum_i |s'_i|^2 = 1 over any H-orthonormal basis {s'_i}.

    Returned as a bergman MetricWeight; its potential is
    u = log(sum_i |s'_i|^2 * ref_weight), independent of the orthonormal
    basis chosen.
    """
    return MetricWeight.bergman(_sized_form(model, h))


def _bergman_synthesis(model: ManifoldModel, a: np.ndarray):
    """(rows, num, c) from one three-part synthesis of P = s* A s: the
    kernel's rows rw (P, Re P_z, Im P_z, P_zzbar), num = P P_zzbar - |P_z|^2
    and c = (1+|z|^2)^2 qw / (V P^3), all formed from those rows (so num
    carries rw^2 and c 1/rw^3).  num c is mu_B / rw, the curvature of
    log P over P as node weights (module docstring); the Cauchy-Binet
    identity P P_zzbar - |P_z|^2 = sum_{i<j} |W_i W'_j - W_j W'_i|^2,
    W* W = P, only explains why num is nonnegative in exact arithmetic.
    Every Bergman consumer reads this one synthesis."""
    rows = model._theta_fourier().pairings(a)
    p, pz_re, pz_im, pzz = rows
    num = p * pzz
    # c holds the squares, then P^3, so the passes form two node arrays
    c = np.square(pz_re)
    num -= c
    np.square(pz_im, out=c)
    num -= c
    np.multiply(p, p, out=c)
    c *= p
    np.divide(model._volume_factor(), c, out=c)
    return rows, num, c


def curvature_volume(model: ManifoldModel, m: MetricWeight) -> Density:
    """Node weights of the volume form of the metric's curvature.

    Bergman metrics are handled analytically from the polynomial data; grid
    metrics use the spectral Laplacian, giving density
    1 + (Lap u)/(4 pi k).  Total mass must reproduce V to 1e-8 (a quadrature
    exactness check, not a rescaling) and the density must be positive.
    """
    return Density(_weight_and_volume(model, m)[1])


def _weight_and_volume(model: ManifoldModel, m: MetricWeight):
    """(weights, volume): the node weights exp(-u) volume that hilb's
    ``gram`` reads (exp(-u) is the metric weight over rw, and the gram
    carries rw), and the ``curvature_volume`` weights, with its checks."""
    if m.kind == "bergman":
        _sized_form(model, m.form)
        return _bergman_weight_and_volume(model, m.inverse)
    u = m.potential(model)
    vol = 1.0 + (model.laplacian() @ u) / (4.0 * np.pi * model.k)
    vol *= model.quad_weights
    _audit_volume(model, vol)
    return np.exp(-u) * vol, vol


def _bergman_weight_and_volume(model: ManifoldModel, inverse: np.ndarray):
    """``_weight_and_volume`` of the Bergman metric whose form has the
    inverse ``inverse``, from one ``_bergman_synthesis`` of P = s* H^{-1} s:
    the curvature of the k-th root of P is that of log P over k, and
    exp(-u) = 1/(rw P), so the gram reads num c / k and the volume is
    num c P / k (module docstring)."""
    rows, num, c = _bergman_synthesis(model, inverse)
    num *= c
    num /= model.k
    vol = np.multiply(num, rows[0], out=c)
    _audit_volume(model, vol)
    return num, vol


def _audit_volume(model: ManifoldModel, vol: np.ndarray):
    """The checks of ``curvature_volume``'s node weights ``vol``: a
    ``CurvaturePositivityError`` naming the worst node where one is not
    positive, a ``ValueError`` where one is not finite, and a
    ``MassDefectError`` where their sum misses V by more than
    ``CURVATURE_MASS_TOL`` V."""
    if not vol.min() > 0.0:  # a node of nonpositive (or nan) curvature
        dens = vol / model.quad_weights
        worst = int(np.argmin(dens))
        if dens[worst] <= 0.0:
            raise CurvaturePositivityError(
                f"curvature density is {dens[worst]:.3e} at node {worst}: "
                "metric is not positively curved",
                node=worst,
                value=float(dens[worst]),
            )
        Density(vol)  # raises: the weights are not finite
    defect = abs(vol.sum() - model.V)
    if defect > CURVATURE_MASS_TOL * model.V:
        raise MassDefectError(
            f"curvature volume mass defect {defect:.3e} exceeds "
            f"{CURVATURE_MASS_TOL:g} * V; increase node counts",
            defect=defect,
        )

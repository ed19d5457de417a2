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
* Bergman metrics: fs_metric(H) has u = log(P rw) with P = s* H^{-1} s, so
  its weight is rw * exp(-u) = 1/P, and its curvature density is that of
  log P divided by k.  One synthesis of P therefore gives both factors of
  hilb(fs_metric(H)) = (N/V) sum_q s s* dens / (k P) qw; with
  mu_B = ``_pushforward_measure`` this reads
  hilb(fs_metric(H)) = (N / kV) Gram(mu_(H^{-1/2})).
* Section pairings: sum_ij A_ij conj(s_i) s_j = sum_ij A_ij r^(i+j)
  e^{i(j-i) theta} holds at most 2N - 1 powers of r and 2N - 1 modes in the
  equispaced theta.  One kernel, ``_ThetaFourier`` (tables of r^d, d <= 2N-2,
  and e^{im theta}, |m| <= N; cached per model), uses this both ways.
  Synthesis takes hermitian A, or a stack, to the node values of P = s* A s,
  P_z = s* A s' and P_zzbar = s'* A s', in O(nr N^2 + Q N); analysis takes
  node weights w, or a stack, to sum_q s_i conj(s_j) w =
  sum_r r^(i+j) w_hat(r, i-j), w_hat the theta-Fourier coefficients of w.
  Both rearrange the quadrature sums exactly, changing rounding only.
* Products of two pairings: s_a conj(s_b) s_c conj(s_d) =
  z^(a+c) conj(z)^(b+d), so a sum over the nodes of four sections against
  a weight depends only on (a+c, b+d) and is one entry of the Gram of the
  2N - 1 monomials of degree <= 2N - 2.  The doubled kernel
  (``_theta_fourier(doubled=True)``) is that Gram's analysis: modes
  |m| <= 2N - 2 and powers r^d, d <= 4N - 4, with ref_weight^2 =
  (1 - t)^(2N - 2) folded into the powers, r^d ref_weight^2 =
  sqrt(t)^d sqrt(1 - t)^(4N - 4 - d) in [0, 1], so that no power overflows
  where r^d alone would.  Its gram(w) is sum_q z^p conj(z)^p' ref_weight^2 w;
  gathered by pair_sums into four-section sums, it serves both Jacobians,
  the full-Gram moment Newton's (``calabi``) and psi's (``pushforward``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg as sla

from .errors import (
    ConfigurationError,
    CurvaturePositivityError,
    DimensionError,
    MassDefectError,
)
from .linalg import HermitianForm, cholesky_lower

CURVATURE_MASS_TOL = 1e-8


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
    (``_ThetaFourier``) relies on that and never reads ``sections``.

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
    geometry: str = "projective_line"
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
    """Synthesis and analysis of section pairings on the model's grid (see
    the module docstring).  conj(s_i) s_j, conj(s_i) s_j' and conj(s_i') s_j'
    are c r^d e^{im theta} with (c, d, m) = (1, i+j, j-i), (j, i+j-1, j-i-1)
    and (ij, i+j-2, j-i); the index tables place each pair with c != 0 in
    a (part, power, mode) table, part 0 first and complete.  The doubled
    kernel takes the 2N - 1 monomials of degree <= 2N - 2 for the sections
    and carries ref_weight^2 in its powers."""

    def __init__(self, model: "ManifoldModel", doubled: bool = False):
        n, na = model.N, model.azimuthal_nodes
        t = model.t[::na]
        if doubled:
            a, b = np.divmod(np.arange(n * n), n)
            n = 2 * n - 1
            self._pair_sum = (a[:, None] + a) * n + b[:, None] + b
            d = np.arange(2 * n - 1)
            self._powers = np.sqrt(t)[:, None] ** d * np.sqrt(1.0 - t)[:, None] ** (d[-1] - d)
        else:
            self._powers = np.sqrt(t / (1.0 - t))[:, None] ** np.arange(2 * n - 1)
        self._n, self._grid = n, (model.radial_nodes, na)
        self._modes = np.exp(1j * np.outer(np.arange(-n, n + 1), model.theta[:na]))
        i, j = np.indices((n, n)).reshape(2, -1)
        coef = np.concatenate([np.ones(n * n), j, i * j])
        power = np.concatenate([i + j, i + j - 1, i + j - 2])
        mode = np.concatenate([j - i, j - i - 1, j - i]) + n
        part = np.repeat(np.arange(3), n * n)
        keep = coef != 0
        self._pair = np.tile(np.arange(n * n), 3)[keep]
        self._coef = coef[keep]
        self._cell = ((part * (2 * n - 1) + power) * (2 * n + 1) + mode)[keep]
        self._gram_cell = (i + j) * (2 * n + 1) + (i - j + n)

    def pairings(self, a: np.ndarray, parts: int = 3) -> np.ndarray:
        """Node values of P = s* a s and, with ``parts`` = 3, of P_z and
        P_zzbar, for a (..., N, N); complex, shape (..., parts, Q)."""
        lead, n = a.shape[:-2], self._n
        cut = n * n if parts == 1 else self._pair.size
        table = np.zeros(lead + (parts, 2 * n - 1, 2 * n + 1), complex)
        coefs = a.reshape(lead + (n * n,))[..., self._pair[:cut]] * self._coef[:cut]
        table.reshape(lead + (-1,))[..., self._cell[:cut]] = coefs
        return (self._powers @ table @ self._modes).reshape(lead + (parts, -1))

    def gram(self, w: np.ndarray) -> np.ndarray:
        """sum_q s_i(q) conj(s_j(q)) w(q) for node weights w (..., Q)."""
        lead = w.shape[:-1]
        spec = w.reshape(lead + self._grid) @ self._modes.T
        cells = (self._powers.T @ spec).reshape(lead + (-1,))
        return cells[..., self._gram_cell].reshape(lead + (self._n, self._n))

    def pair_sums(self, g: np.ndarray) -> np.ndarray:
        """The (..., N^2, N^2) table g[..., i + c, j + d] at row (i, j) and
        column (c, d) of doubled Grams g (..., 2N - 1, 2N - 1): the node sums
        of s_i conj(s_j) s_c conj(s_d).  Doubled kernel only."""
        return g.reshape(g.shape[:-2] + (-1,))[..., self._pair_sum]


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


@dataclass
class MetricWeight:
    """Hermitian metric on L^k relative to the reference: rw * exp(-u).

    ``bergman`` metrics carry the inducing form H (so curvature is available
    in closed form), its Cholesky factor L, H = L L* (the form's kept
    ``factor``), and H^{-1} formed from L; ``grid`` metrics carry the
    potential u at the nodes.
    """

    kind: str
    form: Optional[HermitianForm] = None
    potential_values: Optional[np.ndarray] = None
    factor: Optional[np.ndarray] = None
    inverse: Optional[np.ndarray] = None

    @classmethod
    def bergman(cls, h: HermitianForm) -> "MetricWeight":
        factor = cholesky_lower(h)
        # zpotri writes H^{-1} into the lower half and keeps the factor's
        # zero upper half
        low = sla.lapack.zpotri(factor, lower=True)[0]
        inverse = low + low.conj().T
        np.fill_diagonal(inverse, low.diagonal().real)
        return cls(kind="bergman", form=h, factor=factor, inverse=inverse)

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
        with sum_i |s'_i|^2 = s* H^{-1} s."""
        if self.kind == "grid":
            if self.potential_values.shape != (model.Q,):
                raise DimensionError("grid potential length does not match node count")
            return self.potential_values
        if self.form.dim != model.N:
            raise DimensionError(f"form has dim {self.form.dim}, model needs {model.N}")
        p = model._theta_fourier().pairings(self.inverse, parts=1)[0].real
        return np.log(p * model.ref_weight)

    def weight(self, model: ManifoldModel) -> np.ndarray:
        return model.ref_weight * np.exp(-self.potential(model))

    def rescaled(self, c: float) -> "MetricWeight":
        """Metric scaled by the constant c > 0 (potential shifts by -log c)."""
        if c <= 0:
            raise ValueError("metric scale must be positive")
        if self.kind == "bergman":
            return MetricWeight.bergman(self.form.scaled(c))
        return MetricWeight.grid(self.potential_values - np.log(c))


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
        geometry="projective_line" if line_degree == 1 else "fano_anticanonical",
    )


def build_p1_anticanonical_model(k, radial_nodes=None, azimuthal_nodes=None):
    """Test-bed for L = -K on P^1, i.e. O(2): doubled monomial degree."""
    return build_p1_model(k, radial_nodes, azimuthal_nodes, line_degree=2)


def reference_density(model: ManifoldModel) -> Density:
    return Density(model.quad_weights.copy())


def fs_metric(model: ManifoldModel, h: HermitianForm) -> MetricWeight:
    """The metric with sum_i |s'_i|^2 = 1 over any H-orthonormal basis {s'_i}.

    Returned as a bergman MetricWeight; its potential is
    u = log(sum_i |s'_i|^2 * ref_weight), independent of the orthonormal
    basis chosen.
    """
    if h.dim != model.N:
        raise DimensionError(f"form has dim {h.dim}, model needs {model.N}")
    return MetricWeight.bergman(h)


def _curvature_numerator(p: np.ndarray, pz: np.ndarray, pzz: np.ndarray) -> np.ndarray:
    """P P_zzbar - |P_z|^2 at the nodes, for real P and P_zzbar."""
    num = p * pzz
    num -= np.square(pz.real)
    num -= np.square(pz.imag)
    return num


def _curvature_density(model: ManifoldModel, a: np.ndarray):
    """Curvature of log P, P = s* A s, as node weights.

    Returns (weights, 1/P) with
        weights = (P P_zzbar - |P_z|^2) / P^2 * (1+|z|^2)^2 qw / V,
    i.e. ddbar log P divided by the reference form, times the quadrature
    weights, for the pullback of the Fubini-Study form along z -> [W(z)],
    W* W = s* A s.  The numerator is formed directly; the Cauchy-Binet
    identity
        P P_zzbar - |P_z|^2 = sum_{i<j} |W_i W'_j - W_j W'_i|^2
    only explains why it is nonnegative in exact arithmetic.
    """
    p, pz, pzz = model._theta_fourier().pairings(a)
    p = p.real
    inv_p = 1.0 / p
    weights = _curvature_numerator(p, pz, pzz.real)
    weights *= model._volume_factor()
    weights *= inv_p
    weights *= inv_p
    return weights, inv_p


def _pushforward_measure(model: ManifoldModel, bm: np.ndarray) -> np.ndarray:
    """Node weights mu_B = curvature weights / P of the curve pushforward.

    The weights and 1/P, P = |B s|^2, are ``_curvature_density``'s for A = B^2,
    so mu_B is the Fubini-Study volume of the moved curve W = B s divided by
    |W|^2.  Summing s s* against it gives the pushforward matrix
    M = B^{-1} Phi(B) B^{-1}, and W W* against it gives Phi(B).
    """
    weights, inv_p = _curvature_density(model, bm @ bm)
    weights *= inv_p
    return weights


def curvature_volume(model: ManifoldModel, m: MetricWeight) -> Density:
    """Node weights of the volume form of the metric's curvature.

    Bergman metrics are handled analytically from the polynomial data; grid
    metrics use the spectral Laplacian, giving density
    1 + (Lap u)/(4 pi k).  Total mass must reproduce V to 1e-8 (a quadrature
    exactness check, not a rescaling) and the density must be positive.
    """
    return Density(_weight_and_volume(model, m)[1])


def _weight_and_volume(model: ManifoldModel, m: MetricWeight):
    """(weight, volume): node arrays of the metric weight rw * exp(-u) and of
    the ``curvature_volume`` weights, with its checks.  A bergman metric's
    weight is the 1/P of the synthesis its curvature is formed from (module
    docstring), a grid metric's is ``m.weight``."""
    if m.kind == "bergman":
        # P = s* H^{-1} s, the sum of |W|^2 over H-orthonormal rows W; the
        # curvature of the k-th root divides that of log P by k
        vol, weight = _curvature_density(model, m.inverse)
        vol /= model.k
    else:
        u = m.potential(model)
        vol = 1.0 + (model.laplacian() @ u) / (4.0 * np.pi * model.k)
        vol *= model.quad_weights
        weight = m.weight(model)
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
    return weight, vol


def dump_model_csv(model: ManifoldModel, path) -> None:
    """CSV: node index, z_re, z_im, quad_weight, ref_weight, then section
    values with re and im interleaved."""
    with open(path, "w") as fh:
        header = ["index", "z_re", "z_im", "quad_weight", "ref_weight"]
        for j in range(model.N):
            header += [f"s{j}_re", f"s{j}_im"]
        fh.write(",".join(header) + "\n")
        for q in range(model.Q):
            row = [
                str(q),
                repr(float(model.nodes[q].real)),
                repr(float(model.nodes[q].imag)),
                repr(float(model.quad_weights[q])),
                repr(float(model.ref_weight[q])),
            ]
            for j in range(model.N):
                row.append(repr(float(model.sections[j, q].real)))
                row.append(repr(float(model.sections[j, q].imag)))
            fh.write(",".join(row) + "\n")

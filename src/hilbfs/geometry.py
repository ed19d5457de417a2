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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg as sla
from scipy.special import gammaln, lpmv

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

    @property
    def mass(self) -> float:
        return float(self.weights.sum())


@dataclass
class ManifoldModel:
    """Quadrature nodes, section values and reference metric data on P^1."""

    k: int
    line_degree: int
    N: int
    V: float
    nodes: np.ndarray          # complex chart coordinates, length Q
    t: np.ndarray              # radial variable t = |z|^2/(1+|z|^2)
    theta: np.ndarray
    quad_weights: np.ndarray   # sums to V
    sections: np.ndarray       # N x Q monomial values z^j
    sections_dz: np.ndarray    # N x Q, d/dz of the rows
    ref_weight: np.ndarray     # (1+|z|^2)^(-dk)
    radial_nodes: int
    azimuthal_nodes: int
    geometry: str = "projective_line"
    _laplacian: Optional["SphericalOperator"] = field(default=None, repr=False)

    @property
    def Q(self) -> int:
        return self.nodes.shape[0]

    @property
    def monomial_degree(self) -> int:
        """Degree dk of the curve embedded in P^(N-1) by its sections: the
        total mass of the pulled-back Fubini-Study form."""
        return self.line_degree * self.k

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


def _legendre_table(x, lmax, mmax):
    """Normalised associated Legendre values Pbar_l^m(x), shape
    (mmax+1, lmax+1, len(x)), zero where l < m; orthonormal against
    (1/2) dx on [-1, 1]."""
    table = np.zeros((mmax + 1, lmax + 1, x.size))
    for m in range(mmax + 1):
        l = np.arange(m, lmax + 1)
        log_norm = 0.5 * (np.log(2 * l + 1) + gammaln(l - m + 1) - gammaln(l + m + 1))
        table[m, m:] = lpmv(m, l[:, None], x) * np.exp(log_norm)[:, None]
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
    in closed form) and its Cholesky factor L, H = L L*; ``grid`` metrics
    carry the potential u at the nodes.
    """

    kind: str
    form: Optional[HermitianForm] = None
    potential_values: Optional[np.ndarray] = None
    factor: Optional[np.ndarray] = None

    @classmethod
    def bergman(cls, h: HermitianForm) -> "MetricWeight":
        return cls(kind="bergman", form=h, factor=cholesky_lower(h))

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
        Fubini-Study potential log(sum_i |s'_i|^2 * ref_weight) for bergman."""
        if self.kind == "grid":
            if self.potential_values.shape != (model.Q,):
                raise DimensionError("grid potential length does not match node count")
            return self.potential_values
        if self.form.dim != model.N:
            raise DimensionError(f"form has dim {self.form.dim}, model needs {model.N}")
        rows = sla.solve_triangular(self.factor, model.sections, lower=True)
        p = np.einsum("iq,iq->q", rows, rows.conj()).real
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
    powers = np.arange(deg + 1)
    sections = z[None, :] ** powers[:, None]
    sections_dz = np.zeros_like(sections)
    if deg >= 1:
        sections_dz[1:] = powers[1:, None] * z[None, :] ** (powers[1:, None] - 1)
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
        sections=sections,
        sections_dz=sections_dz,
        ref_weight=rw,
        radial_nodes=nr,
        azimuthal_nodes=na,
        geometry="projective_line" if line_degree == 1 else "fano_anticanonical",
    )


def build_p1_anticanonical_model(k, radial_nodes=None, azimuthal_nodes=None):
    """Test-bed for L = -K on P^1, i.e. O(2): doubled monomial degree."""
    return build_p1_model(k, radial_nodes, azimuthal_nodes, line_degree=2)


def integrate(model: ManifoldModel, pointwise, measure: Density):
    """sum(pointwise * weights), numpy's pairwise summation."""
    p = np.asarray(pointwise)
    if p.shape != (model.Q,) or measure.weights.shape != (model.Q,):
        raise DimensionError("integrand and measure must match the node count")
    return (p * measure.weights).sum()


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


def _curvature_density(model: ManifoldModel, w: np.ndarray, wz: np.ndarray):
    """Curvature density of log P, P = sum_i |w_i|^2, against omega_ref.

    ``w`` holds the section rows W_i at the nodes and ``wz`` their
    z-derivatives.  Returns (density, P) with
        density = (P P_zzbar - |P_z|^2) / P^2 * (1+|z|^2)^2 / V,
    i.e. ddbar log P divided by the reference form, for the pullback of
    the Fubini-Study form along z -> [W(z)].  The numerator is formed
    directly; the Cauchy-Binet identity
        P P_zzbar - |P_z|^2 = sum_{i<j} |W_i W'_j - W_j W'_i|^2
    only explains why it is nonnegative in exact arithmetic.
    """
    p, pz, pzz = _curvature_sums(w, wz)
    x2 = (1.0 + np.abs(model.nodes) ** 2) ** 2
    dens = (p * pzz - np.abs(pz) ** 2) / p**2 * x2 / model.V
    return dens, p


def _curvature_sums(w: np.ndarray, wz: np.ndarray):
    """P = sum_i |W_i|^2 and its derivatives P_z, P_zzbar at the nodes."""
    p = np.einsum("iq,iq->q", w, w.conj()).real
    pz = np.einsum("iq,iq->q", wz, w.conj())
    pzz = np.einsum("iq,iq->q", wz, wz.conj()).real
    return p, pz, pzz


def _pushforward_measure(model: ManifoldModel, bm: np.ndarray) -> np.ndarray:
    """Node weights mu_B = density * quad_weights / P of the curve pushforward.

    ``density`` and P = |B s|^2 are ``_curvature_density``'s for the moved
    sections W = B s, so mu_B is the Fubini-Study volume of the moved curve
    divided by |W|^2.  Summing s s* against it gives the pushforward matrix
    M = B^{-1} Phi(B) B^{-1}, and W W* against it gives Phi(B).
    """
    dens, p = _curvature_density(model, bm @ model.sections, bm @ model.sections_dz)
    return dens * model.quad_weights / p


def _pushforward_measure_derivative(model: ManifoldModel, bm: np.ndarray, dirs):
    """Derivatives of ``_pushforward_measure`` at B along each of ``dirs``.

    ``dirs`` stacks the directions A (n_dirs x N x N) in which B moves; Z
    and Z' are the section rows and their z-derivatives, and W = B Z.  With
    the table of per-node outer products conj(X_i) Y_j flattened over ij,
    each of
        dP = 2 Re(conj(W) . AZ),  dP_z = AZ' . conj(W) + W' . conj(AZ),
        dP_zzbar = 2 Re(conj(W') . AZ')
    is one product of the flattened directions with such a table (A is
    hermitian, so conj(A_ij) = A_ji).  The measure is the curvature
    numerator P P_zzbar - |P_z|^2 over P^3, times the chart factor and the
    quadrature weight.  Returns d mu_B, n_dirs x Q.
    """
    z, zz = model.sections, model.sections_dz
    w, wz = bm @ z, bm @ zz
    n, q = z.shape

    def outer(x, y):
        return (x.conj()[:, None, :] * y[None, :, :]).reshape(n * n, q)

    a = dirs.reshape(len(dirs), n * n)
    dp = 2.0 * (a @ outer(w, z)).real
    dpz = a @ (outer(w, zz) + outer(z, wz))
    dpzz = 2.0 * (a @ outer(wz, zz)).real
    p, pz, pzz = _curvature_sums(w, wz)
    num = p * pzz - np.abs(pz) ** 2
    dnum = dp * pzz + p * dpzz - 2.0 * (pz.conj() * dpz).real
    x2 = (1.0 + np.abs(model.nodes) ** 2) ** 2
    return (dnum / p**3 - 3.0 * num * dp / p**4) * x2 * model.quad_weights / model.V


def _weighted_gram(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_q x_i(q) conj(x_j(q)) w(q) for rows ``x`` (n x Q) and weights ``w``."""
    return np.einsum("iq,jq,q->ij", x, x.conj(), w)


def curvature_volume(model: ManifoldModel, m: MetricWeight) -> Density:
    """Node weights of the volume form of the metric's curvature.

    Bergman metrics are handled analytically from the polynomial data; grid
    metrics use the spectral Laplacian, giving density
    1 + (Lap u)/(4 pi k).  Total mass must reproduce V to 1e-8 (a quadrature
    exactness check, not a rescaling) and the density must be positive.
    """
    if m.kind == "bergman":
        # H-orthonormal rows W = L^{-1} s with H = L L*; the curvature of the
        # k-th root divides the density of log P by k
        w = sla.solve_triangular(m.factor, model.sections, lower=True)
        wz = sla.solve_triangular(m.factor, model.sections_dz, lower=True)
        dens, _ = _curvature_density(model, w, wz)
        dens = dens / model.k
    else:
        u = m.potential(model)
        dens = 1.0 + (model.laplacian() @ u) / (4.0 * np.pi * model.k)
    worst = int(np.argmin(dens))
    if dens[worst] <= 0.0:
        raise CurvaturePositivityError(
            f"curvature density is {dens[worst]:.3e} at node {worst}: "
            "metric is not positively curved",
            node=worst,
            value=float(dens[worst]),
        )
    weights = dens * model.quad_weights
    defect = abs(weights.sum() - model.V)
    if defect > CURVATURE_MASS_TOL * model.V:
        raise MassDefectError(
            f"curvature volume mass defect {defect:.3e} exceeds "
            f"{CURVATURE_MASS_TOL:g} * V; increase node counts",
            defect=defect,
        )
    return Density(weights)


def mock_general_type_model(k: int, radial_nodes=None, azimuthal_nodes=None) -> ManifoldModel:
    """Abstract stand-in flagged general type: the P^1 grid, whose
    quadrature weights serve as the canonical base density.  Used only to
    exercise the canonical scaling law; it is not a geometric general-type
    manifold."""
    model = build_p1_model(k, radial_nodes, azimuthal_nodes)
    model.geometry = "general_type_mock"
    return model


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

"""Independent oracles used by the tests: direct quadrature of defining
integrals and Monte Carlo estimators.  These deliberately avoid the closed
forms and analytic shortcuts used by the production code."""

import math

import numpy as np
from scipy.special import gammaln, lpmv

from hilbfs.pushforward import hermitian_basis


def psi0_defining_quadrature(b, radial=160, azimuthal=160):
    """Defining integral of the ambient pushforward for N = 2, evaluated by
    direct quadrature on the w-chart of the target projective line.

    The integrand is Z_i conj(Z_j) / Q_B against the volume of the pulled
    back Fubini-Study form ddbar log Q_B, Q_B = |B Z|^2, Z = (1, w); the
    result is trace-normalised.  Numerics only; no matrix identities.
    """
    b = np.asarray(b, dtype=complex)
    x, wq = np.polynomial.legendre.leggauss(radial)
    t = 0.5 * (x + 1.0)
    wt = 0.5 * wq
    th = 2.0 * np.pi * np.arange(azimuthal) / azimuthal
    T, TH = np.meshgrid(t, th, indexing="ij")
    tt, th2 = T.ravel(), TH.ravel()
    r = np.sqrt(tt / (1.0 - tt))
    w = r * np.exp(1j * th2)
    qw = np.outer(wt, np.full(azimuthal, 1.0 / azimuthal)).ravel()
    z = np.vstack([np.ones_like(w), w])
    bz = b @ z
    bzd = b @ np.vstack([np.zeros_like(w), np.ones_like(w)])
    q = np.einsum("iq,iq->q", bz, bz.conj()).real
    qz = np.einsum("iq,iq->q", bzd, bz.conj())
    qzz = np.einsum("iq,iq->q", bzd, bzd.conj()).real
    dens = (q * qzz - np.abs(qz) ** 2) / q**2 * (1.0 + np.abs(w) ** 2) ** 2
    wts = dens * qw
    num = np.einsum("iq,jq,q->ij", z, z.conj(), wts / q)
    return num / np.real(np.trace(num))


def psi0_defining_mc(b, samples, rng):
    """Monte Carlo estimate of the same defining integral for any N.

    Uses the change of variables pulling the moved measure back to the
    uniform Fubini-Study measure, sampled through the complex Gaussian:
    E[(B^{-1}Z)(B^{-1}Z)^* / |Z|^2].  Returns (trace-normalised mean,
    entrywise standard error of the unnormalised mean, unnormalised mean).
    """
    b = np.asarray(b, dtype=complex)
    n = b.shape[0]
    binv = np.linalg.inv(b)
    total = np.zeros((n, n), dtype=complex)
    totalsq = np.zeros((n, n))
    chunk = 100_000
    done = 0
    while done < samples:
        m = min(chunk, samples - done)
        z = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        v = z @ binv.T
        nrm = np.einsum("mi,mi->m", z, z.conj()).real
        outer = np.einsum("mi,mj,m->ij", v, v.conj(), 1.0 / nrm)
        total += outer
        sq = np.einsum("mi,mj,m->ij", np.abs(v) ** 2, np.abs(v) ** 2, 1.0 / nrm**2)
        totalsq += np.abs(sq)
        done += m
    mean = total / samples
    second = totalsq / samples
    var = np.maximum(second - np.abs(mean) ** 2, 0.0)
    stderr = np.sqrt(var / samples)
    return mean / np.real(np.trace(mean)), stderr, mean


def mc_integral_p1(fn, samples, rng):
    """Monte Carlo integral of a chart function against the mass-one
    Fubini-Study volume of the projective line, by sampling the uniform
    measure through normalised complex Gaussian pairs."""
    chunk = 200_000
    done = 0
    total = 0.0
    totalsq = 0.0
    while done < samples:
        m = min(chunk, samples - done)
        z = rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))
        w = z[:, 1] / z[:, 0]
        vals = fn(w)
        total += vals.sum()
        totalsq += (vals**2).sum()
        done += m
    mean = total / samples
    var = max(totalsq / samples - mean**2, 0.0)
    return mean, np.sqrt(var / samples)


def sphere_basis(t, theta, lmax, mmax):
    """Real round-sphere harmonics Y_lm (x3 = 1 - 2t) sampled node by node,
    one column per (l, m) with l <= lmax and |m| <= min(l, mmax), and their
    Laplace eigenvalues -4 pi l (l+1).  Orthonormal for the grid quadrature
    divided by V; evaluated at every node, with no use of the tensor grid."""
    x3 = 1.0 - 2.0 * np.asarray(t)
    cols = []
    eigs = []
    for l in range(lmax + 1):
        for m in range(-min(l, mmax), min(l, mmax) + 1):
            am = abs(m)
            log_norm = 0.5 * (np.log(2 * l + 1) + gammaln(l - am + 1) - gammaln(l + am + 1))
            radial = lpmv(am, l, x3) * np.exp(log_norm)
            if m == 0:
                col = radial
            elif m > 0:
                col = math.sqrt(2.0) * radial * np.cos(m * theta)
            else:
                col = math.sqrt(2.0) * radial * np.sin(am * theta)
            cols.append(col)
            eigs.append(-4.0 * np.pi * l * (l + 1))
    return np.array(cols).T, np.array(eigs)


def section_rows(model):
    """The monomial sections z^j and their z-derivatives j z^(j-1) as N x Q
    rows, evaluated at the model's chart coordinates."""
    j = np.arange(model.N)[:, None]
    z = model.nodes[None, :]
    return z**j, j * z ** np.maximum(j - 1, 0)


def weighted_gram(x, w):
    """sum_q x_i(q) conj(x_j(q)) w(q) for rows ``x`` and weights ``w`` (Q, or
    a stack of them), by the defining sum over the nodes."""
    return np.einsum("iq,jq,...q->...ij", x, x.conj(), w)


def curvature_sums(w, wz):
    """P = sum_i |W_i|^2 and its derivatives P_z, P_zzbar at the nodes, from
    the rows W and their z-derivatives."""
    p = np.einsum("iq,iq->q", w, w.conj()).real
    pz = np.einsum("iq,iq->q", wz, w.conj())
    pzz = np.einsum("iq,iq->q", wz, wz.conj()).real
    return p, pz, pzz


def pairing_sums(model, a):
    """s* A s, s* A s' and s'* A s' at the nodes for hermitian A (N x N or a
    stack), from the section rows; shape (..., 3, Q)."""
    s, ds = section_rows(model)
    return np.stack(
        [np.einsum("iq,...ij,jq->...q", x.conj(), a, y) for x, y in ((s, s), (s, ds), (ds, ds))],
        axis=-2,
    )


def pushforward_measure_derivative(model, bm, dirs):
    """d mu_B along each direction A of ``dirs``, from the section rows Z, Z'
    and the per-node outer-product tables conj(X_i) Y_j: with W = B Z,
        dP = 2 Re(conj(W) . AZ),  dP_z = AZ' . conj(W) + W' . conj(AZ),
        dP_zzbar = 2 Re(conj(W') . AZ'),
    and d mu_B = (dnum / P^3 - 3 num dP / P^4) (1+|z|^2)^2 qw / V for the
    curvature numerator num = P P_zzbar - |P_z|^2."""
    z, zz = section_rows(model)
    w, wz = bm @ z, bm @ zz
    n, q = z.shape

    def outer(x, y):
        return (x.conj()[:, None, :] * y[None, :, :]).reshape(n * n, q)

    a = dirs.reshape(len(dirs), n * n)
    dp = 2.0 * (a @ outer(w, z)).real
    dpz = a @ (outer(w, zz) + outer(z, wz))
    dpzz = 2.0 * (a @ outer(wz, zz)).real
    p, pz, pzz = curvature_sums(w, wz)
    num = p * pzz - np.abs(pz) ** 2
    dnum = dp * pzz + p * dpzz - 2.0 * (pz.conj() * dpz).real
    x2 = (1.0 + np.abs(model.nodes) ** 2) ** 2
    return (dnum / p**3 - 3.0 * num * dp / p**4) * x2 * model.quad_weights / model.V


def pair_product_table(model):
    """The N^2 x Q table of the full-Gram moment family, row k holding
    Re sum_ab E_k[a, b] s_a conj(s_b) * ref_weight for the hermitian basis
    E_k, summed over a from the section values."""
    n = model.N
    basis = hermitian_basis(n)
    sect = model.sections
    table = np.zeros((n * n, model.Q))
    for a in range(n):
        pa = sect[a] * sect.conj()
        table += basis[:, a].real @ pa.real - basis[:, a].imag @ pa.imag
    return table * model.ref_weight


def legendre_table_lpmv(x, lmax, mmax):
    """Normalised associated Legendre values from ``scipy.special.lpmv`` times
    the normalisation sqrt((2l+1)(l-m)!/(l+m)!), shape
    (mmax+1, lmax+1, len(x)); lpmv overflows at high degree and order,
    leaving inf or nan there."""
    table = np.zeros((mmax + 1, lmax + 1, x.size))
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(mmax + 1):
            l = np.arange(m, lmax + 1)
            log_norm = 0.5 * (np.log(2 * l + 1) + gammaln(l - m + 1) - gammaln(l + m + 1))
            table[m, m:] = lpmv(m, l[:, None], x) * np.exp(log_norm)[:, None]
    return table

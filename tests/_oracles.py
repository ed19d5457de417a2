"""Independent oracles used by the tests: direct quadrature of defining
integrals and Monte Carlo estimators.  These deliberately avoid the closed
forms and analytic shortcuts used by the production code."""

import math

import numpy as np
import scipy.sparse as sparse
from scipy.special import gammaln, lpmv

from hilbfs import HermitianForm, fs_metric, hilb
from hilbfs.linalg import HermitianCoords
from hilbfs.moments import section_squares
from hilbfs.pushforward import _dpsi0_table, _psi_t_jacobian, _synthesis

# the 2 x 2 identity's matrix JSON with one field that numpy cannot read as
# a form: a ragged re, a non-numeric entry and a non-integer n; then an n
# that int() would truncate to the arrays' size: 2.7 with 2 x 2 arrays, and
# true with 1 x 1 ones
_IDENTITY_JSON = {"n": 2, "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
MALFORMED_MATRIX_JSON = [
    {**_IDENTITY_JSON, "re": [[1.0, 0.0], [0.0]]},
    {**_IDENTITY_JSON, "im": [[0.0, "x"], [0.0, 0.0]]},
    {**_IDENTITY_JSON, "n": "two"},
    {**_IDENTITY_JSON, "n": 2.7},
    {"n": True, "re": [[1.0]], "im": [[0.0]]},
]
MALFORMED_IDS = ["ragged", "non-numeric", "non-integer-n", "fractional-n", "boolean-n"]


def hermitian_basis(n):
    """The elements E_a of ``HermitianCoords.full(n)`` as a dense
    (n^2, n, n) stack."""
    return HermitianCoords.full(n).matrix(np.eye(n * n))


def squaring_table(b):
    """The table of dB -> dA = B dB + dB B, the derivative of A = B^2 at the
    array B: vec(B X + X B) = table @ vec(X) with vec row-major, so the psi
    Jacobian in B is ``_psi_t_jacobian`` at A chained with its ``of_map``."""
    eye = np.eye(len(b))
    return np.kron(b, eye) + np.kron(eye, b.T)


def traceless_basis(n):
    """A dense orthonormal basis of the traceless hermitian n x n matrices,
    (n^2 - 1, n, n): the Helmert diagonals diag(1, ..., 1, -r, 0, ...)
    / sqrt(r (r + 1)), 0 < r < n, then the off-diagonal elements of
    ``hermitian_basis``."""
    diag = np.zeros((n - 1, n, n), dtype=complex)
    for r in range(1, n):
        diag[r - 1, np.arange(r), np.arange(r)] = 1.0
        diag[r - 1, r, r] = -r
        diag[r - 1] /= np.sqrt(r * (r + 1))
    return np.concatenate([diag, hermitian_basis(n)[n:]])


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


def ellipsis_cells(kernel, a, parts):
    """The pairing kernel's cell table of the hermitian a (..., n, n),
    scattered by its own index tables through Ellipsis indexing, one
    expression for one form and for a stack."""
    lead, n = a.shape[:-2], kernel._n
    rows = 1 if parts == 1 else 4
    src = np.ascontiguousarray(a, dtype=complex).reshape(lead + (n * n,)).view(float)
    table = np.zeros(lead + (rows * (2 * n - 1) * (2 * n + 1),))
    (src1, mult1, cell1), (src2, mult2, cell2) = kernel._scatter[parts]
    table[..., cell1] = src[..., src1] * mult1
    table[..., cell2] += src[..., src2] * mult2
    return table.reshape(lead + (rows, 2 * n - 1, 2 * n + 1))


def ellipsis_gram(kernel, w):
    """The pairing kernel's Gram of the real node weights w (..., Q),
    gathered from its ``analysis`` through Ellipsis indexing."""
    lead, (cos_cell, sin_cell) = w.shape[:-1], kernel._gram_cells
    cells = kernel.analysis(w).reshape(lead + (-1,))
    g = np.empty(lead + (kernel._n, kernel._n), complex)
    g.real = cells[..., cos_cell]
    g.imag = cells[..., sin_cell] * kernel._gram_sign
    return g


def bergman_hilb_weights(model, h):
    """Node weights of hilb(fs_metric(H)) formed from two syntheses, as the
    metric weight rw exp(-u), u = log(P rw), times the curvature volume
    (P P_zzbar - |P_z|^2) / P^2 (1+|z|^2)^2 qw / (kV), with P = s* H^{-1} s
    and its derivatives from the section rows."""
    p, pz, pzz = pairing_sums(model, np.linalg.inv(h))
    p, pzz = p.real, pzz.real
    u = np.log(p * model.ref_weight)
    dens = (p * pzz - np.abs(pz) ** 2) / p**2 * (1.0 + np.abs(model.nodes) ** 2) ** 2
    return model.ref_weight * np.exp(-u) * dens * model.quad_weights / (model.k * model.V)


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
    Re sum_ab E_k[a, b] conj(s_a) s_b * ref_weight for the hermitian basis
    E_k, summed over a from the section values."""
    n = model.N
    basis = hermitian_basis(n)
    sect = model.sections
    table = np.zeros((n * n, model.Q))
    for a in range(n):
        pa = sect[a].conj() * sect
        table += basis[:, a].real @ pa.real - basis[:, a].imag @ pa.imag
    return table * model.ref_weight


def moment_jacobian(model, ew):
    """sum_q g_a g_b ew for the rows g_a of ``pair_product_table``, the
    full-Gram moment Jacobian by its defining sum over the nodes."""
    table = pair_product_table(model)
    return (table * ew) @ table.T


def of_hankel(coords, grams):
    """tr(E_a L(E_b)) for L(X)[i, j] = sum_p sum_kl G_p[i + l, j + k]
    W_p[k, l] X[k, l], W = (1, 2l, kl), of a stack of three complex Grams of
    size 2n - 1: the real part of conj(v) v' W_p G_p[i + l, j + k] summed
    over the slots (i, j), v of E_a and (k, l), v' of E_b, through a CSR
    operator whose row (a, b) holds, per slot pair (0, 0), (0, 1), (1, 0),
    (1, 1) and Gram p, one weight and one float of G_p, none merged."""
    size, n, m = len(coords), coords.n, 2 * coords.n - 1
    row, col = np.divmod(coords._index.reshape(2, -1), n)
    conj_v = coords._weight.reshape(2, -1)
    data = np.empty((size, size, 4, 3))
    indices = np.empty((size, size, 4, 3), dtype=np.int32)
    for pair, (s, t) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        cell = (row[s, :, None] + col[t]) * m + col[s, :, None] + row[t]
        c = conj_v[s, :, None] * conj_v[t].conj()
        # Re(c g) is c Re g for a real c and -Im c Im g for an imaginary one
        imag = c.real == 0
        coef = np.where(imag, -c.imag, c.real)
        for p, weight in enumerate((1, 2 * col[t], row[t] * col[t])):
            data[:, :, pair, p] = coef * weight
            indices[:, :, pair, p] = 2 * (p * m * m + cell) + imag
    indptr = np.arange(0, size * size * 12 + 1, 12, dtype=np.int32)
    op = sparse.csr_array(
        (data.reshape(-1), indices.reshape(-1), indptr), shape=(size * size, 6 * m * m)
    )
    grams = np.ascontiguousarray(grams, dtype=complex)
    return (op @ grams.reshape(-1).view(float)).reshape(size, size)


def gram_route_jacobian(model, a, t, coords):
    """``_psi_t_jacobian`` at 0 < t <= 1 by way of the Grams: the doubled
    kernel's ``gram`` of the four weights f_0, Re f_1, Im f_1 and f_2, the
    shifted stack (G_0, G_1, G_2), G_1 = G(Re f_1) + i G(Im f_1), read at
    (i+b, j+a) with the weights (1, 2b, ab) by ``of_hankel``, and then the
    same trace part and dpsi0 term."""
    n, doubled = model.N, model._theta_fourier(doubled=True)
    m, (p, pz_re, pz_im, pzz), num, c = _synthesis(model, a)
    g0, g1_re, g1_im, g2 = doubled.gram(np.stack([pzz - 3.0 * num / p, -pz_re, pz_im, p]) * c)
    grams = np.zeros((3,) + g0.shape, dtype=complex)
    grams[0], grams[2, 1:, 1:] = g0, g2[:-1, :-1]
    grams[1, 1:] = g1_re[:-1] + 1j * g1_im[:-1]
    jac = of_hankel(coords, grams)
    trm = np.real(np.trace(m))
    jac -= np.outer(coords.of(m / trm), jac[:n].sum(axis=0))
    jac *= t / trm
    if t < 1.0:
        jac += (1.0 - t) * coords.of_map(_dpsi0_table(a))
    return jac


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


def balancing_loop(model, h0, iters):
    """The balancing iteration as a plain loop, each step on a fresh form:
    H_{r+1} = hilb(fs_metric(H_r)), scaled to unit determinant by its
    eigenvalues, with the trace defect |tr(H_r^{-1} H_{r+1}) - N| by an LU
    solve.  Returns the unit-determinant matrices H_0..H_iters and the
    defects of steps 1..iters."""

    def unit_det(mat):
        return mat * np.exp(-np.mean(np.log(np.linalg.eigvalsh(mat))))

    forms = [unit_det(h0.mat)]
    defects = []
    for _ in range(iters):
        nxt = hilb(model, fs_metric(model, HermitianForm(forms[-1]))).mat
        defects.append(abs(np.trace(np.linalg.solve(forms[-1], nxt)).real - model.N))
        forms.append(unit_det(nxt))
    return forms, defects


def balancing_spectrum(K):
    """The eigenvalues lambda_l = (1 + l(l+1)/K) K!(K+1)! / ((K-l)!(K+l+1)!)
    of the linearised balancing map at the balanced form, l = 1..K, each
    repeated 2l + 1 times and sorted: N^2 - 1 values for N = K + 1, the
    traceless directions (l = 0 is the scale)."""
    lam = [
        (1.0 + l * (l + 1) / K)
        * math.factorial(K) * math.factorial(K + 1)
        / (math.factorial(K - l) * math.factorial(K + l + 1))
        for l in range(1, K + 1)
    ]
    return np.sort(np.repeat(lam, 2 * np.arange(1, K + 1) + 1))


def psi_jacobian_chain(model):
    """The psi Jacobian at the balanced form read as the linearised
    balancing map, by the chain rule and no finite differences.

    With H_b = diag(1/C(K, i)) and A = B^2 = c H_b^{-1} at unit trace, psi
    is proportional to hilb(fs_metric(A^{-1})), so psi = P = H_b / tr H_b.
    A traceless X moves H by dH = H_b^{1/2} X H_b^{1/2}, so A moves by
    dA = -c H_b^{-1} dH H_b^{-1}, less its scale part (tr dA / tr A) A,
    which psi does not see.  ``_psi_t_jacobian`` at t = 1 takes dA to dpsi,
    read as Y = P^{-1/2} dpsi P^{-1/2}.  Returns the
    real matrix of X -> Y in the coordinates of ``traceless_basis``.  Unlike
    the other oracles it runs the code under test, whose spectrum the caller
    compares with the closed form ``balancing_spectrum``."""
    n = model.N
    K = n - 1
    h = np.array([1.0 / math.comb(K, i) for i in range(n)])
    root = np.sqrt(h)
    a = np.diag(1.0 / h)
    c = 1.0 / np.trace(a)
    a *= c
    basis, coords = traceless_basis(n), HermitianCoords.full(n)
    da = -c * basis / (root[:, None] * root)
    da -= np.trace(da, axis1=1, axis2=2).real[:, None, None] * a
    jac = _psi_t_jacobian(model, a, 1.0, coords)
    dpsi = coords.matrix((jac @ coords.of(da).T).T)
    p_root = np.sqrt(np.sum(h)) / root
    return np.einsum("aij,bji->ab", basis, p_root[:, None] * dpsi * p_root).real


def probe_rows(model, g, rho):
    """Node weights w_i = rho_i^8 qw / max_j m_ij of the probe densities as
    an N x Q table, and their moments m_ij / max_j m_ij, m_ij = sum_q w_i g_j,
    from the full N x Q tables of the squares g and of rho = g / sum_j g_j."""
    w = np.square(rho)
    w *= w
    w *= w
    w *= model.quad_weights
    moments = w @ g.T
    peak = moments.max(axis=1, keepdims=True)
    w /= peak
    moments /= peak
    return w, moments


def audit_tables(model, frame, f, d_sq):
    """The injectivity audit's node integrals from full N x Q tables: the
    squares g of the frame's sections and rho = g / sum_j g_j, then the row
    peaks max_q rho_i, the probe rows' Lambda and weights W (``probe_rows``),
    F = (W o f) g^T, and the largest deviation of the reconstruction
    sum_i d_i^{-2} g_i / sum_i g_i from 1 + f.
    Returns (peaks, Lambda, F, deviation)."""
    g = section_squares(model, frame)
    total = g.sum(axis=0)
    rho = g / total
    w, lam = probe_rows(model, g, rho)
    deviation = float(np.abs(((1.0 / d_sq) @ g) / total - (1.0 + f)).max())
    return rho.max(axis=1), lam, (w * f) @ g.T, deviation

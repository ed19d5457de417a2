"""The four benchmark workloads: seeded input generators, items and gates.

Every generator draws from its own ``numpy`` generator seeded by
(seed, k), so a workload's inputs depend only on the seed and the item
count.  Inputs are dropped only for reasons stated here (a generating form
whose own ``hilb`` fails the mass audit, a condition or Hankel filter),
never because the pipeline under test failed on them.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-8  # forward-residual gate of every item


def grid(k):
    """The 2x resolved grid, passed explicitly so default changes do not move it."""
    return {"radial_nodes": 2 * (2 * k + 4), "azimuthal_nodes": 2 * (4 * k + 4)}


def random_form(n, rng, cond, exact=False):
    """Hermitian PD matrix with condition <= cond (== cond when ``exact``)."""
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(x)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    ev = rng.uniform(1.0, cond, size=n)
    if exact:
        ev[:2] = (1.0, cond)
    return (q * ev) @ q.conj().T


def hankel_min(m):
    """Smallest eigenvalue of the two Stieltjes Hankel matrices of m_0..m_{n-1}."""
    n = m.size
    k0, k1 = (n - 1) // 2 + 1, n // 2
    h0 = np.array([[m[i + j] for j in range(k0)] for i in range(k0)])
    h1 = np.array([[m[i + j + 1] for j in range(k1)] for i in range(k1)])
    return min(np.linalg.eigvalsh(h0).min(), np.linalg.eigvalsh(h1).min())


def sphere_coords(model):
    x3 = 1.0 - 2.0 * model.t
    rho = 2.0 * np.sqrt(model.t * (1.0 - model.t))
    return rho * np.cos(model.theta), rho * np.sin(model.theta), x3


class Workload:
    name = ""
    ladder = ()
    uses_laplacian = False
    # items per round at each ladder size; the median item falls in the middle
    # size's block, so more items there steady the median
    per_round = ()
    # seconds per round when this benchmark was added: the scaled item times
    # plus the reference readings between items
    round_s = 1.0

    def generate(self, hb, model, rng, count, stats):
        raise NotImplementedError

    def run(self, hb, model, inp):
        raise NotImplementedError

    def check(self, hb, model, inp, out):
        """Returns None when the item passes, else the reason it failed."""
        raise NotImplementedError


class SurjectFull(Workload):
    """surject_full on targets hilb(fs_metric(H)), H of condition <= 6."""

    name = "surject-full"
    ladder = (2, 4, 6)
    per_round = (1, 3, 1)
    uses_laplacian = True
    round_s = 6.75

    def generate(self, hb, model, rng, count, stats):
        out = []
        while len(out) < count:
            h = hb.HermitianForm(random_form(model.N, rng, 6.0))
            try:
                g = hb.hilb(model, hb.fs_metric(model, h))
            except hb.MassDefectError:
                stats["dropped_mass_audit"] += 1
                continue
            if g.cond() > 10.0:
                stats["dropped_condition"] += 1
                continue
            out.append(g)
        return out

    def run(self, hb, model, g):
        return hb.surject_full(model, g)

    def check(self, hb, model, g, out):
        metric, report = out
        dev = float(np.abs(hb.hilb(model, metric).mat - g.mat).max())
        if not dev <= TOL:
            return f"forward deviation {dev:.3e}"
        if not report.positivity_margin > 0.0:
            return f"positivity margin {report.positivity_margin}"
        return None


class SurjectReject(Workload):
    """surject_full on unit-trace targets of condition 3 whose diagonal fails
    the Stieltjes Hankel test, so no metric realises them."""

    name = "surject-reject"
    ladder = (3,)
    per_round = (1,)
    round_s = 3.3

    def generate(self, hb, model, rng, count, stats):
        out = []
        while len(out) < count:
            g = random_form(model.N, rng, 3.0, exact=True)
            g = g / np.trace(g).real
            if not hankel_min(np.diagonal(g).real) < -1e-9:
                stats["dropped_hankel_feasible"] += 1
                continue
            out.append(hb.HermitianForm(g))
        return out

    def run(self, hb, model, g):
        try:
            return hb.surject_full(model, g)
        except hb.StageError as exc:
            return exc

    def check(self, hb, model, g, out):
        if not isinstance(out, hb.StageError):
            return "out-of-range target was accepted"
        if out.stage != "pushforward-continuation":
            return f"rejected in stage {out.stage!r}"
        return None


class BalanceAudit(Workload):
    """20 balancing iterations from a condition-3 form, then the injectivity
    audit of a pair H, H' = L (I + 1e-3 P) L*."""

    name = "balance-audit"
    ladder = (4, 8, 16)
    per_round = (1, 1, 1)
    round_s = 1.33
    iterations = 20
    scale = 1e-3

    def generate(self, hb, model, rng, count, stats):
        out = []
        n = model.N
        for _ in range(count):
            h0 = hb.HermitianForm(random_form(n, rng, 3.0))
            h = random_form(n, rng, 10.0)
            p = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            p = 0.5 * (p + p.conj().T)
            p = p / np.abs(np.linalg.eigvalsh(p)).max()
            lh = np.linalg.cholesky(h)
            h2 = lh @ (np.eye(n) + self.scale * p) @ lh.conj().T
            out.append((h0, hb.HermitianForm(h), hb.HermitianForm(h2)))
        return out

    def run(self, hb, model, inp):
        h0, h, h2 = inp
        trace = hb.t_iterate(model, h0, max_iters=self.iterations, tol=0.0)
        return trace, hb.verify_injectivity(model, h, h2)

    def check(self, hb, model, inp, out):
        trace, report = out
        if len(trace.steps) != self.iterations + 1:
            return f"{len(trace.steps) - 1} iterations"
        worst = max(s.trace_defect for s in trace.steps[1:])
        if not worst <= TOL * model.N:
            return f"trace defect {worst:.3e}"
        if report.status not in ("verified", "hypothesis not met"):
            return f"audit status {report.status!r}"
        if not report.route_agreement <= TOL:
            return f"route agreement {report.route_agreement:.3e}"
        return None


class SurjectFixed(Workload):
    """surject_fixed_volume (fixed variant) on targets hilb_nu of a grid
    metric whose potential is a random quadratic in the sphere coordinates."""

    name = "surject-fixed"
    ladder = (4, 8, 12)
    # a k=12 item takes about 5 s, so a run holds only three; eight k=8 items
    # a round put both the median and the tail inside the k=8 block
    per_round = (1, 8, 1)
    round_s = 10.7

    def generate(self, hb, model, rng, count, stats):
        x1, x2, x3 = sphere_coords(model)
        terms = np.array([x1, x2, x3, x1 * x2, x1 * x3, x2 * x3, x1**2 - x2**2,
                          3.0 * x3**2 - 1.0])
        nu = hb.reference_density(model)
        out = []
        for _ in range(count):
            u = rng.normal(0.0, 0.3, size=terms.shape[0]) @ terms
            g = hb.hilb_nu(model, hb.MetricWeight.grid(u), hb.FIXED, nu)
            out.append((g, nu))
        return out

    def run(self, hb, model, inp):
        g, nu = inp
        return hb.surject_fixed_volume(model, g, variant=hb.FIXED, nu=nu)

    def check(self, hb, model, inp, out):
        g, nu = inp
        metric, _ = out
        resid = float(np.abs(hb.hilb_nu(model, metric, hb.FIXED, nu).mat - g.mat).max())
        if not resid <= TOL:
            return f"forward residual {resid:.3e}"
        return None


WORKLOADS = {w.name: w for w in (SurjectFull(), SurjectReject(), BalanceAudit(),
                                 SurjectFixed())}

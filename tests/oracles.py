"""Independent brute-force reference implementations used only by the tests.

Everything here is written as plain loops over the defining sums and
integrals, deliberately sharing no code with the package internals.
"""

import numpy as np


def _split(state, bipartition):
    """Raw amplitudes rearranged to (member block, complement block) plus the
    flattened per-block weight vectors."""
    order = tuple(bipartition.members) + tuple(bipartition.complement)
    arr = np.transpose(state.amplitudes, order)
    wm = 1.0
    for k in bipartition.members:
        wm = np.multiply.outer(wm, state.axes[k].weights)
    wr = 1.0
    for k in bipartition.complement:
        wr = np.multiply.outer(wr, state.axes[k].weights)
    wm = np.atleast_1d(np.asarray(wm)).reshape(-1)
    wr = np.atleast_1d(np.asarray(wr)).reshape(-1)
    return arr.reshape(wm.size, wr.size), wm, wr


def direct_concurrence(state, bipartition):
    """Quadruple sum of |phi(a,x) phi(b,y) - phi(a,y) phi(b,x)|^2 with weights,
    the literal discretization of the wedge-integral definition."""
    F, wm, wr = _split(state, bipartition)
    gm, gr = F.shape
    total = 0.0
    for a in range(gm):
        for b in range(gm):
            for x in range(gr):
                for y in range(gr):
                    d = F[a, x] * F[b, y] - F[a, y] * F[b, x]
                    total += (abs(d) ** 2) * wm[a] * wm[b] * wr[x] * wr[y]
    return total


def lambda_gap(state, bipartition):
    """Largest |Phi(X) - Phi(Lambda X)| over the doubled grid of raw
    amplitudes: Phi[(a,b),(c,d)] = F[a,b] F[c,d], swapped to F[c,b] F[a,d]."""
    F, _, _ = _split(state, bipartition)
    gm, gr = F.shape
    gap = 0.0
    for a in range(gm):
        for c in range(gm):
            for b in range(gr):
                for d in range(gr):
                    gap = max(gap, abs(F[a, b] * F[c, d] - F[c, b] * F[a, d]))
    return gap


def family_p_norm(state, bipartition, p):
    """Integral over slice pairs (a, b) of the weighted p-norm (p = 1 or inf)
    of the wedge of F[a] and F[b] over ordered complement pairs y > x."""
    F, wm, wr = _split(state, bipartition)
    gm, gr = F.shape
    total = 0.0
    for a in range(gm):
        for b in range(gm):
            norm = 0.0
            for x in range(gr):
                for y in range(x + 1, gr):
                    d = abs(F[a, x] * F[b, y] - F[a, y] * F[b, x])
                    norm = norm + d * wr[x] * wr[y] if p == 1 else max(norm, d)
            total += norm * wm[a] * wm[b]
    return total


def overlap_concurrence(state, bipartition):
    """2 [1 - sum over |K(a, b)|^2] with K the weighted slice overlap kernel."""
    F, wm, wr = _split(state, bipartition)
    gm = F.shape[0]
    acc = 0.0
    for a in range(gm):
        for b in range(gm):
            k = np.sum(F[a] * np.conj(F[b]) * wr)
            acc += (abs(k) ** 2) * wm[a] * wm[b]
    return 2.0 * (1.0 - acc)


def purity_brute(state, bipartition):
    """Tr(rho_M^2) from the explicit reduced kernel, double loop."""
    F, wm, wr = _split(state, bipartition)
    gm = F.shape[0]
    rho = np.zeros((gm, gm), dtype=complex)
    for a in range(gm):
        for b in range(gm):
            rho[a, b] = np.sum(F[a] * np.conj(F[b]) * wr)
    acc = 0.0
    for a in range(gm):
        for b in range(gm):
            acc += (abs(rho[a, b]) ** 2) * wm[a] * wm[b]
    return acc


def dense_density(state):
    """Full pure density matrix over the linearized grid with sqrt-weight
    symmetric scaling, built index by index."""
    amp = state.amplitudes.reshape(-1)
    w = 1.0
    for ax in state.axes:
        w = np.multiply.outer(w, ax.weights)
    w = np.atleast_1d(np.asarray(w)).reshape(-1)
    psi = amp * np.sqrt(w)
    return np.outer(psi, np.conj(psi))


def wigner_numeric(gaussian, x, p, points=96):
    """Wigner transform by direct quadrature of its defining integral:
    (1/pi)^n int psi*(x+y) psi(x-y) exp(2i p.y) d^n y."""
    from cvconc import evaluate_gaussian, gauss_hermite_rule

    n = gaussian.n
    scales = 1.0 / np.sqrt(np.diag(gaussian.A.real))
    rule = gauss_hermite_rule(points, scales)
    mesh = np.meshgrid(*rule.nodes, indexing="ij")
    y = np.stack(mesh, axis=-1)
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    vals = np.conj(evaluate_gaussian(gaussian, x + y)) * evaluate_gaussian(gaussian, x - y)
    vals = vals * np.exp(2j * np.tensordot(y, p, axes=([-1], [0])))
    w = np.ones(())
    for wi in rule.weights:
        w = np.multiply.outer(w, wi)
    return complex(np.sum(vals * w)) / np.pi**n

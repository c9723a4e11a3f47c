"""Independent brute-force reference implementations used only by the tests.

Everything here is written as plain loops over the defining sums and
integrals, deliberately sharing no code with the package internals, except
`wigner_numeric`, which samples through the public Gaussian evaluator, and
`route_d_kernel`, which sums through the wedge kernel that test_wedge.py
checks minor by minor against a loop.
"""

import math

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


def family_p_norm(state, bipartition, p, f=lambda x: x):
    """Integral over slice pairs (a, b) of f of the weighted p-norm (p = 1, 2
    or inf) of the wedge of F[a] and F[b] over ordered complement pairs y > x.
    f may return an array of values, one integral each. The sums are
    math.fsum, so the reference carries no summation round-off of its own."""
    F, wm, wr = _split(state, bipartition)
    gm, gr = F.shape
    terms = []
    for a in range(gm):
        for b in range(gm):
            parts = [0.0]
            for x in range(gr):
                for y in range(x + 1, gr):
                    d = abs(F[a, x] * F[b, y] - F[a, y] * F[b, x])
                    if p == 1:
                        parts.append(d * wr[x] * wr[y])
                    elif p == 2:
                        parts.append(d * d * wr[x] * wr[y])
                    else:
                        parts[0] = max(parts[0], d)
            norm = math.fsum(parts)
            terms.append(f(np.sqrt(norm) if p == 2 else norm) * wm[a] * wm[b])
    terms = np.array(terms)
    sums = [math.fsum(column) for column in terms.reshape(len(terms), -1).T]
    return np.array(sums).reshape(terms.shape[1:])[()]


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


def dense_partial_transpose(G, tilde=False):
    """Partial transpose of the pure kernel of a weighted block matrix G,
    entry by entry over row-major (member, complement) index pairs:
    rho_PT[(a,b),(c,d)] = G[a,d] conj(G[c,b]), and G[a,d] G[c,b] for the
    conjugation-free rho~_PT."""
    gm, gr = G.shape
    out = np.zeros((gm * gr, gm * gr), dtype=complex)
    for a in range(gm):
        for b in range(gr):
            for c in range(gm):
                for d in range(gr):
                    other = G[c, b] if tilde else np.conj(G[c, b])
                    out[a * gr + b, c * gr + d] = G[a, d] * other
    return out


def dense_ppt_min(G):
    """Smallest eigenvalue of the dense rho_PT of G by a Hermitian eigensolver."""
    pt = dense_partial_transpose(G)
    return float(np.linalg.eigvalsh((pt + pt.conj().T) / 2.0)[0])


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


def overlap_route_einsum(G):
    """Route B as the full member-side overlap kernel: 2 [1 - ||G G^H||_F^2],
    the gm x gm kernel formed whole by einsum."""
    K = np.einsum("ax,bx->ab", G, G.conj())
    return 2.0 * (1.0 - float(np.sum(np.abs(K) ** 2)))


def lambda_route_rows(G):
    """Route Lambda as the doubled-grid overlap <Phi, Phi o Lambda>
    accumulated one member row at a time; the member-block swap turns the
    doubled index (a,b,c,d) into (c,b,a,d)."""
    Gc = G.conj()
    inner = 0.0 + 0.0j
    for a in range(G.shape[0]):
        m1 = Gc * G[a][None, :]   # m1[c, b] = G[a, b] * conj(G[c, b])
        m2 = G * Gc[a][None, :]   # m2[c, d] = G[c, d] * conj(G[a, d])
        inner += complex(np.sum(m1.sum(axis=1) * m2.sum(axis=1)))
    return 2.0 * (1.0 - inner.real)


def schmidt_e2(state, bipartition):
    """2 [1 - sum sigma_i^4] from the singular values of the weighted,
    normalized member x complement matrix."""
    F, wm, wr = _split(state, bipartition)
    G = F * np.sqrt(np.outer(wm, wr))
    sigma = np.linalg.svd(G / np.linalg.norm(G), compute_uv=False)
    return 2.0 * (1.0 - float(np.sum(sigma**4)))


def witness_quadruple_dense(G):
    """The witness search over the whole gmbar x gmbar matrix of wedge
    magnitudes |T - T^T|^2, T = G_a (x) G_b: a is the row of largest norm, b
    the row of largest wedge norm with it, and (x, y) the first largest entry
    in row-major order, which lies above the diagonal."""
    norms = np.sum(np.abs(G) ** 2, axis=1)
    a = int(np.argmax(norms))
    overlaps = G @ G[a].conj()
    b = int(np.argmax(norms[a] * norms - np.abs(overlaps) ** 2))
    T = np.outer(G[a], G[b])
    mag = np.abs(T - T.T) ** 2
    x, y = np.unravel_index(int(np.argmax(mag)), mag.shape)
    return (a, b, int(x), int(y)), float(mag[x, y])


def route_d_kernel(G):
    """Route D as the sum of the squared entries of rho~ - rho~^Gamma,
    G[a,b] G[c,d] - G[c,b] G[a,d]: the 2x2 minors of G, formed by the wedge
    kernel with the column pairs (b, d) as the row pairs of G^T. Pairs with
    b = d or a = c vanish and swaps keep |entry|, hence 4."""
    from cvconc.wedge import _wedge_blocks

    return 4.0 * sum(np.vdot(d, d).real
                     for _, _, chunks in _wedge_blocks(G.T) for _, _, d in chunks)


def pairs_by_search(n, start, stop):
    """Pairs i < j < n numbered start..stop-1 row by row, each number's row
    found by a binary search over the first numbers of all rows."""
    rows = np.arange(n - 1)
    first = rows * (2 * n - 1 - rows) // 2
    p = np.arange(start, stop)
    i = np.searchsorted(first, p, side="right") - 1
    return i, p - first[i] + i + 1


def gaussian_on_mesh(gaussian, nodes, weights):
    """A Gaussian's amplitudes on the full coordinate mesh of a product rule,
    pointwise, and their mass sum |amp|^2 w with the full array of node
    weights: (amp, mass, s), s the sum of the magnitudes of the terms of
    x^T A x / 2 at each node, which bounds the round-off of the exponent."""
    from cvconc import evaluate_gaussian

    mesh = np.stack(np.meshgrid(*nodes, indexing="ij"), axis=-1)
    amp = evaluate_gaussian(gaussian, mesh)
    w = np.ones(())
    for wk in weights:
        w = np.multiply.outer(w, wk)
    s = 0.5 * np.einsum("...i,ij,...j->...", np.abs(mesh), np.abs(gaussian.A), np.abs(mesh))
    return amp, float(np.sum(np.abs(amp) ** 2 * w)), s
